"""Exception types shared across the package."""

from __future__ import annotations


class ContractViolation(ValueError):
    """An operation was called with arguments that violate its contract."""


class GridMismatch(ContractViolation):
    """Operands live on incompatible (theta, x) grids."""


class CapViolation(ContractViolation):
    """A kernel profile exceeds its sup cap; the message names the inequality."""


class IntegrationFailure(RuntimeError):
    """Time stepping produced a non-finite state.

    ``step_index`` is the 1-based index of the step whose output first
    failed the finiteness check, ``t`` the time it reached, and ``row`` the
    index of the failed history in the batch.
    """

    def __init__(self, step_index: int, t: float, row: int):
        self.step_index = int(step_index)
        self.t = float(t)
        self.row = int(row)
        super().__init__(f"non-finite state after step {self.step_index}")


class ConfigError(ValueError):
    """A run configuration failed validation.

    ``key_path`` is the dotted path of the offending entry, e.g.
    ``"kernel.M_xi"``.
    """

    def __init__(self, key_path: str, message: str):
        self.key_path = key_path
        super().__init__(f"{key_path}: {message}")
