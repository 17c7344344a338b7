"""Exception types and the argument contracts shared across the package.

The model's constructors and entry points check each bounded scalar they
take with ``require_int`` or ``require_real``, and the CLI checks its numeric
config keys with the same two functions, so a config value and the Python
argument it feeds are accepted and rejected alike.
"""

from __future__ import annotations

import numbers
import sys

import numpy as np


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


def require_int(name: str, value, minimum: int) -> int:
    """``value`` if it is an int (a bool is not) and at least ``minimum``."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or value < minimum):
        raise ContractViolation(f"{name} must be an int >= {minimum}")
    return value


def require_real(name: str, value, op: str = ">") -> float:
    """``value`` as a float if it is a finite real number (a bool or a str is
    not) that is ``> 0`` (op ">") or ``>= 0`` (op ">=")."""
    # the abs bound rejects nan, inf and ints too large for a float
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not abs(value) <= sys.float_info.max
            or not (value > 0 if op == ">" else value >= 0)):
        raise ContractViolation(f"{name} must be a real number, finite and {op} 0")
    return float(value)


def frozen(values) -> np.ndarray:
    """A read-only float copy of ``values``."""
    arr = np.array(values, dtype=float, order="C")
    arr.setflags(write=False)
    return arr
