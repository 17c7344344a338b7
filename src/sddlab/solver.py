"""Exponential Euler time stepping by the method of steps.

The step size is locked to h = r/m, so each step advances the history ring by
exactly one theta node and no interpolation is ever needed.  The linear part
is integrated exactly in the full n_x-mode discrete sine basis (all modes, not
just the K retained ones): the cell-centered difference Laplacian generates a
positivity-preserving semigroup, which the invariant-cone experiments rely on.

    a_k(t+h) = exp(-lh_k h) a_k(t) + (1 - exp(-lh_k h))/lh_k * F_k(t)

with F the delay forcing frozen at the step start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (ContractViolation, GridMismatch, IntegrationFailure,
                     require_int)
from .history import HistorySegment, theta_weights
from .kernel import (KernelSpec, KernelVariant, _as_variant, combine_profiles,
                     gates, sign_masses)
from .nonlinear import NonlinearitySpec, b_eval
from .spectral import OperatorSpec, dst, full_discrete_eigenvalues, idst


@dataclass(frozen=True)
class ProblemSpec:
    """Operator, kernel, nonlinearity, and kernel variant of a run."""

    operator: OperatorSpec
    kernel: KernelSpec
    nonlinearity: NonlinearitySpec
    variant: KernelVariant = KernelVariant.FULL

    def __post_init__(self):
        object.__setattr__(self, "variant", _as_variant(self.variant))

    @property
    def r(self) -> float:
        return self.kernel.r

    @property
    def m(self) -> int:
        return self.kernel.m

    @property
    def h(self) -> float:
        """Step size; equals the theta spacing of the delay window."""
        return self.kernel.r / self.kernel.m


def steps_for_horizon(kernel: KernelSpec, T: float) -> int:
    """Number of steps covering [0, T]; T must be an integer multiple of h."""
    h = kernel.r / kernel.m
    steps = int(round(T / h))
    if steps < 0 or abs(steps * h - T) > 1e-9 * max(1.0, abs(T)):
        raise ContractViolation(
            f"horizon {T!r} is not an integer multiple of the step h={h!r}")
    return steps


class _Engine:
    """Lockstep stepper behind ``evolve``: the current rows ``u`` (B, n_x) plus
    mirror rings of 2(m+1) slots for the per-snapshot b values and sign masses
    the forcing needs.  A new snapshot goes to slots ``head`` and ``head + m + 1``,
    so slots ``head:head + m + 1`` always hold the window, oldest first."""

    def __init__(self, problem: ProblemSpec, phis: Sequence[HistorySegment],
                 variants: Optional[Sequence[KernelVariant]] = None):
        if variants is None:
            variants = [problem.variant] * len(phis)
        if len(variants) != len(phis):
            raise ContractViolation("variants must name one variant per history")
        # rows by variant; a contiguous group is a slice, which indexes
        # without a copy
        groups = {}
        for i, variant in enumerate(variants):
            groups.setdefault(_as_variant(variant), []).append(i)
        self.groups = [(variant, slice(rows[0], rows[-1] + 1)
                        if rows[-1] - rows[0] == len(rows) - 1 else np.array(rows))
                       for variant, rows in groups.items()]
        for i, phi in enumerate(phis):
            if phi.operator != problem.operator:
                raise GridMismatch("initial history uses a different operator grid")
            if phi.m != problem.m or phi.r != problem.r:
                raise GridMismatch("initial history window does not match the kernel")
            if not np.isfinite(phi.values).all():
                raise ContractViolation(f"phis[{i}] is not finite")
        op = problem.operator
        self.problem = problem
        self.tw = theta_weights(problem.r, problem.m)
        values = np.stack([phi.values for phi in phis])
        self.u = values[:, -1].copy()
        # overflow in b on absurd data surfaces as IntegrationFailure later
        with np.errstate(over="ignore", invalid="ignore"):
            b_rows = b_eval(problem.nonlinearity, values)
        masses = sign_masses(values, op.h_x)
        self.b_rows = np.concatenate([b_rows, b_rows], axis=1)
        self.masses = np.concatenate([masses, masses], axis=-1)
        self.head = 0
        lam = full_discrete_eigenvalues(op)
        h = problem.h
        self.E = np.exp(-lam * h)
        self.G = -np.expm1(-lam * h) / lam

    def forcing(self) -> np.ndarray:
        """(B, n_x) delay forcing of the current windows.  Each row is a
        (1, m+1) @ (m+1, n_x) matmul, the product ``delay_term`` takes, with
        the xi of its own variant: one ``combine_profiles`` call per group."""
        win = slice(self.head, self.head + self.problem.m + 1)
        s_plus, s_minus = gates(self.tw, self.masses[..., win])[..., None]
        xi = np.empty((len(self.u), self.problem.m + 1))
        for variant, rows in self.groups:
            xi[rows] = combine_profiles(self.problem.kernel, s_plus[rows],
                                        s_minus[rows], variant)
        return np.matmul((self.tw * xi)[:, None, :], self.b_rows[:, win])[:, 0]

    def advance(self) -> np.ndarray:
        """Step every row once and return the new current rows.  A row that
        goes non-finite stays in the stack; the caller checks finiteness."""
        # one DST call transforms both the rows and their forcing
        a, f = dst(np.array([self.u, self.forcing()]), type=2)
        self.u = idst(self.E * a + self.G * f, type=2)
        # the new snapshot replaces the oldest one, in both mirror slots
        slots = slice(self.head, None, self.problem.m + 1)
        self.b_rows[:, slots] = b_eval(self.problem.nonlinearity, self.u)[:, None]
        self.masses[..., slots] = sign_masses(self.u, self.problem.operator.h_x)[..., None]
        self.head = (self.head + 1) % (self.problem.m + 1)
        return self.u


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sample times, per-step extrema and, optionally, the sampled states.

    times: sample times t (step 0 and every ``stride`` steps plus the final step)
    min_overall/max_overall: extrema over every step, not just samples
    fields: (n_samples, n_x) states at the sample times, when recorded
    """

    times: np.ndarray
    min_overall: float
    max_overall: float
    stride: int
    fields: Optional[np.ndarray] = None


def evolve(problem: ProblemSpec, phis: Sequence[HistorySegment], steps: int,
           stride: int = 10, record_fields: bool = False,
           variants: Optional[Sequence[KernelVariant]] = None
           ) -> list[TrajectoryRecord]:
    """Run ``steps`` steps from every history in ``phis`` in lockstep,
    sampling every ``stride`` steps; returns one record per history.
    ``variants`` gives each history its kernel variant (default: every
    history steps under ``problem.variant``).

    Deterministic and batch invariant: each record is bitwise the record of a
    batch of one.  A row whose state goes non-finite is left behind while the
    others keep stepping; at the end the IntegrationFailure of the lowest
    failed row is raised, the one a loop over the histories would raise first.
    A non-finite initial history is a ContractViolation that names its index.
    """
    require_int("steps", steps, 0)
    require_int("stride", stride, 1)

    eng = _Engine(problem, phis, variants)
    h = problem.h
    times = []
    # each row's (n_samples, n_x) states, written in place as they are sampled
    fields = (np.empty((len(phis), steps // stride + 1 + (steps % stride > 0),
                        eng.u.shape[1])) if record_fields else [None] * len(phis))

    def sample(k: int, u: np.ndarray):
        if record_fields:
            fields[:, len(times)] = u
        times.append(k * h)

    u = eng.u
    min_overall, max_overall = u.min(axis=1), u.max(axis=1)
    failed_at = np.zeros(len(phis), dtype=int)  # first non-finite step, 0: none
    # overflow/invalid warnings are redundant: the finiteness check turns
    # any blow-up into IntegrationFailure
    with np.errstate(over="ignore", invalid="ignore"):
        sample(0, u)
        for k in range(1, steps + 1):
            u = eng.advance()
            u_min, u_max = u.min(axis=1), u.max(axis=1)
            # a row is finite iff its extrema are: NaN propagates through
            # both, +inf reaches the max and -inf the min
            finite = np.isfinite(u_min) & np.isfinite(u_max)
            if not finite.all():
                failed_at[(failed_at == 0) & ~finite] = k
                if failed_at[0]:  # no lower row is left to fail first
                    break
            # Python's min()/max() semantics, signed zeros included
            min_overall = np.where(u_min < min_overall, u_min, min_overall)
            max_overall = np.where(u_max > max_overall, u_max, max_overall)
            if k % stride == 0 or k == steps:
                sample(k, u)
    for row, k in enumerate(failed_at):
        if k:
            raise IntegrationFailure(k, k * h, row)

    return [TrajectoryRecord(
        times=np.asarray(times), min_overall=float(min_overall[i]),
        max_overall=float(max_overall[i]), stride=stride, fields=fields[i])
        for i in range(len(phis))]
