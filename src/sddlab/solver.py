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

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
    """Lockstep stepper behind ``evolve``: a (2, B, n_x) buffer whose row 0
    holds the current states ``u`` and row 1 their forcing, so one DST call
    transforms both in place, plus mirror rings of 2(m+1) slots for the
    per-snapshot b values and sign masses the forcing needs.  A new snapshot
    goes to slots ``head`` and ``head + m + 1``, so slots
    ``head:head + m + 1`` always hold the window, oldest first.  The views
    of the windows and slots of every head, of every run of one variant and
    the step's buffers are made once, here."""

    def __init__(self, problem: ProblemSpec, phis: Sequence[HistorySegment],
                 variants: Optional[Sequence[KernelVariant]] = None):
        if not phis:
            raise ContractViolation("phis must hold at least one history")
        if variants is None:
            variants = [problem.variant] * len(phis)
        if len(variants) != len(phis):
            raise ContractViolation("variants must name one variant per history")
        op, m, B = problem.operator, problem.m, len(phis)
        self.problem = problem
        self.tw = theta_weights(problem.r, m)
        self.buf = np.empty((2, B, op.grid_points))
        self.u, self.f = self.buf
        self.f_rows = self.f[:, None]  # the (B, 1, n_x) out of the matmul
        # every row's xi, then tw * xi in place: the (1, m+1) left factor of
        # its matmul
        self.xi = np.empty((B, 1, m + 1))
        self.gate_buf = np.empty((2, B))  # (s_plus, s_minus) of every row
        self.mass_scratch = np.empty((2, B, op.grid_points))
        # maximal runs of one variant, each a slice with its rows of xi and
        # of the gates
        self.runs = []
        start = 0
        for variant, run in itertools.groupby(map(_as_variant, variants)):
            rows = slice(start, start := start + len(list(run)))
            self.runs.append((variant, rows, self.xi[rows, 0],
                              self.gate_buf[0, rows, None],
                              self.gate_buf[1, rows, None]))
        # the rings are filled in place, one history at a time, each
        # history's b values and masses into both mirror halves at once: no
        # stack of the histories and no temporary the size of a ring
        self.b_rows = np.empty((B, 2 * (m + 1), op.grid_points))
        self.masses = np.empty((2, B, 2 * (m + 1)))
        b_halves = self.b_rows.reshape(B, 2, m + 1, op.grid_points)
        mass_halves = self.masses.reshape(2, B, 2, m + 1)
        for i, phi in enumerate(phis):
            if phi.operator != problem.operator:
                raise GridMismatch("initial history uses a different operator grid")
            if phi.m != problem.m or phi.r != problem.r:
                raise GridMismatch("initial history window does not match the kernel")
            if not np.isfinite(phi.values).all():
                raise ContractViolation(f"phis[{i}] is not finite")
            self.u[i] = phi.values[-1]
            # overflow in b on absurd data surfaces as IntegrationFailure later
            with np.errstate(over="ignore", invalid="ignore"):
                b_halves[i] = b_eval(problem.nonlinearity, phi.values)
            mass_halves[:, i] = sign_masses(phi.values, op.h_x)[:, None]
        # per ring head: the b and mass windows, and the b and mass mirror
        # slots the new snapshot goes to
        self.ring = [(self.b_rows[:, head:head + m + 1],
                      self.masses[..., head:head + m + 1],
                      self.b_rows[:, head::m + 1], self.masses[..., head::m + 1])
                     for head in range(m + 1)]
        self.head = 0
        lam = full_discrete_eigenvalues(op)
        h = problem.h
        # the propagator factors of row 0 (E) and row 1 (G) of the buffer
        self.EG = np.stack([np.exp(-lam * h), -np.expm1(-lam * h) / lam])[:, None]

    def forcing(self) -> np.ndarray:
        """Write the (B, n_x) delay forcing of the current windows into row 1
        of the buffer and return it.  Each row is a (1, m+1) @ (m+1, n_x)
        matmul, the product the serial ``delay_term`` oracle in
        tests/reference.py takes, with the xi of its own variant: one
        ``combine_profiles`` call per run of one variant."""
        b_win, mass_win, _, _ = self.ring[self.head]
        gates(self.tw, mass_win, out=self.gate_buf)
        for variant, _, xi, s_plus, s_minus in self.runs:
            xi[...] = combine_profiles(self.problem.kernel, s_plus, s_minus, variant)
        np.matmul(np.multiply(self.tw, self.xi, out=self.xi), b_win, out=self.f_rows)
        return self.f

    def advance(self) -> np.ndarray:
        """Step every row once and return the new current rows, row 0 of the
        buffer.  A row that goes non-finite stays in the stack; the caller
        checks finiteness."""
        self.forcing()
        # in place: pocketfft reads each line before it writes it
        np.multiply(dst(self.buf, out=self.buf), self.EG, out=self.buf)
        self.u += self.f
        idst(self.u, out=self.u)
        # the new snapshot replaces the oldest one, in both mirror slots
        _, _, b_slots, mass_slots = self.ring[self.head]
        b_slots[...] = b_eval(self.problem.nonlinearity, self.u)[:, None]
        mass_slots[...] = sign_masses(self.u, self.problem.operator.h_x,
                                      scratch=self.mass_scratch)[..., None]
        self.head = (self.head + 1) % len(self.ring)
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
    fields: Optional[np.ndarray] = None


def sample_count(steps: int, stride: int) -> int:
    """The samples ``evolve`` takes: step 0, every ``stride``-th step and the
    last step."""
    return len(range(0, steps, stride)) + 1


# steps whose states evolve holds before it takes their extrema and checks
# their finiteness in one go; no result depends on it, and it must not grow
# with ``stride``, since the block holds BLOCK x B x n_x floats
BLOCK = 16


def evolve(problem: ProblemSpec, phis: Sequence[HistorySegment], steps: int,
           stride: int = 10, record_fields: bool = False,
           variants: Optional[Sequence[KernelVariant]] = None,
           observe: Optional[Callable[[int, np.ndarray], None]] = None
           ) -> list[TrajectoryRecord]:
    """Run ``steps`` steps from every history in ``phis`` in lockstep,
    sampling every ``stride`` steps; returns one record per history.
    ``variants`` gives each history its kernel variant (default: every
    history steps under ``problem.variant``).

    ``observe(index, states)``, if given, is called at every sample with the
    sample's index and the read-only (B, n_x) states of every row, a view
    that later steps overwrite: an observer that keeps them must copy them.
    ``record_fields=True`` is the built-in observer that copies them into
    each record's ``fields``; pass it or ``observe``, not both.

    Deterministic and batch invariant: each record is bitwise the record of a
    batch of one.  A row whose state goes non-finite is left behind while the
    others keep stepping; at the end the IntegrationFailure of the lowest
    failed row is raised, the one a loop over the histories would raise first.
    Finiteness is checked once per block of BLOCK steps, so a failure of row
    0 ends stepping at the end of its block, with the same error.  A
    non-finite initial history is a ContractViolation that names its index.
    """
    require_int("steps", steps, 0)
    require_int("stride", stride, 1)
    if record_fields and observe is not None:
        raise ContractViolation("pass record_fields or observe, not both")

    eng = _Engine(problem, phis, variants)
    h = problem.h
    times = []
    fields = [None] * len(phis)
    if record_fields:
        # each row's (n_samples, n_x) states, written in place as they are sampled
        fields = np.empty((len(phis), sample_count(steps, stride), eng.u.shape[1]))

        def observe(index: int, states: np.ndarray):
            fields[:, index] = states

    def sample(k: int, u: np.ndarray):
        if observe is not None:
            states = u.view()
            states.flags.writeable = False
            observe(len(times), states)
        times.append(k * h)

    u = eng.u
    min_overall, max_overall = u.min(axis=1), u.max(axis=1)
    failed_at = np.zeros(len(phis), dtype=int)  # first non-finite step, 0: none
    block = np.empty((BLOCK,) + u.shape)
    rows = np.arange(len(phis))
    # overflow/invalid warnings are redundant: the finiteness check turns
    # any blow-up into IntegrationFailure
    with np.errstate(over="ignore", invalid="ignore"):
        sample(0, u)
        k = 0
        while k < steps and not failed_at[0]:  # no lower row can fail first
            n = min(BLOCK, steps - k)
            for j in range(n):
                k += 1
                block[j] = eng.advance()
                if k % stride == 0 or k == steps:
                    sample(k, block[j])
            # (n, B) per-step extrema; a row is finite iff its extrema are:
            # NaN propagates through both, +inf reaches the max, -inf the min
            u_min, u_max = block[:n].min(axis=2), block[:n].max(axis=2)
            if not np.isfinite(u_max - u_min).all():
                finite = np.isfinite(u_min) & np.isfinite(u_max)
                new = (failed_at == 0) & ~finite.all(axis=0)
                failed_at[new] = (k - n + 1 + finite.argmin(axis=0))[new]
            # the first occurrence along time, then a strict comparison: the
            # fold of Python's min()/max(), signed zeros included
            u_min = u_min[u_min.argmin(axis=0), rows]
            u_max = u_max[u_max.argmax(axis=0), rows]
            min_overall = np.where(u_min < min_overall, u_min, min_overall)
            max_overall = np.where(u_max > max_overall, u_max, max_overall)
    for row, k in enumerate(failed_at):
        if k:
            raise IntegrationFailure(k, k * h, row)

    return [TrajectoryRecord(
        times=np.asarray(times), min_overall=float(min_overall[i]),
        max_overall=float(max_overall[i]), fields=fields[i])
        for i in range(len(phis))]
