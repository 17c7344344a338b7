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
from typing import Optional

import numpy as np
from scipy.fft import dst, idst

from .errors import CertificationError, ContractViolation, GridMismatch, IntegrationFailure
from .history import HistorySegment, theta_weights
from .kernel import (KernelSpec, KernelVariant, _as_variant, combine_profiles,
                     gates, sign_masses)
from .nonlinear import NonlinearitySpec, b_eval
from .spectral import GridField, OperatorSpec, forward, full_discrete_eigenvalues


@dataclass(frozen=True)
class ProblemSpec:
    """Operator, kernel, nonlinearity, and time-stepping layout for one run."""

    operator: OperatorSpec
    kernel: KernelSpec
    nonlinearity: NonlinearitySpec
    variant: KernelVariant = KernelVariant.FULL
    steps: int = 0

    def __post_init__(self):
        object.__setattr__(self, "variant", _as_variant(self.variant))
        if not (isinstance(self.steps, int) and not isinstance(self.steps, bool)
                and self.steps >= 0):
            raise ContractViolation("steps must be an int >= 0")
        if not self.nonlinearity.constants_certified:
            raise CertificationError(
                "nonlinearity constants must be certified before use")

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
    """Rolling-cache stepper behind ``evolve``: the history ring plus the
    per-snapshot b values and sign masses the forcing needs."""

    def __init__(self, problem: ProblemSpec, phi: HistorySegment):
        if phi.operator != problem.operator:
            raise GridMismatch("initial history uses a different operator grid")
        if phi.m != problem.m or phi.r != problem.r:
            raise GridMismatch("initial history window does not match the kernel")
        op = problem.operator
        self.problem = problem
        self.h_x = op.h_x
        self.values = phi.values.copy()
        self.tw = theta_weights(problem.r, problem.m)
        # per-snapshot caches, rolled in lockstep with the history ring;
        # overflow in b on absurd data surfaces as IntegrationFailure later
        with np.errstate(over="ignore", invalid="ignore"):
            self.b_rows = b_eval(problem.nonlinearity, self.values)
        self.w_plus, self.w_minus = sign_masses(self.values, self.h_x)
        lam = full_discrete_eigenvalues(op)
        h = problem.h
        self.E = np.exp(-lam * h)
        self.G = -np.expm1(-lam * h) / lam
        self.step_count = 0

    def current(self) -> np.ndarray:
        return self.values[-1]

    def forcing(self) -> np.ndarray:
        xi = combine_profiles(self.problem.kernel,
                              *gates(self.tw, self.w_plus, self.w_minus),
                              self.problem.variant)
        return (self.tw * xi) @ self.b_rows

    def advance(self) -> np.ndarray:
        # overflow/invalid warnings are redundant: the finiteness check below
        # turns any blow-up into IntegrationFailure
        with np.errstate(over="ignore", invalid="ignore"):
            F = self.forcing()
            a = dst(self.values[-1], type=2)
            u_new = idst(self.E * a + self.G * dst(F, type=2), type=2)
        self.step_count += 1
        if not np.isfinite(u_new).all():
            raise IntegrationFailure(self.step_count)
        self.values[:-1] = self.values[1:]
        self.values[-1] = u_new
        self.b_rows[:-1] = self.b_rows[1:]
        with np.errstate(over="ignore", invalid="ignore"):
            self.b_rows[-1] = b_eval(self.problem.nonlinearity, u_new)
        self.w_plus[:-1] = self.w_plus[1:]
        self.w_minus[:-1] = self.w_minus[1:]
        self.w_plus[-1], self.w_minus[-1] = sign_masses(u_new, self.h_x)
        return u_new


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled trajectory data plus per-step extrema.

    times: sample times t (step 0 and every ``stride`` steps plus the final step)
    low_modes: (n_samples, N_rec) coefficients against e_1 .. e_N_rec
    high_norm: L2 norm of the component above mode N_rec at each sample
    full_norm: full L2 norm at each sample
    min_value: smallest grid value at each sample
    min_overall/max_overall: extrema over every step, not just samples
    fields: optional (n_samples, n_x) raw snapshots
    """

    times: np.ndarray
    low_modes: np.ndarray
    high_norm: np.ndarray
    full_norm: np.ndarray
    min_value: np.ndarray
    min_overall: float
    max_overall: float
    stride: int
    fields: Optional[np.ndarray] = None

    def to_csv_text(self) -> str:
        n_modes = self.low_modes.shape[1]
        header = "t," + ",".join(f"a_{k}" for k in range(1, n_modes + 1)) \
            + ",high_norm,full_norm,min_value"
        lines = [header]
        for i in range(self.times.size):
            cells = [repr(float(self.times[i]))]
            cells += [repr(float(c)) for c in self.low_modes[i]]
            cells += [repr(float(self.high_norm[i])),
                      repr(float(self.full_norm[i])),
                      repr(float(self.min_value[i]))]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def evolve(problem: ProblemSpec, phi: HistorySegment, stride: int = 10,
           record_modes: Optional[int] = None,
           record_fields: bool = False) -> TrajectoryRecord:
    """Run ``problem.steps`` steps, sampling every ``stride`` steps.

    Deterministic: identical inputs produce bitwise-identical records.
    """
    if not (isinstance(stride, int) and not isinstance(stride, bool) and stride >= 1):
        raise ContractViolation("stride must be an int >= 1")
    op = problem.operator
    if record_modes is None:
        record_modes = op.modes
    if not 1 <= record_modes <= op.modes:
        raise ContractViolation("record_modes must be in 1..K")

    eng = _Engine(problem, phi)
    h = problem.h
    times, lows, highs, fulls, mins = [], [], [], [], []
    fields = [] if record_fields else None

    def sample(k: int):
        u = eng.current()
        a = forward(op, GridField(u)).coeffs[:record_modes]
        # a blowing-up state may overflow its norms; advance reports it
        with np.errstate(over="ignore", invalid="ignore"):
            full = float(np.sqrt(op.h_x * np.dot(u, u)))
            high2 = full * full - float(np.dot(a, a))
        times.append(k * h)
        lows.append(a)
        highs.append(np.sqrt(max(high2, 0.0)))
        fulls.append(full)
        mins.append(float(u.min()))
        if fields is not None:
            fields.append(u.copy())

    u0 = eng.current()
    min_overall = float(u0.min())
    max_overall = float(u0.max())
    sample(0)
    for k in range(1, problem.steps + 1):
        u = eng.advance()
        min_overall = min(min_overall, float(u.min()))
        max_overall = max(max_overall, float(u.max()))
        if k % stride == 0 or k == problem.steps:
            sample(k)

    return TrajectoryRecord(
        times=np.asarray(times), low_modes=np.asarray(lows),
        high_norm=np.asarray(highs), full_norm=np.asarray(fulls),
        min_value=np.asarray(mins), min_overall=min_overall,
        max_overall=max_overall, stride=stride,
        fields=None if fields is None else np.asarray(fields))
