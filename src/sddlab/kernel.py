"""State-dependent delay kernels.

The kernel acting on a history segment v is

    xi(theta, v) = xi_plus(theta) * min(||v_plus||_L1L1, 1)
                 + xi_minus(theta) * min(||v_minus||_L1L1, 1)

with xi_plus >= 0, xi_minus <= 0 and sup caps |xi_pm| <= M_xi / 2.  The "p"
variant keeps only the plus term, "n" only the minus term; on the positive
cone the minus gate is exactly 0.0, so "full" and "p" agree bitwise there.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (CapViolation, ContractViolation, GridMismatch, frozen,
                     require_int, require_real)
from .history import HistorySegment, _theta_dot, theta_weights


class KernelVariant(str, Enum):
    FULL = "full"
    P = "p"
    N = "n"


def _as_variant(variant) -> KernelVariant:
    if isinstance(variant, KernelVariant):
        return variant
    try:
        return KernelVariant(variant)
    except ValueError:
        raise ContractViolation(f"unknown kernel variant {variant!r}") from None


@dataclass(frozen=True)
class KernelSpec:
    """Kernel profiles sampled on the m+1 theta nodes of the delay window."""

    r: float
    m: int
    xi_plus: np.ndarray
    xi_minus: np.ndarray
    M_xi: float

    def __post_init__(self):
        require_int("m", self.m, 1)
        object.__setattr__(self, "r", require_real("r", self.r))
        object.__setattr__(self, "M_xi", require_real("M_xi", self.M_xi))
        xp, xn = frozen(self.xi_plus), frozen(self.xi_minus)
        for name, arr in (("xi_plus", xp), ("xi_minus", xn)):
            if arr.ndim != 1 or arr.size != self.m + 1:
                raise ContractViolation(f"{name} must have m+1 = {self.m + 1} nodes")
            if not np.isfinite(arr).all():
                raise ContractViolation(f"{name} must be finite")
        if np.any(xp < 0.0):
            raise ContractViolation("xi_plus must be >= 0 at every node")
        if np.any(xn > 0.0):
            raise ContractViolation("xi_minus must be <= 0 at every node")
        half = self.M_xi / 2.0
        if np.abs(xp).max() > half:
            raise CapViolation(
                f"sup|xi_plus| <= M_xi/2 violated: {np.abs(xp).max()!r} > {half!r}")
        if np.abs(xn).max() > half:
            raise CapViolation(
                f"sup|xi_minus| <= M_xi/2 violated: {np.abs(xn).max()!r} > {half!r}")
        object.__setattr__(self, "xi_plus", xp)
        object.__setattr__(self, "xi_minus", xn)


def make_constant_kernel(r: float, m: int, plus_integral: float,
                         minus_integral: float, M_xi: float) -> KernelSpec:
    """Constant-in-theta profiles realizing the requested absolute integrals.

    Levels are plus_integral / r and -minus_integral / r; both integrals are
    taken as absolute targets (>= 0).
    """
    plus_integral = require_real("plus_integral", plus_integral, ">=")
    minus_integral = require_real("minus_integral", minus_integral, ">=")
    r = require_real("r", r)
    require_int("m", m, 1)
    half = require_real("M_xi", M_xi) / 2.0
    cp = plus_integral / r
    cn = minus_integral / r
    if cp > half:
        raise CapViolation(
            f"plus_integral/r <= M_xi/2 violated: {cp!r} > {half!r}")
    if cn > half:
        raise CapViolation(
            f"minus_integral/r <= M_xi/2 violated: {cn!r} > {half!r}")
    return KernelSpec(r=r, m=m,
                      xi_plus=np.full(m + 1, cp),
                      xi_minus=np.full(m + 1, -cn),
                      M_xi=M_xi)


def sign_masses(values: np.ndarray, h_x: float) -> np.ndarray:
    """Per-snapshot masses int v_plus dx and int (-v_minus) dx along the last
    axis, stacked on a new first axis of length 2.

    These expressions fix the bits of the solver's gates, so eval_xi, the
    solver's rolling caches and the Lipschitz sampler all call this function.
    """
    return h_x * np.array([np.maximum(values, 0.0).sum(axis=-1),
                           (-np.minimum(values, 0.0)).sum(axis=-1)])


def gates(tw: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Clipped gates (s_plus, s_minus) = min(||v_pm||_L1L1, 1) from the
    trapezoid weights and the (2, ..., m+1) sign masses; the gates have shape
    (2, ...), each with the bits of one window's gate; a NaN mass clips to 1."""
    return np.fmin(_theta_dot(tw, masses), 1.0)


def combine_profiles(spec: KernelSpec, s_plus, s_minus,
                     variant: KernelVariant) -> np.ndarray:
    """xi(theta_j) for given gate values (scalars, or (B, 1) stacks giving
    (B, m+1)); eval_xi, the solver's forcing and the Lipschitz sampler call it."""
    if variant is KernelVariant.P:
        return spec.xi_plus * s_plus
    if variant is KernelVariant.N:
        return spec.xi_minus * s_minus
    return spec.xi_plus * s_plus + spec.xi_minus * s_minus


def eval_xi(spec: KernelSpec, v: HistorySegment, variant=KernelVariant.FULL) -> np.ndarray:
    """Kernel values on the theta grid for the state v."""
    variant = _as_variant(variant)
    if v.m != spec.m or v.r != spec.r:
        raise GridMismatch(
            f"history window (r={v.r}, m={v.m}) does not match kernel "
            f"(r={spec.r}, m={spec.m})")
    return combine_profiles(
        spec, *gates(theta_weights(spec.r, spec.m),
                     sign_masses(v.values, v.operator.h_x)), variant)


def l11_constant(spec: KernelSpec, variant=KernelVariant.FULL) -> float:
    """L^{1,1} constant of the variant: the relevant profile integrals.

    full -> max(int |xi_plus|, int |xi_minus|); p/n -> own integral.
    """
    variant = _as_variant(variant)
    w = theta_weights(spec.r, spec.m)
    ip = float(np.dot(w, np.abs(spec.xi_plus)))
    im = float(np.dot(w, np.abs(spec.xi_minus)))
    if variant is KernelVariant.P:
        return ip
    if variant is KernelVariant.N:
        return im
    return max(ip, im)
