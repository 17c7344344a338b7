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

from .errors import (CapViolation, ContractViolation, frozen, require_int,
                     require_real)
from .history import _theta_dot, theta_weights


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
        for name, arr in (("xi_plus", xp), ("xi_minus", xn)):
            if (sup := np.abs(arr).max()) > half:
                raise CapViolation(f"sup|{name}| <= M_xi/2 violated: {sup!r} > {half!r}")
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
    for name, level in (("plus_integral", cp), ("minus_integral", cn)):
        if level > half:
            raise CapViolation(f"{name}/r <= M_xi/2 violated: {level!r} > {half!r}")
    return KernelSpec(r=r, m=m,
                      xi_plus=np.full(m + 1, cp),
                      xi_minus=np.full(m + 1, -cn),
                      M_xi=M_xi)


def sign_masses(values: np.ndarray, h_x: float,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """Per-snapshot masses int v_plus dx and int (-v_minus) dx along the last
    axis, stacked on a new first axis of length 2.  Both clipped parts go
    into one ``(2,) + values.shape`` array, ``scratch`` if given (each of its
    two planes contiguous), and one sum reduces them, each row with the bits
    of its own sum.

    These expressions fix the bits of the solver's gates, so the solver's
    rolling caches, the Lipschitz sampler and the serial ``eval_xi`` oracle
    in tests/reference.py all call this function.
    """
    if scratch is None:
        scratch = np.empty((2,) + values.shape)
    np.maximum(values, 0.0, out=scratch[0])
    np.negative(np.minimum(values, 0.0, out=scratch[1]), out=scratch[1])
    return h_x * scratch.sum(axis=-1)


def gates(tw: np.ndarray, masses: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """Clipped gates (s_plus, s_minus) = min(||v_pm||_L1L1, 1) from the
    trapezoid weights and the (2, ..., m+1) sign masses; the gates have shape
    (2, ...), each with the bits of one window's gate, written into ``out``
    if given; a NaN mass clips to 1."""
    return np.fmin(_theta_dot(tw, masses), 1.0, out=out)


def combine_profiles(spec: KernelSpec, s_plus, s_minus,
                     variant: KernelVariant) -> np.ndarray:
    """xi(theta_j) for given gate values (scalars, or (B, 1) stacks giving
    (B, m+1)); the solver's forcing, the Lipschitz sampler and the serial
    ``eval_xi`` oracle in tests/reference.py call it."""
    if variant is KernelVariant.P:
        return spec.xi_plus * s_plus
    if variant is KernelVariant.N:
        return spec.xi_minus * s_minus
    return spec.xi_plus * s_plus + spec.xi_minus * s_minus


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
