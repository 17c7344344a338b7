"""The bounded birth-rate nonlinearity and the distributed delay term.

The nonlinearity is the Nicholson-type law b(w) = p w^2 exp(-|w|), which is
bounded with bounded derivative.  Certification locates M_b = sup|b| and
L_b = sup|b'| numerically (dense grid on [0, 20], then golden-section
refinement); for this family the exact values are M_b = 4 p e^-2 at w = 2 and
L_b = 2 p (sqrt(2)-1) exp(sqrt(2)-2) at w = 2 - sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import CertificationError, ContractViolation
from .history import HistorySegment, theta_weights
from .kernel import KernelSpec, KernelVariant, eval_xi
from .spectral import GridField

_SEARCH_HI = 20.0
_GRID_POINTS = 20001


@dataclass(frozen=True)
class NonlinearitySpec:
    """The Nicholson law with amplitude p; ``certified`` fills in M_b, L_b."""

    p: float = 1.0
    M_b: Optional[float] = None
    L_b: Optional[float] = None
    constants_certified: bool = False

    def __post_init__(self):
        p = float(self.p)
        if not (np.isfinite(p) and p > 0.0):
            raise ContractViolation("p must be finite and > 0")
        object.__setattr__(self, "p", p)
        for name in ("M_b", "L_b"):
            val = getattr(self, name)
            if val is not None:
                val = float(val)
                if not (np.isfinite(val) and val >= 0.0):
                    raise ContractViolation(f"{name} must be finite and >= 0")
                object.__setattr__(self, name, val)
        if self.constants_certified and (self.M_b is None or self.L_b is None):
            raise ContractViolation("certified spec must carry M_b and L_b")


def nicholson(p: float = 1.0) -> NonlinearitySpec:
    return NonlinearitySpec(p=p)


def b_eval(spec: NonlinearitySpec, w):
    """Vectorized b(w)."""
    w = np.asarray(w, dtype=float)
    return spec.p * w * w * np.exp(-np.abs(w))


def b_prime(spec: NonlinearitySpec, w):
    """Vectorized b'(w)."""
    w = np.asarray(w, dtype=float)
    # d/dw [w^2 e^{-|w|}] = (2w - sign(w) w^2) e^{-|w|}
    return spec.p * (2.0 * w - np.sign(w) * w * w) * np.exp(-np.abs(w))


def _golden_max(f, lo: float, hi: float, xtol: float = 1e-12,
                maxiter: int = 200) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (argmax, max)."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(maxiter):
        if b - a <= xtol:
            x = 0.5 * (a + b)
            return x, f(x)
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    raise CertificationError("golden-section refinement did not converge")


def _grid_refine_max(f) -> tuple[float, float]:
    grid = np.linspace(0.0, _SEARCH_HI, _GRID_POINTS)
    vals = f(grid)
    i = int(np.argmax(vals))
    h = grid[1] - grid[0]
    lo = max(0.0, grid[i] - 2.0 * h)
    hi = min(_SEARCH_HI, grid[i] + 2.0 * h)
    return _golden_max(f, lo, hi)


def certify_constants(spec: NonlinearitySpec) -> tuple[float, float]:
    """Compute (M_b, L_b) = (sup|b|, sup|b'|) for the Nicholson family.

    Both |b| and |b'| are even and decay for w beyond their critical points,
    so the search on [0, 20] covers the line; the decay is verified at the
    right edge before the result is accepted.
    """
    def absb(w):
        return b_eval(spec, w)

    def absdb(w):
        return np.abs(b_prime(spec, w))

    w_mb, M_b = _grid_refine_max(absb)
    w_lb, L_b = _grid_refine_max(absdb)
    # decay check: the tail at the search edge must sit far below the max
    if absb(np.array([_SEARCH_HI]))[0] > 1e-3 * M_b:
        raise CertificationError("b does not decay within the search interval")
    if absdb(np.array([_SEARCH_HI]))[0] > 1e-3 * L_b:
        raise CertificationError("b' does not decay within the search interval")
    return float(M_b), float(L_b)


def certified(spec: NonlinearitySpec) -> NonlinearitySpec:
    """Return a copy with certified constants filled in."""
    M_b, L_b = certify_constants(spec)
    return replace(spec, M_b=M_b, L_b=L_b, constants_certified=True)


def delay_term(nl: NonlinearitySpec, ks: KernelSpec, v: HistorySegment,
               variant=KernelVariant.FULL) -> GridField:
    """The forcing field x -> int_{-r}^0 b(v(theta, x)) xi(theta, v) dtheta."""
    if not nl.constants_certified:
        raise CertificationError("nonlinearity constants are not certified")
    xi = eval_xi(ks, v, variant)
    w = theta_weights(ks.r, ks.m) * xi
    return GridField(w @ b_eval(nl, v.values))
