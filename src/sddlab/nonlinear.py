"""The bounded birth-rate nonlinearity and the distributed delay term.

The nonlinearity is the Nicholson-type law b(w) = p w^2 exp(-|w|), which is
bounded with bounded derivative.  A NonlinearitySpec takes only p and computes
M_b = sup|b| and L_b = sup|b'| when it is built, so every spec carries the
constants of its own p: a dense grid on [0, 20], then golden-section
refinement.  Both functions have decayed below 2e-6 of their maxima at
w = 20, whatever p is, so the search covers the line.  For
this family the exact values are M_b = 4 p e^-2 at w = 2 and
L_b = 2 p (sqrt(2)-1) exp(sqrt(2)-2) at w = 2 - sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, require_real
from .history import HistorySegment, theta_weights
from .kernel import KernelSpec, KernelVariant, eval_xi
from .spectral import GridField

_SEARCH_HI = 20.0
_GRID_POINTS = 20001


@dataclass(frozen=True)
class NonlinearitySpec:
    """The Nicholson law with amplitude p and its constants M_b, L_b."""

    p: float = 1.0
    M_b: float = field(init=False)
    L_b: float = field(init=False)

    def __post_init__(self):
        p = require_real("p", self.p)
        object.__setattr__(self, "p", p)
        # |b| and |b'| are even and decay beyond their critical points, so
        # the search on [0, 20] covers the line
        for name, f in (("M_b", lambda w: b_eval(self, w)),
                        ("L_b", lambda w: np.abs(b_prime(self, w)))):
            with np.errstate(over="ignore", invalid="ignore"):
                top = _grid_refine_max(f)
                tail = f(np.array([_SEARCH_HI]))[0]
            if not (np.isfinite(top) and np.isfinite(tail)):
                raise ContractViolation(
                    f"p={p!r} is too large: the search for {name} overflows")
            object.__setattr__(self, name, float(top))


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


def _golden_max(f, lo: float, hi: float, xtol: float = 1e-12) -> float:
    """Golden-section maximization on [lo, hi]; returns the maximum.  Each
    pass shrinks the interval by the same factor, so the loop ends."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return f(0.5 * (a + b))


def _grid_refine_max(f) -> float:
    grid = np.linspace(0.0, _SEARCH_HI, _GRID_POINTS)
    vals = f(grid)
    i = int(np.argmax(vals))
    h = grid[1] - grid[0]
    lo = max(0.0, grid[i] - 2.0 * h)
    hi = min(_SEARCH_HI, grid[i] + 2.0 * h)
    return _golden_max(f, lo, hi)


def certified(spec: NonlinearitySpec) -> NonlinearitySpec:
    """The spec itself: every NonlinearitySpec carries its constants."""
    return spec


def delay_term(nl: NonlinearitySpec, ks: KernelSpec, v: HistorySegment,
               variant=KernelVariant.FULL) -> GridField:
    """The forcing field x -> int_{-r}^0 b(v(theta, x)) xi(theta, v) dtheta."""
    xi = eval_xi(ks, v, variant)
    w = theta_weights(ks.r, ks.m) * xi
    return GridField(w @ b_eval(nl, v.values))
