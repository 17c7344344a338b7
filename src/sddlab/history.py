"""History segments over the delay window [-r, 0] and their quadratures.

A segment stores m+1 snapshots on the uniform theta grid
theta_j = -r + j h_theta, h_theta = r/m; row j = m is the current state.
Theta integrals use trapezoid weights, x integrals use midpoint quadrature,
so integrals of constant fields are exact (h_theta * m = r and
h_x * n_x = L hold exactly in floating point up to one rounding).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (ContractViolation, GridMismatch, frozen, require_int,
                     require_real)
from .spectral import GridField, OperatorSpec


@lru_cache
def theta_weights(r: float, m: int) -> np.ndarray:
    """Composite trapezoid weights on the m+1 theta nodes (cached, read-only)."""
    w = np.full(m + 1, r / m)
    w[0] *= 0.5
    w[-1] *= 0.5
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class HistorySegment:
    """m+1 field snapshots over [-r, 0]; row j=m is the current time."""

    operator: OperatorSpec
    r: float
    m: int
    values: np.ndarray

    def __post_init__(self):
        require_int("m", self.m, 1)
        object.__setattr__(self, "r", require_real("r", self.r))
        arr = frozen(self.values)
        if arr.ndim != 2:
            raise ContractViolation("values must be a 2-D array (m+1 rows)")
        if arr.shape[0] != self.m + 1:
            raise ContractViolation(
                f"expected {self.m + 1} snapshots, got {arr.shape[0]}")
        if arr.shape[1] != self.operator.grid_points:
            raise GridMismatch(
                f"snapshots have {arr.shape[1]} samples, operator grid has "
                f"{self.operator.grid_points}")
        object.__setattr__(self, "values", arr)


def constant_history(operator: OperatorSpec, r: float, m: int,
                     value) -> HistorySegment:
    """Segment that is constant in theta; ``value`` is a scalar or a GridField."""
    if isinstance(value, GridField):
        row = value.values
        if row.size != operator.grid_points:
            raise GridMismatch("field/operator grid size mismatch")
    else:
        row = np.full(operator.grid_points, float(value))
    return HistorySegment(operator=operator, r=r, m=m,
                          values=np.tile(row, (m + 1, 1)))


def _snapshot_l1(values: np.ndarray, h_x: float) -> np.ndarray:
    """Midpoint x-integral of |row| for each snapshot row (of a stack)."""
    return h_x * np.abs(values).sum(axis=-1)


def _snapshot_l2(values: np.ndarray, h_x: float) -> np.ndarray:
    return np.sqrt(h_x * (values * values).sum(axis=-1))


def _theta_dot(tw: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """np.dot(tw, row) along the last axis of a stack, as (1, m+1) @ (m+1,)
    matmuls, which have the bits of np.dot: a stack of windows gets the bits
    of one window."""
    return np.matmul(rows[..., None, :], tw)[..., 0]
