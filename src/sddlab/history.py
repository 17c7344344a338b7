"""History segments over the delay window [-r, 0] and their norms.

A segment stores m+1 snapshots on the uniform theta grid
theta_j = -r + j h_theta, h_theta = r/m; row j = m is the current state.
Theta integrals use trapezoid weights, x integrals use midpoint quadrature,
so integrals of constant fields are exact (h_theta * m = r and
h_x * n_x = L hold exactly in floating point up to one rounding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, GridMismatch
from .spectral import GridField, OperatorSpec


def theta_weights(r: float, m: int) -> np.ndarray:
    """Composite trapezoid weights on the m+1 theta nodes."""
    w = np.full(m + 1, r / m)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class HistorySegment:
    """m+1 field snapshots over [-r, 0]; row j=m is the current time."""

    operator: OperatorSpec
    r: float
    m: int
    values: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.m, int) and not isinstance(self.m, bool) and self.m >= 1):
            raise ContractViolation("m must be an int >= 1")
        r = float(self.r)
        if not (np.isfinite(r) and r > 0.0):
            raise ContractViolation("r must be finite and > 0")
        object.__setattr__(self, "r", r)
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise ContractViolation("values must be a 2-D array (m+1 rows)")
        if arr.shape[0] != self.m + 1:
            raise ContractViolation(
                f"expected {self.m + 1} snapshots, got {arr.shape[0]}")
        if arr.shape[1] != self.operator.grid_points:
            raise GridMismatch(
                f"snapshots have {arr.shape[1]} samples, operator grid has "
                f"{self.operator.grid_points}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def h_theta(self) -> float:
        return self.r / self.m

    def theta_nodes(self) -> np.ndarray:
        return -self.r + np.arange(self.m + 1) * self.h_theta

    def snapshot(self, j: int) -> GridField:
        if not 0 <= j <= self.m:
            raise ContractViolation("snapshot index out of range")
        return GridField(self.values[j])

    def current(self) -> GridField:
        return GridField(self.values[self.m])


def history_from_rows(operator: OperatorSpec, r: float, m: int,
                      rows: np.ndarray) -> HistorySegment:
    return HistorySegment(operator=operator, r=r, m=m, values=np.asarray(rows, dtype=float))


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


def positive_part(v: HistorySegment) -> HistorySegment:
    """Pointwise max(v, 0); together with negative_part partitions v exactly."""
    return HistorySegment(operator=v.operator, r=v.r, m=v.m,
                          values=np.maximum(v.values, 0.0))


def negative_part(v: HistorySegment) -> HistorySegment:
    """Pointwise min(v, 0), kept with its sign so v = v_plus + v_minus bitwise."""
    return HistorySegment(operator=v.operator, r=v.r, m=v.m,
                          values=np.minimum(v.values, 0.0))


def _snapshot_l1(values: np.ndarray, h_x: float) -> np.ndarray:
    """Midpoint x-integral of |row| for each snapshot row."""
    return h_x * np.abs(values).sum(axis=1)


def _snapshot_l2(values: np.ndarray, h_x: float) -> np.ndarray:
    return np.sqrt(h_x * (values * values).sum(axis=1))


def norm_L1L1(v: HistorySegment) -> float:
    """Iterated norm int_{-r}^0 int_Omega |v(theta, x)| dx dtheta.

    Trapezoid in theta over midpoint x-integrals; exact for fields constant
    in (theta, x): result r * L * |c|.
    """
    return float(np.dot(theta_weights(v.r, v.m),
                        _snapshot_l1(v.values, v.operator.h_x)))


def norm_C(v: HistorySegment) -> float:
    """Sup over theta nodes of the spatial L2 norm (the C([-r,0]; L2) norm)."""
    return float(np.max(_snapshot_l2(v.values, v.operator.h_x)))


def push(v: HistorySegment, new_snapshot: GridField) -> HistorySegment:
    """Advance the window one step: drop the oldest row, append the new state.

    Retained rows are preserved bitwise.
    """
    if len(new_snapshot) != v.operator.grid_points:
        raise GridMismatch("new snapshot does not match the operator grid")
    rows = np.concatenate([v.values[1:], new_snapshot.values[None, :]], axis=0)
    return HistorySegment(operator=v.operator, r=v.r, m=v.m, values=rows)
