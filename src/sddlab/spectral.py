"""Eigenstructure of the Dirichlet Laplacian on (0, L) and sine-mode transforms.

The spatial grid is cell centered: x_j = (j + 1/2) h_x with h_x = L / n_x,
j = 0 .. n_x - 1.  Under midpoint quadrature the L2-normalized sine family
e_k(x) = sqrt(2/L) sin(k pi x / L) is discretely orthonormal for k < n_x, so
``forward`` and ``inverse`` below are an exact transform pair on the truncated
span (realized through the type-2 DST).  Mode n_x itself carries a different
discrete weight, hence the ``modes <= grid_points - 1`` requirement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dst, idst

from .errors import ContractViolation, GridMismatch


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ContractViolation(message)


@dataclass(frozen=True)
class OperatorSpec:
    """Dirichlet Laplacian -d^2/dx^2 on (0, L) with a truncated sine basis.

    domain_length: L > 0
    modes: number K of retained eigenpairs
    grid_points: number n_x of cell-centered spatial samples
    """

    domain_length: float
    modes: int
    grid_points: int

    def __post_init__(self):
        _require(isinstance(self.modes, int) and not isinstance(self.modes, bool),
                 "modes must be an int")
        _require(isinstance(self.grid_points, int) and not isinstance(self.grid_points, bool),
                 "grid_points must be an int")
        L = float(self.domain_length)
        _require(np.isfinite(L) and L > 0.0, "domain_length must be finite and > 0")
        object.__setattr__(self, "domain_length", L)
        _require(self.modes >= 1, "modes must be >= 1")
        _require(self.grid_points >= 2, "grid_points must be >= 2")
        # mode n_x is not discretely orthonormal on the midpoint grid
        _require(self.modes <= self.grid_points - 1,
                 "modes must be <= grid_points - 1 for an exact transform pair")

    @property
    def h_x(self) -> float:
        return self.domain_length / self.grid_points

    def nodes(self) -> np.ndarray:
        """Cell centers x_j = (j + 1/2) h_x."""
        return (np.arange(self.grid_points) + 0.5) * self.h_x


@dataclass(frozen=True)
class GridField:
    """A real field sampled at the n_x cell centers."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        _require(arr.ndim == 1 and arr.size >= 1, "GridField values must be a 1-D array")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ModeVector:
    """Coefficients against the L2-normalized sine modes e_1 .. e_K."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        _require(arr.ndim == 1 and arr.size >= 1, "ModeVector coeffs must be a 1-D array")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __len__(self) -> int:
        return self.coeffs.size


def analytic_eigenvalues(spec: OperatorSpec) -> np.ndarray:
    """lambda_k = (k pi / L)^2 for k = 1 .. K."""
    k = np.arange(1, spec.modes + 1, dtype=float)
    return (k * np.pi / spec.domain_length) ** 2


def discrete_eigenvalues(spec: OperatorSpec) -> np.ndarray:
    """Eigenvalues of the cell-centered difference Laplacian, k = 1 .. K.

    lambda_hat_k = (2/h^2)(1 - cos(k pi h / L)), evaluated in the
    cancellation-free form (4/h^2) sin^2(k pi h / (2L)).
    """
    return _discrete_eigenvalues_upto(spec, spec.modes)


def _discrete_eigenvalues_upto(spec: OperatorSpec, kmax: int) -> np.ndarray:
    h = spec.h_x
    k = np.arange(1, kmax + 1, dtype=float)
    s = np.sin(k * np.pi * h / (2.0 * spec.domain_length))
    return (4.0 / (h * h)) * s * s


def full_discrete_eigenvalues(spec: OperatorSpec) -> np.ndarray:
    """All n_x eigenvalues of the difference Laplacian (time-stepping spectrum)."""
    return _discrete_eigenvalues_upto(spec, spec.grid_points)


def eigenfunction(spec: OperatorSpec, k: int) -> GridField:
    """Samples of e_k(x) = sqrt(2/L) sin(k pi x / L) at the cell centers."""
    _require(1 <= k <= spec.modes, "k must be in 1..K")
    x = spec.nodes()
    return GridField(np.sqrt(2.0 / spec.domain_length) * np.sin(k * np.pi * x / spec.domain_length))


def forward(spec: OperatorSpec, field: GridField) -> ModeVector:
    """Midpoint-quadrature coefficients a_k = <field, e_k>_h for k = 1 .. K."""
    if len(field) != spec.grid_points:
        raise GridMismatch(
            f"field has {len(field)} samples, operator grid has {spec.grid_points}")
    scale = spec.h_x * np.sqrt(2.0 / spec.domain_length) / 2.0
    coeffs = scale * dst(field.values, type=2)[: spec.modes]
    return ModeVector(coeffs)


def inverse(spec: OperatorSpec, modes: ModeVector) -> GridField:
    """Exact cell-center samples of sum_k coeffs_k e_k."""
    if len(modes) != spec.modes:
        raise GridMismatch(
            f"mode vector has {len(modes)} coefficients, operator keeps {spec.modes}")
    raw = np.zeros(spec.grid_points)
    raw[: spec.modes] = modes.coeffs * (2.0 / (spec.h_x * np.sqrt(2.0 / spec.domain_length)))
    return GridField(idst(raw, type=2))


def field_l2_norm(spec: OperatorSpec, field: GridField) -> float:
    """Midpoint-quadrature L2 norm sqrt(h_x * sum(u^2))."""
    if len(field) != spec.grid_points:
        raise GridMismatch("field/operator grid size mismatch")
    v = field.values
    return float(np.sqrt(spec.h_x * np.dot(v, v)))


def hat_project(spec: OperatorSpec, history, N: int):
    """Low-mode semigroup extension of the current state across the delay window.

    Maps a history segment phi to the segment whose snapshot at theta_j is
    sum_{k<=N} exp(-lambda_k theta_j) <phi(0), e_k> e_k.  Note theta_j <= 0, so
    the low modes are amplified backwards in time.  Idempotent on its range.
    """
    from .history import HistorySegment  # local import, history depends on this module

    _require(isinstance(N, int) and not isinstance(N, bool), "N must be an int")
    _require(1 <= N <= spec.modes, "N must be in 1..K")
    if history.operator != spec:
        raise GridMismatch("history was built on a different operator grid")
    lam = analytic_eigenvalues(spec)[:N]
    c0 = forward(spec, history.current()).coeffs[:N]
    rows = np.empty_like(history.values)
    padded = np.zeros(spec.modes)
    for j, theta in enumerate(history.theta_nodes()):
        padded[:N] = c0 * np.exp(-lam * theta)
        rows[j] = inverse(spec, ModeVector(padded)).values
    return HistorySegment(operator=spec, r=history.r, m=history.m, values=rows)
