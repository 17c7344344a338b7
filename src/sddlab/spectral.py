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

from .errors import (ContractViolation, GridMismatch, frozen, require_int,
                     require_real)

# scipy.fft (~0.4 s to import), bound by the first transform; check never transforms
_fft = None


def _scipy_fft():
    global _fft
    import scipy.fft as _fft
    return _fft


def dst(x, *args, **kwargs):
    """scipy.fft.dst; the first transform imports scipy.fft."""
    return (_fft or _scipy_fft()).dst(x, *args, **kwargs)


def idst(x, *args, **kwargs):
    """scipy.fft.idst; the first transform imports scipy.fft."""
    return (_fft or _scipy_fft()).idst(x, *args, **kwargs)


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
        object.__setattr__(self, "domain_length",
                           require_real("domain_length", self.domain_length))
        require_int("modes", self.modes, 1)
        require_int("grid_points", self.grid_points, 2)
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
    """A real field sampled at the n_x cell centers; 2-D values stack fields as rows."""

    values: np.ndarray

    def __post_init__(self):
        arr = frozen(self.values)
        _require(arr.ndim in (1, 2) and arr.size >= 1, "GridField values must be 1-D or 2-D")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[-1]


@dataclass(frozen=True)
class ModeVector:
    """Coefficients against the L2-normalized sine modes e_1 .. e_K; 2-D stacks rows."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = frozen(self.coeffs)
        _require(arr.ndim in (1, 2) and arr.size >= 1, "ModeVector coeffs must be 1-D or 2-D")
        object.__setattr__(self, "coeffs", arr)

    def __len__(self) -> int:
        return self.coeffs.shape[-1]


def analytic_eigenvalues(spec: OperatorSpec) -> np.ndarray:
    """lambda_k = (k pi / L)^2 for k = 1 .. K."""
    k = np.arange(1, spec.modes + 1, dtype=float)
    return (k * np.pi / spec.domain_length) ** 2


def full_discrete_eigenvalues(spec: OperatorSpec) -> np.ndarray:
    """All n_x eigenvalues of the cell-centered difference Laplacian, k = 1 .. n_x
    (the time-stepping spectrum; the first K pair with the retained modes).

    lambda_hat_k = (2/h^2)(1 - cos(k pi h / L)), evaluated in the
    cancellation-free form (4/h^2) sin^2(k pi h / (2L)).
    """
    h = spec.h_x
    k = np.arange(1, spec.grid_points + 1, dtype=float)
    s = np.sin(k * np.pi * h / (2.0 * spec.domain_length))
    return (4.0 / (h * h)) * s * s


def eigenfunction(spec: OperatorSpec, k: int) -> GridField:
    """Samples of e_k(x) = sqrt(2/L) sin(k pi x / L) at the cell centers."""
    _require(1 <= k <= spec.modes, "k must be in 1..K")
    x = spec.nodes()
    return GridField(np.sqrt(2.0 / spec.domain_length) * np.sin(k * np.pi * x / spec.domain_length))


def forward(spec: OperatorSpec, field: GridField) -> ModeVector:
    """Midpoint-quadrature coefficients a_k = <field, e_k>_h for k = 1 .. K, per row."""
    if len(field) != spec.grid_points:
        raise GridMismatch(
            f"field has {len(field)} samples, operator grid has {spec.grid_points}")
    scale = spec.h_x * np.sqrt(2.0 / spec.domain_length) / 2.0
    coeffs = scale * dst(field.values, type=2)[..., : spec.modes]
    return ModeVector(coeffs)


def inverse(spec: OperatorSpec, modes: ModeVector) -> GridField:
    """Exact cell-center samples of sum_k coeffs_k e_k, per row."""
    if len(modes) != spec.modes:
        raise GridMismatch(
            f"mode vector has {len(modes)} coefficients, operator keeps {spec.modes}")
    raw = np.zeros(modes.coeffs.shape[:-1] + (spec.grid_points,))
    raw[..., : spec.modes] = modes.coeffs * (2.0 / (spec.h_x * np.sqrt(2.0 / spec.domain_length)))
    return GridField(idst(raw, type=2))


def field_l2_norm(spec: OperatorSpec, field: GridField):
    """Midpoint-quadrature L2 norm sqrt(h_x * sum(u^2)); an array of them for
    a stack, each row a (1, n_x) @ (n_x, 1) matmul with the bits of np.dot."""
    if len(field) != spec.grid_points:
        raise GridMismatch("field/operator grid size mismatch")
    v = field.values
    if v.ndim == 2:
        return np.sqrt(spec.h_x * np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])
    return float(np.sqrt(spec.h_x * np.dot(v, v)))

