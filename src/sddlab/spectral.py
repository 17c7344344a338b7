"""Eigenstructure of the Dirichlet Laplacian on (0, L) and sine-mode transforms.

The spatial grid is cell centered: x_j = (j + 1/2) h_x with h_x = L / n_x,
j = 0 .. n_x - 1.  Under midpoint quadrature the L2-normalized sine family
e_k(x) = sqrt(2/L) sin(k pi x / L) is discretely orthonormal for k < n_x, so
``forward`` and ``inverse`` below are an exact transform pair on the truncated
span (realized through the type-2 DST).  Mode n_x itself carries a different
discrete weight, hence the ``modes <= grid_points - 1`` requirement.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (ContractViolation, GridMismatch, frozen, require_int,
                     require_real)

# pocketfft's compiled module, the function scipy.fft.dst/idst end in.  The
# first transform loads it from its file, so the scipy.fft package (0.2-0.4 s
# of import and ~19 MB, much of it scipy.special) never loads: check and
# synthesize transform nothing, and simulate and experiment need only this.
# It is made under its own name, so a later ``import scipy.fft`` in the same
# process reuses it.
_PFFT_NAME = "scipy.fft._pocketfft.pypocketfft"
_pfft = None


def _load_pocketfft():
    """Bind the compiled module: the one in sys.modules when scipy.fft or an
    earlier load made it, else the one loaded from scipy's directory."""
    global _pfft
    if _PFFT_NAME not in sys.modules:
        spec = importlib.util.find_spec("scipy")
        if spec is None or not spec.submodule_search_locations:
            raise ImportError("scipy is not installed: no scipy package on "
                              "sys.path to load pocketfft's compiled module from")
        where = os.path.join(spec.submodule_search_locations[0], "fft", "_pocketfft")
        paths = [os.path.join(where, "pypocketfft" + suffix)
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next(filter(os.path.isfile, paths), None)
        if path is None:
            raise ImportError(f"no compiled pypocketfft module in {where}")
        loader = importlib.machinery.ExtensionFileLoader(_PFFT_NAME, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(_PFFT_NAME, path, loader=loader))
        loader.exec_module(module)
        sys.modules[_PFFT_NAME] = module
    _pfft = sys.modules[_PFFT_NAME]
    return _pfft


# the positional call scipy.fft's _r2r makes: type, axes, normalization (0:
# none, 2: divide by 2n), out, one thread, and the orthogonalization flag
# left at its default None, the value _r2r passes; an inverse swaps types 2, 3
_INVERSE_TYPE = {2: 3, 3: 2}


def dst(x, type=2, axis=-1, out=None):
    """scipy.fft.dst(x, type, axis=axis), bit for bit, written into ``out``
    when given; the first transform loads pocketfft."""
    return (_pfft or _load_pocketfft()).dst(x, type, (axis,), 0, out, 1)


def idst(x, type=2, axis=-1, out=None):
    """scipy.fft.idst(x, type, axis=axis), bit for bit: the DST of the
    inverse type divided by 2n, written into ``out`` when given."""
    return (_pfft or _load_pocketfft()).dst(x, _INVERSE_TYPE.get(type, type),
                                            (axis,), 2, out, 1)


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


def _no_overflow(domain_length: float, lam: np.ndarray) -> np.ndarray:
    _require(np.isfinite(lam).all(),
             f"domain_length {domain_length!r} is too small: its eigenvalues overflow")
    return lam


def dirichlet_eigenvalues(domain_length: float, k) -> np.ndarray:
    """lambda_k = (k pi / L)^2 for the mode numbers k; a k past the float range,
    or a domain so short that one overflows, is a ContractViolation."""
    try:
        k = np.asarray(k, dtype=float)
    except OverflowError:
        raise ContractViolation("mode numbers must be below the largest float") from None
    with np.errstate(over="ignore"):
        return _no_overflow(domain_length, (k * np.pi / domain_length) ** 2)


def analytic_eigenvalues(spec: OperatorSpec) -> np.ndarray:
    """lambda_k = (k pi / L)^2 for k = 1 .. K."""
    return dirichlet_eigenvalues(spec.domain_length, np.arange(1, spec.modes + 1))


def full_discrete_eigenvalues(spec: OperatorSpec) -> np.ndarray:
    """All n_x eigenvalues of the cell-centered difference Laplacian, k = 1 .. n_x
    (the time-stepping spectrum; the first K pair with the retained modes).

    lambda_hat_k = (2/h^2)(1 - cos(k pi h / L)), evaluated in the
    cancellation-free form (4/h^2) sin^2(k pi h / (2L)).  Like
    ``dirichlet_eigenvalues``, an overflow names domain_length.
    """
    # h * h (or h) may underflow to 0: inf (or inf * 0), not ZeroDivisionError
    h = np.float64(spec.h_x)
    k = np.arange(1, spec.grid_points + 1, dtype=float)
    s = np.sin(k * np.pi * h / (2.0 * spec.domain_length))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _no_overflow(spec.domain_length, (4.0 / (h * h)) * s * s)


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

