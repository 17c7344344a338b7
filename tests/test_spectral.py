"""Eigenstructure, transform pair, projections, and the low-mode extension."""

import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sddlab as s
from sddlab.errors import ContractViolation, GridMismatch
from sddlab.spectral import full_discrete_eigenvalues


# frozen reference values (high-precision evaluation of the closed forms)
LAMBDA_1_L100 = 9.8696044010893586e-4
LAMBDA_2_L100 = 3.9478417604357434e-3


def test_analytic_eigenvalues_unit_gap_domain():
    op = s.OperatorSpec(float(np.pi), 3, 32)
    lam = s.analytic_eigenvalues(op)
    assert np.allclose(lam, [1.0, 4.0, 9.0], rtol=1e-14, atol=0.0)


def test_analytic_eigenvalues_long_domain(op_headline):
    lam = s.analytic_eigenvalues(op_headline)
    assert lam[0] == pytest.approx(LAMBDA_1_L100, rel=1e-13)
    assert lam[1] == pytest.approx(LAMBDA_2_L100, rel=1e-13)
    assert lam.shape == (8,)
    assert np.all(np.diff(lam) > 0)


def test_discrete_eigenvalues_below_analytic_with_quadratic_gap(op_headline):
    lam = s.analytic_eigenvalues(op_headline)
    lam_hat = full_discrete_eigenvalues(op_headline)[:op_headline.modes]
    h = op_headline.h_x
    # lam_hat = lam (1 - lam h^2 / 12 + O(h^4))
    assert np.all(lam_hat <= lam)
    assert np.all(lam - lam_hat <= lam ** 2 * h * h / 10.0)


def test_full_discrete_eigenvalues_cover_grid(op_headline):
    lam_all = full_discrete_eigenvalues(op_headline)
    assert lam_all.shape == (op_headline.grid_points,)
    assert np.all(np.diff(lam_all) > 0)
    # the cancellation-free form agrees with (2/h^2)(1 - cos(k pi h / L))
    h = op_headline.h_x
    k = np.arange(1, op_headline.grid_points + 1)
    cos_form = (2.0 / (h * h)) * (1.0 - np.cos(k * np.pi * h
                                               / op_headline.domain_length))
    assert np.allclose(lam_all, cos_form, rtol=1e-9, atol=0.0)


def test_operator_contracts():
    with pytest.raises(ContractViolation):
        s.OperatorSpec(-1.0, 4, 32)
    with pytest.raises(ContractViolation):
        s.OperatorSpec(1.0, 0, 32)
    with pytest.raises(ContractViolation):
        s.OperatorSpec(1.0, 32, 32)  # mode n_x is not in the exact span
    with pytest.raises(ContractViolation):
        s.OperatorSpec(1.0, 4, 1)
    s.OperatorSpec(1.0, 31, 32)  # largest admissible K


def test_nodes_cell_centered(op_headline):
    x = op_headline.nodes()
    h = op_headline.h_x
    assert x[0] == pytest.approx(h / 2.0, rel=1e-15)
    assert x[-1] == pytest.approx(op_headline.domain_length - h / 2.0, rel=1e-15)
    assert np.allclose(np.diff(x), h, rtol=1e-13)


def test_forward_inverse_roundtrip_on_span(op_headline):
    rng = np.random.default_rng(1)
    coeffs = rng.normal(size=op_headline.modes)
    u = s.inverse(op_headline, s.ModeVector(coeffs))
    back = s.forward(op_headline, u).coeffs
    assert np.max(np.abs(back - coeffs)) <= 1e-12
    u2 = s.inverse(op_headline, s.ModeVector(back))
    assert np.max(np.abs(u2.values - u.values)) <= 1e-12


def test_stacked_transforms_match_rows_bitwise(op_headline):
    # a 2-D field or mode vector is a stack of rows, each transformed alone
    rows = np.random.default_rng(3).normal(size=(3, op_headline.grid_points))
    a = s.forward(op_headline, s.GridField(rows)).coeffs
    u = s.inverse(op_headline, s.ModeVector(a)).values
    norms = s.field_l2_norm(op_headline, s.GridField(rows))
    for i, row in enumerate(rows):
        a_i = s.forward(op_headline, s.GridField(row)).coeffs
        assert np.array_equal(a[i], a_i)
        assert np.array_equal(u[i], s.inverse(op_headline, s.ModeVector(a_i)).values)
        assert norms[i] == s.field_l2_norm(op_headline, s.GridField(row))


def test_lazy_transforms_match_scipy_bitwise(monkeypatch):
    # dst/idst make the pocketfft call scipy.fft.dst/idst make, so every bit
    # is theirs, into a fresh array or into ``out``; an inverse computed as
    # scipy.fftpack.dst(x, type=3) / (2 n) differs in the last bits when n is
    # not a power of two
    import scipy.fft

    from sddlab import spectral
    monkeypatch.setattr(spectral, "_pfft", None)  # before the first transform
    rng = np.random.default_rng(5)
    for name in ("dst", "idst"):
        for n in (37, 64, 100, 128):
            for shape in ((n,), (3, n), (2, 5, n)):
                x = rng.normal(size=shape)
                want = getattr(scipy.fft, name)(x, type=2).tobytes()
                assert getattr(spectral, name)(x, type=2).tobytes() == want
                out = np.empty_like(x)
                assert getattr(spectral, name)(x, out=out) is out
                assert out.tobytes() == want
    assert spectral._pfft is scipy.fft._pocketfft.realtransforms.pfft


@pytest.mark.parametrize("n_x", [64, 128])
@pytest.mark.parametrize("rows", [1, 8, 64])
def test_transforms_in_place_match_out_of_place(rows, n_x):
    # the engine's step: dst of its (2, B, n_x) buffer into itself, then idst
    # of row 0 into row 0; pocketfft reads each line before it writes it, so
    # aliasing the output to the input gives the bytes of a separate output
    from sddlab import spectral
    buf = np.random.default_rng(rows + n_x).normal(size=(2, rows, n_x))
    want = spectral.dst(buf, out=np.empty_like(buf)).tobytes()
    assert spectral.dst(buf, out=buf) is buf
    assert buf.tobytes() == want
    want, other = spectral.idst(buf[0]).tobytes(), buf[1].tobytes()
    spectral.idst(buf[0], out=buf[0])
    assert buf[0].tobytes() == want and buf[1].tobytes() == other


# a first transform, then scipy.fft: one extension object serves both
SHARED_CHILD = """
import sys
import numpy as np
from sddlab import spectral
spectral.dst(np.ones((2, 8)))
assert not any(m.startswith("scipy") and m != spectral._PFFT_NAME for m in sys.modules)
import scipy.fft
from scipy.fft._pocketfft import basic, realtransforms
assert sys.modules[spectral._PFFT_NAME] is spectral._pfft
assert realtransforms.pfft is spectral._pfft and basic.pfft is spectral._pfft
"""


def test_first_transform_and_scipy_fft_share_the_module():
    src = str(Path(s.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SHARED_CHILD], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def test_missing_pocketfft_names_the_search(monkeypatch, tmp_path):
    from sddlab import spectral
    monkeypatch.setattr(spectral, "_pfft", None)
    monkeypatch.delitem(sys.modules, spectral._PFFT_NAME, raising=False)
    # scipy's directory holds no compiled module: the error names it
    fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
    where = os.path.join(str(tmp_path), "fft", "_pocketfft")
    with pytest.raises(ImportError, match=f"no compiled pypocketfft module in {re.escape(where)}$"):
        spectral.dst(np.ones(4))
    # no scipy at all
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy is not installed: no scipy package on sys.path"):
        spectral.idst(np.ones(4))
    assert spectral._pfft is None


def test_transforms_skip_scipy_fft_dispatch(pi_problem, op_pi, monkeypatch):
    # stepping and the transforms never go through scipy.fft's dispatching
    # dst/idst, so the solver step cannot drift back onto that path
    import scipy.fft

    def dispatched(*args, **kwargs):
        raise AssertionError("scipy.fft.dst/idst was called")

    for name in ("dst", "idst"):
        monkeypatch.setattr(scipy.fft, name, dispatched)
    phis = [s.constant_history(op_pi, 0.1, 50, c) for c in (1.0, 2.0)]
    s.evolve(pi_problem, phis, 20)
    u = s.inverse(op_pi, s.ModeVector(np.ones(op_pi.modes)))
    s.forward(op_pi, u)


@pytest.mark.parametrize("L", [1e-160, 1e-300, 5e-324])
def test_short_domain_eigenvalues_overflow(L, pi_problem):
    # the eigenvalues overflow: a ContractViolation that names the domain
    # length, with no warning (pytest turns warnings into failures)
    op = s.OperatorSpec(L, 8, 64)
    for eigenvalues in (s.analytic_eigenvalues, full_discrete_eigenvalues):
        with pytest.raises(ContractViolation, match="domain_length .* too small"):
            eigenvalues(op)
    problem = s.ProblemSpec(op, pi_problem.kernel, pi_problem.nonlinearity)
    with pytest.raises(ContractViolation, match="domain_length"):
        s.condition_report(problem, 3)
    with pytest.raises(ContractViolation, match="domain_length"):
        s.evolve(problem, [s.constant_history(op, 0.1, 50, 1.0)], 1)


def test_forward_of_eigenfunction_is_unit_vector(op_headline):
    for k in (1, 3, 8):
        a = s.forward(op_headline, s.eigenfunction(op_headline, k)).coeffs
        e = np.zeros(op_headline.modes)
        e[k - 1] = 1.0
        assert np.max(np.abs(a - e)) <= 1e-12


def test_parseval_on_span_and_bessel_generally(op_headline):
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=op_headline.modes)
    u = s.inverse(op_headline, s.ModeVector(coeffs))
    assert s.field_l2_norm(op_headline, u) == pytest.approx(
        float(np.linalg.norm(coeffs)), rel=1e-12)
    # an arbitrary field also has mass outside the first K modes
    w = s.GridField(rng.normal(size=op_headline.grid_points))
    a = s.forward(op_headline, w).coeffs
    assert float(np.dot(a, a)) <= s.field_l2_norm(op_headline, w) ** 2 * (1 + 1e-12)


def test_transform_grid_mismatch(op_headline):
    with pytest.raises(GridMismatch):
        s.forward(op_headline, s.GridField(np.zeros(64)))
    with pytest.raises(GridMismatch):
        s.inverse(op_headline, s.ModeVector(np.zeros(4)))
    with pytest.raises(GridMismatch):
        s.field_l2_norm(op_headline, s.GridField(np.zeros(64)))


def test_eigenfunction_range(op_headline):
    with pytest.raises(ContractViolation):
        s.eigenfunction(op_headline, 0)
    with pytest.raises(ContractViolation):
        s.eigenfunction(op_headline, op_headline.modes + 1)


def test_field_and_modes_readonly():
    f = s.GridField(np.ones(8))
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    mv = s.ModeVector(np.ones(3))
    with pytest.raises(ValueError):
        mv.coeffs[0] = 2.0

