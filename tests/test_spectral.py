"""Eigenstructure, transform pair, projections, and the low-mode extension."""

import numpy as np
import pytest

import sddlab as s
from sddlab.errors import ContractViolation, GridMismatch
from sddlab.spectral import full_discrete_eigenvalues


# frozen reference values (high-precision evaluation of the closed forms)
LAMBDA_1_L100 = 9.8696044010893586e-4
LAMBDA_2_L100 = 3.9478417604357434e-3
EXP_P1 = 1.1051709180756476  # e^{0.1}


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
    lam_hat = s.discrete_eigenvalues(op_headline)
    h = op_headline.h_x
    # lam_hat = lam (1 - lam h^2 / 12 + O(h^4))
    assert np.all(lam_hat <= lam)
    assert np.all(lam - lam_hat <= lam ** 2 * h * h / 10.0)


def test_full_discrete_eigenvalues_cover_grid(op_headline):
    lam_all = full_discrete_eigenvalues(op_headline)
    assert lam_all.shape == (op_headline.grid_points,)
    assert np.all(np.diff(lam_all) > 0)
    assert np.array_equal(lam_all[: op_headline.modes],
                          s.discrete_eigenvalues(op_headline))


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


def test_hat_project_backward_amplification():
    # lambda_1 = 1 on (0, pi): the oldest snapshot carries e^{+r} = e^{0.1}
    op = s.OperatorSpec(float(np.pi), 4, 32)
    c0 = 0.7
    field = s.GridField(c0 * s.eigenfunction(op, 1).values)
    phi = s.constant_history(op, 0.1, 10, field)
    hat = s.hat_project(op, phi, 1)
    a_old = s.forward(op, hat.snapshot(0)).coeffs
    assert a_old[0] / c0 == pytest.approx(EXP_P1, rel=1e-13)
    assert np.max(np.abs(a_old[1:])) <= 1e-13
    # the current snapshot is the low-mode projection of the original
    a_now = s.forward(op, hat.current()).coeffs
    assert a_now[0] == pytest.approx(c0, rel=1e-12)


def test_hat_project_idempotent(op_headline):
    rng = np.random.default_rng(3)
    rows = np.abs(rng.normal(size=(21, op_headline.grid_points)))
    phi = s.history_from_rows(op_headline, 0.5, 20, rows)
    once = s.hat_project(op_headline, phi, 2)
    twice = s.hat_project(op_headline, once, 2)
    assert np.max(np.abs(twice.values - once.values)) <= 1e-10


def test_hat_project_zero_history(op_headline):
    phi = s.constant_history(op_headline, 0.5, 10, 0.0)
    hat = s.hat_project(op_headline, phi, 3)
    assert np.all(hat.values == 0.0)


def test_hat_project_contracts(op_headline):
    phi = s.constant_history(op_headline, 0.5, 10, 1.0)
    other = s.OperatorSpec(100.0, 8, 64)
    with pytest.raises(GridMismatch):
        s.hat_project(other, phi, 1)
    with pytest.raises(ContractViolation):
        s.hat_project(op_headline, phi, 0)
    with pytest.raises(ContractViolation):
        s.hat_project(op_headline, phi, op_headline.modes + 1)
