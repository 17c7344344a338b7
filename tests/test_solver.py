"""Time stepping: fixed points, exact linear flow, determinism, convergence,
dissipativity, and failure signaling."""

import numpy as np
import pytest

import sddlab as s
from sddlab.errors import ContractViolation, GridMismatch, IntegrationFailure
from sddlab.spectral import full_discrete_eigenvalues

from conftest import random_history


def zero_kernel(r, m, M_xi=1e-3):
    return s.make_constant_kernel(r, m, 0.0, 0.0, M_xi)


def test_problem_spec_properties(headline_problem):
    assert headline_problem.r == 0.5
    assert headline_problem.m == 50
    assert headline_problem.h == 0.01
    assert headline_problem.horizon == 0.0
    re = s.ProblemSpec(operator=headline_problem.operator,
                       kernel=headline_problem.kernel,
                       nonlinearity=headline_problem.nonlinearity, steps=200)
    assert re.horizon == pytest.approx(2.0, rel=1e-15)


def test_problem_spec_contracts(op_headline, headline_kernel, nl):
    with pytest.raises(ContractViolation):
        s.ProblemSpec(operator=op_headline, kernel=headline_kernel,
                      nonlinearity=nl, steps=-1)
    with pytest.raises(s.CertificationError):
        s.ProblemSpec(operator=op_headline, kernel=headline_kernel,
                      nonlinearity=s.nicholson(1.0))
    with pytest.raises(ContractViolation):
        s.ProblemSpec(operator=op_headline, kernel=headline_kernel,
                      nonlinearity=nl, variant="both")


def test_steps_for_horizon(headline_kernel):
    assert s.steps_for_horizon(headline_kernel, 25.0) == 2500
    assert s.steps_for_horizon(headline_kernel, 0.0) == 0
    assert s.steps_for_horizon(headline_kernel, 0.01) == 1
    with pytest.raises(ContractViolation):
        s.steps_for_horizon(headline_kernel, 0.015)


def test_zero_fixed_point_exact(headline_problem, op_headline):
    prob = s.ProblemSpec(operator=op_headline, kernel=headline_problem.kernel,
                         nonlinearity=headline_problem.nonlinearity, steps=100)
    phi = s.constant_history(op_headline, 0.5, 50, 0.0)
    rec = s.evolve(prob, phi, stride=10)
    assert rec.min_overall == 0.0 and rec.max_overall == 0.0
    assert np.all(rec.full_norm == 0.0)
    assert np.all(rec.low_modes == 0.0)


def test_pure_linear_decay_matches_closed_form(op_headline, nl):
    # zero kernel: u(t) = e^{-lam_hat_1 t} e_1 exactly up to roundoff
    ks = zero_kernel(0.5, 50)
    steps = 200
    prob = s.ProblemSpec(operator=op_headline, kernel=ks, nonlinearity=nl,
                         steps=steps)
    phi = s.constant_history(op_headline, 0.5, 50,
                             s.eigenfunction(op_headline, 1))
    rec = s.evolve(prob, phi, stride=1, record_fields=True)
    lam1 = full_discrete_eigenvalues(op_headline)[0]
    for idx in (1, 50, 200):
        t = rec.times[idx]
        a = s.forward(op_headline, s.GridField(rec.fields[idx])).coeffs
        assert a[0] == pytest.approx(float(np.exp(-lam1 * t)), rel=1e-12)
        assert float(np.abs(a[1:]).max()) <= 1e-12


def test_single_step_forcing_increment_bound(headline_problem, op_headline, nl):
    # one step from a positive constant: growth beyond the linear decay is
    # at most h * sup|F| <= h * M_b M_xi r
    prob = s.ProblemSpec(operator=op_headline, kernel=headline_problem.kernel,
                         nonlinearity=nl, steps=1)
    phi = s.constant_history(op_headline, 0.5, 50, 1.0)
    nxt = s.step(prob, phi)
    cap = prob.h * nl.M_b * prob.kernel.M_xi * prob.r
    assert float(np.abs(nxt.current().values).max()) <= 1.0 + cap * (1 + 1e-9)


def test_step_equals_evolve_bitwise(pi_problem, op_pi):
    rng = np.random.default_rng(40)
    rows = np.abs(rng.normal(size=(51, op_pi.grid_points)))
    phi = s.history_from_rows(op_pi, 0.1, 50, rows)
    steps = 30
    prob = s.ProblemSpec(operator=op_pi, kernel=pi_problem.kernel,
                         nonlinearity=pi_problem.nonlinearity, steps=steps)
    rec = s.evolve(prob, phi, stride=1, record_fields=True)
    v = phi
    for k in range(1, steps + 1):
        v = s.step(prob, v)
        assert np.array_equal(v.current().values, rec.fields[k])


def test_evolve_deterministic_bitwise(pi_problem, op_pi):
    rng = np.random.default_rng(41)
    rows = np.abs(rng.normal(size=(51, op_pi.grid_points)))
    phi = s.history_from_rows(op_pi, 0.1, 50, rows)
    prob = s.ProblemSpec(operator=op_pi, kernel=pi_problem.kernel,
                         nonlinearity=pi_problem.nonlinearity, steps=100)
    a = s.evolve(prob, phi, stride=7, record_fields=True)
    b = s.evolve(prob, phi, stride=7, record_fields=True)
    for x, y in ((a.times, b.times), (a.low_modes, b.low_modes),
                 (a.high_norm, b.high_norm), (a.full_norm, b.full_norm),
                 (a.min_value, b.min_value), (a.fields, b.fields)):
        assert np.array_equal(x, y)
    assert a.min_overall == b.min_overall
    assert a.max_overall == b.max_overall


def test_evolve_sampling_layout(headline_problem, op_headline):
    prob = s.ProblemSpec(operator=headline_problem.operator,
                         kernel=headline_problem.kernel,
                         nonlinearity=headline_problem.nonlinearity, steps=25)
    phi = s.constant_history(op_headline, 0.5, 50, 0.5)
    rec = s.evolve(prob, phi, stride=10)
    # samples at steps 0, 10, 20, and the final step 25
    assert np.allclose(rec.times, [0.0, 0.1, 0.2, 0.25], rtol=1e-12)
    assert rec.low_modes.shape == (4, op_headline.modes)
    rec2 = s.evolve(prob, phi, stride=10, record_modes=3)
    assert rec2.low_modes.shape == (4, 3)
    with pytest.raises(ContractViolation):
        s.evolve(prob, phi, stride=0)
    with pytest.raises(ContractViolation):
        s.evolve(prob, phi, record_modes=op_headline.modes + 1)


def test_high_norm_partition(pi_problem, op_pi):
    rng = np.random.default_rng(42)
    rows = np.abs(rng.normal(size=(51, op_pi.grid_points)))
    phi = s.history_from_rows(op_pi, 0.1, 50, rows)
    prob = s.ProblemSpec(operator=op_pi, kernel=pi_problem.kernel,
                         nonlinearity=pi_problem.nonlinearity, steps=50)
    rec = s.evolve(prob, phi, stride=10, record_modes=4)
    low2 = (rec.low_modes ** 2).sum(axis=1)
    assert np.allclose(low2 + rec.high_norm ** 2, rec.full_norm ** 2,
                       rtol=1e-10, atol=1e-13)


def test_self_convergence_first_order(op_pi, nl):
    # same continuum data at three theta resolutions; errors measured against
    # the finest run must shrink at least linearly in h
    T, r = 2.0, 0.1
    finals = {}
    for m in (25, 50, 100):
        ks = s.make_constant_kernel(r, m, 0.03, 0.02, 0.8)
        prob = s.ProblemSpec(operator=op_pi, kernel=ks, nonlinearity=nl,
                             steps=s.steps_for_horizon(ks, T))
        rng = np.random.default_rng(43)
        phi = s.make_initial_history(op_pi, r, m, "random_positive_fourier",
                                     1.0, rng)
        rec = s.evolve(prob, phi, stride=prob.steps, record_fields=True)
        finals[m] = rec.fields[-1]
    e_coarse = float(np.abs(finals[25] - finals[100]).max())
    e_fine = float(np.abs(finals[50] - finals[100]).max())
    order = np.log2(e_coarse / e_fine)
    assert order >= 0.9


def test_dissipativity_zero_kernel_decays(op_pi, nl):
    ks = zero_kernel(0.1, 20)
    prob = s.ProblemSpec(operator=op_pi, kernel=ks, nonlinearity=nl,
                         steps=s.steps_for_horizon(ks, 10.0))
    phi = s.constant_history(op_pi, 0.1, 20, 1.0)
    rec = s.evolve(prob, phi, stride=1)
    peak = rec.full_norm[rec.times >= 5.0 - 1e-12].max()  # over [T/2, T]
    lam1 = full_discrete_eigenvalues(op_pi)[0]
    start = s.field_l2_norm(op_pi, phi.current())
    assert peak <= start * float(np.exp(-lam1 * 5.0)) * (1 + 1e-9)


def test_dissipativity_absorbing_bound_headline(headline_problem, op_headline, nl):
    # ||u(t)|| <= e^{-lam_hat_1 t} ||u0|| + C_F (1 - e^{-lam_hat_1 t}) / lam_hat_1
    ks = headline_problem.kernel
    prob = s.ProblemSpec(operator=op_headline, kernel=ks, nonlinearity=nl,
                         steps=s.steps_for_horizon(ks, 25.0))
    phi = s.constant_history(op_headline, 0.5, 50, 1.0)
    rec = s.evolve(prob, phi, stride=1)
    lam1 = full_discrete_eigenvalues(op_headline)[0]
    c_f = nl.M_b * ks.M_xi * ks.r * np.sqrt(op_headline.domain_length)
    decay = np.exp(-lam1 * rec.times)
    envelope = decay * rec.full_norm[0] + c_f * (1.0 - decay) / lam1
    assert np.all(rec.full_norm <= envelope * (1 + 1e-9))


def test_dissipativity_pi_domain_reaches_radius(pi_problem, op_pi, nl):
    # lam_1 = O(1): by T = 25 the transient is gone and the radius bound binds
    ks = pi_problem.kernel
    prob = s.ProblemSpec(operator=op_pi, kernel=ks, nonlinearity=nl,
                         steps=s.steps_for_horizon(ks, 25.0))
    phi = s.constant_history(op_pi, 0.1, 50, 1.0)
    rec = s.evolve(prob, phi, stride=1)
    peak = rec.full_norm[rec.times >= 12.5 - 1e-12].max()  # over [T/2, T]
    lam1 = full_discrete_eigenvalues(op_pi)[0]
    radius = nl.M_b * ks.M_xi * ks.r * np.sqrt(op_pi.domain_length) / lam1
    transient = float(np.exp(-lam1 * 12.5)) * s.field_l2_norm(op_pi, phi.current())
    assert peak <= (radius + transient) * 1.01


def test_integration_failure_step_index(op_headline, headline_kernel, nl):
    prob = s.ProblemSpec(operator=op_headline, kernel=headline_kernel,
                         nonlinearity=nl, steps=10)
    phi = s.constant_history(op_headline, 0.5, 50, 1e200)
    with pytest.raises(IntegrationFailure) as exc:
        s.evolve(prob, phi)
    assert exc.value.step_index == 1
    assert "step 1" in str(exc.value)


def test_engine_grid_mismatch(headline_problem, op_headline):
    other = s.OperatorSpec(100.0, 8, 64)
    with pytest.raises(GridMismatch):
        s.step(headline_problem, s.constant_history(other, 0.5, 50, 1.0))
    with pytest.raises(GridMismatch):
        s.step(headline_problem, s.constant_history(op_headline, 0.5, 40, 1.0))


def test_trajectory_csv_text(pi_problem, op_pi):
    prob = s.ProblemSpec(operator=op_pi, kernel=pi_problem.kernel,
                         nonlinearity=pi_problem.nonlinearity, steps=20)
    phi = s.constant_history(op_pi, 0.1, 50, 0.3)
    rec = s.evolve(prob, phi, stride=10, record_modes=2)
    text = rec.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "t,a_1,a_2,high_norm,full_norm,min_value"
    assert len(lines) == 1 + rec.times.size
    row = [float(c) for c in lines[1].split(",")]
    assert row[0] == 0.0
    assert row[1] == float(rec.low_modes[0, 0])  # repr floats roundtrip exactly
