"""Kernel construction, caps, gate behavior, variants, and the A2-type bound."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sddlab as s
from sddlab.errors import CapViolation, ContractViolation, GridMismatch
from sddlab.kernel import gates

from conftest import random_history


def test_make_constant_kernel_levels(headline_kernel):
    # levels are integral / r; division by the dyadic r = 0.5 is exact
    assert np.all(headline_kernel.xi_plus == 1.2e-4)
    assert np.all(headline_kernel.xi_minus == -3.6e-4)
    assert headline_kernel.M_xi == 8e-4


def test_make_constant_kernel_cap_errors():
    with pytest.raises(CapViolation, match=r"plus_integral/r <= M_xi/2"):
        s.make_constant_kernel(0.1, 50, 0.03, 0.02, 0.5)
    with pytest.raises(CapViolation, match=r"minus_integral/r <= M_xi/2"):
        s.make_constant_kernel(0.1, 50, 0.01, 0.05, 0.5)
    with pytest.raises(ContractViolation):
        s.make_constant_kernel(0.1, 50, -0.01, 0.0, 0.5)
    with pytest.raises(ContractViolation):
        s.make_constant_kernel(-0.1, 50, 0.01, 0.0, 0.5)


def test_kernel_spec_sign_and_cap_contracts():
    m = 4
    ok_plus = np.full(m + 1, 0.2)
    ok_minus = np.full(m + 1, -0.2)
    with pytest.raises(ContractViolation, match="xi_plus must be >= 0"):
        s.KernelSpec(r=1.0, m=m, xi_plus=-ok_plus, xi_minus=ok_minus, M_xi=1.0)
    with pytest.raises(ContractViolation, match="xi_minus must be <= 0"):
        s.KernelSpec(r=1.0, m=m, xi_plus=ok_plus, xi_minus=-ok_minus, M_xi=1.0)
    with pytest.raises(CapViolation, match=r"sup\|xi_plus\| <= M_xi/2"):
        s.KernelSpec(r=1.0, m=m, xi_plus=ok_plus, xi_minus=ok_minus, M_xi=0.3)
    with pytest.raises(CapViolation, match=r"sup\|xi_minus\| <= M_xi/2"):
        s.KernelSpec(r=1.0, m=m, xi_plus=0.1 * ok_plus, xi_minus=ok_minus,
                     M_xi=0.3)
    with pytest.raises(ContractViolation):
        s.KernelSpec(r=1.0, m=m, xi_plus=ok_plus[:3], xi_minus=ok_minus, M_xi=1.0)
    with pytest.raises(ContractViolation):
        s.KernelSpec(r=1.0, m=m, xi_plus=ok_plus * np.nan, xi_minus=ok_minus,
                     M_xi=1.0)


def test_eval_xi_zero_history(headline_kernel, op_headline):
    v = s.constant_history(op_headline, 0.5, 50, 0.0)
    for variant in ("full", "p", "n"):
        assert np.all(s.eval_xi(headline_kernel, v, variant) == 0.0)


def test_eval_xi_half_gate(headline_kernel, op_headline):
    # ||v_plus||_L1L1 = 0.01 * 0.5 * 100 = 0.5: the gate is unclipped
    v = s.constant_history(op_headline, 0.5, 50, 0.01)
    xi = s.eval_xi(headline_kernel, v, "full")
    assert np.allclose(xi, 0.5 * headline_kernel.xi_plus, rtol=1e-12, atol=0.0)
    assert np.allclose(s.eval_xi(headline_kernel, v, "p"), xi,
                       rtol=1e-15, atol=0.0)
    assert np.all(s.eval_xi(headline_kernel, v, "n") == 0.0)


def test_eval_xi_clipped_gate(headline_kernel, op_headline):
    # ||v_plus||_L1L1 = 50 >> 1: the gate saturates at exactly 1
    v = s.constant_history(op_headline, 0.5, 50, 1.0)
    xi = s.eval_xi(headline_kernel, v, "full")
    assert np.array_equal(xi, headline_kernel.xi_plus)


def test_eval_xi_negative_state_mirror(headline_kernel, op_headline):
    v = s.constant_history(op_headline, 0.5, 50, -1.0)
    xi = s.eval_xi(headline_kernel, v, "full")
    assert np.array_equal(xi, headline_kernel.xi_minus)
    assert np.all(s.eval_xi(headline_kernel, v, "p") == 0.0)


def test_l11_constant_values(headline_kernel):
    assert s.l11_constant(headline_kernel, "p") == pytest.approx(6e-5, rel=1e-13)
    assert s.l11_constant(headline_kernel, "n") == pytest.approx(1.8e-4, rel=1e-13)
    assert s.l11_constant(headline_kernel, "full") == pytest.approx(
        1.8e-4, rel=1e-13)
    assert s.l11_constant(headline_kernel) == s.l11_constant(headline_kernel,
                                                             s.KernelVariant.FULL)


def test_unknown_variant_rejected(headline_kernel, op_headline):
    v = s.constant_history(op_headline, 0.5, 50, 1.0)
    with pytest.raises(ContractViolation, match="unknown kernel variant"):
        s.eval_xi(headline_kernel, v, "pn")
    with pytest.raises(ContractViolation):
        s.l11_constant(headline_kernel, "x")


def test_eval_xi_window_mismatch(headline_kernel, op_headline):
    with pytest.raises(GridMismatch):
        s.eval_xi(headline_kernel, s.constant_history(op_headline, 0.5, 40, 1.0))
    with pytest.raises(GridMismatch):
        s.eval_xi(headline_kernel, s.constant_history(op_headline, 0.4, 50, 1.0))


def test_kernel_lipschitz_bound_all_variants(headline_kernel, op_headline):
    # int |xi(., v1) - xi(., v2)| <= l11 * ||v1 - v2||_L1L1  (trapezoid form)
    rng = np.random.default_rng(20)
    ks = headline_kernel
    w = s.theta_weights(ks.r, ks.m)
    for i in range(200):
        scale = rng.uniform(0.001, 3.0)
        v1 = random_history(op_headline, ks.r, ks.m, rng, scale=scale)
        if i % 3 == 0:
            v2 = s.HistorySegment(op_headline, ks.r, ks.m,
                                  rng.uniform(0.0, 2.0) * v1.values)
        else:
            v2 = random_history(op_headline, ks.r, ks.m, rng, scale=scale)
        d11 = s.norm_L1L1(s.HistorySegment(op_headline, ks.r, ks.m,
                                           v1.values - v2.values))
        for variant in s.KernelVariant:
            num = float(np.dot(w, np.abs(s.eval_xi(ks, v1, variant)
                                         - s.eval_xi(ks, v2, variant))))
            assert num <= s.l11_constant(ks, variant) * d11 * (1 + 1e-10)


def test_sup_cap_invariant(headline_kernel, op_headline):
    rng = np.random.default_rng(21)
    for _ in range(100):
        v = random_history(op_headline, 0.5, 50, rng, scale=rng.uniform(0.01, 5.0))
        xi = s.eval_xi(headline_kernel, v)
        assert float(np.abs(xi).max()) <= headline_kernel.M_xi * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.0, 1e6), b=st.floats(0.0, 1e6))
def test_clip_gate_properties(a, b):
    # a one-node window of weight 1: the gates are the clipped masses a, b
    gate_a, gate_b = gates(np.array([1.0]), np.array([[a], [b]]))
    assert 0.0 <= gate_a <= 1.0
    assert abs(gate_a - gate_b) <= abs(a - b)


def test_variant_additivity_bitwise(headline_kernel, op_headline):
    rng = np.random.default_rng(22)
    for _ in range(20):
        v = random_history(op_headline, 0.5, 50, rng)
        full = s.eval_xi(headline_kernel, v, "full")
        p = s.eval_xi(headline_kernel, v, "p")
        n = s.eval_xi(headline_kernel, v, "n")
        assert np.array_equal(full, p + n)


def test_positive_cone_coincidence_bitwise(headline_kernel, op_headline):
    rng = np.random.default_rng(23)
    for _ in range(20):
        rows = np.abs(rng.normal(size=(51, op_headline.grid_points))) + 0.001
        v = s.HistorySegment(op_headline, 0.5, 50, rows)
        assert np.array_equal(s.eval_xi(headline_kernel, v, "full"),
                              s.eval_xi(headline_kernel, v, "p"))
