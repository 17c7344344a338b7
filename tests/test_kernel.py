"""Kernel construction, caps, gate behavior, variants, and the A2-type bound."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sddlab as s
from sddlab.errors import CapViolation, ContractViolation, GridMismatch
from sddlab.kernel import gates, sign_masses

from conftest import random_history
from reference import eval_xi, norm_L1L1


def test_make_constant_kernel_levels(headline_kernel):
    # levels are integral / r; division by the dyadic r = 0.5 is exact
    assert np.all(headline_kernel.xi_plus == 1.2e-4)
    assert np.all(headline_kernel.xi_minus == -3.6e-4)
    assert headline_kernel.M_xi == 8e-4


def _message(exc_type, build) -> str:
    with pytest.raises(exc_type) as err:
        build()
    return str(err.value)


def test_make_constant_kernel_cap_errors():
    assert _message(CapViolation, lambda: s.make_constant_kernel(
        0.1, 50, 0.03, 0.02, 0.5)) == "plus_integral/r <= M_xi/2 violated: 0.3 > 0.25"
    assert _message(CapViolation, lambda: s.make_constant_kernel(
        0.1, 50, 0.01, 0.05, 0.5)) == "minus_integral/r <= M_xi/2 violated: 0.5 > 0.25"
    # two faults: plus is checked before minus, and a sign before either cap
    assert _message(CapViolation, lambda: s.make_constant_kernel(
        0.1, 50, 0.03, 0.05, 0.5)) == "plus_integral/r <= M_xi/2 violated: 0.3 > 0.25"
    assert _message(ContractViolation, lambda: s.make_constant_kernel(
        0.1, 50, 0.03, -0.05, 0.5)) == ("minus_integral must be a real number, "
                                        "finite and >= 0")
    with pytest.raises(ContractViolation):
        s.make_constant_kernel(0.1, 50, -0.01, 0.0, 0.5)
    with pytest.raises(ContractViolation):
        s.make_constant_kernel(-0.1, 50, 0.01, 0.0, 0.5)


def test_kernel_spec_sign_and_cap_contracts():
    m = 4
    ok_plus = np.full(m + 1, 0.2)
    ok_minus = np.full(m + 1, -0.2)
    # the sup is a numpy float, so the message holds numpy's repr of it
    sup = repr(np.float64(0.2))
    with pytest.raises(ContractViolation, match="xi_plus must be >= 0"):
        s.KernelSpec(r=1.0, m=m, xi_plus=-ok_plus, xi_minus=ok_minus, M_xi=1.0)
    with pytest.raises(ContractViolation, match="xi_minus must be <= 0"):
        s.KernelSpec(r=1.0, m=m, xi_plus=ok_plus, xi_minus=-ok_minus, M_xi=1.0)
    # both sups exceed the cap: plus is checked first
    assert _message(CapViolation, lambda: s.KernelSpec(
        r=1.0, m=m, xi_plus=ok_plus, xi_minus=ok_minus, M_xi=0.3)) == (
        f"sup|xi_plus| <= M_xi/2 violated: {sup} > 0.15")
    assert _message(CapViolation, lambda: s.KernelSpec(
        r=1.0, m=m, xi_plus=0.1 * ok_plus, xi_minus=ok_minus, M_xi=0.3)) == (
        f"sup|xi_minus| <= M_xi/2 violated: {sup} > 0.15")
    # two faults: a sign of either profile is checked before either cap
    for plus, minus, message in (
            (ok_plus, -ok_minus, "xi_minus must be <= 0 at every node"),
            (-ok_plus, ok_minus, "xi_plus must be >= 0 at every node")):
        assert _message(ContractViolation, lambda: s.KernelSpec(
            r=1.0, m=m, xi_plus=plus, xi_minus=minus, M_xi=0.3)) == message
    with pytest.raises(ContractViolation):
        s.KernelSpec(r=1.0, m=m, xi_plus=ok_plus[:3], xi_minus=ok_minus, M_xi=1.0)
    with pytest.raises(ContractViolation):
        s.KernelSpec(r=1.0, m=m, xi_plus=ok_plus * np.nan, xi_minus=ok_minus,
                     M_xi=1.0)


def test_eval_xi_zero_history(headline_kernel, op_headline):
    v = s.constant_history(op_headline, 0.5, 50, 0.0)
    for variant in ("full", "p", "n"):
        assert np.all(eval_xi(headline_kernel, v, variant) == 0.0)


def test_eval_xi_half_gate(headline_kernel, op_headline):
    # ||v_plus||_L1L1 = 0.01 * 0.5 * 100 = 0.5: the gate is unclipped
    v = s.constant_history(op_headline, 0.5, 50, 0.01)
    xi = eval_xi(headline_kernel, v, "full")
    assert np.allclose(xi, 0.5 * headline_kernel.xi_plus, rtol=1e-12, atol=0.0)
    assert np.allclose(eval_xi(headline_kernel, v, "p"), xi,
                       rtol=1e-15, atol=0.0)
    assert np.all(eval_xi(headline_kernel, v, "n") == 0.0)


def test_eval_xi_clipped_gate(headline_kernel, op_headline):
    # ||v_plus||_L1L1 = 50 >> 1: the gate saturates at exactly 1
    v = s.constant_history(op_headline, 0.5, 50, 1.0)
    xi = eval_xi(headline_kernel, v, "full")
    assert np.array_equal(xi, headline_kernel.xi_plus)


def test_eval_xi_negative_state_mirror(headline_kernel, op_headline):
    v = s.constant_history(op_headline, 0.5, 50, -1.0)
    xi = eval_xi(headline_kernel, v, "full")
    assert np.array_equal(xi, headline_kernel.xi_minus)
    assert np.all(eval_xi(headline_kernel, v, "p") == 0.0)


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
        eval_xi(headline_kernel, v, "pn")
    with pytest.raises(ContractViolation):
        s.l11_constant(headline_kernel, "x")


def test_eval_xi_window_mismatch(headline_kernel, op_headline):
    with pytest.raises(GridMismatch):
        eval_xi(headline_kernel, s.constant_history(op_headline, 0.5, 40, 1.0))
    with pytest.raises(GridMismatch):
        eval_xi(headline_kernel, s.constant_history(op_headline, 0.4, 50, 1.0))


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
        d11 = norm_L1L1(s.HistorySegment(op_headline, ks.r, ks.m,
                                         v1.values - v2.values))
        for variant in s.KernelVariant:
            num = float(np.dot(w, np.abs(eval_xi(ks, v1, variant)
                                         - eval_xi(ks, v2, variant))))
            assert num <= s.l11_constant(ks, variant) * d11 * (1 + 1e-10)


def test_sup_cap_invariant(headline_kernel, op_headline):
    rng = np.random.default_rng(21)
    for _ in range(100):
        v = random_history(op_headline, 0.5, 50, rng, scale=rng.uniform(0.01, 5.0))
        xi = eval_xi(headline_kernel, v)
        assert float(np.abs(xi).max()) <= headline_kernel.M_xi * (1 + 1e-12)


def two_sum_masses(values, h_x):
    """The masses as two separate sums, written out here so that the bits of
    sign_masses' one stacked sum are checked against code it does not share."""
    plus = np.maximum(values, 0.0).sum(axis=-1)
    minus = np.negative(np.minimum(values, 0.0)).sum(axis=-1)
    return h_x * np.array([plus, minus])


def test_sign_masses_bits_match_two_sums(op_headline):
    # signed data over 13 decades with exact zeros, -0.0, +-inf and NaN, some
    # rows free of the non-finite values; without scratch, with a (2,) + shape
    # one, and with one whose planes are not adjacent (a slice of a larger
    # buffer, as the Lipschitz sampler's last chunk passes it)
    rng = np.random.default_rng(27)
    h_x = op_headline.h_x
    for shape in ((131,), (9, 128), (3, 2, 51, 64)):
        v = rng.normal(size=shape) * 10.0 ** rng.integers(-7, 7, size=shape)
        rows = v.reshape(-1, shape[-1])
        rows[:, ::5] = 0.0
        rows[:, 1::7] = -0.0
        for row in rows[::2]:
            row[rng.choice(shape[-1], size=3, replace=False)] = np.inf, -np.inf, np.nan
        expected = two_sum_masses(v, h_x)
        assert np.isnan(expected).any()
        assert v.ndim == 1 or np.isfinite(expected).any()
        larger = np.empty((2, shape[0] + 3) + shape[1:])
        for scratch in (None, np.empty((2,) + shape), larger[:, :shape[0]]):
            masses = sign_masses(v, h_x, scratch=scratch)
            assert masses.shape == expected.shape
            assert masses.tobytes() == expected.tobytes()


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
        full = eval_xi(headline_kernel, v, "full")
        p = eval_xi(headline_kernel, v, "p")
        n = eval_xi(headline_kernel, v, "n")
        assert np.array_equal(full, p + n)


def test_positive_cone_coincidence_bitwise(headline_kernel, op_headline):
    rng = np.random.default_rng(23)
    for _ in range(20):
        rows = np.abs(rng.normal(size=(51, op_headline.grid_points))) + 0.001
        v = s.HistorySegment(op_headline, 0.5, 50, rows)
        assert np.array_equal(eval_xi(headline_kernel, v, "full"),
                              eval_xi(headline_kernel, v, "p"))
