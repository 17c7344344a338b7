"""Nonlinearity evaluation, constant certification, and the delay forcing term."""

import dataclasses

import numpy as np
import pytest

import sddlab as s
from sddlab.errors import ContractViolation

from reference import delay_term

# frozen closed forms (p = 1): sup b at w = 2, sup |b'| at w = 2 - sqrt(2)
M_B_CLOSED = 0.54134113294645077  # 4 e^{-2}
L_B_CLOSED = 0.46115879200720347  # 2 (sqrt(2)-1) e^{sqrt(2)-2}
B_001 = 9.9004983374916805e-5     # b(0.01)


def refine_max(f, lo, hi, rounds=8, pts=4001):
    """Independent progressive-refinement oracle (pure numpy, no package code)."""
    for _ in range(rounds):
        xs = np.linspace(lo, hi, pts)
        ys = f(xs)
        i = int(np.argmax(ys))
        w = (hi - lo) / (pts - 1)
        lo, hi = max(lo, xs[i] - 2 * w), min(hi, xs[i] + 2 * w)
    return float(ys[i])


def test_b_zero_fixed_point(nl):
    assert s.b_eval(nl, 0.0) == 0.0
    assert s.b_prime(nl, 0.0) == 0.0


def test_b_peak_frozen(nl):
    assert float(s.b_eval(nl, 2.0)) == pytest.approx(M_B_CLOSED, rel=1e-15)
    assert float(s.b_eval(nl, 2.0)) == 4.0 * np.exp(-2.0)
    assert float(s.b_prime(nl, 2.0)) == 0.0  # critical point


def test_b_even_and_prime_odd(nl):
    w = np.linspace(-10, 10, 201)
    assert np.array_equal(s.b_eval(nl, w), s.b_eval(nl, -w))
    assert np.array_equal(s.b_prime(nl, w), -s.b_prime(nl, -w))


def test_p_scaling_exact():
    w = np.linspace(-5, 5, 101)
    b1 = s.b_eval(s.nicholson(1.0), w)
    b2 = s.b_eval(s.nicholson(2.0), w)
    assert np.array_equal(b2, 2.0 * b1)


def test_certified_constants_match_closed_forms(nl):
    assert nl.M_b == pytest.approx(M_B_CLOSED, abs=1e-9)
    assert nl.L_b == pytest.approx(L_B_CLOSED, abs=1e-9)


# p -> the bits of (M_b, L_b) from the grid plus golden-section search; a
# change to how the constants are computed must not move them
CONSTANTS_BITS = {
    0.5: ("0x1.152aaa3bf81cbp-2", "0x1.d83a02a7bc377p-3"),
    1.0: ("0x1.152aaa3bf81cbp-1", "0x1.d83a02a7bc377p-2"),
    2.0: ("0x1.152aaa3bf81cbp+0", "0x1.d83a02a7bc377p-1"),
    1e-3: ("0x1.1bd193b224fa9p-11", "0x1.e38f5ee10244fp-12"),
    3.7: ("0x1.006110aaabe76p+1", "0x1.b4cf4274c14cbp+0"),
    1e300: ("0x1.9ddf0d43fc362p+995", "0x1.6091cc7f3cb24p+995"),
}


@pytest.mark.parametrize("p", sorted(CONSTANTS_BITS))
def test_constants_bitwise(p):
    spec = s.nicholson(p)
    assert (spec.M_b.hex(), spec.L_b.hex()) == CONSTANTS_BITS[p]
    assert type(spec.M_b) is float and type(spec.L_b) is float
    if p == 1.0:
        assert (spec.M_b, spec.L_b) == (0.5413411329464507, 0.4611587920072035)


def test_certified_constants_match_independent_refinement(nl):
    ref_mb = refine_max(lambda w: s.b_eval(nl, w), 0.0, 20.0)
    ref_lb = refine_max(lambda w: np.abs(s.b_prime(nl, w)), 0.0, 20.0)
    assert abs(nl.M_b - ref_mb) <= 1e-6
    assert abs(nl.L_b - ref_lb) <= 1e-6


def test_certified_scales_with_p(nl):
    nl2 = s.nicholson(2.0)
    assert nl2.M_b == pytest.approx(2.0 * nl.M_b, rel=1e-12)
    assert nl2.L_b == pytest.approx(2.0 * nl.L_b, rel=1e-12)


def test_nonlinearity_contracts():
    for p in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ContractViolation, match="finite and > 0"):
            s.nicholson(p)
    # the constants follow from p alone and cannot be passed in
    for forged in ({"M_b": 1.0}, {"L_b": 1.0}, {"constants_certified": True}):
        with pytest.raises(TypeError):
            s.NonlinearitySpec(p=1.0, **forged)
    with pytest.raises(ValueError):
        dataclasses.replace(s.nicholson(5.0), M_b=0.5413411329464507)
    # replace recomputes them for the new p
    assert dataclasses.replace(s.nicholson(1.0), p=2.0) == s.nicholson(2.0)
    # past ~4.5e305 the search overflows, at 4.4943e305 only at the tail
    for p in (4.4943e305, 5e305, 1e308):
        with pytest.raises(ContractViolation, match="p=.* is too large"):
            s.nicholson(p)


def test_delay_term_zero_state(nl, headline_kernel, op_headline):
    v = s.constant_history(op_headline, 0.5, 50, 0.0)
    out = delay_term(nl, headline_kernel, v)
    assert np.all(out.values == 0.0)


def test_delay_term_constant_state_closed_form(nl, headline_kernel, op_headline):
    # constant c > 0: B1 = b(c) * gate * int xi_plus, gate = min(c r L, 1)
    c = 0.01
    v = s.constant_history(op_headline, 0.5, 50, c)
    out = delay_term(nl, headline_kernel, v)
    expected = B_001 * 0.5 * 6e-5
    assert np.allclose(out.values, expected, rtol=1e-12, atol=0.0)
    # the n variant sees no negative mass at all
    assert np.all(delay_term(nl, headline_kernel, v, "n").values == 0.0)


def test_delay_term_full_equals_p_on_positive_cone(nl, headline_kernel,
                                                   op_headline):
    rng = np.random.default_rng(30)
    for _ in range(10):
        rows = np.abs(rng.normal(size=(51, op_headline.grid_points))) + 0.01
        v = s.HistorySegment(op_headline, 0.5, 50, rows)
        full = delay_term(nl, headline_kernel, v, "full").values
        p = delay_term(nl, headline_kernel, v, "p").values
        assert np.array_equal(full, p)


def test_delay_term_sign_on_positive_cone(nl, headline_kernel, op_headline):
    rng = np.random.default_rng(31)
    rows = np.abs(rng.normal(size=(51, op_headline.grid_points)))
    v = s.HistorySegment(op_headline, 0.5, 50, rows)
    assert np.all(delay_term(nl, headline_kernel, v, "p").values >= 0.0)
    assert np.all(delay_term(nl, headline_kernel, v, "full").values >= 0.0)


def test_delay_term_uniform_bound(nl, headline_kernel, op_headline):
    # |B1(x)| <= M_b * (int|xi_plus| + int|xi_minus|) <= M_b M_xi r
    rng = np.random.default_rng(32)
    ks = headline_kernel
    cap = nl.M_b * ks.M_xi * ks.r
    for _ in range(50):
        v = s.HistorySegment(op_headline, ks.r, ks.m,
                             rng.normal(scale=rng.uniform(0.1, 10.0),
                                        size=(51, op_headline.grid_points)))
        out = delay_term(nl, ks, v).values
        assert float(np.abs(out).max()) <= cap * (1 + 1e-12)
        l2 = s.field_l2_norm(op_headline, s.GridField(out))
        assert l2 <= cap * np.sqrt(op_headline.domain_length) * (1 + 1e-12)
