"""History segments: construction, sign partition, norms, and the ring push."""

import numpy as np
import pytest

import sddlab as s
from sddlab.errors import ContractViolation, GridMismatch

from conftest import random_history

# frozen reference values
TWO_SQRT_PI = 3.5449077018110321  # ||2||_{L2(0,pi)}
THETA_QUAD_REF = 0.18568076694054456  # int_{-1/2}^0 (1+th)^2 dth * int_0^1 sin(pi x) dx


def test_theta_weights_trapezoid():
    w = s.theta_weights(0.5, 50)
    assert w.shape == (51,)
    assert w[0] == w[-1] == 0.5 * (0.5 / 50)
    assert np.all(w[1:-1] == 0.5 / 50)
    assert float(w.sum()) == pytest.approx(0.5, rel=1e-14)


def test_partition_is_exact_bitwise(op_headline):
    rng = np.random.default_rng(10)
    v = random_history(op_headline, 0.5, 20, rng)
    pos, neg = s.positive_part(v), s.negative_part(v)
    assert np.all(pos.values >= 0.0)
    assert np.all(neg.values <= 0.0)
    assert np.array_equal(pos.values + neg.values, v.values)
    assert np.all(pos.values * neg.values == 0.0)


def test_norm_L1L1_constant_exact_dyadic():
    # every quantity dyadic: the quadrature telescopes with no rounding at all
    op = s.OperatorSpec(1.0, 4, 8)
    v = s.constant_history(op, 0.5, 4, 2.0)
    assert s.norm_L1L1(v) == 1.0  # r * L * c = 0.5 * 1 * 2


def test_norm_L1L1_constant_headline(op_headline):
    v = s.constant_history(op_headline, 0.5, 50, 0.01)
    assert s.norm_L1L1(v) == pytest.approx(0.5, rel=1e-13)  # 0.5 * 100 * 0.01
    w = s.constant_history(op_headline, 0.5, 50, -0.01)
    assert s.norm_L1L1(w) == pytest.approx(0.5, rel=1e-13)


def test_norm_L1L1_additive_over_partition(op_headline):
    rng = np.random.default_rng(11)
    v = random_history(op_headline, 0.5, 30, rng)
    total = s.norm_L1L1(v)
    split = s.norm_L1L1(s.positive_part(v)) + s.norm_L1L1(s.negative_part(v))
    assert split == pytest.approx(total, rel=1e-12)


def test_norm_L1L1_quadrature_converges_to_smooth_integral():
    op = s.OperatorSpec(1.0, 8, 1024)
    x = op.nodes()

    def segment(m):
        theta = -0.5 + np.arange(m + 1) * (0.5 / m)
        rows = (1.0 + theta)[:, None] ** 2 * np.sin(np.pi * x)[None, :]
        return s.history_from_rows(op, 0.5, m, rows)

    # against the analytic double integral
    assert abs(s.norm_L1L1(segment(400)) - THETA_QUAD_REF) \
        <= 2e-5 * THETA_QUAD_REF
    # theta error in isolation (x quadrature factored out) is second order
    x_quad = float(op.h_x * np.sin(np.pi * x).sum())
    theta_exact = (1.0 - 0.5 ** 3) / 3.0
    err = [abs(s.norm_L1L1(segment(m)) - x_quad * theta_exact)
           for m in (100, 200, 400)]
    assert err[0] / err[1] == pytest.approx(4.0, rel=0.05)
    assert err[1] / err[2] == pytest.approx(4.0, rel=0.05)


def test_norm_C_constant_frozen():
    op = s.OperatorSpec(float(np.pi), 4, 64)
    v = s.constant_history(op, 0.1, 5, 2.0)
    assert s.norm_C(v) == pytest.approx(TWO_SQRT_PI, rel=1e-14)


def test_norm_C_takes_sup_over_theta(op_headline):
    rows = np.zeros((11, op_headline.grid_points))
    rows[3] = 0.5
    v = s.history_from_rows(op_headline, 0.5, 10, rows)
    expected = float(np.sqrt(op_headline.h_x * op_headline.grid_points) * 0.5)
    assert s.norm_C(v) == pytest.approx(expected, rel=1e-14)


def test_embedding_L1L1_below_C(op_headline):
    rng = np.random.default_rng(12)
    L = op_headline.domain_length
    for i in range(1000):
        m = int(rng.integers(2, 12))
        r = float(rng.uniform(0.05, 2.0))
        v = random_history(op_headline, r, m, rng, scale=rng.uniform(0.1, 10.0))
        assert s.norm_L1L1(v) <= r * np.sqrt(L) * s.norm_C(v) * (1 + 1e-12)


def test_push_fifo_and_bitwise_retention(op_headline):
    rng = np.random.default_rng(13)
    v = random_history(op_headline, 0.5, 6, rng)
    new = s.GridField(rng.normal(size=op_headline.grid_points))
    pushed = s.push(v, new)
    assert np.array_equal(pushed.values[:-1], v.values[1:])
    assert np.array_equal(pushed.values[-1], new.values)
    assert pushed.r == v.r and pushed.m == v.m


def test_push_grid_mismatch(op_headline):
    v = s.constant_history(op_headline, 0.5, 5, 1.0)
    with pytest.raises(GridMismatch):
        s.push(v, s.GridField(np.zeros(3)))


def test_segment_contracts(op_headline):
    good = np.zeros((6, op_headline.grid_points))
    with pytest.raises(ContractViolation):
        s.history_from_rows(op_headline, 0.5, 6, good)  # needs 7 rows
    with pytest.raises(GridMismatch):
        s.history_from_rows(op_headline, 0.5, 5, np.zeros((6, 16)))
    with pytest.raises(ContractViolation):
        s.history_from_rows(op_headline, 0.5, 0, good[:1])
    with pytest.raises(ContractViolation):
        s.history_from_rows(op_headline, -0.5, 5, good)
    with pytest.raises(ContractViolation):
        s.constant_history(op_headline, np.inf, 5, 1.0)


def test_snapshot_accessors(op_headline):
    rng = np.random.default_rng(14)
    v = random_history(op_headline, 0.5, 4, rng)
    assert np.array_equal(v.snapshot(0).values, v.values[0])
    assert np.array_equal(v.current().values, v.values[4])
    theta = v.theta_nodes()
    assert theta[0] == -0.5 and theta[-1] == 0.0
    assert len(theta) == 5
    with pytest.raises(ContractViolation):
        v.snapshot(5)


def test_constant_history_from_field(op_headline):
    f = s.GridField(np.linspace(0, 1, op_headline.grid_points))
    v = s.constant_history(op_headline, 0.5, 3, f)
    for j in range(4):
        assert np.array_equal(v.values[j], f.values)
    with pytest.raises(GridMismatch):
        s.constant_history(op_headline, 0.5, 3, s.GridField(np.zeros(3)))


def test_values_readonly(op_headline):
    v = s.constant_history(op_headline, 0.5, 3, 1.0)
    with pytest.raises(ValueError):
        v.values[0, 0] = 2.0
