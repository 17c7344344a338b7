"""Shared fixtures: reference operating points used across the suite.

The "headline" configuration (L=100, N=1, r=0.5 with the small constant
kernel) is the slow-spectrum certificate example; the "pi" configuration
(L=pi, N=3, r=0.1) has O(1) eigenvalue gaps and is used wherever visible
decay within a short horizon is needed.
"""

import numpy as np
import pytest

import sddlab as s


@pytest.fixture(scope="session")
def nl():
    return s.nicholson(1.0)


@pytest.fixture(scope="session")
def op_headline():
    return s.OperatorSpec(domain_length=100.0, modes=8, grid_points=128)


@pytest.fixture(scope="session")
def headline_kernel():
    return s.make_constant_kernel(0.5, 50, 6e-5, 1.8e-4, 8e-4)


@pytest.fixture(scope="session")
def headline_problem(op_headline, headline_kernel, nl):
    return s.ProblemSpec(operator=op_headline, kernel=headline_kernel,
                         nonlinearity=nl)


@pytest.fixture(scope="session")
def op_pi():
    return s.OperatorSpec(domain_length=float(np.pi), modes=8, grid_points=64)


@pytest.fixture(scope="session")
def pi_kernel():
    return s.make_constant_kernel(0.1, 50, 0.03, 0.02, 0.8)


@pytest.fixture(scope="session")
def pi_problem(op_pi, pi_kernel, nl):
    return s.ProblemSpec(operator=op_pi, kernel=pi_kernel, nonlinearity=nl)


def random_history(op, r, m, rng, scale=1.0):
    """Signed random segment helper used by several property tests."""
    rows = scale * rng.normal(size=(m + 1, op.grid_points))
    return s.HistorySegment(op, r, m, rows)
