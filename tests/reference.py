"""Serial reference definitions: test oracles for the batched code.

Each function evaluates one history segment at a time with the plain
formula.  The solver's engine, ``evolve`` and the stacked Lipschitz
evaluator in ``experiments`` must reproduce them bit for bit, row by row;
the tests import them with ``from reference import ...``.
"""

import numpy as np
import scipy.fft

from sddlab.errors import GridMismatch
from sddlab.history import (HistorySegment, _snapshot_l1, _snapshot_l2,
                            theta_weights)
from sddlab.kernel import (KernelVariant, _as_variant, combine_profiles, gates,
                           sign_masses)
from sddlab.nonlinear import b_eval
from sddlab.spectral import GridField, full_discrete_eigenvalues


def norm_L1L1(v) -> float:
    """Iterated norm int_{-r}^0 int_Omega |v(theta, x)| dx dtheta.

    Trapezoid in theta over midpoint x-integrals; exact for fields constant
    in (theta, x): result r * L * |c|.
    """
    return float(np.dot(theta_weights(v.r, v.m),
                        _snapshot_l1(v.values, v.operator.h_x)))


def norm_C(v) -> float:
    """Sup over theta nodes of the spatial L2 norm (the C([-r,0]; L2) norm)."""
    return float(np.max(_snapshot_l2(v.values, v.operator.h_x)))


def eval_xi(spec, v, variant=KernelVariant.FULL) -> np.ndarray:
    """Kernel values on the theta grid for the state v."""
    variant = _as_variant(variant)
    if v.m != spec.m or v.r != spec.r:
        raise GridMismatch(
            f"history window (r={v.r}, m={v.m}) does not match kernel "
            f"(r={spec.r}, m={spec.m})")
    return combine_profiles(
        spec, *gates(theta_weights(spec.r, spec.m),
                     sign_masses(v.values, v.operator.h_x)), variant)


def delay_term(nl, ks, v, variant=KernelVariant.FULL) -> GridField:
    """The forcing field x -> int_{-r}^0 b(v(theta, x)) xi(theta, v) dtheta."""
    xi = eval_xi(ks, v, variant)
    w = theta_weights(ks.r, ks.m) * xi
    return GridField(w @ b_eval(nl, v.values))


def reference_states(problem, phis, variants, steps):
    """(steps + 1, B, n_x) states of a plain serial stepper: delay_term on
    each row's window, scipy.fft.dst of [u, F], scipy.fft.idst of
    E a + G f."""
    op, ks, nl = problem.operator, problem.kernel, problem.nonlinearity
    lam = full_discrete_eigenvalues(op)
    E, G = np.exp(-lam * problem.h), -np.expm1(-lam * problem.h) / lam
    windows = [phi.values for phi in phis]
    states = [[w[-1] for w in windows]]
    for _ in range(steps):
        for i, variant in enumerate(variants):
            F = delay_term(nl, ks, HistorySegment(op, ks.r, ks.m, windows[i]),
                           variant).values
            a, f = scipy.fft.dst(np.array([windows[i][-1], F]), type=2)
            windows[i] = np.vstack([windows[i][1:], scipy.fft.idst(E * a + G * f, type=2)])
        states.append([w[-1] for w in windows])
    return np.array(states)
