"""Serial reference definitions: test oracles for the batched code.

Each function evaluates one history segment, or one synthesis grid cell, at
a time with the plain formula.  The solver's engine, ``evolve``, the stacked
Lipschitz evaluator in ``experiments`` and the row-wise ``synthesize_params``
must reproduce them bit for bit; the tests import them with
``from reference import ...``.
"""

import math

import numpy as np
import scipy.fft

from sddlab.conditions import (PIM_ONLY, SynthesisResult, evaluate_certificate,
                               remark_caps, search_grid)
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


def reference_synthesize(N, nonlinearity, L, margin=0.1, r_grid=None,
                         mxi_grid=None) -> SynthesisResult:
    """``synthesize_params`` on valid inputs, one (r, M_xi) cell at a time:
    scalar caps, two rejection branches and a certificate per cell."""
    r_grid = search_grid("r") if r_grid is None else np.asarray(r_grid, dtype=float)
    mxi_grid = (search_grid("M_xi") if mxi_grid is None
                else np.asarray(mxi_grid, dtype=float))
    search = {"r_points": int(r_grid.size), "mxi_points": int(mxi_grid.size)}
    try:
        lam_N = (N * np.pi / L) ** 2
        lam_N1 = ((N + 1) * np.pi / L) ** 2
    except OverflowError:
        lam_N = lam_N1 = math.inf
    gap = lam_N1 - lam_N
    mu = gap / 2.0
    M_b, L_b = nonlinearity.M_b, nonlinearity.L_b
    r_threshold = 4.0 * L_b / (M_b * np.sqrt(L))

    n_r_cap_reject = 0
    n_window_empty = 0
    n_flag_reject = 0
    for r in r_grid:
        for M_xi in mxi_grid:
            caps = remark_caps(lam_N, lam_N1, r, M_b, L_b, M_xi, L)
            if r > caps["r_cap"]:
                n_r_cap_reject += 1
                continue
            hi = caps["minus_top"]
            if caps["minus_floor"] >= hi:
                n_window_empty += 1
                continue
            ip = (1.0 - margin) * min(caps["plus_cap"], hi)
            im = (1.0 - margin) * hi
            if im <= caps["minus_floor"]:
                im = 0.5 * (caps["minus_floor"] + hi)
            values, flags = evaluate_certificate(
                lambda_N=lam_N, lambda_N1=lam_N1, r=float(r), mu=mu,
                M_b=M_b, L_b=L_b, M_xi=float(M_xi),
                l11_p=ip, l11_n=im, domain_length=L)
            if flags != PIM_ONLY:
                n_flag_reject += 1
                continue
            return SynthesisResult(
                params={"N": N, "domain_length": L, "r": float(r),
                        "M_xi": float(M_xi), "plus_integral": float(ip),
                        "minus_integral": float(im), "margin": margin},
                certificate={**values, **flags}, search=search)

    rejections = {"r_cap": n_r_cap_reject, "window_empty": n_window_empty,
                  "flags": n_flag_reject}
    rs_above = r_grid[r_grid > r_threshold]
    if rs_above.size == 0:
        certificate = {
            "binding_constraint": "delay_span_grid_below_threshold",
            "r_threshold": float(r_threshold),
            "detail": (
                "the xi_minus window (minus_floor, r*M_xi/2] is empty for every "
                f"r <= {r_threshold!r} and no r in the search grid exceeds that "
                "threshold"),
            "rejections": rejections,
        }
    elif n_flag_reject > 0:
        certificate = {
            "binding_constraint": "certificate_flags",
            "r_threshold": float(r_threshold),
            "detail": ("grid points satisfied the structural caps but no point "
                       "passed every certificate flag"),
            "rejections": rejections,
        }
    else:
        caps_above = (gap * np.exp(-(lam_N + lam_N1) * rs_above / 2.0)
                      / (16.0 * L_b * rs_above))
        mxi_cap = float(caps_above.max())
        certificate = {
            "binding_constraint": "xi_minus_window_empty",
            "r_threshold": float(r_threshold),
            "rejections": rejections,
        }
        if mxi_cap < float(mxi_grid.min()):
            certificate["max_M_xi_allowed_above_threshold"] = mxi_cap
            certificate["mxi_grid_floor"] = float(mxi_grid.min())
            certificate["detail"] = (
                "the xi_minus window (minus_floor, r*M_xi/2] is nonempty only "
                f"for r > {r_threshold!r}, and for every grid r above that "
                f"threshold the r-cap forces M_xi <= {mxi_cap!r}, below the "
                f"smallest grid value {float(mxi_grid.min())!r}")
        else:
            certificate["detail"] = (
                "every surveyed (r, M_xi) pair fails the r cap or has an "
                "empty xi_minus window (minus_floor, r*M_xi/2]")
    return SynthesisResult(params=None, certificate=certificate, search=search)
