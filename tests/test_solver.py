"""Time stepping: fixed points, exact linear flow, determinism, convergence,
dissipativity, and failure signaling."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sddlab as s
from sddlab.cli import build_problem, load_config
from sddlab.errors import ContractViolation, GridMismatch, IntegrationFailure
from sddlab.kernel import gates, sign_masses
from sddlab.nonlinear import b_eval
from sddlab.solver import _Engine
from sddlab.spectral import full_discrete_eigenvalues

from reference import delay_term, reference_states

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def zero_kernel(r, m, M_xi=1e-3):
    return s.make_constant_kernel(r, m, 0.0, 0.0, M_xi)


def test_problem_spec_properties(headline_problem):
    assert headline_problem.r == 0.5
    assert headline_problem.m == 50
    assert headline_problem.h == 0.01
    assert headline_problem.variant is s.KernelVariant.FULL


def test_problem_spec_contracts(op_headline, headline_kernel, nl):
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
    phi = s.constant_history(op_headline, 0.5, 50, 0.0)
    [rec] = s.evolve(headline_problem, [phi], 100, stride=10, record_fields=True)
    assert rec.min_overall == 0.0 and rec.max_overall == 0.0
    assert np.allclose(rec.times, np.arange(11) * 0.1, rtol=1e-12)
    assert rec.fields.shape == (11, op_headline.grid_points)
    assert np.all(rec.fields == 0.0)


def test_pure_linear_decay_matches_closed_form(op_headline, nl):
    # zero kernel: u(t) = e^{-lam_hat_1 t} e_1 exactly up to roundoff
    ks = zero_kernel(0.5, 50)
    prob = s.ProblemSpec(operator=op_headline, kernel=ks, nonlinearity=nl)
    phi = s.constant_history(op_headline, 0.5, 50,
                             s.eigenfunction(op_headline, 1))
    [rec] = s.evolve(prob, [phi], 200, stride=1, record_fields=True)
    lam1 = full_discrete_eigenvalues(op_headline)[0]
    for idx in (1, 50, 200):
        t = rec.times[idx]
        a = s.forward(op_headline, s.GridField(rec.fields[idx])).coeffs
        assert a[0] == pytest.approx(float(np.exp(-lam1 * t)), rel=1e-12)
        assert float(np.abs(a[1:]).max()) <= 1e-12


def test_single_step_forcing_increment_bound(headline_problem, op_headline, nl):
    # one step from a positive constant: growth beyond the linear decay is
    # at most h * sup|F| <= h * M_b M_xi r
    prob = headline_problem
    phi = s.constant_history(op_headline, 0.5, 50, 1.0)
    nxt = s.evolve(prob, [phi], 1, record_fields=True)[0].fields[1]
    cap = prob.h * nl.M_b * prob.kernel.M_xi * prob.r
    assert float(np.abs(nxt).max()) <= 1.0 + cap * (1 + 1e-9)


def gated_histories(problem, count, seed):
    """N(3.5, 2) segments: each saturates the plus gate and opens the minus gate."""
    op, ks = problem.operator, problem.kernel
    rows = np.random.default_rng(seed).normal(
        3.5, 2.0, size=(count, ks.m + 1, op.grid_points))
    s_plus, s_minus = gates(s.theta_weights(ks.r, ks.m),
                            sign_masses(rows, op.h_x))
    assert np.all(s_plus == 1.0) and np.all((0.0 < s_minus) & (s_minus < 1.0))
    return [s.HistorySegment(op, ks.r, ks.m, r) for r in rows]


def assert_records_equal(a, b):
    # bit for bit, signed zeros included
    for key in ("times", "fields"):
        x, y = getattr(a, key), getattr(b, key)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), key
    assert repr((a.min_overall, a.max_overall)) == repr((b.min_overall, b.max_overall))


def test_engine_forcing_is_delay_term_bitwise(pi_problem, op_pi):
    # each row of the engine's forcing equals delay_term on that row's window
    ks, nl = pi_problem.kernel, pi_problem.nonlinearity
    phis = gated_histories(pi_problem, 3, 40)
    for variant in s.KernelVariant:
        prob = s.ProblemSpec(operator=op_pi, kernel=ks, nonlinearity=nl,
                             variant=variant)
        eng = _Engine(prob, phis)
        windows = np.stack([phi.values for phi in phis])
        for _ in range(30):
            forcing = eng.forcing()
            for i, rows in enumerate(windows):
                window = s.HistorySegment(op_pi, ks.r, ks.m, rows)
                assert np.array_equal(
                    forcing[i], delay_term(nl, ks, window, variant).values)
            u = eng.advance()
            windows = np.concatenate([windows[:, 1:], u[:, None]], axis=1)


@pytest.mark.parametrize("grid_points", [64, 100])
def test_evolve_matches_reference_stepper_bitwise(pi_problem, grid_points):
    # every state and extremum of 60 steps, bit for bit, for each variant
    # alone (B = 1 and 5) and for mixed variants
    V = s.KernelVariant
    prob = replace(pi_problem,
                   operator=s.OperatorSpec(float(np.pi), 8, grid_points))
    phis = gated_histories(prob, 5, 70)
    for variants in ([V.FULL], [V.P], [V.N], [V.FULL] * 5, [V.P] * 5,
                     [V.N] * 5, [V.N, V.FULL, V.P, V.FULL, V.N]):
        B = len(variants)
        ref = reference_states(prob, phis[:B], variants, 60)
        recs = s.evolve(prob, phis[:B], 60, stride=1, record_fields=True,
                        variants=variants)
        for i, rec in enumerate(recs):
            assert rec.fields.tobytes() == ref[:, i].tobytes(), (variants, i)
            assert repr((rec.min_overall, rec.max_overall)) == repr(
                (float(min(ref[:, i].min(axis=1))), float(max(ref[:, i].max(axis=1)))))


def test_batch_invariance_bitwise(pi_problem, op_pi):
    # a batch of B gives the same bits as B batches of one
    phis = gated_histories(pi_problem, 64, 44)
    for variant in s.KernelVariant:
        prob = s.ProblemSpec(operator=op_pi, kernel=pi_problem.kernel,
                             nonlinearity=pi_problem.nonlinearity,
                             variant=variant)
        kwargs = {"steps": 20, "stride": 7, "record_fields": True}
        singles = [s.evolve(prob, [phi], **kwargs)[0] for phi in phis]
        for B in (1, 3, 64):
            recs = s.evolve(prob, phis[:B], **kwargs)
            assert len(recs) == B
            for rec, single in zip(recs, singles):
                assert_records_equal(rec, single)


def test_integration_failure_reports_lowest_failed_row(pi_problem, op_pi,
                                                      monkeypatch):
    # b is NaN below 0.5 and 0 above, so a constant history runs until its
    # boundary cell decays below 0.5; a larger constant fails later
    monkeypatch.setattr("sddlab.solver.b_eval",
                        lambda nl, w: np.where(w < 0.5, np.nan, 0.0))
    prob = pi_problem
    phis = [s.constant_history(op_pi, 0.1, 50, c) for c in (1e3, 4.0, 1.0)]
    failures = []
    for phi in phis[1:]:
        with pytest.raises(IntegrationFailure) as exc:
            s.evolve(prob, [phi], 200)
        failures.append(exc.value.step_index)
    assert failures[0] > failures[1] > 1
    s.evolve(prob, phis[:1], 200)
    with pytest.raises(IntegrationFailure) as exc:
        s.evolve(prob, phis, 200)
    assert exc.value.row == 1 and exc.value.step_index == failures[0]
    assert exc.value.t == failures[0] * prob.h


def test_integration_failure_from_row_extrema(pi_problem, op_pi, monkeypatch):
    # +inf shows only in a row's max, -inf only in its min, NaN in both; each
    # is injected into one row at its own step and then spreads to the row.
    # evolve checks extrema once per block of 16 steps (solver.BLOCK), so
    # steps 15, 16, 17 and the last one sit at a block's edges
    advance = _Engine.advance
    steps = 40

    def run(phis, plan, stride=10):
        """evolve with ``plan[k]``'s (row, value) pairs written into cell 5
        after step k; returns the records and the state of every step."""
        states = [np.stack([phi.values[-1] for phi in phis])]

        def injecting(self):
            u = advance(self)
            for row, value in plan.get(len(states), ()):
                u[row, 5] = value
            states.append(u.copy())
            return u

        monkeypatch.setattr(_Engine, "advance", injecting)
        return s.evolve(pi_problem, phis, steps, stride), states

    def failure(phis, plan, stride=10):
        """(step, t, row) of the IntegrationFailure when ``plan`` maps a row
        to the (step, value) written into one of its cells."""
        by_step = {}
        for row, (k, value) in plan.items():
            by_step.setdefault(k, []).append((row, value))
        with pytest.raises(IntegrationFailure) as exc:
            run(phis, by_step, stride)
        return exc.value.step_index, exc.value.t, exc.value.row

    h = pi_problem.h
    phis = [s.constant_history(op_pi, 0.1, 50, c) for c in (1.0, 2.0, 3.0)]
    for value in (np.inf, -np.inf, np.nan):
        for k in (3, 15, 16, 17, steps):
            for stride in (1, 7, 10**6):
                assert failure(phis[:1], {0: (k, value)}, stride) == (k, k * h, 0)
    plan = {0: (9, np.inf), 1: (6, -np.inf), 2: (2, np.nan)}
    # the lowest failed row is raised, even when a higher one failed earlier
    assert failure(phis, plan) == (9, 9 * h, 0)
    assert failure(phis, {1: plan[1], 2: plan[2]}) == (6, 6 * h, 1)
    assert failure(phis, {2: plan[2]}) == (2, 2 * h, 2)
    # ... also when the higher row failed in an earlier block
    assert failure(phis, {0: (17, np.nan), 1: (16, np.inf)}) == (17, 17 * h, 0)
    assert failure(phis, {1: (steps, -np.inf), 2: (15, np.nan)}) == (steps, steps * h, 1)

    # signed zeros: each record is the step-by-step fold of Python's min()
    # and max(), which keeps the first of two equal extrema
    for early, late in ((3, 20), (3, 9), (16, 17)):
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            for sign in (1.0, -1.0):  # min of positive data, max of negative
                cone = [s.constant_history(op_pi, 0.1, 50, sign * c)
                        for c in (1.0, 2.0)]
                plan = {early: [(1, first)], late: [(1, second)]}
                recs, states = run(cone, plan, stride=7)
                for row, rec in enumerate(recs):
                    expected = (min(u[row].min() for u in states),
                                max(u[row].max() for u in states))
                    assert repr((rec.min_overall, rec.max_overall)) == repr(
                        tuple(map(float, expected)))
                assert repr(recs[1].min_overall if sign > 0
                            else recs[1].max_overall) == repr(first)
                # samples are still taken every stride steps
                assert np.array_equal(recs[0].times,
                                      np.array([0, 7, 14, 21, 28, 35, 40]) * h)

    # nothing in a run grows with stride: a block of stride steps would
    # hold 10**6 x 3 x 64 floats
    monkeypatch.setattr(_Engine, "advance", advance)
    tracemalloc.start()
    try:
        for stride in (1, 7, 10**6):
            tracemalloc.reset_peak()
            s.evolve(pi_problem, phis, steps, stride)
            assert tracemalloc.get_traced_memory()[1] < 2**20, stride
    finally:
        tracemalloc.stop()


def signed_histories(problem, count, seed):
    """random_signed_fourier segments at amplitude 0.01: both gates open."""
    return [s.make_initial_history(problem.operator, problem.r, problem.m,
                                   "random_signed_fourier", 0.01,
                                   np.random.default_rng(seed + i))
            for i in range(count)]


def test_mixed_variants_bitwise(pi_problem):
    # each row of one mixed-variant call is the row of a single-variant call
    V = s.KernelVariant
    phis = signed_histories(pi_problem, 6, 60)
    kwargs = {"steps": 40, "stride": 7, "record_fields": True}
    single = {variant: s.evolve(replace(pi_problem, variant=variant), phis,
                                **kwargs) for variant in V}
    for i in range(len(phis)):  # on signed data the three variants differ
        finals = [single[variant][i].fields[-1].tobytes() for variant in V]
        assert len(set(finals)) == 3
    contiguous = [V.FULL] * 3 + [V.P] * 3
    interleaved = [V.FULL, V.P, V.N, V.P, V.FULL, V.N]
    for variants in (contiguous, interleaved, ["n", "p", "full"] * 2):
        recs = s.evolve(pi_problem, phis, variants=variants, **kwargs)
        for i, (rec, variant) in enumerate(zip(recs, variants)):
            assert_records_equal(rec, single[s.KernelVariant(variant)][i])
    with pytest.raises(ContractViolation, match="one variant per history"):
        s.evolve(pi_problem, phis, 1, variants=[V.P])
    with pytest.raises(ContractViolation, match="unknown kernel variant"):
        s.evolve(pi_problem, phis, 1, variants=["both"] * 6)


def test_engine_steps_runs_of_one_variant(pi_problem, op_pi):
    # the rows form maximal runs of one variant, each a slice, and after a
    # step the gate buffer holds the gates of the windows it started from,
    # through two turns of the ring
    V = s.KernelVariant
    ks = pi_problem.kernel
    tw = s.theta_weights(ks.r, ks.m)
    phis = signed_histories(pi_problem, 6, 80)
    for variants, runs in (
            ([V.N, V.FULL, V.P, V.FULL, V.N], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
            ([V.FULL] * 3 + [V.P] * 3, [(0, 3), (3, 6)])):
        eng = _Engine(pi_problem, phis[:len(variants)], variants)
        assert [(variant, rows) for variant, rows, *_ in eng.runs] == [
            (variants[start], slice(start, stop)) for start, stop in runs]
        windows = np.stack([phi.values for phi in phis[:len(variants)]])
        for _ in range(2 * (ks.m + 1) + 1):
            expected = gates(tw, sign_masses(windows, op_pi.h_x))
            u = eng.advance()
            assert eng.gate_buf.tobytes() == expected.tobytes()
            windows = np.concatenate([windows[:, 1:], u[:, None]], axis=1)


def test_evolve_rejects_non_finite_history(pi_problem, op_pi):
    phis = [s.constant_history(op_pi, 0.1, 50, c) for c in (1.0, 2.0, 3.0)]
    phis[2] = s.constant_history(op_pi, 0.1, 50, np.nan)
    with pytest.raises(ContractViolation, match=r"phis\[2\] is not finite"):
        s.evolve(pi_problem, phis, 0)
    rows = phis[1].values.copy()
    rows[0, 5] = np.inf  # the oldest snapshot, which step 1 still reads
    phis[2] = s.HistorySegment(op_pi, 0.1, 50, rows)
    with pytest.raises(ContractViolation, match=r"phis\[2\] is not finite"):
        s.evolve(pi_problem, phis, 10)


def test_evolve_deterministic_bitwise(pi_problem, op_pi):
    rng = np.random.default_rng(41)
    rows = np.abs(rng.normal(size=(51, op_pi.grid_points)))
    phi = s.HistorySegment(op_pi, 0.1, 50, rows)
    [a] = s.evolve(pi_problem, [phi], 100, stride=7, record_fields=True)
    [b] = s.evolve(pi_problem, [phi], 100, stride=7, record_fields=True)
    assert_records_equal(a, b)


def test_evolve_sampling_layout(headline_problem, op_headline):
    prob = headline_problem
    phi = s.constant_history(op_headline, 0.5, 50, 0.5)
    [rec] = s.evolve(prob, [phi], 25, stride=10)
    # samples at steps 0, 10, 20, and the final step 25
    assert np.allclose(rec.times, [0.0, 0.1, 0.2, 0.25], rtol=1e-12)
    assert rec.fields is None
    recs = s.evolve(prob, [phi, phi], 25, stride=10, record_fields=True)
    assert [r.fields.shape for r in recs] == [(4, op_headline.grid_points)] * 2
    assert np.array_equal(recs[0].fields[0], phi.values[-1])
    [rec] = s.evolve(prob, [phi], 0, stride=10, record_fields=True)
    assert rec.times.tolist() == [0.0] and np.array_equal(rec.fields, phi.values[-1:])
    for bad in ({"steps": -1}, {"steps": True}, {"stride": 0},
                {"stride": 2.0}):
        kwargs = {"phis": [phi], "steps": 25, **bad}
        with pytest.raises(ContractViolation):
            s.evolve(prob, **kwargs)


def self_convergence_finals(op_pi, nl):
    """Final fields at T=2 of the same continuum data at m = 25, 50, 100."""
    T, r = 2.0, 0.1
    finals = {}
    for m in (25, 50, 100):
        ks = s.make_constant_kernel(r, m, 0.03, 0.02, 0.8)
        prob = s.ProblemSpec(operator=op_pi, kernel=ks, nonlinearity=nl)
        steps = s.steps_for_horizon(ks, T)
        rng = np.random.default_rng(43)
        phi = s.make_initial_history(op_pi, r, m, "random_positive_fourier",
                                     1.0, rng)
        [rec] = s.evolve(prob, [phi], steps, stride=steps, record_fields=True)
        finals[m] = rec.fields[-1]
    return finals


def test_self_convergence_first_order(op_pi, nl):
    # errors measured against the finest run must shrink at least linearly in h
    finals = self_convergence_finals(op_pi, nl)
    e_coarse = float(np.abs(finals[25] - finals[100]).max())
    e_fine = float(np.abs(finals[50] - finals[100]).max())
    order = np.log2(e_coarse / e_fine)
    assert order >= 0.9


def test_three_level_convergence_order(op_pi, nl):
    # against the finest run a first-order scheme gives log2 3 whatever its
    # order; successive differences estimate the order itself
    finals = self_convergence_finals(op_pi, nl)
    d_coarse = float(np.abs(finals[25] - finals[50]).max())
    d_fine = float(np.abs(finals[50] - finals[100]).max())
    assert 0.9 <= np.log2(d_coarse / d_fine) <= 1.1


def test_dissipativity_zero_kernel_decays(op_pi, nl):
    ks = zero_kernel(0.1, 20)
    prob = s.ProblemSpec(operator=op_pi, kernel=ks, nonlinearity=nl)
    phi = s.constant_history(op_pi, 0.1, 20, 1.0)
    [rec] = s.evolve(prob, [phi], s.steps_for_horizon(ks, 10.0), stride=1,
                     record_fields=True)
    full_norm = s.field_l2_norm(op_pi, s.GridField(rec.fields))
    peak = full_norm[rec.times >= 5.0 - 1e-12].max()  # over [T/2, T]
    lam1 = full_discrete_eigenvalues(op_pi)[0]
    start = s.field_l2_norm(op_pi, s.GridField(phi.values[-1]))
    assert peak <= start * float(np.exp(-lam1 * 5.0)) * (1 + 1e-9)


def test_dissipativity_absorbing_bound_headline(headline_problem, op_headline, nl):
    # ||u(t)|| <= e^{-lam_hat_1 t} ||u0|| + C_F (1 - e^{-lam_hat_1 t}) / lam_hat_1
    ks = headline_problem.kernel
    prob = s.ProblemSpec(operator=op_headline, kernel=ks, nonlinearity=nl)
    phi = s.constant_history(op_headline, 0.5, 50, 1.0)
    [rec] = s.evolve(prob, [phi], s.steps_for_horizon(ks, 25.0), stride=1,
                     record_fields=True)
    full_norm = s.field_l2_norm(op_headline, s.GridField(rec.fields))
    lam1 = full_discrete_eigenvalues(op_headline)[0]
    c_f = nl.M_b * ks.M_xi * ks.r * np.sqrt(op_headline.domain_length)
    decay = np.exp(-lam1 * rec.times)
    envelope = decay * full_norm[0] + c_f * (1.0 - decay) / lam1
    assert np.all(full_norm <= envelope * (1 + 1e-9))


def test_pim_dynamics_positive_sine_does_not_decay():
    # on configs/pim_dynamics.json the delay forcing lifts positive data:
    # amplitude 0.5 grows over t = 2500.05, where linear decay at lam_hat_1
    # would leave 0.26982
    problem = build_problem(load_config(str(CONFIGS / "pim_dynamics.json")))
    op = problem.operator
    sine = s.GridField(0.5 * np.sin(np.pi * op.nodes() / op.domain_length))
    phi = s.constant_history(op, problem.r, problem.m, sine)
    [rec] = s.evolve(problem, [phi], 16667, stride=16667, record_fields=True)
    assert rec.times[-1] == pytest.approx(2500.05, rel=1e-12)
    sup = float(rec.fields[-1].max())
    linear = 0.5 * float(np.exp(-full_discrete_eigenvalues(op)[0] * rec.times[-1]))
    assert sup == pytest.approx(0.55357, abs=5e-6)
    assert linear == pytest.approx(0.26982, abs=5e-6)
    assert sup > linear


def test_dissipativity_pi_domain_reaches_radius(pi_problem, op_pi, nl):
    # lam_1 = O(1): by T = 25 the transient is gone and the radius bound binds
    ks = pi_problem.kernel
    prob = s.ProblemSpec(operator=op_pi, kernel=ks, nonlinearity=nl)
    phi = s.constant_history(op_pi, 0.1, 50, 1.0)
    [rec] = s.evolve(prob, [phi], s.steps_for_horizon(ks, 25.0), stride=1,
                     record_fields=True)
    full_norm = s.field_l2_norm(op_pi, s.GridField(rec.fields))
    peak = full_norm[rec.times >= 12.5 - 1e-12].max()  # over [T/2, T]
    lam1 = full_discrete_eigenvalues(op_pi)[0]
    radius = nl.M_b * ks.M_xi * ks.r * np.sqrt(op_pi.domain_length) / lam1
    transient = float(np.exp(-lam1 * 12.5)) * s.field_l2_norm(op_pi, s.GridField(phi.values[-1]))
    assert peak <= (radius + transient) * 1.01


def test_integration_failure_step_index(op_headline, headline_kernel, nl):
    prob = s.ProblemSpec(operator=op_headline, kernel=headline_kernel,
                         nonlinearity=nl)
    phi = s.constant_history(op_headline, 0.5, 50, 1e200)
    with pytest.raises(IntegrationFailure) as exc:
        s.evolve(prob, [phi], 10)
    assert exc.value.step_index == 1 and exc.value.row == 0
    assert exc.value.t == prob.h
    assert "step 1" in str(exc.value)


def test_engine_builds_its_rings_in_place(headline_problem, op_headline):
    # each history is written straight into the rings, so building an engine
    # at B=64 peaks near the bytes of its two rings; stacking the histories,
    # then b and the masses of the stack, then their mirrored concatenation
    # peaked at about 2.5 times them
    ks, nl = headline_problem.kernel, headline_problem.nonlinearity
    values = np.random.default_rng(5).normal(
        size=(64, ks.m + 1, op_headline.grid_points))
    phis = [s.HistorySegment(op_headline, ks.r, ks.m, v) for v in values]
    _Engine(headline_problem, phis[:1])  # warm the cached weights
    tracemalloc.start()
    try:
        eng = _Engine(headline_problem, phis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (eng.b_rows.nbytes + eng.masses.nbytes)
    # both mirror halves hold the bits of b and the masses of the stack
    b, masses = b_eval(nl, values), sign_masses(values, op_headline.h_x)
    for half in (slice(None, ks.m + 1), slice(ks.m + 1, None)):
        assert eng.b_rows[:, half].tobytes() == b.tobytes()
        assert eng.masses[..., half].tobytes() == masses.tobytes()
    assert eng.u.tobytes() == values[:, -1].tobytes()
    with pytest.raises(ContractViolation, match="at least one history"):
        s.evolve(headline_problem, [], 1)


def test_observer_sees_the_recorded_samples(pi_problem, op_pi):
    # an observer gets, at every sample, its index and read-only (B, n_x)
    # states with the bits that record_fields=True stores
    phis = signed_histories(pi_problem, 3, 70)
    for steps, stride in ((40, 7), (32, 16), (0, 5)):
        recs = s.evolve(pi_problem, phis, steps, stride, record_fields=True)
        seen = []

        def observe(index, states):
            assert not states.flags.writeable
            seen.append((index, states.copy()))

        plain = s.evolve(pi_problem, phis, steps, stride, observe=observe)
        assert [index for index, _ in seen] == list(range(len(recs[0].times)))
        stacked = np.stack([states for _, states in seen], axis=1)
        for i, (rec, other) in enumerate(zip(recs, plain)):
            assert stacked[i].tobytes() == rec.fields.tobytes()
            assert other.fields is None
            assert other.times.tobytes() == rec.times.tobytes()
            assert repr((other.min_overall, other.max_overall)) == repr(
                (rec.min_overall, rec.max_overall))
    with pytest.raises(ContractViolation, match="not both"):
        s.evolve(pi_problem, phis, 1, record_fields=True, observe=print)


def test_engine_grid_mismatch(headline_problem, op_headline):
    other = s.OperatorSpec(100.0, 8, 64)
    good = s.constant_history(op_headline, 0.5, 50, 1.0)
    with pytest.raises(GridMismatch):
        s.evolve(headline_problem,
                 [good, s.constant_history(other, 0.5, 50, 1.0)], 1)
    with pytest.raises(GridMismatch):
        s.evolve(headline_problem,
                 [s.constant_history(op_headline, 0.5, 40, 1.0)], 1)
