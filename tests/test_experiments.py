"""Experiment harnesses: initial families, the four runners, and emission."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

import sddlab as s
from sddlab.errors import ContractViolation
from sddlab.spectral import full_discrete_eigenvalues


@pytest.fixture()
def small_cfg():
    return s.ExperimentConfig(trials=3, seed=5, horizon=1.0, amplitude=0.5,
                              stride=5)


def test_experiment_config_contracts():
    with pytest.raises(ContractViolation):
        s.ExperimentConfig(trials=0, seed=1, horizon=1.0)
    with pytest.raises(ContractViolation):
        s.ExperimentConfig(trials=1, seed=-1, horizon=1.0)
    with pytest.raises(ContractViolation):
        s.ExperimentConfig(trials=1, seed=1, horizon=0.0)
    with pytest.raises(ContractViolation):
        s.ExperimentConfig(trials=1, seed=1, horizon=1.0, family="white_noise")
    with pytest.raises(ContractViolation):
        s.ExperimentConfig(trials=1, seed=1, horizon=1.0, amplitude=-1.0)
    with pytest.raises(ContractViolation):
        s.ExperimentConfig(trials=1, seed=1, horizon=1.0, stride=0)


def test_initial_families_shapes_and_signs(op_pi):
    rng = np.random.default_rng(100)
    for family in s.experiments.FAMILIES:
        phi = s.make_initial_history(op_pi, 0.1, 20, family, 0.5,
                                     np.random.default_rng(100))
        assert phi.values.shape == (21, op_pi.grid_points)
        assert np.isfinite(phi.values).all()
    pos = s.make_initial_history(op_pi, 0.1, 20, "random_positive_fourier",
                                 0.5, rng)
    assert np.all(pos.values >= 0.5)  # offset keeps the interior strict
    bumps = s.make_initial_history(op_pi, 0.1, 20, "gaussian_bumps", 0.5, rng)
    assert np.all(bumps.values >= 0.0)
    const = s.make_initial_history(op_pi, 0.1, 20, "constant", 0.5, rng)
    assert np.all(const.values == 0.5)
    neg = s.make_initial_history(op_pi, 0.1, 20, "constant", 0.5, rng, sign=-1.0)
    assert np.all(neg.values == -0.5)


def test_initial_draws_independent_of_m(op_pi):
    for family in ("random_positive_fourier", "random_signed_fourier",
                   "gaussian_bumps"):
        coarse = s.make_initial_history(op_pi, 0.1, 25, family, 0.5,
                                        np.random.default_rng(7))
        fine = s.make_initial_history(op_pi, 0.1, 50, family, 0.5,
                                      np.random.default_rng(7))
        assert np.array_equal(fine.values[::2], coarse.values)


def test_cone_invariance_both_cones(pi_problem, small_cfg):
    pos = s.run_cone_invariance(pi_problem, small_cfg, cone="positive")
    assert pos.passed and not pos.informational
    assert pos.name == "cone_invariance_positive"
    assert pos.summary["max_violation"] == 0.0
    assert pos.summary["tolerance"] == 1e-12
    assert len(pos.trials) == 3
    assert all(row["extreme"] >= 0.0 for row in pos.trials)

    neg = s.run_cone_invariance(pi_problem, small_cfg, cone="negative")
    assert neg.passed
    assert neg.name == "cone_invariance_negative"
    assert all(row["extreme"] <= 0.0 for row in neg.trials)


def test_cone_invariance_batches_bitwise(headline_problem, monkeypatch):
    # 70 trials cross the 64-row batch boundary; batches of one give the
    # same rows
    cfg = s.ExperimentConfig(trials=70, seed=11, horizon=0.5)
    for cone in ("positive", "negative"):
        batched = s.run_cone_invariance(headline_problem, cfg, cone=cone)
        with monkeypatch.context() as mp:
            mp.setattr(s.experiments, "BATCH_ROWS", 1)
            single = s.run_cone_invariance(headline_problem, cfg, cone=cone)
        assert len(batched.trials) == 70
        assert repr(batched.to_dict()) == repr(single.to_dict())


def test_cone_invariance_rejects_signed_family(pi_problem, small_cfg):
    import dataclasses
    cfg = dataclasses.replace(small_cfg, family="random_signed_fourier")
    with pytest.raises(ContractViolation, match="does not produce members"):
        s.run_cone_invariance(pi_problem, cfg)
    with pytest.raises(ContractViolation):
        s.run_cone_invariance(pi_problem, small_cfg, cone="interior")


def test_coincidence_exact_with_witness(pi_problem, small_cfg):
    res = s.run_coincidence(pi_problem, small_cfg)
    assert res.passed
    regular = [row for row in res.trials if not row["informational"]]
    witness = [row for row in res.trials if row["informational"]]
    assert len(regular) == 3 and len(witness) == 1
    assert all(row["distance"] == 0.0 for row in regular)
    assert witness[0]["trial"] == -1
    assert witness[0]["distance"] > 0.0
    assert res.summary["max_distance"] == 0.0
    assert res.summary["witness_distance"] > 0.0
    assert res.summary["tolerance"] == 0.0
    assert res.summary["variants"] == ["full", "p"]


def test_coincidence_negative_cone_mirror(pi_problem, small_cfg):
    res = s.run_coincidence(pi_problem, small_cfg, cone="negative")
    assert res.passed
    assert res.summary["variants"] == ["full", "n"]
    assert res.summary["max_distance"] == 0.0
    assert res.summary["witness_distance"] is None


def test_coincidence_witness_optional(pi_problem, small_cfg):
    res = s.run_coincidence(pi_problem, small_cfg, include_witness=False)
    assert all(not row["informational"] for row in res.trials)
    assert res.summary["witness_distance"] is None


def test_coincidence_draws_lazily(pi_problem, monkeypatch):
    # both variants of a datum step in one evolve call, so a batch is drawn
    # just before that call and no datum is drawn twice
    draws, at_first_evolve = [], []
    draw, evolve = s.experiments.make_initial_history, s.experiments.evolve

    def counting_draw(*args, **kwargs):
        draws.append(1)
        return draw(*args, **kwargs)

    def noting_evolve(*args, **kwargs):
        if not at_first_evolve:
            at_first_evolve.append(len(draws))
        return evolve(*args, **kwargs)

    monkeypatch.setattr(s.experiments, "BATCH_ROWS", 4)
    monkeypatch.setattr(s.experiments, "make_initial_history", counting_draw)
    monkeypatch.setattr(s.experiments, "evolve", noting_evolve)
    cfg = s.ExperimentConfig(trials=20, seed=5, horizon=0.02, amplitude=0.5)
    res = s.run_coincidence(pi_problem, cfg)
    assert res.passed and len(res.trials) == 21
    assert at_first_evolve[0] <= 4
    assert len(draws) == 21


def test_coincidence_batches_bitwise(pi_problem, monkeypatch):
    # 70 trials and the witness cross the 64-row batch boundary; batches of
    # one give the same rows
    cfg = s.ExperimentConfig(trials=70, seed=11, horizon=0.1, amplitude=0.5,
                             stride=5)
    batched = s.run_coincidence(pi_problem, cfg)
    with monkeypatch.context() as mp:
        mp.setattr(s.experiments, "BATCH_ROWS", 1)
        single = s.run_coincidence(pi_problem, cfg)
    assert len(batched.trials) == 71 and batched.trials[-1]["trial"] == -1
    assert batched.summary["witness_distance"] > 0.0
    assert repr(batched.to_dict()) == repr(single.to_dict())


def test_coincidence_one_evolve_call_per_batch(pi_problem, monkeypatch):
    # one call per batch of BATCH_ROWS data; each call steps the full rows
    # first, and combine_profiles sees only the one-sided variant's rows
    V = s.KernelVariant
    combine, evolve = s.solver.combine_profiles, s.experiments.evolve
    rows_per_variant, calls = {}, []

    def counting_combine(spec, s_plus, s_minus, variant):
        rows_per_variant.setdefault(variant, []).append(len(s_plus))
        return combine(spec, s_plus, s_minus, variant)

    def noting_evolve(problem, phis, steps, **kwargs):
        calls.append(kwargs["variants"])
        return evolve(problem, phis, steps, **kwargs)

    monkeypatch.setattr(s.experiments, "BATCH_ROWS", 4)
    monkeypatch.setattr(s.solver, "combine_profiles", counting_combine)
    monkeypatch.setattr(s.experiments, "evolve", noting_evolve)
    cfg = s.ExperimentConfig(trials=6, seed=5, horizon=0.02, amplitude=0.5)
    steps = s.steps_for_horizon(pi_problem.kernel, cfg.horizon)
    for cone, one_sided, data in (("positive", V.P, 7), ("negative", V.N, 6)):
        rows_per_variant.clear()
        calls.clear()
        assert s.run_coincidence(pi_problem, cfg, cone=cone).passed
        batches = [4, data - 4]
        assert calls == [[V.FULL] * n + [one_sided] * n for n in batches]
        per_step = [n for n in batches for _ in range(steps)]
        assert rows_per_variant == {V.FULL: per_step, one_sided: per_step}


@pytest.mark.parametrize("horizon, failed_row", [(1.0, 0), (0.01, 1)])
def test_coincidence_failure_step_of_two_runs(pi_problem, monkeypatch,
                                              horizon, failed_row):
    # b is NaN below 0.5, so constant data fail once a boundary cell decays
    # (at step 8, past the 5 steps of T=0.01) and the witness (a node at -amplitude), which
    # is the second datum of the second batch, fails at step 1; the fused
    # run raises the failure that stepping each batch's full rows, then its
    # one-sided rows, raised first
    monkeypatch.setattr("sddlab.solver.b_eval",
                        lambda nl, w: np.where(w < 0.5, np.nan, 0.0))
    monkeypatch.setattr(s.experiments, "BATCH_ROWS", 2)
    cfg = s.ExperimentConfig(trials=3, seed=5, horizon=horizon,
                             family="constant", amplitude=4.0)
    steps = s.steps_for_horizon(pi_problem.kernel, cfg.horizon)

    def two_runs():
        phis = [s.make_initial_history(pi_problem.operator, pi_problem.r,
                                       pi_problem.m, "constant", 4.0, None)
                for _ in range(cfg.trials)]
        phis.append(s.experiments._negate_node(phis[0], 4.0))
        for start in range(0, len(phis), 2):
            for variant in (s.KernelVariant.FULL, s.KernelVariant.P):
                s.evolve(replace(pi_problem, variant=variant),
                         phis[start:start + 2], steps, stride=cfg.stride,
                         record_fields=True)

    with pytest.raises(s.IntegrationFailure) as old:
        two_runs()
    with pytest.raises(s.IntegrationFailure) as fused:
        s.run_coincidence(pi_problem, cfg)
    assert old.value.row == failed_row
    assert (old.value.step_index == 1) == (failed_row == 1)
    assert ((fused.value.step_index, fused.value.t, fused.value.row)
            == (old.value.step_index, old.value.t, old.value.row))


def reference_lipschitz_row(problem, cfg, i):
    """One pair's ratios from the public single-segment functions."""
    op, ks, nl = problem.operator, problem.kernel, problem.nonlinearity
    rng = np.random.default_rng(cfg.seed + i)

    def draw():
        return s.make_initial_history(op, problem.r, problem.m, cfg.family,
                                      cfg.amplitude, rng)

    def segment(values):
        return s.HistorySegment(op, problem.r, problem.m, values)

    v1 = draw()
    kind = ("independent", "scaled", "near")[i % 3]
    if kind == "independent":
        v2 = draw()
    elif kind == "scaled":
        v2 = segment(rng.uniform(0.0, 2.0) * v1.values)
    else:
        v2 = segment(v1.values + 1e-4 * draw().values)
    delta = segment(v1.values - v2.values)
    tw = s.theta_weights(problem.r, problem.m)
    row = {}
    for var in s.KernelVariant:
        num = float(np.dot(tw, np.abs(s.eval_xi(ks, v1, var)
                                      - s.eval_xi(ks, v2, var))))
        row[f"kernel_ratio_{var.value}"] = 0.0 if num == 0.0 else \
            num / (s.l11_constant(ks, var) * s.norm_L1L1(delta))
    dB = (s.delay_term(nl, ks, v1, problem.variant).values
          - s.delay_term(nl, ks, v2, problem.variant).values)
    num = s.field_l2_norm(op, s.GridField(dB))
    row["b1_ratio"] = 0.0 if num == 0.0 else \
        num / (s.lipschitz_M1(problem, problem.variant) * s.norm_C(delta))
    return row


@pytest.mark.parametrize("family, amplitude", [
    ("random_positive_fourier", 1.0),
    ("random_signed_fourier", 0.01),  # unclipped gates, so the minus gate opens
])
def test_lipschitz_matches_single_segment_api(headline_problem, family,
                                              amplitude, monkeypatch):
    # each segment's sign masses once: count the segments passed in
    segments = []
    masses = s.experiments.sign_masses

    def counting_masses(values, h_x):
        segments.append(len(values) if values.ndim == 3 else 1)
        return masses(values, h_x)

    monkeypatch.setattr(s.experiments, "sign_masses", counting_masses)
    cfg = s.ExperimentConfig(trials=30, seed=4, horizon=1.0, family=family,
                             amplitude=amplitude)
    res = s.run_lipschitz_sampling(headline_problem, cfg)
    assert res.summary["pairs_used"] == 30
    assert {row["pair"] for row in res.trials} == {"independent", "scaled", "near"}
    assert sum(segments) == 2 * res.summary["pairs_used"]
    for row in res.trials:
        ref = reference_lipschitz_row(headline_problem, cfg, row["trial"])
        for key, value in ref.items():
            assert row[key] == value, (row["trial"], key)
    if family == "random_signed_fourier":
        assert any(row["kernel_ratio_n"] > 0.0 for row in res.trials)


def test_lipschitz_sampling_bounds(headline_problem):
    cfg = s.ExperimentConfig(trials=12, seed=9, horizon=1.0, amplitude=1.0)
    res = s.run_lipschitz_sampling(headline_problem, cfg)
    assert res.passed
    assert res.summary["pairs_used"] == 12
    assert res.summary["max_b1_ratio"] <= 1 + 1e-8
    assert res.summary["max_kernel_ratio"] <= 1 + 1e-10
    assert res.summary["M1"] == pytest.approx(
        s.lipschitz_M1(headline_problem), rel=1e-15)
    kinds = {row["pair"] for row in res.trials}
    assert kinds == {"independent", "scaled", "near"}


def test_lipschitz_skips_identical_pairs(headline_problem):
    # constant family: independent draws coincide, scaled ones differ
    cfg = s.ExperimentConfig(trials=6, seed=9, horizon=1.0, amplitude=0.5,
                             family="constant")
    res = s.run_lipschitz_sampling(headline_problem, cfg)
    assert res.passed
    skipped = [row for row in res.trials if row["status"] == "skipped"]
    assert len(skipped) >= 1
    assert res.summary["pairs_used"] + res.summary["pairs_skipped"] == 6
    for row in skipped:
        assert row["b1_ratio"] is None and row["passed"]


def theta_constant_pairs(op, m, level, cells, eps):
    """(2, P, m+1, n_x) pairs: v2 is `level` on the first `cells` cells and 0
    elsewhere at every theta node, and v1 = v2 + eps, one pair per eps."""
    v2 = np.zeros((len(eps), m + 1, op.grid_points))
    v2[..., :cells] = level
    return np.stack([v2 + np.reshape(eps, (-1, 1, 1)), v2])


def test_lipschitz_negative_control_fails_against_m1():
    # the counterexample to M1 being a Lipschitz bound of the delay term: a
    # certified config where a pair with an unclipped plus gate exceeds M1_p
    op = s.OperatorSpec(1000.0, 8, 1024)
    ks = s.make_constant_kernel(0.1, 50, 1e-6, 1e-6, 2e-5)
    problem = s.ProblemSpec(op, ks, s.nicholson(1.0), variant="p")
    assert s.condition_report(problem, 1).verdict == "IM_exists"
    eps = [1e-9, 1e-6, 1e-4]
    dC, cols = s.experiments._pair_evaluator(problem)(
        theta_constant_pairs(op, ks.m, 1.5, 6, eps))
    assert dC.tolist() == pytest.approx([e * np.sqrt(op.domain_length)
                                         for e in eps], rel=1e-6)
    assert cols["b1_ratio"].tolist() == pytest.approx([1.4016] * 3, abs=1e-4)
    assert not cols["passed"].any()


def test_lipschitz_constructed_pair_reaches_past_the_samples(headline_problem):
    # a pair the sampler never draws: mass 0.94 on 2 cells, so the plus gate
    # is open, with a uniform difference; the kernel bound is tight on it
    problem = replace(headline_problem, variant=s.KernelVariant.P)
    op = problem.operator
    dC, cols = s.experiments._pair_evaluator(problem)(
        theta_constant_pairs(op, problem.m, 1.2, 2, [1e-3]))
    assert dC[0] == pytest.approx(1e-3 * np.sqrt(op.domain_length), rel=1e-9)
    assert cols["b1_ratio"][0] == pytest.approx(0.4741, abs=1e-4)
    assert abs(cols["kernel_ratio_p"][0] - 1.0) <= 1e-12
    assert cols["passed"][0]


def test_stacked_draws_match_single_draws(op_pi):
    # one field build serves a stack of draws and make_initial_history
    ex = s.experiments
    for family in ex.FAMILIES:
        for sign in (1.0, -1.0):
            params = np.stack([ex._draw_params(op_pi, family, 0.5,
                                               np.random.default_rng(seed))
                               for seed in range(4)])
            stack = ex._histories(op_pi, 20, family, 0.5, params, sign)
            for seed, rows in enumerate(stack):
                single = s.make_initial_history(
                    op_pi, 0.1, 20, family, 0.5,
                    np.random.default_rng(seed), sign=sign)
                assert np.array_equal(rows, single.values), (family, seed)


LIPSCHITZ_FAMILIES = [("random_positive_fourier", 1.0),
                      ("random_signed_fourier", 0.01),  # the minus gate opens
                      ("gaussian_bumps", 0.5),
                      ("constant", 0.5)]  # independent pairs are skipped


@pytest.mark.parametrize("family, amplitude", LIPSCHITZ_FAMILIES)
def test_lipschitz_rows_do_not_depend_on_chunk(headline_problem, monkeypatch,
                                               family, amplitude):
    chunk = s.experiments.PAIR_CHUNK
    for trials in sorted({1, max(1, chunk - 1), chunk + 1, 61}):
        cfg = s.ExperimentConfig(trials=trials, seed=4, horizon=1.0,
                                 family=family, amplitude=amplitude)
        runs = [s.run_lipschitz_sampling(headline_problem, cfg)]
        for size in (1, trials):
            with monkeypatch.context() as mp:
                mp.setattr(s.experiments, "PAIR_CHUNK", size)
                runs.append(s.run_lipschitz_sampling(headline_problem, cfg))
        assert len(runs[0].trials) == trials
        for res in runs[1:]:
            assert repr(res.to_dict()) == repr(runs[0].to_dict()), (family, trials)
        if family == "constant" and trials > 1:
            assert runs[0].summary["pairs_skipped"] >= 1


def test_lipschitz_calls_each_layer_once_per_chunk(headline_problem, monkeypatch):
    calls = {"sign_masses": 0, "b_eval": 0, "inverse": 0}
    for name in calls:
        def counting(*args, _name=name, _f=getattr(s.experiments, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(s.experiments, name, counting)
    chunk = s.experiments.PAIR_CHUNK
    cfg = s.ExperimentConfig(trials=2 * chunk + 1, seed=4, horizon=1.0)
    assert s.run_lipschitz_sampling(headline_problem, cfg).passed
    assert calls == {"sign_masses": 3, "b_eval": 3, "inverse": 3}


def test_attraction_rate_fits(pi_problem):
    cfg = s.ExperimentConfig(trials=5, seed=11, horizon=5.0, amplitude=0.5)
    res = s.run_attraction_rate(pi_problem, cfg, 3)
    assert res.passed and not res.informational
    assert all(row["status"] == "fit" for row in res.trials)
    assert res.summary["n_fit"] == 5
    assert res.summary["median_alpha"] >= res.summary["alpha_min"]
    assert res.summary["median_r2"] >= 0.9
    assert res.summary["alpha_min"] == pytest.approx(1.75, rel=1e-12)
    assert res.summary["variant"] == "p"
    assert "window_policy" in res.summary
    # measured rate tracks the slowest uncontrolled discrete mode
    lam4 = full_discrete_eigenvalues(s.OperatorSpec(float(np.pi), 4, 64))[3]
    assert res.summary["median_alpha"] == pytest.approx(lam4, rel=0.05)


def test_attraction_zero_amplitude_skips(pi_problem):
    cfg = s.ExperimentConfig(trials=2, seed=11, horizon=1.0, amplitude=0.0,
                             family="constant")
    res = s.run_attraction_rate(pi_problem, cfg, 3)
    assert not res.passed and res.informational
    assert all(row["status"] == "skipped" for row in res.trials)
    assert res.summary["n_skipped"] == 2


def test_attraction_slaved_and_inconclusive_rows(pi_problem, monkeypatch):
    # no window is long enough to fit, so pairs are slaved or inconclusive;
    # the rows were recorded before the row-building code was rewritten
    monkeypatch.setattr(s.experiments, "MIN_FIT_SAMPLES", 100)
    cfg = s.ExperimentConfig(trials=4, seed=11, horizon=0.5, amplitude=0.5,
                             family="constant")
    res = s.run_attraction_rate(pi_problem, cfg, 3)
    assert repr(res.trials) == repr([
        {"trial": 0, "status": "slaved", "alpha_hat": None, "r2": None,
         "q0": 0.1908276175672371, "cone_entry_t": 0.5, "n_window": 20},
        {"trial": 1, "status": "slaved", "alpha_hat": None, "r2": None,
         "q0": 0.13732333737419467, "cone_entry_t": 0.46, "n_window": 18},
        {"trial": 2, "status": "inconclusive", "alpha_hat": None, "r2": None,
         "q0": 0.15543067599045252, "cone_entry_t": None, "n_window": 21},
        {"trial": 3, "status": "inconclusive", "alpha_hat": None, "r2": None,
         "q0": 0.17684470040987402, "cone_entry_t": None, "n_window": 21},
    ])
    assert not res.passed and res.informational
    assert (res.summary["n_slaved"], res.summary["n_inconclusive"]) == (2, 2)
    assert res.summary["min_fit_samples"] == 100

    # every pair slaved: a pass
    cfg = s.ExperimentConfig(trials=2, seed=11, horizon=2.0, amplitude=0.5,
                             family="gaussian_bumps")
    res = s.run_attraction_rate(pi_problem, cfg, 3)
    assert repr(res.trials) == repr([
        {"trial": 0, "status": "slaved", "alpha_hat": None, "r2": None,
         "q0": 0.1659463864771759, "cone_entry_t": 0.74, "n_window": 32},
        {"trial": 1, "status": "slaved", "alpha_hat": None, "r2": None,
         "q0": 0.16359828269702376, "cone_entry_t": 0.84, "n_window": 37},
    ])
    assert res.passed and not res.informational
    assert res.summary["median_alpha"] is None


def test_attraction_precondition_enforced(op_headline, nl):
    ks = s.make_constant_kernel(0.5, 50, 0.05, 0.05, 0.5)
    prob = s.ProblemSpec(operator=op_headline, kernel=ks, nonlinearity=nl)
    cfg = s.ExperimentConfig(trials=1, seed=1, horizon=1.0)
    with pytest.raises(ContractViolation, match="A4/A5"):
        s.run_attraction_rate(prob, cfg, 1)


def test_attraction_alpha_min_override(pi_problem):
    cfg = s.ExperimentConfig(trials=3, seed=11, horizon=5.0, amplitude=0.5,
                             alpha_min=1e6)
    res = s.run_attraction_rate(pi_problem, cfg, 3)
    assert not res.passed and not res.informational
    assert res.summary["alpha_min"] == 1e6


def test_emit_roundtrip_and_determinism(pi_problem, small_cfg, tmp_path):
    res = s.run_cone_invariance(pi_problem, small_cfg)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    paths = s.emit([res], str(out_a))
    assert sorted(os.path.basename(p) for p in paths) == [
        "cone_invariance_positive.csv", "summary.json"]
    payload = json.loads((out_a / "summary.json").read_text())
    assert payload[0]["name"] == "cone_invariance_positive"
    assert payload[0]["passed"] is True
    csv_lines = (out_a / "cone_invariance_positive.csv").read_text().strip() \
        .split("\n")
    assert csv_lines[0] == "trial,extreme,violation,passed"
    assert len(csv_lines) == 4
    s.emit([res], str(out_b))
    assert (out_a / "summary.json").read_bytes() == \
        (out_b / "summary.json").read_bytes()
    assert (out_a / "cone_invariance_positive.csv").read_bytes() == \
        (out_b / "cone_invariance_positive.csv").read_bytes()


def test_emit_formats_and_empty(tmp_path):
    empty = s.ExperimentResult(name="nothing", passed=True, trials=[],
                               summary={"trials": 0})
    paths = s.emit([empty], str(tmp_path / "e"), format="both")
    csv_path = [p for p in paths if p.endswith(".csv")][0]
    assert os.path.getsize(csv_path) == 0
    with open([p for p in paths if p.endswith(".json")][0]) as fh:
        payload = json.load(fh)
    assert payload[0]["name"] == "nothing"
    only_json = s.emit([empty], str(tmp_path / "j"), format="json")
    assert all(p.endswith(".json") for p in only_json)
    only_csv = s.emit([empty], str(tmp_path / "c"), format="csv")
    assert all(p.endswith(".csv") for p in only_csv)
    with pytest.raises(ContractViolation):
        s.emit([empty], str(tmp_path / "x"), format="yaml")


def test_emit_csv_cells_none_and_bool(tmp_path):
    res = s.ExperimentResult(
        name="mixed", passed=True,
        trials=[{"trial": 0, "alpha_hat": None, "passed": True},
                {"trial": 1, "alpha_hat": 1.5, "passed": False}],
        summary={})
    s.emit([res], str(tmp_path), format="csv")
    lines = (tmp_path / "mixed.csv").read_text().strip().split("\n")
    assert lines[1] == "0,,True"
    assert lines[2] == "1,1.5,False"
