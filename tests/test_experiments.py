"""Experiment harnesses: initial families, the four runners, and emission."""

import json
import os

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
    # both variants read one stream, so a batch is drawn just before it steps
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
    calls = []
    masses = s.experiments.sign_masses

    def counting_masses(*args, **kwargs):
        calls.append(1)
        return masses(*args, **kwargs)

    monkeypatch.setattr(s.experiments, "sign_masses", counting_masses)
    cfg = s.ExperimentConfig(trials=30, seed=4, horizon=1.0, family=family,
                             amplitude=amplitude)
    res = s.run_lipschitz_sampling(headline_problem, cfg)
    assert res.summary["pairs_used"] == 30
    assert {row["pair"] for row in res.trials} == {"independent", "scaled", "near"}
    assert len(calls) == 2 * res.summary["pairs_used"]
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
    payload = json.loads(open([p for p in paths if p.endswith(".json")][0]).read())
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
