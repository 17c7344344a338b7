"""Acceptance gate: the nine release criteria, one reported line each.

Each test prints a single `[acceptance N] label: PASS/FAIL (...)` line
outside pytest capture and then asserts, so even a red run shows every
criterion verdict.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import sddlab as s
from sddlab.cli import main
from sddlab.spectral import full_discrete_eigenvalues

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HEADLINE = str(CONFIGS / "headline.json")
GAP_PI = str(CONFIGS / "gap_pi.json")

# re-derived reference values for the headline certificate
BOUND3 = 3.6965384146782829e-4
M1_P = 3.4756671023291089e-4
M1_FULL = 7.3674618292771885e-4
DELTA_P = 0.47012457499803951


def _report(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[acceptance {num}] {label}: {tag} ({detail})", flush=True)


def refine_max(f, lo, hi, rounds=8, pts=4001):
    """Independent progressive-refinement oracle (pure numpy, no package code)."""
    for _ in range(rounds):
        xs = np.linspace(lo, hi, pts)
        ys = f(xs)
        i = int(np.argmax(ys))
        w = (hi - lo) / (pts - 1)
        lo, hi = max(lo, xs[i] - 2 * w), min(hi, xs[i] + 2 * w)
    return float(ys[i])


def test_criterion_1_headline_certificate(tmp_path, capsys):
    out = tmp_path / "report.json"
    t0 = time.perf_counter()
    code = main(["check", HEADLINE, "--output", str(out)])
    elapsed = time.perf_counter() - t0
    rep = json.loads(out.read_text())
    checks = {
        "exit": code == 0,
        "verdict": rep["verdict"] == "PIM_only",
        "bound3": abs(rep["bound3"] / BOUND3 - 1) <= 1e-6,
        "M1_p": abs(rep["M1_p"] / M1_P - 1) <= 1e-6,
        "M1_full": abs(rep["M1_full"] / M1_FULL - 1) <= 1e-6,
        "delta_p": abs(rep["delta_p"] / DELTA_P - 1) <= 1e-6,
        # headline display roundings (5 significant digits)
        "displays": (abs(rep["bound3"] / 3.6965e-4 - 1) <= 1e-3
                     and abs(rep["M1_p"] / 3.4759e-4 - 1) <= 1e-3
                     and abs(rep["M1_full"] / 7.3676e-4 - 1) <= 1e-3),
        "p_passes": rep["flags"]["bound3_pass_p"] is True,
        "full_fails": rep["flags"]["bound3_pass_full"] is False,
        "runtime": elapsed < 1.0,
    }
    ok = all(checks.values())
    _report(capsys, 1, "headline certificate", ok,
            f"verdict={rep['verdict']} bound3={rep['bound3']:.6e} "
            f"M1_p={rep['M1_p']:.6e} M1_full={rep['M1_full']:.6e} "
            f"{elapsed:.2f}s")
    assert ok, checks


def test_criterion_2_infeasibility_certificate(tmp_path, capsys):
    out = tmp_path / "synth.json"
    t0 = time.perf_counter()
    code = main(["synthesize", "-N", "3", "-L", repr(math.pi),
                 "--output", str(out)])
    elapsed = time.perf_counter() - t0
    res = json.loads(out.read_text())
    cert = res["certificate"]
    checks = {
        "exit": code == 1,
        "infeasible": res["feasible"] is False,
        "binding": cert["binding_constraint"] == "xi_minus_window_empty",
        "threshold": abs(cert["r_threshold"] / 1.9224919074284905 - 1) <= 1e-9,
        "quantified": cert["max_M_xi_allowed_above_threshold"]
                      < cert["mxi_grid_floor"],
        "runtime": elapsed < 10.0,
    }
    ok = all(checks.values())
    _report(capsys, 2, "infeasibility certificate", ok,
            f"binding={cert['binding_constraint']} "
            f"r_threshold={cert['r_threshold']:.6f} {elapsed:.2f}s")
    assert ok, checks


def test_criterion_3_nonlinearity_constants(nl, capsys):
    mb_oracle = refine_max(lambda w: w * w * np.exp(-w), 0.0, 20.0)
    lb_oracle = refine_max(lambda w: np.abs((2 * w - w * w) * np.exp(-w)),
                           0.0, 20.0)
    nl2 = s.certified(s.nicholson(2.0))
    checks = {
        "M_b_oracle": abs(nl.M_b - mb_oracle) <= 1e-6,
        "L_b_oracle": abs(nl.L_b - lb_oracle) <= 1e-6,
        "M_b_closed": abs(nl.M_b - 4.0 * math.exp(-2.0)) <= 1e-9,
        "M_b_display": abs(nl.M_b - 0.541341) <= 1e-4,
        "L_b_display": abs(nl.L_b - 0.461220) <= 1e-4,
        "p_scaling": (abs(nl2.M_b - 2 * nl.M_b) <= 1e-15
                      and abs(nl2.L_b - 2 * nl.L_b) <= 1e-15),
    }
    ok = all(checks.values())
    _report(capsys, 3, "nonlinearity constants", ok,
            f"M_b={nl.M_b:.9f} L_b={nl.L_b:.9f} "
            f"|M_b-oracle|={abs(nl.M_b - mb_oracle):.2e} "
            f"|L_b-oracle|={abs(nl.L_b - lb_oracle):.2e}")
    assert ok, checks


def test_criterion_4_lipschitz_suites(headline_problem, capsys):
    cfg = s.ExperimentConfig(trials=1000, seed=2024, horizon=1.0, amplitude=1.0)
    t0 = time.perf_counter()
    res = s.run_lipschitz_sampling(headline_problem, cfg)
    elapsed = time.perf_counter() - t0
    checks = {
        "passed": res.passed,
        "pairs": res.summary["pairs_used"] + res.summary["pairs_skipped"] == 1000,
        "b1": res.summary["max_b1_ratio"] <= 1 + 1e-8,
        "kernel": res.summary["max_kernel_ratio"] <= 1 + 1e-8,
        "runtime": elapsed < 60.0,
    }
    ok = all(checks.values())
    _report(capsys, 4, "Lipschitz suites", ok,
            f"max_b1_ratio={res.summary['max_b1_ratio']:.3e} "
            f"max_kernel_ratio={res.summary['max_kernel_ratio']:.3e} "
            f"pairs={res.summary['pairs_used']} {elapsed:.1f}s")
    assert ok, checks


def test_criterion_5_cone_invariance(headline_problem, capsys):
    cfg = s.ExperimentConfig(trials=100, seed=2024, horizon=25.0, amplitude=1.0)
    t0 = time.perf_counter()
    pos = s.run_cone_invariance(headline_problem, cfg, cone="positive")
    neg = s.run_cone_invariance(headline_problem, cfg, cone="negative")
    elapsed = time.perf_counter() - t0
    checks = {
        "pos_passed": pos.passed,
        "neg_passed": neg.passed,
        "pos_violation": pos.summary["max_violation"] <= 1e-12,
        "neg_violation": neg.summary["max_violation"] <= 1e-12,
        "trials": len(pos.trials) == 100 and len(neg.trials) == 100,
    }
    ok = all(checks.values())
    _report(capsys, 5, "cone invariance", ok,
            f"violation_pos={pos.summary['max_violation']:.1e} "
            f"violation_neg={neg.summary['max_violation']:.1e} "
            f"100+100 trials, T=25.0, {elapsed:.1f}s")
    assert ok, checks


def test_criterion_6_exact_coincidence(headline_problem, capsys):
    cfg = s.ExperimentConfig(trials=50, seed=2024, horizon=25.0, amplitude=1.0)
    t0 = time.perf_counter()
    res = s.run_coincidence(headline_problem, cfg, cone="positive")
    elapsed = time.perf_counter() - t0
    checks = {
        "passed": res.passed,
        "bitwise": res.summary["max_distance"] == 0.0,
        "witness": res.summary["witness_distance"] > 0.0,
        "trials": sum(not t["informational"] for t in res.trials) == 50,
    }
    ok = all(checks.values())
    _report(capsys, 6, "exact coincidence", ok,
            f"max_distance={res.summary['max_distance']!r} "
            f"witness={res.summary['witness_distance']:.3e} "
            f"50 trials, T=25.0, {elapsed:.1f}s")
    assert ok, checks


def test_criterion_7_solver_validation(op_headline, op_pi, nl, capsys):
    # pure-linear closed form
    ks0 = s.make_constant_kernel(0.5, 50, 0.0, 0.0, 1e-3)
    prob = s.ProblemSpec(operator=op_headline, kernel=ks0, nonlinearity=nl)
    phi = s.constant_history(op_headline, 0.5, 50,
                             s.eigenfunction(op_headline, 1))
    [rec] = s.evolve(prob, [phi], 200, stride=1, record_fields=True)
    lam1 = full_discrete_eigenvalues(op_headline)[0]
    err_lin = 0.0
    for idx in (1, 50, 200):
        a = s.forward(op_headline, s.GridField(rec.fields[idx])).coeffs
        expected = float(np.exp(-lam1 * rec.times[idx]))
        err_lin = max(err_lin, abs(a[0] / expected - 1),
                      float(np.abs(a[1:]).max()))
    # step-halving self-convergence on a nonlinear run
    finals = {}
    for m in (25, 50, 100):
        ks = s.make_constant_kernel(0.1, m, 0.03, 0.02, 0.8)
        p2 = s.ProblemSpec(operator=op_pi, kernel=ks, nonlinearity=nl)
        steps = s.steps_for_horizon(ks, 2.0)
        phi2 = s.make_initial_history(op_pi, 0.1, m, "random_positive_fourier",
                                      1.0, np.random.default_rng(43))
        finals[m] = s.evolve(p2, [phi2], steps, stride=steps,
                             record_fields=True)[0].fields[-1]
    e_coarse = float(np.abs(finals[25] - finals[100]).max())
    e_fine = float(np.abs(finals[50] - finals[100]).max())
    order = float(np.log2(e_coarse / e_fine))
    checks = {"linear": err_lin <= 1e-12, "order": order >= 0.9}
    ok = all(checks.values())
    _report(capsys, 7, "solver validation", ok,
            f"linear_err={err_lin:.2e} convergence_order={order:.3f}")
    assert ok, checks


def test_criterion_8_attraction_rate(pi_problem, capsys):
    cfg = s.ExperimentConfig(trials=20, seed=7, horizon=5.0, amplitude=0.5)
    t0 = time.perf_counter()
    res = s.run_attraction_rate(pi_problem, cfg, 3)
    elapsed = time.perf_counter() - t0
    checks = {
        "passed": res.passed,
        "alpha_min": res.summary["alpha_min"] == pytest.approx(1.75, rel=1e-12),
        "median_alpha": res.summary["median_alpha"] >= 1.75,
        "median_r2": res.summary["median_r2"] >= 0.9,
        "variant": res.summary["variant"] == "p",
        "runtime": elapsed < 300.0,
    }
    ok = all(checks.values())
    _report(capsys, 8, "attraction rate", ok,
            f"median_alpha={res.summary['median_alpha']:.3f} "
            f"median_r2={res.summary['median_r2']:.5f} "
            f"n_fit={res.summary['n_fit']}/20 {elapsed:.1f}s")
    assert ok, checks


def test_criterion_9_reproducibility(tmp_path, capsys):
    runs = {
        "check": lambda d: main(["check", HEADLINE,
                                 "--output", str(d / "report.json")]),
        "synthesize": lambda d: main(["synthesize", "-N", "1", "-L", "100.0",
                                      "--output", str(d / "synth.json")]),
        "simulate": lambda d: main(["simulate", GAP_PI, "--horizon", "0.5",
                                    "--output", str(d / "trajectory.csv")]),
        "experiment": lambda d: main(["experiment", "cone-invariance", GAP_PI,
                                      "--trials", "3", "--horizon", "0.5",
                                      "--output-dir", str(d / "exp")]),
    }
    mismatches = []
    for name, run in runs.items():
        d_a = tmp_path / f"{name}_a"
        d_b = tmp_path / f"{name}_b"
        for d in (d_a, d_b):
            d.mkdir()
            (d / "exp").mkdir()
            code = run(d)
            if code != 0:
                mismatches.append(f"{name}: exit {code}")
        files_a = sorted(p for p in d_a.rglob("*") if p.is_file())
        files_b = sorted(p for p in d_b.rglob("*") if p.is_file())
        if [p.relative_to(d_a) for p in files_a] != \
                [p.relative_to(d_b) for p in files_b]:
            mismatches.append(f"{name}: file sets differ")
            continue
        for pa, pb in zip(files_a, files_b):
            if pa.read_bytes() != pb.read_bytes():
                mismatches.append(f"{name}: {pa.name} differs")
    ok = not mismatches
    _report(capsys, 9, "reproducibility", ok,
            "all four commands byte-identical on rerun" if ok
            else "; ".join(mismatches))
    assert ok, mismatches
