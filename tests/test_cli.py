"""End-to-end CLI tests driven through main(argv) in-process."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sddlab
from sddlab.cli import main

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
GOLDEN = HERE / "golden"

BOUND3 = 3.6965384146782829e-4
M1_P = 3.4756671023291089e-4
M1_FULL = 7.3674618292771885e-4


def headline_dict():
    return {
        "operator": {"domain_length": 100.0, "modes": 8, "grid_points": 128},
        "kernel": {"r": 0.5, "m": 50, "M_xi": 8e-4,
                   "plus_integral": 6e-5, "minus_integral": 1.8e-4},
        "nonlinearity": {"kind": "nicholson", "p": 1.0},
        "conditions": {"N": 1},
    }


def pi_dict():
    return {
        "operator": {"domain_length": math.pi, "modes": 8, "grid_points": 64},
        "kernel": {"r": 0.1, "m": 50, "M_xi": 0.8,
                   "plus_integral": 0.03, "minus_integral": 0.02},
        "nonlinearity": {"kind": "nicholson", "p": 1.0},
        "conditions": {"N": 3},
        "experiment": {"trials": 2, "seed": 3, "horizon": 0.5},
    }


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_check_headline_verdict(tmp_path, capsys):
    cfg = write_cfg(tmp_path, headline_dict())
    out = tmp_path / "report.json"
    assert main(["check", cfg, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "PIM_only"
    assert report["N"] == 1
    assert report["bound3"] == pytest.approx(BOUND3, rel=1e-13)
    assert report["M1_p"] == pytest.approx(M1_P, rel=1e-13)
    assert report["M1_full"] == pytest.approx(M1_FULL, rel=1e-13)
    assert report["flags"]["bound3_pass_p"] is True
    assert report["flags"]["bound3_pass_full"] is False
    # stdout carries the same document
    assert json.loads(capsys.readouterr().out) == report


def test_check_csv_format(tmp_path, capsys):
    cfg = write_cfg(tmp_path, headline_dict())
    assert main(["check", cfg, "--format", "csv"]) == 0
    rows = dict(line.split(",", 1) for line in
                capsys.readouterr().out.strip().split("\n"))
    assert rows["verdict"] == "PIM_only"
    assert float(rows["bound3"]) == pytest.approx(BOUND3, rel=1e-13)
    assert rows["bound3_pass_full"] == "False"


def test_check_missing_conditions(tmp_path, capsys):
    cfg_dict = headline_dict()
    del cfg_dict["conditions"]
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["check", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at conditions:")


def test_check_unknown_key(tmp_path, capsys):
    cfg_dict = headline_dict()
    cfg_dict["kernel"]["bogus"] = 1.0
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["check", cfg]) == 2
    assert "kernel.bogus: unknown key" in capsys.readouterr().err


def test_check_uncertified_gate(tmp_path, capsys):
    cfg_dict = headline_dict()
    cfg_dict["kernel"]["M_xi"] = 0.5
    cfg_dict["kernel"]["plus_integral"] = 0.05
    cfg_dict["kernel"]["minus_integral"] = 0.05
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["check", cfg]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "neither_certified"
    assert main(["check", cfg, "--allow-uncertified"]) == 0


def test_check_N_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, headline_dict())
    assert main(["check", cfg, "-N", "2", "--allow-uncertified"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["N"] == 2
    assert report["lambda_N"] == pytest.approx(3.9478417604357434e-3, rel=1e-13)


def test_check_invalid_mu(tmp_path, capsys):
    cfg = write_cfg(tmp_path, headline_dict())
    assert main(["check", cfg, "--mu", "1.0"]) == 2
    assert "config error at conditions: mu must lie in" in capsys.readouterr().err


def test_check_variant_validation(tmp_path, capsys):
    cfg_dict = headline_dict()
    cfg_dict["variant"] = "positive"
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["check", cfg]) == 2
    assert "variant: must be one of" in capsys.readouterr().err


def test_check_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_synthesize_feasible(tmp_path, capsys):
    out = tmp_path / "synth.json"
    assert main(["synthesize", "-N", "1", "-L", "100.0",
                 "--output", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["feasible"] is True
    assert result["params"]["r"] == pytest.approx(0.376939097538836, rel=1e-12)
    assert result["params"]["M_xi"] == pytest.approx(1e-3, rel=1e-12)
    assert result["certificate"]["bound3_pass_p"] is True
    assert result["certificate"]["bound3_pass_full"] is False
    capsys.readouterr()


def test_synthesize_infeasible_window(tmp_path, capsys):
    assert main(["synthesize", "-N", "3", "-L", "3.141592653589793"]) == 1
    result = json.loads(capsys.readouterr().out)
    assert result["feasible"] is False
    assert result["certificate"]["binding_constraint"] == "xi_minus_window_empty"


def test_synthesize_csv_format(capsys):
    assert main(["synthesize", "-N", "1", "-L", "100.0",
                 "--format", "csv"]) == 0
    rows = dict(line.split(",", 1) for line in
                capsys.readouterr().out.strip().split("\n"))
    assert rows["feasible"] == "True"
    assert float(rows["r"]) == pytest.approx(0.376939097538836, rel=1e-12)


@pytest.mark.parametrize("golden, argv, code", [
    ("check_gap_pi.csv", ["check", "gap_pi.json"], 0),
    ("check_headline.csv", ["check", "headline.json"], 0),
    ("check_neither.csv", ["check", "neither.json"], 1),
    ("synthesize_N1_L100.csv", ["synthesize", "-N", "1", "-L", "100"], 0),
    ("synthesize_N3_Lpi.csv",
     ["synthesize", "-N", "3", "-L", "3.141592653589793"], 1),
])
def test_csv_golden(golden, argv, code, tmp_path, capsys):
    # the CSV row order is part of the format, so the bytes are pinned
    for name in ("gap_pi", "headline"):
        (tmp_path / f"{name}.json").write_bytes(
            (CONFIGS / f"{name}.json").read_bytes())
    neither = json.loads((CONFIGS / "headline.json").read_text())
    neither["kernel"]["M_xi"] = 0.5
    write_cfg(tmp_path, neither, "neither.json")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--format", "csv"]) == code
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("name, config, trials", [
    ("cone-invariance", "gap_pi.json", "3"),
    ("coincidence", "gap_pi.json", "3"),
    ("attraction", "gap_pi.json", "3"),
    ("lipschitz", "headline.json", "30"),
])
def test_experiment_golden(name, config, trials, tmp_path, capsys):
    # summary.json and every CSV, byte for byte
    argv = ["experiment", name, str(CONFIGS / config), "--trials", trials,
            "--output-dir", str(tmp_path)]
    if name != "lipschitz":
        argv += ["--horizon", "0.5"]
    assert main(argv) == 0
    capsys.readouterr()
    golden = GOLDEN / "experiment" / name
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(golden))
    for path in golden.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


# each search-grid flag at its default value
GRID_FLAGS = {"--r-min": "0.001", "--r-max": "10", "--r-points": "60",
              "--mxi-min": "1e-06", "--mxi-max": "10", "--mxi-points": "120"}


@pytest.mark.parametrize("flag", GRID_FLAGS)
def test_synthesize_default_grid_flag_changes_nothing(flag, capsys):
    for base in (["-N", "1", "-L", "100"], ["-N", "3", "-L", "3.141592653589793"]):
        code = main(["synthesize", *base])
        plain = capsys.readouterr().out
        assert main(["synthesize", *base, flag, GRID_FLAGS[flag]]) == code
        assert capsys.readouterr().out == plain


def test_synthesize_missing_N():
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "-L", "100.0"])
    assert exc.value.code == 2


def test_synthesize_bad_grid(capsys):
    assert main(["synthesize", "-N", "1", "-L", "100.0",
                 "--r-min", "2.0", "--r-max", "1.0"]) == 2
    assert "grid: need 0 < min < max" in capsys.readouterr().err


def simulate_dict():
    cfg = pi_dict()
    cfg["simulation"] = {
        "horizon": 0.5, "stride": 10,
        "initial": {"family": "random_positive_fourier", "amplitude": 0.5,
                    "seed": 4},
    }
    return cfg


def test_simulate_csv_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path, simulate_dict())
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["simulate", cfg, "--output", str(out_a)]) == 0
    assert f"wrote {out_a}" in capsys.readouterr().out
    text = out_a.read_text()
    assert text.startswith("t,a_1,")
    assert len(text.strip().split("\n")) == 1 + 25 + 1  # header + m/stride*50r + t=0
    assert main(["simulate", cfg, "--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_json_format(tmp_path, capsys):
    cfg = write_cfg(tmp_path, simulate_dict())
    out = tmp_path / "traj.json"
    assert main(["simulate", cfg, "--output", str(out),
                 "--format", "json", "--horizon", "0.1"]) == 0
    payload = json.loads(out.read_text())
    assert payload["times"][0] == 0.0
    assert payload["times"][-1] == pytest.approx(0.1, rel=1e-12)
    assert payload["min_overall"] >= 0.0
    capsys.readouterr()


def test_simulate_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SDDLAB_OUTDIR", str(tmp_path))
    cfg = write_cfg(tmp_path, simulate_dict())
    assert main(["simulate", cfg, "--horizon", "0.1"]) == 0
    assert (tmp_path / "trajectory.csv").exists()
    capsys.readouterr()


def test_simulate_blowup_exit_code(tmp_path, capsys):
    cfg_dict = simulate_dict()
    cfg_dict["simulation"]["initial"]["amplitude"] = 1e200
    cfg_dict["simulation"]["initial"]["family"] = "constant"
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["simulate", cfg, "--output", str(tmp_path / "t.csv")]) == 3
    assert "integration failure at step 1" in capsys.readouterr().err


def test_simulate_missing_section(tmp_path, capsys):
    cfg = write_cfg(tmp_path, pi_dict())
    assert main(["simulate", cfg]) == 2
    assert "config error at simulation:" in capsys.readouterr().err


def test_experiment_cone_invariance_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, pi_dict())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["experiment", "cone-invariance", cfg,
                 "--output-dir", str(out_a)]) == 0
    stdout = capsys.readouterr().out
    assert "cone_invariance_positive: PASS" in stdout
    assert "cone_invariance_negative: PASS" in stdout
    names = sorted(p.name for p in out_a.iterdir())
    assert names == ["cone_invariance_negative.csv",
                     "cone_invariance_positive.csv", "summary.json"]
    assert main(["experiment", "cone-invariance", cfg,
                 "--output-dir", str(out_b)]) == 0
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    capsys.readouterr()


def test_experiment_rerun_bitwise_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, pi_dict())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["experiment", "coincidence", cfg,
                 "--output-dir", str(out_a)]) == 0
    stdout_a = capsys.readouterr().out.replace(str(out_a), "<out>")
    assert main(["experiment", "coincidence", cfg,
                 "--output-dir", str(out_b)]) == 0
    assert capsys.readouterr().out.replace(str(out_b), "<out>") == stdout_a
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    assert "summary.json" in names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_experiment_csv_only_format(tmp_path, capsys):
    cfg = write_cfg(tmp_path, pi_dict())
    out = tmp_path / "csvonly"
    assert main(["experiment", "lipschitz", cfg, "--output-dir", str(out),
                 "--trials", "4"]) == 0
    capsys.readouterr()
    out2 = tmp_path / "csvonly2"
    assert main(["experiment", "lipschitz", cfg, "--output-dir", str(out2),
                 "--trials", "4", "--format", "csv"]) == 0
    assert not (out2 / "summary.json").exists()
    assert (out2 / "lipschitz_sampling.csv").exists()
    capsys.readouterr()


def test_experiment_attraction_n_from_conditions(tmp_path, capsys):
    cfg_dict = pi_dict()
    cfg_dict["experiment"]["horizon"] = 5.0
    cfg_dict["experiment"]["amplitude"] = 0.5
    cfg = write_cfg(tmp_path, cfg_dict)
    out = tmp_path / "att"
    assert main(["experiment", "attraction", cfg,
                 "--output-dir", str(out), "--trials", "3"]) == 0
    summary = json.loads((out / "summary.json").read_text())[0]
    assert summary["name"] == "attraction_rate"
    assert summary["summary"]["N"] == 3
    assert summary["summary"]["median_alpha"] >= 1.75
    capsys.readouterr()


def test_experiment_attraction_missing_N(tmp_path, capsys):
    cfg_dict = pi_dict()
    del cfg_dict["conditions"]
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["experiment", "attraction", cfg,
                 "--output-dir", str(tmp_path / "x")]) == 2
    assert "config error at experiment.N:" in capsys.readouterr().err


def test_experiment_unknown_name(tmp_path):
    cfg = write_cfg(tmp_path, pi_dict())
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "turbulence", cfg])
    assert exc.value.code == 2


def test_experiment_missing_section(tmp_path, capsys):
    cfg_dict = pi_dict()
    del cfg_dict["experiment"]
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["experiment", "coincidence", cfg]) == 2
    assert "config error at experiment:" in capsys.readouterr().err


def test_experiment_failed_gate_exit_code(tmp_path, capsys):
    # alpha_min far above any measurable rate forces a non-informational FAIL
    cfg_dict = pi_dict()
    cfg_dict["experiment"]["horizon"] = 5.0
    cfg_dict["experiment"]["amplitude"] = 0.5
    cfg_dict["experiment"]["alpha_min"] = 1e6
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["experiment", "attraction", cfg, "--trials", "2",
                 "--output-dir", str(tmp_path / "f")]) == 1
    assert "attraction_rate: FAIL" in capsys.readouterr().out


def test_experiment_seed_override_changes_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, pi_dict())
    out_a = tmp_path / "s3"
    out_b = tmp_path / "s4"
    assert main(["experiment", "cone-invariance", cfg,
                 "--output-dir", str(out_a)]) == 0
    assert main(["experiment", "cone-invariance", cfg, "--seed", "4",
                 "--output-dir", str(out_b)]) == 0
    assert (out_a / "summary.json").read_bytes() != \
        (out_b / "summary.json").read_bytes()
    capsys.readouterr()


def test_kernel_profiles_config_path(tmp_path, capsys):
    cfg_dict = headline_dict()
    m = 50
    cfg_dict["kernel"] = {
        "r": 0.5, "m": m, "M_xi": 8e-4,
        "xi_plus": [1.2e-4] * (m + 1),
        "xi_minus": [-3.6e-4] * (m + 1),
    }
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["check", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "PIM_only"
    assert report["bound3"] == pytest.approx(BOUND3, rel=1e-13)


def test_kernel_profiles_and_integrals_conflict(tmp_path, capsys):
    cfg_dict = headline_dict()
    cfg_dict["kernel"]["xi_plus"] = [0.0] * 51
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["check", cfg]) == 2
    assert "either integrals or profiles" in capsys.readouterr().err


def profile_dict():
    cfg = simulate_dict()
    cfg["kernel"] = {"r": 0.1, "m": 50, "M_xi": 0.8,
                     "xi_plus": [0.3] * 51, "xi_minus": [-0.2] * 51}
    return cfg


NAN = float("nan")

# key path -> (wrong JSON types, out-of-range values, required, nullable);
# sections count as keys.  Every value must be rejected by every command.
CONFIG_KEYS = {
    "operator": ([[], 1, "x"], [], True, False),
    "operator.domain_length": (["1", True, [1.0], NAN, 10**400], [0, -1.0],
                               True, False),
    "operator.modes": ([8.0, True, "8"], [0, -1], True, False),
    "operator.grid_points": ([64.0, True], [1], True, False),
    "kernel": ([[], 1], [], True, False),
    "kernel.r": (["0.1", True, NAN], [0.0, -0.1], True, False),
    "kernel.m": ([50.0, True], [0], True, False),
    "kernel.M_xi": ([False, "x"], [0, -1.0], True, False),
    "kernel.plus_integral": (["0", True], [-1e-3], True, False),
    "kernel.minus_integral": (["0", True], [-1e-3], True, False),
    "kernel.xi_plus": ([0.3, [True], ["0.3"], {}], [], True, False),
    "kernel.xi_minus": ([-0.2, [None], [NAN]], [], True, False),
    "nonlinearity": ([[], "nicholson"], [], True, False),
    "nonlinearity.kind": ([1, True], ["bounded_custom", "Nicholson"], True, False),
    "nonlinearity.p": (["1", True], [0, -1.0], False, False),
    "variant": ([1, True, ["p"]], ["positive", "P"], False, False),
    "conditions": ([[], 3], [], False, False),
    "conditions.N": ([3.0, True, "3"], [0, -2], True, False),
    "conditions.mu": (["1", True], [0, -0.5], False, True),
    "simulation": ([[], "x"], [], False, False),
    "simulation.horizon": (["0.5", True, NAN], [0, -0.5], True, False),
    "simulation.stride": ([10.0, True], [0], False, False),
    "simulation.record_modes": ([2.0, True], [0], False, True),
    "simulation.initial": ([[], "x", 1], [], True, False),
    "simulation.initial.family": ([1, True], ["white_noise"], True, False),
    "simulation.initial.amplitude": (["1", True], [-0.5], True, False),
    "simulation.initial.seed": ([4.0, True, "4"], [-1], True, False),
    "experiment": ([[], 1], [], False, False),
    "experiment.trials": ([2.0, True], [0, -1], True, False),
    "experiment.seed": ([3.0, True], [-1], True, False),
    "experiment.horizon": (["0.5", True], [0, -1.0], True, False),
    "experiment.family": ([1, True], ["white_noise"], False, False),
    "experiment.amplitude": (["1", True], [-1.0], False, False),
    "experiment.stride": ([1.5, True], [0], False, False),
    "experiment.alpha_min": (["1", True], [0, -1.0], False, True),
    "experiment.N": ([3.0, True], [0], False, True),
    "experiment.cone": ([1, True], ["upper"], False, False),
}

COMMANDS = (["check"], ["simulate"], ["experiment", "coincidence"])


def bad_configs(path):
    """(config, offending key path) pairs derived from one CONFIG_KEYS row."""
    wrong, out_of_range, required, nullable = CONFIG_KEYS[path]
    *parents, leaf = path.split(".")

    def mutated(action, value=None, key=leaf):
        cfg = profile_dict() if leaf.startswith("xi_") else simulate_dict()
        sec = cfg
        for name in parents:
            sec = sec[name]
        if action == "delete":
            del sec[key]
        else:
            sec[key] = value
        return cfg

    cases = [(mutated("set", v), path) for v in wrong + out_of_range]
    if not nullable:
        cases.append((mutated("set", None), path))
    if required:
        cases.append((mutated("delete"), path))
    sibling = ".".join(parents + ["bogus"])
    cases.append((mutated("set", 1, key="bogus"), sibling))
    return cases


@pytest.mark.parametrize("path", sorted(CONFIG_KEYS))
def test_config_rejection_table(path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SDDLAB_OUTDIR", str(tmp_path))
    for i, (cfg_dict, key) in enumerate(bad_configs(path)):
        cfg = write_cfg(tmp_path, cfg_dict, name=f"bad{i}.json")
        for cmd in COMMANDS:
            assert main(cmd + [cfg]) == 2, (cmd, cfg_dict, key)
            err = capsys.readouterr().err
            assert key in err and "Traceback" not in err, (cmd, err)


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--horizon", "0"], "horizon"),
    (["experiment", "coincidence", "--horizon", "0"], "horizon"),
    (["simulate", "--stride", "0"], "stride"),
    (["experiment", "coincidence", "--trials", "0"], "trials"),
    (["check", "-N", "0"], "N"),
    (["check", "--mu", "0"], "mu"),
    (["simulate", "--seed", "-1"], "seed"),
    (["experiment", "coincidence", "--seed", "-1"], "seed"),
    # checks across keys, after the schema: K = 8 and h = 0.002
    (["check", "-N", "8"], "conditions"),
    (["check", "--mu", "100"], "conditions"),
    (["simulate", "--horizon", "0.001"], "simulation.horizon"),
    (["experiment", "coincidence", "--horizon", "0.001"], "experiment.horizon"),
    (["experiment", "attraction", "--horizon", "0.001"], "experiment.horizon"),
    (["experiment", "lipschitz", "--horizon", "0.001"], "experiment.horizon"),
    # runs above MAX_TRIAL_STEPS, which must not start stepping
    (["simulate", "--horizon", "1e30"], "simulation.horizon"),
    (["experiment", "cone-invariance", "--trials", "1000000000"],
     "experiment.trials"),
    # trials x steps = 3999999 x 250 fits the cap; the rows evolve steps do
    # not: two cones, two variants and a witness, a pair per trial
    (["experiment", "cone-invariance", "--trials", "3999999"],
     "experiment.trials"),
    (["experiment", "coincidence", "--trials", "3999999"], "experiment.trials"),
    (["experiment", "attraction", "--trials", "3999999"], "experiment.trials"),
])
def test_flag_rejection(argv, key, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SDDLAB_OUTDIR", str(tmp_path))
    cfg = write_cfg(tmp_path, simulate_dict())
    cmd, flags = argv[:-2], argv[-2:]
    assert main(cmd + [cfg] + flags) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("cmd, path, value", [
    (["simulate"], "simulation.record_modes", 9),
    (["experiment", "attraction"], "experiment.N", 8),
    (["experiment", "attraction"], "conditions.N", 8),
    (["experiment", "attraction"], "experiment.family", "random_signed_fourier"),
    (["experiment", "cone-invariance"], "experiment.family",
     "random_signed_fourier"),
])
def test_cross_key_rejection(cmd, path, value, tmp_path, capsys, monkeypatch):
    # values the schema accepts but a check across keys (K = 8) rejects
    monkeypatch.setenv("SDDLAB_OUTDIR", str(tmp_path))
    cfg_dict = simulate_dict()
    section, key = path.split(".")
    cfg_dict[section][key] = value
    assert main(cmd + [write_cfg(tmp_path, cfg_dict)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {path}:") and "Traceback" not in err


# prints the scipy modules loaded by an import of sddlab and one command
COLD_CHILD = """
import json
import sys
import sddlab
from sddlab.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([m for m in sys.modules if m.split(".")[0] == "scipy"]),
      file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv, code, scipy_loaded", [
    ([], 0, False),
    (["check", str(CONFIGS / "headline.json")], 0, False),
    (["synthesize", "-N", "3", "-L", "3.141592653589793"], 1, False),
    (["synthesize", "-N", "1", "-L", "100"], 0, False),
    # control: a command that transforms a field does load scipy.fft
    (["simulate", str(CONFIGS / "gap_pi.json"), "--horizon", "0.01"], 0, True),
], ids=["import", "check", "synthesize-infeasible", "synthesize", "simulate"])
def test_cold_commands_skip_scipy(argv, code, scipy_loaded, tmp_path):
    src = str(Path(sddlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, SDDLAB_OUTDIR=str(tmp_path), PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", COLD_CHILD, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    if scipy_loaded:
        assert "scipy.fft" in loaded
    else:
        assert loaded == []
