"""The four benchmark workloads.

A workload runs jobs.  A job is one call a user would make: one experiment
runner call for the in-process workloads, one ``sddlab`` command in a fresh
interpreter for ``cli_cold``.  Each workload has a fixed list of job kinds; a
round runs one job of each kind.  ``rounds`` is the fixed sample of rounds
the metrics come from, about 14 s of work at the commit that added the
benchmark, so that with the set-up interpreters it fits a 25 s run on the
host the benchmark was written on.  ``job`` returns the number of failed
operations and a digest of the job's outputs.  The workload checks every
output itself, so a faster but wrong program shows up as failed operations.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

from tracer import merge_stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CONE_TOL = 1e-12      # acceptance 5: max_violation <= 1e-12
RATIO_TOL = 1e-8      # acceptance 4: every ratio <= 1 + 1e-8
CMD_TIMEOUT_S = 120
ENTRY = "import sys; from sddlab.cli import main; sys.exit(main())"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _experiment_config(sd, cfg: dict, **override):
    e = dict(cfg["experiment"])
    e.update(override)
    return sd.experiments.ExperimentConfig(
        trials=e["trials"], seed=e["seed"], horizon=e["horizon"],
        family=e["family"], amplitude=e["amplitude"], stride=e["stride"],
        alpha_min=e["alpha_min"])


class _InProcess:
    """Loads its config and builds the ProblemSpec once, in this process."""

    config = "configs/headline.json"

    def __init__(self, sd):
        self.sd = sd
        self.cfg = sd.cli.load_config(str(ROOT / self.config))
        self.problem = sd.cli.build_problem(self.cfg)

    def steps(self, horizon: float) -> int:
        return self.sd.solver.steps_for_horizon(self.problem.kernel, horizon)

    def trial_steps(self, kind: str) -> int:
        return 0


class ConeHeadline(_InProcess):
    """run_cone_invariance on headline, positive cone then negative cone."""

    name = "cone_headline"
    kinds = ("positive", "negative")

    def __init__(self, sd, tiny):
        super().__init__(sd)
        self.rounds = 2 if tiny else 5
        self.trials = 2 if tiny else 8
        self.horizon = 0.5 if tiny else self.cfg["experiment"]["horizon"]

    def ops(self, kind):
        return self.trials

    def work(self, kind):  # trial-steps
        return self.trials * self.steps(self.horizon)

    trial_steps = work

    def job(self, kind, seed, tracer):
        ecfg = _experiment_config(self.sd, self.cfg, trials=self.trials,
                                  seed=seed * 1000, horizon=self.horizon)
        with tracer or nullcontext():
            res = self.sd.experiments.run_cone_invariance(
                self.problem, ecfg, cone=kind)
        bad = sum(1 for row in res.trials
                  if not (row["passed"] and row["violation"] <= CONE_TOL))
        bad += max(0, self.trials - len(res.trials))
        if not (res.passed and res.summary["max_violation"] <= CONE_TOL):
            bad = max(bad, 1)
        return min(bad, self.trials), _digest(res.to_dict())


class CoincidenceGapPi(_InProcess):
    """run_coincidence on the positive cone of gap_pi, with the witness."""

    name = "coincidence_gap_pi"
    config = "configs/gap_pi.json"
    kinds = ("positive",)

    def __init__(self, sd, tiny):
        super().__init__(sd)
        self.rounds = 2 if tiny else 20
        self.trials = 1
        self.horizon = 0.1 if tiny else self.cfg["experiment"]["horizon"]

    def ops(self, kind):  # the trials plus the witness
        return self.trials + 1

    def work(self, kind):  # trial-steps: every datum runs two variants
        return (self.trials + 1) * 2 * self.steps(self.horizon)

    trial_steps = work

    def job(self, kind, seed, tracer):
        ecfg = _experiment_config(self.sd, self.cfg, trials=self.trials,
                                  seed=seed * 1000, horizon=self.horizon)
        with tracer or nullcontext():
            res = self.sd.experiments.run_coincidence(
                self.problem, ecfg, cone=kind, include_witness=True)
        regular = [row for row in res.trials if not row["informational"]]
        bad = sum(1 for row in regular
                  if not (row["passed"] and row["distance"] == 0.0))
        bad += max(0, self.trials - len(regular))
        if not (res.passed and res.summary["max_distance"] == 0.0):
            bad = max(bad, 1)
        witness = res.summary["witness_distance"]
        if not (witness is not None and witness > 0.0):
            bad += 1
        return min(bad, self.ops(kind)), _digest(res.to_dict())


class LipschitzHeadline(_InProcess):
    """run_lipschitz_sampling on headline (acceptance 4's workload)."""

    name = "lipschitz_headline"
    kinds = ("pairs",)

    def __init__(self, sd, tiny):
        super().__init__(sd)
        self.rounds = 2 if tiny else 300
        self.pairs = 6 if tiny else 60  # a multiple of the 3 pair types

    def ops(self, kind):
        return self.pairs

    work = ops  # pairs

    def job(self, kind, seed, tracer):
        ecfg = _experiment_config(self.sd, self.cfg, trials=self.pairs,
                                  seed=seed * 1000, horizon=1.0)
        with tracer or nullcontext():
            res = self.sd.experiments.run_lipschitz_sampling(self.problem, ecfg)
        bad = max(0, self.pairs - len(res.trials))
        for row in res.trials:
            ratios = [v for key, v in row.items()
                      if key.endswith("ratio") or "_ratio_" in key]
            ok = (row["passed"] and row["status"] in ("ok", "skipped")
                  and all(v is None or v <= 1.0 + RATIO_TOL for v in ratios))
            bad += not ok
        return min(bad, self.pairs), _digest(res.to_dict())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliCold:
    """Five sddlab commands, each in a fresh interpreter, one after another.

    ``simulate`` and ``experiment`` take one of SEED_VARIANTS seeds; every
    output file is compared byte for byte, by digest, with cli_digests.json.
    """

    name = "cli_cold"
    config = "configs/headline.json"
    SEED_VARIANTS = 8
    COMMANDS = {
        "check": (0, ["check", "configs/headline.json",
                      "--output", "{out}/report.json"]),
        "synthesize_infeasible": (1, ["synthesize", "-N", "3",
                                      "-L", repr(math.pi),
                                      "--output", "{out}/synthesis.json"]),
        "synthesize_feasible": (0, ["synthesize", "-N", "1", "-L", "100",
                                    "--output", "{out}/synthesis.json"]),
        "simulate": (0, ["simulate", "configs/gap_pi.json", "--horizon", "0.5",
                         "--seed", "{seed}", "--output", "{out}/trajectory.csv"]),
        "experiment": (0, ["experiment", "cone-invariance", "configs/gap_pi.json",
                           "--trials", "3", "--horizon", "0.5", "--seed", "{seed}",
                           "--output-dir", "{out}"]),
    }
    SEEDED = ("simulate", "experiment")
    kinds = tuple(COMMANDS)

    def __init__(self, sd, tiny, digests: dict | None = None):
        self.rounds = 2 if tiny else 4
        self.digests = digests if digests is not None else json.loads(
            (BENCH / "cli_digests.json").read_text())
        # trial-steps per command, from the gap_pi config and the arguments
        cfg = sd.cli.load_config(str(ROOT / "configs/gap_pi.json"))
        kernel = sd.cli.build_problem(cfg).kernel
        cones = 2 if cfg["experiment"]["cone"] == "both" else 1

        def arg(kind, flag):
            template = self.COMMANDS[kind][1]
            return float(template[template.index(flag) + 1])

        steps = sd.solver.steps_for_horizon
        self._trial_steps = {
            "simulate": steps(kernel, arg("simulate", "--horizon")),
            "experiment": int(arg("experiment", "--trials")) * cones
            * steps(kernel, arg("experiment", "--horizon")),
        }

    def ops(self, kind):
        return 1

    work = ops  # commands

    def trial_steps(self, kind):
        return self._trial_steps.get(kind, 0)

    def variant(self, kind, seed) -> str:
        return str(seed % self.SEED_VARIANTS) if kind in self.SEEDED else "-"

    def command(self, kind, seed, out_dir: Path) -> list:
        _, template = self.COMMANDS[kind]
        out = os.path.relpath(out_dir, ROOT)
        return [arg.format(out=out, seed=self.variant(kind, seed))
                for arg in template]

    def run_command(self, kind, seed, tracer=None) -> tuple[int, dict]:
        """Run one command; returns (exit code, {file name: sha256})."""
        out_dir = OUT / "cli" / kind
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        args = self.command(kind, seed, out_dir)
        stats_path = OUT / "cli" / f"{kind}.trace.json"
        if tracer is None:
            argv = [sys.executable, "-c", ENTRY, *args]
        else:
            argv = [sys.executable, str(BENCH / "cli_child.py"), str(stats_path),
                    *args]
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                              capture_output=True, timeout=CMD_TIMEOUT_S)
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        if tracer is not None and stats_path.is_file():
            merge_stats(tracer.stats, json.loads(stats_path.read_text()))
            stats_path.unlink()
        files = {p.name: _sha256(p) for p in sorted(out_dir.iterdir())}
        return proc.returncode, files

    def job(self, kind, seed, tracer):
        code, files = self.run_command(kind, seed, tracer)
        expected_code, _ = self.COMMANDS[kind]
        expected = self.digests[kind][self.variant(kind, seed)]
        ok = code == expected_code and files == expected
        return int(not ok), _digest(files)


WORKLOADS = {w.name: w for w in
             (ConeHeadline, CoincidenceGapPi, LipschitzHeadline, CliCold)}
