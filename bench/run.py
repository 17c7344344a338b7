"""sddlab benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 bench/run.py --workload cone_headline --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``.  The workload runs a fixed sample of rounds of jobs,
with set-up interpreters timed between them, then more rounds until
``--seconds`` have passed; the metrics come from the fixed sample.  With
``--trace 1`` every other round runs with the span wrappers of tracer.py
installed and the metrics are the per-layer ones.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; a manifest with the raw timings goes to bench/out/.  Workloads,
metrics and what each layer should move are listed in bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from probes import run_probes
from tracer import Tracer, diff_stats
from workloads import OUT, ROOT, SRC, WORKLOADS, child_env

SETUP_RUNS = 9
SETUP_CODE = ("import sys, sddlab.cli as c; "
              "c.build_problem(c.load_config(sys.argv[1]))")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import sddlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "sddlab" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'sddlab'}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("sddlab.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        fail(f"sddlab was imported from {cli.__file__}, not from {SRC}")
    return SimpleNamespace(cli=cli,
                           experiments=importlib.import_module("sddlab.experiments"),
                           solver=importlib.import_module("sddlab.solver"))


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def _import_times(stderr: str) -> dict:
    """Cumulative seconds per module from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            try:
                out[parts[2].strip()] = int(parts[1]) / 1e6
            except ValueError:
                continue  # the header line
    return out


def measure_setup(config: str, importtime: bool) -> tuple[float, dict]:
    """One fresh interpreter that imports sddlab, loads the config and builds
    the ProblemSpec: its wall time, and its import times."""
    flags = ["-X", "importtime"] if importtime else []
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", SETUP_CODE, config],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("set-up probe failed")
    times = _import_times(proc.stderr)
    return wall, {"import.sddlab_s": times.get("sddlab", 0.0),
                  "import.scipy_fft_s": times.get("scipy.fft", 0.0)}


def run_rounds(workload, seed: int, seconds: float, tracer, setup_runs: int,
               importtime: bool) -> dict:
    """Run the fixed sample, then more rounds until ``seconds`` have passed.

    The fixed sample is ``workload.rounds`` rounds with ``setup_runs`` set-up
    interpreters spread evenly between them, so that the set-ups meet the
    same phases of the host as the jobs.  Only the fixed sample feeds the
    metrics: a faster program fits more rounds into the run, and a minimum
    over more jobs would read lower than its real speed-up.  Later rounds go
    to the manifest only.  With a tracer, odd rounds are traced."""
    records, setups, attempted, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    quota = workload.rounds
    k = len(workload.kinds)
    while len(records) < quota or time.perf_counter() < deadline:
        r = len(records)
        while len(setups) < math.ceil(setup_runs * min(r + 1, quota) / quota):
            setups.append(measure_setup(workload.config, importtime))
        traced = tracer is not None and r % 2 == 1
        before = {n: list(v) for n, v in tracer.stats.items()} if traced else None
        rec = {"traced": traced, "times": {}, "seeds": {}}
        for i, kind in enumerate(workload.kinds):
            if r >= quota and time.perf_counter() >= deadline:
                break  # a cut round keeps the jobs it finished
            job_seed = seed * 100_000 + r * k + i
            t0 = time.perf_counter()
            try:
                bad, _ = workload.job(kind, job_seed, tracer if traced else None)
            except Exception:  # one broken job must not end the run
                traceback.print_exc()
                bad = workload.ops(kind)
            rec["times"][kind] = time.perf_counter() - t0
            rec["seeds"][kind] = job_seed
            attempted += workload.ops(kind)
            failed += bad
        if not rec["times"]:
            break
        if traced:
            rec["stats"] = diff_stats(tracer.stats, before)
        records.append(rec)
    return {"records": records, "setups": setups, "attempted": attempted,
            "failed": failed}


def round_time(workload, records: list) -> float:
    """Sum over job kinds of the fastest job in ``records``.  Every job of a
    kind does the same amount of work, and the host's slow phases only add
    time, so the fastest job is the steadiest estimate of the work's own
    cost."""
    return sum(min(rec["times"][kind] for rec in records if kind in rec["times"])
               for kind in workload.kinds)


def layer_metrics(workload, records: list, tracer) -> dict:
    # per-round figures come from whole rounds; the last one may be cut
    traced = [rec for rec in records
              if rec["traced"] and len(rec["times"]) == len(workload.kinds)]
    plain = [rec for rec in records if not rec["traced"]]
    steps = sum(workload.trial_steps(kind) for kind in workload.kinds)
    out = {}
    for name in tracer.stats:
        per_round = [rec["stats"][name] for rec in traced]
        out[f"{name}.calls"] = statistics.fmean(s[0] for s in per_round)
        out[f"{name}.self_s"] = statistics.median(s[1] for s in per_round)
    dst = [rec["stats"]["spectral.dst"] for rec in traced]
    calls = sum(s[0] for s in dst)
    out["spectral.dst.rows_per_call"] = sum(s[3] for s in dst) / calls if calls else 0.0
    evolve_s = statistics.median(rec["stats"]["solver.evolve"][2] for rec in traced)
    out["solver.us_per_trial_step"] = evolve_s / steps * 1e6 if steps else 0.0
    out["trace.overhead_s"] = round_time(workload, traced) - round_time(workload, plain)
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def manifest(args, load_start) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()), "git_commit": _git_commit(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        **workload_kwargs) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, manifest details)."""
    sd = import_package()
    declared = declared_metrics()
    workload = WORKLOADS[name](sd, tiny, **workload_kwargs)
    tracer = Tracer() if trace else None
    run_data = run_rounds(workload, seed, seconds, tracer,
                          setup_runs=2 if tiny else SETUP_RUNS, importtime=trace)
    records = run_data["records"]
    sample = records[:workload.rounds]
    plain = [rec for rec in sample if not rec["traced"]]
    setups = run_data["setups"]
    if trace:
        problems = {}
        for config in ("configs/gap_pi.json", "configs/headline.json"):
            problem = sd.cli.build_problem(sd.cli.load_config(str(ROOT / config)))
            problems[problem.operator.grid_points] = problem
        probe_metrics, probe_absent = run_probes(problems, seed)
        imports = {m: statistics.median(s[1][m] for s in setups)
                   for m in setups[0][1]}
        metrics = {**layer_metrics(workload, sample, tracer), **imports,
                   **probe_metrics}
        metrics["trace.absent"] = len(tracer.absent) + len(probe_absent)
        kind = "per_layer"
    else:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli_cold"
                                   else resource.RUSAGE_SELF)
        wall_s = round_time(workload, plain)
        metrics = {
            "setup_s": statistics.median(s[0] for s in setups),
            "wall_s": wall_s,
            "throughput_per_s": sum(workload.work(k) for k in workload.kinds) / wall_s,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        kind = "end_to_end"
    units = declared[kind]
    if set(metrics) != set(units):
        fail(f"computed metrics differ from BENCHMARK.json {kind}: "
             f"{sorted(set(metrics) ^ set(units))}")
    attempted, failed = run_data["attempted"], run_data["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": float(metrics[m]), "unit": units[m]}
                          for m in units}}
    job_ms = {k: sorted(rec["times"][k] * 1e3 for rec in records
                        if not rec["traced"] and k in rec["times"])
              for k in workload.kinds}
    details = {
        "rounds": len(records), "sample_rounds": len(sample),
        "failed_frac": failed / attempted,
        "setup_s": [s[0] for s in setups],
        "job_ms": job_ms,
        "job_ms_p50": {k: statistics.median(v) for k, v in job_ms.items()},
        "job_ms_p90": {k: statistics.quantiles(v, n=10, method="inclusive")[-1]
                       if len(v) > 1 else v[0] for k, v in job_ms.items()},
        "job_seeds": [rec["seeds"] for rec in records],
        "absent": (tracer.absent + probe_absent) if trace else [],
        "trace_stats": [rec.get("stats") for rec in records if rec["traced"]],
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not (ROOT / "BENCHMARK.json").is_file() or not (ROOT / "configs").is_dir():
        fail(f"{ROOT} is not an sddlab source checkout")
    load_start = list(os.getloadavg())
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"manifest": manifest(args, load_start),
                                "result": result, **details}, indent=1) + "\n")
    print(f"bench: manifest written to {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
