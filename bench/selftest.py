"""Self-tests of the benchmark itself (not of sddlab).

    python3 bench/selftest.py

1. Smoke: every workload at a tiny size, tracing off and on, emits exactly
   the metrics BENCHMARK.json declares, with their units, and no failures.
2. Negative control: cli_cold with one corrupted expected digest reports
   failed operations.
3. Trace identity: every job kind gives the same outputs with and without
   the span wrappers.
4. Bare directory: run.py in a directory holding only BENCHMARK.json and
   bench/ exits non-zero without printing a result.

Exits 0 when every check passes; prints one line per check.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

from run import declared_metrics, import_package, run
from tracer import Tracer
from workloads import BENCH, OUT, ROOT, WORKLOADS

failures = []


def expect(ok: bool, label: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)
    if not ok:
        failures.append(label)


def smoke() -> None:
    declared = declared_metrics()
    for name in WORKLOADS:
        for trace in (False, True):
            result, _ = run(name, seed=1, seconds=0.1, trace=trace, tiny=True)
            kind = "per_layer" if trace else "end_to_end"
            units = {m: v["unit"] for m, v in result["metrics"].items()}
            expect(units == declared[kind], f"smoke {name} trace={int(trace)}: "
                   f"every {kind} metric with its unit")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"smoke {name} trace={int(trace)}: no failed operations")
            if not trace:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"smoke {name}: every end-to-end metric is > 0")


def negative_control() -> None:
    digests = json.loads((BENCH / "cli_digests.json").read_text())
    corrupted = copy.deepcopy(digests)
    files = corrupted["check"]["-"]
    files[next(iter(files))] = "0" * 64
    result, details = run("cli_cold", seed=1, seconds=0.1, trace=False,
                          tiny=True, digests=corrupted)
    expect(details["failed_frac"] > 0 and not result["correct"],
           f"negative control: corrupted digest gives failed_frac > 0 "
           f"({details['failed_frac']:.2f})")


def trace_identity() -> None:
    sd = import_package()
    for name, cls in WORKLOADS.items():
        workload = cls(sd, tiny=True)
        for kind in workload.kinds:
            plain = workload.job(kind, 5, None)
            traced = workload.job(kind, 5, Tracer())
            expect(plain == traced and plain[0] == 0,
                   f"trace identity {name}/{kind}: outputs equal with tracing on and off")


def bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "cone_headline", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, env=env,
                          capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and proc.stdout.strip() == "",
           f"bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    smoke()
    negative_control()
    trace_identity()
    bare_directory()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
