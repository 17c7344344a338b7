"""Layer probes: microseconds per call of the solver's inner functions.

Each probe calls the function as the solver binds it, on one row and on a
batch of BATCH rows, at the two grid sizes of the bundled configs.  The
per-row cost inside a batch against the cost of a one-row call is the
prediction a batched engine has to meet.  A probe whose function is gone or
no longer accepts these arguments is reported as absent.
"""

from __future__ import annotations

import statistics
import time
from functools import partial

import numpy as np

from tracer import resolve

BATCH = 200
REPEATS = 5
TARGET_S = 0.02  # wall time of one repeat


def _us_per_call(fn) -> float:
    """Median over REPEATS of the mean time of one call, in microseconds."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    n = max(1, int(TARGET_S / once))
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def run_probes(problems: dict, seed: int) -> tuple[dict, list]:
    """problems: n_x -> ProblemSpec.  Returns (metrics, absent probe names)."""
    rng = np.random.default_rng(seed)
    dst = resolve("sddlab.solver:dst")
    b_eval = resolve("sddlab.solver:b_eval")
    forward = resolve("sddlab.solver:forward")
    combine = resolve("sddlab.solver:combine_profiles")
    GridField = resolve("sddlab.spectral:GridField")
    metrics, absent = {}, []

    def probe(name, fn, fn_args, per=1):
        if fn is None or any(a is None for a in fn_args):
            absent.append(name)
            metrics[name] = 0.0
            return
        try:
            metrics[name] = _us_per_call(lambda: fn(*fn_args)) / per
        except (TypeError, ValueError, AttributeError):
            absent.append(name)
            metrics[name] = 0.0

    for nx, problem in sorted(problems.items()):
        row = rng.uniform(0.0, 2.0, nx)
        rows = rng.uniform(0.0, 2.0, (BATCH, nx))
        nl = problem.nonlinearity
        field = None if GridField is None else GridField(row)
        dst2 = dst and partial(dst, type=2, axis=-1)
        probe(f"probe.dst.row_us.nx{nx}", dst2, (row,))
        probe(f"probe.dst.batch_row_us.nx{nx}", dst2, (rows,), BATCH)
        probe(f"probe.b_eval.row_us.nx{nx}", b_eval, (nl, row))
        probe(f"probe.b_eval.batch_row_us.nx{nx}", b_eval, (nl, rows), BATCH)
        probe(f"probe.forward.row_us.nx{nx}", forward,
              (problem.operator, field))
    problem = problems[max(problems)]
    probe("probe.combine_profiles.call_us", combine,
          (problem.kernel, 0.25, 0.5, problem.variant))
    return metrics, absent
