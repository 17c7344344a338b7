"""Timing wrappers for the traced benchmark run.

Each span name maps to the public functions of one layer, named as they are
bound in the modules that call them (``sddlab.solver:dst`` is the ``dst`` the
solver calls).  ``Tracer`` swaps those module attributes for wrappers that
record calls, inclusive time and self time (inclusive time minus the time of
traced calls made inside it), and puts the originals back on exit.  Nothing
under ``src/`` changes.  A binding that no longer exists is recorded as absent
instead of raising, so the benchmark survives a refactor that moves a name.
"""

from __future__ import annotations

import functools
import importlib
import time

SPANS = {
    "solver.evolve": ("sddlab.experiments:evolve", "sddlab.cli:evolve"),
    "spectral.dst": ("sddlab.solver:dst", "sddlab.solver:idst"),
    "spectral.forward": ("sddlab.solver:forward", "sddlab.experiments:forward"),
    "kernel.gates": ("sddlab.solver:clip_gate",
                     "sddlab.solver:combine_profiles"),
    "nonlinear.b_eval": ("sddlab.solver:b_eval",),
    "kernel.eval_xi": ("sddlab.experiments:eval_xi", "sddlab.nonlinear:eval_xi"),
    "nonlinear.delay_term": ("sddlab.experiments:delay_term",),
    "history.norms": ("sddlab.experiments:norm_C", "sddlab.experiments:norm_L1L1",
                      "sddlab.kernel:norm_L1L1"),
    "experiments.initial_history": ("sddlab.experiments:make_initial_history",
                                    "sddlab.cli:make_initial_history"),
    "experiments.trial_loop": (
        "sddlab.experiments:run_cone_invariance",
        "sddlab.experiments:run_coincidence",
        "sddlab.experiments:run_lipschitz_sampling",
        "sddlab.cli:run_cone_invariance", "sddlab.cli:run_coincidence",
        "sddlab.cli:run_lipschitz_sampling", "sddlab.cli:run_attraction_rate"),
    "experiments.emit": ("sddlab.cli:emit",),
    "conditions.condition_report": ("sddlab.cli:condition_report",
                                    "sddlab.experiments:condition_report"),
    "conditions.synthesize_params": ("sddlab.cli:synthesize_params",),
    "nonlinear.certified": ("sddlab.cli:certified",),
    "cli.load_config": ("sddlab.cli:load_config",),
    "cli.build_problem": ("sddlab.cli:build_problem",),
    "cli.main": ("sddlab.cli:main",),
}

# spans whose first argument is an array transformed row by row
ROW_SPANS = ("spectral.dst",)


def resolve(binding: str):
    """The object bound at ``module:attribute``, or None if it is gone."""
    mod_name, attr = binding.split(":")
    try:
        module = importlib.import_module(mod_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


def _rows(args, kwargs) -> int:
    x = args[0] if args else kwargs.get("x")
    shape = getattr(x, "shape", ())
    if not shape:
        return 1
    axis = kwargs.get("axis", -1)
    return max(1, int(getattr(x, "size", 1)) // max(1, shape[axis]))


def empty_stats() -> dict:
    """span -> [calls, self_s, inclusive_s, rows]"""
    return {name: [0, 0.0, 0.0, 0] for name in SPANS}


def merge_stats(into: dict, other: dict) -> None:
    for name, vals in other.items():
        acc = into.setdefault(name, [0, 0.0, 0.0, 0])
        for i, v in enumerate(vals):
            acc[i] += v


def diff_stats(after: dict, before: dict) -> dict:
    return {name: [a - b for a, b in zip(vals, before.get(name, [0, 0.0, 0.0, 0]))]
            for name, vals in after.items()}


class Tracer:
    """Context manager that installs the span wrappers while it is active."""

    def __init__(self):
        self.stats = empty_stats()
        self.absent = sorted({b for bindings in SPANS.values() for b in bindings
                              if resolve(b) is None})
        self._stack: list[float] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        count_rows = name in ROW_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt - child
                stat[2] += dt
                if stack:
                    stack[-1] += dt
                if count_rows:
                    stat[3] += _rows(args, kwargs)

        return wrapper

    def __enter__(self):
        for name, bindings in SPANS.items():
            for binding in bindings:
                if binding in self.absent:
                    continue
                mod_name, attr = binding.split(":")
                module = importlib.import_module(mod_name)
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        self._stack.clear()
        return False
