"""Command-line interface: check, synthesize, simulate, experiment.

One JSON config schema is shared by all subcommands; per-command flags
override individual entries.  Exit codes: 0 success, 1 gated failure
(uncertified verdict, infeasible synthesis, failed experiment), 2 invalid
config or usage, 3 integration failure (non-finite state).  All outputs are
deterministic given (config, seed): no timestamps, repr-float formatting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .conditions import condition_report, search_grid, synthesize_params
from .errors import (ConfigError, ContractViolation, IntegrationFailure,
                     require_int, require_real)
from .experiments import (FAMILIES, ExperimentConfig, cone_sign, csv_text,
                          emit, json_text, make_initial_history,
                          run_attraction_rate, run_coincidence,
                          run_cone_invariance, run_lipschitz_sampling)
from .kernel import KernelSpec, KernelVariant, make_constant_kernel
from .nonlinear import nicholson
from .solver import ProblemSpec, evolve, steps_for_horizon
from .spectral import GridField, OperatorSpec, field_l2_norm, forward

_REQUIRED = object()

# the most trial-steps one command may run: about 3 h at 10 us per trial-step.
# A step costs about as much for 1 row as for 8 (call overhead, not
# arithmetic), so a run of fewer rows is billed as MIN_BILLED_ROWS rows.
MAX_TRIAL_STEPS = 10**9
MIN_BILLED_ROWS = 8

# section -> key -> (JSON type, default or _REQUIRED, bound).  A default of
# None makes the key nullable.  A bound is the op of require_real (">" or
# ">=" 0) for a number, the minimum of require_int for an integer, and the
# allowed values for a string.  An "object" row is read with the rows of the
# section named by its dotted path.
_SCHEMA = {
    "operator": {
        "domain_length": ("number", _REQUIRED, ">"),
        "modes": ("integer", _REQUIRED, 1),
        "grid_points": ("integer", _REQUIRED, 2),
    },
    "kernel": {
        "r": ("number", _REQUIRED, ">"),
        "m": ("integer", _REQUIRED, 1),
        "M_xi": ("number", _REQUIRED, ">"),
        "plus_integral": ("number", _REQUIRED, ">="),
        "minus_integral": ("number", _REQUIRED, ">="),
        "xi_plus": ("numbers", _REQUIRED, None),
        "xi_minus": ("numbers", _REQUIRED, None),
    },
    "nonlinearity": {
        "kind": ("string", _REQUIRED, ("nicholson",)),
        "p": ("number", 1.0, ">"),
    },
    "conditions": {
        "N": ("integer", _REQUIRED, 1),
        "mu": ("number", None, ">"),
    },
    "simulation": {
        "horizon": ("number", _REQUIRED, ">"),
        "stride": ("integer", 10, 1),
        "record_modes": ("integer", None, 1),
        "initial": ("object", _REQUIRED, None),
    },
    "simulation.initial": {
        "family": ("string", _REQUIRED, FAMILIES),
        "amplitude": ("number", _REQUIRED, ">="),
        "seed": ("integer", _REQUIRED, 0),
    },
    "experiment": {
        "trials": ("integer", _REQUIRED, 1),
        "seed": ("integer", _REQUIRED, 0),
        "horizon": ("number", _REQUIRED, ">"),
        "family": ("string", "random_positive_fourier", FAMILIES),
        "amplitude": ("number", 1.0, ">="),
        "stride": ("integer", 10, 1),
        "alpha_min": ("number", None, ">"),
        "N": ("integer", None, 1),
        "cone": ("string", "both", ("positive", "negative", "both")),
    },
}
_SECTIONS = ("operator", "kernel", "nonlinearity", "conditions", "simulation",
             "experiment")
_INTEGRALS = ("plus_integral", "minus_integral")
_PROFILES = ("xi_plus", "xi_minus")


def _is_real(v) -> bool:
    # bool is not a number; the bound rejects nan, inf and huge integers
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _value(path: str, val, kind: str, bound):
    """Check one given entry against its row; returns the normalized value.
    A number or an integer takes the check of the Python argument it feeds."""
    name = path.rsplit(".", 1)[-1]
    if kind == "number":
        return _at(path, require_real, name, val, bound)
    if kind == "integer":
        return _at(path, require_int, name, val, bound)
    if kind == "object":
        return _read(val, path)
    if kind == "string":
        test, what = (lambda v: v in bound), f"one of {list(bound)}"
    else:  # numbers
        test, what = (lambda v: isinstance(v, list) and all(map(_is_real, v)),
                      "a list of numbers")
    if val is None:
        raise ConfigError(path, f"must be {what}, not null")
    if not test(val):
        raise ConfigError(path, f"must be {what}")
    return [float(x) for x in val] if kind == "numbers" else val


def _read(sec, path: str, skip=()) -> dict:
    """Check one section against its _SCHEMA rows; defaults fill absent keys."""
    if not isinstance(sec, dict):
        raise ConfigError(path, "must be a JSON object")
    rows = _SCHEMA[path]
    for key in sec:
        if key not in rows:
            raise ConfigError(f"{path}.{key}", "unknown key")
    out = {}
    for key, (kind, default, bound) in rows.items():
        if key in skip:
            continue
        if key not in sec:
            if default is _REQUIRED:
                raise ConfigError(f"{path}.{key}", "missing required key")
            out[key] = default
        elif sec[key] is None and default is None:
            out[key] = None
        else:
            out[key] = _value(f"{path}.{key}", sec[key], kind, bound)
    return out


def validate_config(raw) -> dict:
    """Check the whole document; returns a copy with defaults, None for an
    absent optional section."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    for key in raw:
        if key not in _SECTIONS and key != "variant":
            raise ConfigError(key, "unknown key")
    for key in ("operator", "kernel", "nonlinearity"):
        if key not in raw:
            raise ConfigError(key, "missing required section")
    kernel = raw["kernel"]
    profiles = isinstance(kernel, dict) and any(k in kernel for k in _PROFILES)
    if profiles and any(k in kernel for k in _INTEGRALS):
        raise ConfigError("kernel", "give either integrals or profiles, not both")
    variant = raw.get("variant", "full")
    variants = [v.value for v in KernelVariant]
    if variant not in variants:
        raise ConfigError("variant", f"must be one of {variants}")
    out = {key: _read(raw[key], key) if key in raw else None
           for key in _SECTIONS if key != "kernel"}
    out["kernel"] = _read(kernel, "kernel",
                          skip=_INTEGRALS if profiles else _PROFILES)
    out["variant"] = variant
    return out


def _override(doc: dict, flags: dict) -> None:
    """Set the flag values that were given, inside sections the document has."""
    for key, val in flags.items():
        if isinstance(val, dict):
            if isinstance(doc.get(key), dict):
                _override(doc[key], val)
        elif val is not None:
            doc[key] = val


def load_config(path: str, overrides: dict | None = None) -> dict:
    """Read and validate a config file.  ``overrides`` maps section -> key ->
    flag value (None: flag not given); flag values pass the same checks as
    file values."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"not valid JSON: {exc}") from None
    if overrides and isinstance(raw, dict):
        _override(raw, overrides)
    return validate_config(raw)


def _at(key_path: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ContractViolation re-raised at key_path."""
    try:
        return fn(*args, **kwargs)
    except ContractViolation as exc:
        raise ConfigError(key_path, str(exc)) from None


def _run_steps(section: str, kernel: KernelSpec, horizon: float,
               rows: int = 1) -> int:
    """Steps for ``horizon``, rejected when rows x steps exceeds
    MAX_TRIAL_STEPS, where ``rows`` counts the histories ``evolve`` steps and
    is billed as at least MIN_BILLED_ROWS: at the horizon if a run of one row
    is too long, else at the trials."""
    steps = _at(f"{section}.horizon", steps_for_horizon, kernel, horizon)
    if max(rows, MIN_BILLED_ROWS) * max(steps, 1) > MAX_TRIAL_STEPS:
        key = "horizon" if MIN_BILLED_ROWS * steps > MAX_TRIAL_STEPS else "trials"
        raise ConfigError(f"{section}.{key}",
                          f"{rows} rows x {steps} steps exceed "
                          f"MAX_TRIAL_STEPS = {MAX_TRIAL_STEPS} (a run is "
                          f"billed as at least {MIN_BILLED_ROWS} rows)")
    return steps


def build_problem(cfg: dict) -> ProblemSpec:
    op = _at("operator", OperatorSpec, **cfg["operator"])
    kc = cfg["kernel"]
    if "xi_plus" in kc:
        ks = _at("kernel", KernelSpec, r=kc["r"], m=kc["m"],
                 xi_plus=np.asarray(kc["xi_plus"]),
                 xi_minus=np.asarray(kc["xi_minus"]), M_xi=kc["M_xi"])
    else:
        ks = _at("kernel", make_constant_kernel, kc["r"], kc["m"],
                 kc["plus_integral"], kc["minus_integral"], kc["M_xi"])
    nl = _at("nonlinearity.p", nicholson, cfg["nonlinearity"]["p"])
    return ProblemSpec(operator=op, kernel=ks, nonlinearity=nl,
                       variant=KernelVariant(cfg["variant"]))


def _default_outdir(flag_value) -> str:
    return flag_value or os.environ.get("SDDLAB_OUTDIR", ".")


def _write_or_print(text: str, output) -> None:
    print(text, end="")
    if output:
        with open(output, "w") as fh:
            fh.write(text)


def cmd_check(args) -> int:
    cfg = load_config(args.config, {"conditions": {"N": args.N, "mu": args.mu}})
    if cfg["conditions"] is None:
        raise ConfigError("conditions", "missing required section for check")
    problem = build_problem(cfg)
    report = _at("conditions", condition_report, problem,
                 cfg["conditions"]["N"], cfg["conditions"]["mu"])
    if args.format == "csv":
        text = csv_text({"N": report.N, **report.values, "verdict": report.verdict,
                         "note": report.note, **report.flags}.items())
    else:
        text = json_text(report.to_dict())
    _write_or_print(text, args.output)
    if report.verdict != "neither_certified" or args.allow_uncertified:
        return 0
    return 1


def cmd_synthesize(args) -> int:
    nl = nicholson(args.p)
    r_grid = _at("grid", search_grid, "r", args.r_min, args.r_max,
                 args.r_points)
    mxi_grid = _at("grid", search_grid, "M_xi", args.mxi_min, args.mxi_max,
                   args.mxi_points)
    result = synthesize_params(args.low_modes, nl, args.domain_length,
                               margin=args.margin, r_grid=r_grid,
                               mxi_grid=mxi_grid)
    if args.format == "csv":
        flat = {"feasible": result.feasible}
        for src in (result.params or {}), result.certificate:
            flat.update((key, val) for key, val in src.items()
                        if isinstance(val, (int, float, bool, str)))
        text = csv_text(flat.items())
    else:
        text = json_text(result.to_dict())
    _write_or_print(text, args.output)
    return 0 if result.feasible else 1


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, {"simulation": {
        "horizon": args.horizon, "stride": args.stride,
        "initial": {"seed": args.seed}}})
    if cfg["simulation"] is None:
        raise ConfigError("simulation", "missing required section for simulate")
    sim = cfg["simulation"]
    problem = build_problem(cfg)
    steps = _run_steps("simulation", problem.kernel, sim["horizon"])
    init = sim["initial"]
    rng = np.random.default_rng(init["seed"])
    phi = make_initial_history(problem.operator, problem.r, problem.m,
                               init["family"], init["amplitude"], rng)
    op = problem.operator
    n_modes = op.modes if sim["record_modes"] is None else sim["record_modes"]
    if n_modes > op.modes:
        raise ConfigError("simulation.record_modes", "record_modes must be in 1..K")
    [rec] = evolve(problem, [phi], steps, stride=sim["stride"], record_fields=True)
    # the sampled states as columns: low-mode coefficients, the L2 norm above
    # them, the full L2 norm and the smallest grid value
    field = GridField(rec.fields)
    with np.errstate(over="ignore", invalid="ignore"):  # huge but finite states
        low = forward(op, field).coeffs[:, :n_modes]
        full = field_l2_norm(op, field)
        # per row, the dot product np.dot(a, a) takes
        high2 = full * full - np.matmul(low[:, None, :], low[:, :, None])[:, 0, 0]
    columns = {"times": rec.times, "low_modes": low,
               "high_norm": np.sqrt(np.maximum(high2, 0.0)), "full_norm": full,
               "min_value": rec.fields.min(axis=1)}
    output = args.output or os.path.join(_default_outdir(None), "trajectory.csv")
    if args.format == "json":
        text = json_text({**{key: val.tolist() for key, val in columns.items()},
                          "min_overall": rec.min_overall,
                          "max_overall": rec.max_overall, "stride": rec.stride})
    else:
        header = ["t", *(f"a_{k}" for k in range(1, n_modes + 1)),
                  "high_norm", "full_norm", "min_value"]
        text = csv_text([header] + np.column_stack(list(columns.values())).tolist())
    with open(output, "w") as fh:
        fh.write(text)
    print(f"wrote {output}")
    return 0


def cmd_experiment(args) -> int:
    cfg = load_config(args.config, {"experiment": {
        "trials": args.trials, "seed": args.seed, "horizon": args.horizon}})
    if cfg["experiment"] is None:
        raise ConfigError("experiment", "missing required section for experiment")
    e = dict(cfg["experiment"])
    cone, N = e.pop("cone"), e.pop("N")
    ecfg = ExperimentConfig(**e)
    problem = build_problem(cfg)
    cones = ("positive", "negative") if cone == "both" else (cone,)
    if args.name != "lipschitz":  # the runners check the family without a key
        first = "positive" if args.name == "attraction" else cones[0]
        _at("experiment.family", cone_sign, ecfg.family, first)
    # the histories evolve steps: coincidence runs two variants and a witness
    # on the positive cone; lipschitz steps none, so its trials keep the bound
    rows = {"cone-invariance": len(cones) * ecfg.trials,
            "coincidence": 2 * (len(cones) * ecfg.trials + ("positive" in cones)),
            "attraction": 2 * ecfg.trials,
            "lipschitz": ecfg.trials}[args.name]
    _run_steps("experiment", problem.kernel, ecfg.horizon, rows)
    if args.name == "cone-invariance":
        results = [run_cone_invariance(problem, ecfg, cone=c) for c in cones]
    elif args.name == "coincidence":
        results = [run_coincidence(problem, ecfg, cone=c) for c in cones]
    elif args.name == "lipschitz":
        results = [run_lipschitz_sampling(problem, ecfg)]
    else:  # attraction
        key = "experiment.N"
        if N is None and cfg["conditions"] is not None:
            key, N = "conditions.N", cfg["conditions"]["N"]
        if N is None:
            raise ConfigError("experiment.N",
                              "attraction needs N (or a conditions section)")
        results = [_at(key, run_attraction_rate, problem, ecfg, N)]
    out_dir = _default_outdir(args.output_dir)
    paths = emit(results, out_dir, format=args.format)
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        if res.informational:
            tag += " (informational)"
        print(f"{res.name}: {tag}")
    for path in paths:
        print(f"wrote {path}")
    return 0 if all(res.passed or res.informational for res in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sddlab",
        description="Certificates, simulation, and experiments for a "
                    "reaction-diffusion equation with state-dependent "
                    "distributed delay.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate the gap-condition certificate")
    p.add_argument("config")
    p.add_argument("-N", type=int, default=None, help="low-mode count override")
    p.add_argument("--mu", type=float, default=None, help="mu override")
    p.add_argument("--allow-uncertified", action="store_true",
                   help="exit 0 even when the verdict is neither_certified")
    p.add_argument("--output", default=None, help="also write the report here")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synthesize", help="search for certifiable parameters")
    p.add_argument("-N", "--low-modes", type=int, required=True)
    p.add_argument("-L", "--domain-length", type=float, required=True)
    p.add_argument("--p", type=float, default=1.0, help="nonlinearity amplitude")
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--r-min", type=float, default=None)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--r-points", type=int, default=None)
    p.add_argument("--mxi-min", type=float, default=None)
    p.add_argument("--mxi-max", type=float, default=None)
    p.add_argument("--mxi-points", type=int, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="run one trajectory and write it out")
    p.add_argument("config")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="run a verification experiment")
    p.add_argument("name", choices=("cone-invariance", "coincidence",
                                    "lipschitz", "attraction"))
    p.add_argument("config")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--output-dir", default=None)
    p.add_argument("--format", choices=("json", "csv", "both"), default="both")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntegrationFailure as exc:
        print(f"integration failure at step {exc.step_index}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
