"""The argument contracts: every bounded scalar a constructor or an entry
point takes is checked by ``require_int`` or ``require_real``, so each one
rejects the same kinds of bad value with a ContractViolation that names it."""

import numpy as np
import pytest

import sddlab as s
from sddlab.errors import ContractViolation

TINY = 5e-324  # the smallest positive float, the first value "> 0" accepts

OP = s.OperatorSpec(3.0, 4, 8)
NL = s.nicholson(1.0)
PROBLEM = s.ProblemSpec(OP, s.make_constant_kernel(0.1, 4, 0.0, 0.0, 0.8), NL)
PHI = s.constant_history(OP, 0.1, 4, 0.5)


def entry(fn, **base):
    """fn called with the keyword arguments ``base``, one of them replaced."""
    return lambda name, value: fn(**{**base, name: value})


# entry point -> (call, {argument: bound}); a bound is the minimum of an int,
# or ">" / ">=" 0 for a real.  The base values accept each bound.
ENTRIES = {
    "OperatorSpec": (entry(s.OperatorSpec, domain_length=3.0, modes=1,
                           grid_points=8),
                     {"domain_length": ">", "modes": 1, "grid_points": 2}),
    "HistorySegment": (entry(s.HistorySegment, operator=OP, r=0.1, m=1,
                             values=np.zeros((2, 8))),
                       {"r": ">", "m": 1}),
    "KernelSpec": (entry(s.KernelSpec, r=0.1, m=1, xi_plus=np.zeros(2),
                         xi_minus=np.zeros(2), M_xi=0.8),
                   {"r": ">", "m": 1, "M_xi": ">"}),
    "make_constant_kernel": (entry(s.make_constant_kernel, r=0.1, m=1,
                                   plus_integral=0.0, minus_integral=0.0,
                                   M_xi=0.8),
                             {"r": ">", "m": 1, "plus_integral": ">=",
                              "minus_integral": ">=", "M_xi": ">"}),
    "NonlinearitySpec": (entry(s.NonlinearitySpec, p=1.0), {"p": ">"}),
    "nicholson": (entry(s.nicholson, p=1.0), {"p": ">"}),
    "ExperimentConfig": (entry(s.ExperimentConfig, trials=1, seed=0,
                               horizon=1.0),
                         {"trials": 1, "seed": 0, "horizon": ">",
                          "amplitude": ">=", "stride": 1, "alpha_min": ">"}),
    "make_initial_history": (entry(s.make_initial_history, op=OP, r=0.1, m=1,
                                   family="constant", amplitude=0.5,
                                   rng=np.random.default_rng(0)),
                             {"r": ">", "m": 1, "amplitude": ">="}),
    "evolve": (entry(s.evolve, problem=PROBLEM, phis=[PHI], steps=0, stride=1),
               {"steps": 0, "stride": 1}),
    "condition_report": (entry(s.condition_report, problem=PROBLEM, N=1),
                         {"N": 1, "mu": ">"}),
    "synthesize_params": (entry(s.synthesize_params, N=1, nonlinearity=NL,
                                domain_length=100.0, margin=0.1,
                                r_grid=[0.1], mxi_grid=[0.1]),
                          {"N": 1, "domain_length": ">", "margin": ">="}),
}

# arguments whose None means "the default"
NULLABLE = {"alpha_min", "mu"}
# (entry point, argument) -> the smallest value it accepts, where a later
# check rejects some values the bound allows: synthesize_params needs a
# finite lambda_2 = (2 pi / L)^2
AT = {("synthesize_params", "domain_length"): 4.68621368982162e-154}

CASES = [(fn_name, arg) for fn_name, (_, bounds) in ENTRIES.items()
         for arg in bounds]


@pytest.mark.parametrize("fn_name, arg", CASES,
                         ids=[f"{fn}.{arg}" for fn, arg in CASES])
def test_contract_table(fn_name, arg):
    call, bounds = ENTRIES[fn_name]
    bound = bounds[arg]
    if isinstance(bound, str):
        at, past = (TINY, 0.0) if bound == ">" else (0.0, -TINY)
    else:
        at, past = bound, bound - 1
    for value in (True, "1", None, float("nan"), float("inf"), float("-inf"),
                  past):
        if value is None and arg in NULLABLE:
            continue
        with pytest.raises(ContractViolation) as exc:
            call(arg, value)
        assert str(exc.value).startswith(f"{arg} must be"), (value, exc.value)
    call(arg, AT.get((fn_name, arg), at))
    if (fn_name, arg) in AT:  # and the float below it is rejected
        with pytest.raises(ContractViolation, match="too small"):
            call(arg, np.nextafter(AT[fn_name, arg], 0.0))
    if arg in NULLABLE:
        call(arg, None)
