"""The public surface: what ``import sddlab`` exports."""

import sddlab

# every name a command, an experiment or an acceptance criterion reaches
PUBLIC = [
    "CapViolation", "ConditionReport", "ConfigError", "ContractViolation",
    "ExperimentConfig", "ExperimentResult", "GridField", "GridMismatch",
    "HistorySegment", "IntegrationFailure", "KernelSpec", "KernelVariant",
    "ModeVector", "NonlinearitySpec", "OperatorSpec", "ProblemSpec",
    "SynthesisResult", "TrajectoryRecord", "analytic_eigenvalues", "b_eval",
    "b_prime", "certified", "condition_report", "constant_history",
    "eigenfunction", "emit", "evolve", "field_l2_norm", "forward", "inverse",
    "l11_constant", "lipschitz_M1", "m1_constant", "make_constant_kernel",
    "make_initial_history", "nicholson", "remark_caps", "run_attraction_rate",
    "run_coincidence", "run_cone_invariance", "run_lipschitz_sampling",
    "steps_for_horizon", "synthesize_params", "theta_weights",
]


def test_public_names_are_pinned():
    assert sddlab.__all__ == PUBLIC and len(PUBLIC) == 44
    for name in PUBLIC:
        assert hasattr(sddlab, name), name
    # the serial definitions are test oracles (tests/reference.py) now
    for name in ("delay_term", "eval_xi", "norm_C", "norm_L1L1"):
        assert not hasattr(sddlab, name), name
