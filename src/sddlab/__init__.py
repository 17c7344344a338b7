"""Numerical laboratory for a reaction-diffusion equation with
state-dependent distributed delay.

Core objects: OperatorSpec (Dirichlet Laplacian and sine-mode transforms),
HistorySegment (delay-window state), KernelSpec (state-dependent kernel),
NonlinearitySpec (bounded birth law), ProblemSpec (everything a run needs).
Entry points: evolve / step (exponential Euler by the method of steps),
condition_report / synthesize_params (spectral-gap certificates), and the
experiment runners (cone invariance, coincidence, Lipschitz sampling,
attraction rate).
"""

from .conditions import (ConditionReport, SynthesisResult, bound3_check,
                         condition_report, gap_check, lipschitz_M1,
                         m1_constant, remark_caps, synthesize_params)
from .errors import (CapViolation, CertificationError, ConfigError,
                     ContractViolation, GridMismatch, IntegrationFailure)
from .experiments import (ExperimentConfig, ExperimentResult, emit,
                          make_initial_history, run_attraction_rate,
                          run_coincidence, run_cone_invariance,
                          run_lipschitz_sampling)
from .history import (HistorySegment, constant_history, history_from_rows,
                      negative_part, norm_C, norm_L1L1, positive_part, push,
                      theta_weights)
from .kernel import (KernelSpec, KernelVariant, eval_xi, l11_constant,
                     make_constant_kernel)
from .nonlinear import (NonlinearitySpec, b_eval, b_prime, bounded_custom,
                        certified, certify_constants, delay_term, nicholson)
from .solver import (ProblemSpec, TrajectoryRecord, evolve, step,
                     steps_for_horizon)
from .spectral import (GridField, ModeVector, OperatorSpec,
                       analytic_eigenvalues, discrete_eigenvalues,
                       eigenfunction, field_l2_norm, forward, hat_project,
                       inverse)

__version__ = "0.1.0"

__all__ = [
    "CapViolation", "CertificationError", "ConditionReport", "ConfigError",
    "ContractViolation", "ExperimentConfig", "ExperimentResult", "GridField",
    "GridMismatch", "HistorySegment", "IntegrationFailure", "KernelSpec",
    "KernelVariant", "ModeVector", "NonlinearitySpec", "OperatorSpec",
    "ProblemSpec", "SynthesisResult", "TrajectoryRecord",
    "analytic_eigenvalues", "b_eval", "b_prime", "bound3_check",
    "bounded_custom", "certified", "certify_constants", "condition_report",
    "constant_history", "delay_term", "discrete_eigenvalues", "eigenfunction",
    "emit", "eval_xi", "evolve", "field_l2_norm", "forward", "gap_check",
    "hat_project", "history_from_rows", "inverse", "l11_constant",
    "lipschitz_M1", "m1_constant", "make_constant_kernel",
    "make_initial_history", "negative_part", "nicholson", "norm_C",
    "norm_L1L1", "positive_part", "push", "remark_caps",
    "run_attraction_rate", "run_coincidence", "run_cone_invariance",
    "run_lipschitz_sampling", "step", "steps_for_horizon", "synthesize_params",
    "theta_weights",
]
