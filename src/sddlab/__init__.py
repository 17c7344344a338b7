"""Numerical laboratory for a reaction-diffusion equation with
state-dependent distributed delay.

Core objects: OperatorSpec (Dirichlet Laplacian and sine-mode transforms),
HistorySegment (delay-window state), KernelSpec (state-dependent kernel),
NonlinearitySpec (bounded birth law), ProblemSpec (everything a run needs).
Entry points: evolve (exponential Euler by the method of steps),
condition_report / synthesize_params (spectral-gap certificates), and the
experiment runners (cone invariance, coincidence, Lipschitz sampling,
attraction rate).
"""

from .conditions import (ConditionReport, SynthesisResult, condition_report,
                         lipschitz_M1, m1_constant, remark_caps,
                         synthesize_params)
from .errors import (CapViolation, ConfigError, ContractViolation,
                     GridMismatch, IntegrationFailure)
from .experiments import (ExperimentConfig, ExperimentResult, emit,
                          make_initial_history, run_attraction_rate,
                          run_coincidence, run_cone_invariance,
                          run_lipschitz_sampling)
from .history import HistorySegment, constant_history, theta_weights
from .kernel import (KernelSpec, KernelVariant, l11_constant,
                     make_constant_kernel)
from .nonlinear import NonlinearitySpec, b_eval, b_prime, certified, nicholson
from .solver import ProblemSpec, TrajectoryRecord, evolve, steps_for_horizon
from .spectral import (GridField, ModeVector, OperatorSpec,
                       analytic_eigenvalues, eigenfunction, field_l2_norm,
                       forward, inverse)

__version__ = "0.1.0"

__all__ = [
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
