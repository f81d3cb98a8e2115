"""Product-integration Newton solvers for weakly singular Hammerstein equations.

Two strategies for u - int H*L*F(., u) = y are provided and instrumented for
comparison: linearize-then-discretize (`ld_solve`, Newton on the operator
equation with each linear step discretized by the product trapezoidal rule)
and the classical discretize-then-linearize baseline (`dl_solve`).
"""

from .config import ConfigError, RunConfig, config_from_dict, validate_config
from .linalg import SingularSystemError, solve_dense
from .newton_dl import DLSettings, dl_solve
from .newton_ld import LDSettings, SingularOperatorError, ld_solve
from .problem import (
    FUNCTIONS,
    NONLINEARITIES,
    SMOOTH_FACTORS,
    Grid,
    HammersteinProblem,
    Nonlinearity,
    SampledFunction,
    SingularKernel,
    algebraic_kernel,
    get_nonlinearity,
    log_kernel,
    log_sin_benchmark,
    make_grid,
    manufactured_cosine_square,
    manufactured_problem,
    polynomial_nonlinearity,
    smooth_kernel,
    verify_derivatives,
)
from .quadrature import (
    QuadratureConvergenceError,
    SubtractionPlan,
    adaptive_kernel_batch,
    moment0,
    product_weights,
    weight_matrix,
)
from .reports import IterationRecord, SolveReport, compare_csv_text, parse_compare_csv
from .runner import RunOutcome, run_compare, run_nsweep

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DLSettings",
    "FUNCTIONS",
    "Grid",
    "HammersteinProblem",
    "IterationRecord",
    "LDSettings",
    "NONLINEARITIES",
    "Nonlinearity",
    "QuadratureConvergenceError",
    "RunConfig",
    "RunOutcome",
    "SMOOTH_FACTORS",
    "SampledFunction",
    "SingularKernel",
    "SingularOperatorError",
    "SingularSystemError",
    "SolveReport",
    "SubtractionPlan",
    "adaptive_kernel_batch",
    "algebraic_kernel",
    "compare_csv_text",
    "config_from_dict",
    "dl_solve",
    "get_nonlinearity",
    "ld_solve",
    "log_kernel",
    "log_sin_benchmark",
    "make_grid",
    "manufactured_cosine_square",
    "manufactured_problem",
    "moment0",
    "parse_compare_csv",
    "polynomial_nonlinearity",
    "product_weights",
    "run_compare",
    "run_nsweep",
    "smooth_kernel",
    "solve_dense",
    "validate_config",
    "verify_derivatives",
    "weight_matrix",
]
