"""Solvers for systems of non-local variational inequalities with
interconnected bilateral obstacles, the dynamic-programming equations of
zero-sum multi-modes switching games under jump-diffusions.

Subpackages:

* :mod:`switchvi.exprdsl` - expression language for coefficients
* :mod:`switchvi.model` - problem definitions and assumption validators
* :mod:`switchvi.discretization` - grids, jump quadrature, discrete operators
* :mod:`switchvi.pde_solver` - penalized / reflected / bilateral backward solvers
* :mod:`switchvi.oracle` - independent discrete-game cross-check
* :mod:`switchvi.mc` - path simulation and backward regression cross-check
* :mod:`switchvi.cli` - validate | solve | sweep | check front end
"""

from .discretization import (
    LevyQuadrature,
    SpatialGrid,
    TimeGrid,
    build_levy_quadrature,
    interpolate,
)
from .model import (
    LevyMeasureSpec,
    ModeSet,
    ProblemSpec,
    ValidationReport,
    eval_obstacles,
    load_builtin_problem,
    load_problem,
    validate_non_free_loop,
    validate_terminal_consistency,
)
from .pde_solver import (
    SchemeConfig,
    SolverReport,
    Trajectory,
    residual_report,
    solve_lower_reflected,
    solve_maxmin,
    solve_minmax,
    solve_penalized,
    solve_upper_reflected,
)

__version__ = "0.1.0"

__all__ = [
    "LevyMeasureSpec",
    "LevyQuadrature",
    "ModeSet",
    "ProblemSpec",
    "SchemeConfig",
    "SolverReport",
    "SpatialGrid",
    "TimeGrid",
    "Trajectory",
    "ValidationReport",
    "build_levy_quadrature",
    "eval_obstacles",
    "interpolate",
    "load_builtin_problem",
    "load_problem",
    "residual_report",
    "solve_lower_reflected",
    "solve_maxmin",
    "solve_minmax",
    "solve_penalized",
    "solve_upper_reflected",
    "validate_non_free_loop",
    "validate_terminal_consistency",
    "__version__",
]
