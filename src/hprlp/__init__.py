"""Anchored Peaceman-Rachford solver for general-form LPs.

Public surface: problem data (`LpProblem`, `Iterate`), the solve driver
(`solve`, `SolverConfig`, `SolveResult`), MPS reading (`parse_mps`,
`build_problem`), and the enumeration reference solver (`oracle_solve`).
"""

from .adaptive import (
    RestartConfig,
    RestartReason,
    check_restart,
    m_norm,
    sigma_update,
)
from .engine import (
    EngineConfig,
    EprAverages,
    NormalEquationSolver,
    PrStepTrace,
    StepWorkspace,
    epr_accumulate,
    halpern_step,
    pr_step,
    y_update_t1_zero,
)
from .model import (
    Iterate,
    LpProblem,
    box_support,
    dual_objective,
    project_box,
    relative_residuals,
)
from .mps import MpsDocument, MpsParseError, build_problem, parse_mps
from .oracle import OracleSolution, oracle_solve
from .solver import (
    RestartEvent,
    SolveResult,
    SolverConfig,
    TraceRecord,
    apply_scaling,
    solve,
)
from .sparse import SparseMatrix, estimate_lambda_A

__version__ = "0.1.0"

__all__ = [
    "EngineConfig",
    "EprAverages",
    "Iterate",
    "LpProblem",
    "MpsDocument",
    "MpsParseError",
    "NormalEquationSolver",
    "OracleSolution",
    "PrStepTrace",
    "RestartConfig",
    "RestartEvent",
    "RestartReason",
    "SolveResult",
    "SolverConfig",
    "SparseMatrix",
    "StepWorkspace",
    "TraceRecord",
    "apply_scaling",
    "box_support",
    "build_problem",
    "check_restart",
    "dual_objective",
    "epr_accumulate",
    "estimate_lambda_A",
    "halpern_step",
    "m_norm",
    "oracle_solve",
    "parse_mps",
    "pr_step",
    "project_box",
    "relative_residuals",
    "sigma_update",
    "solve",
    "y_update_t1_zero",
]
