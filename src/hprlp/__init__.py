"""Anchored Peaceman-Rachford solver for general-form LPs.

Public surface: problem data (`LpProblem`, `Iterate`), the solve driver
(`solve`, `SolverConfig`, `SolveResult`), MPS reading (`parse_mps`,
`build_problem`), and the enumeration reference solver (`oracle_solve`).
"""

from .adaptive import (
    MNormContext,
    RestartConfig,
    RestartReason,
    SigmaUpdateInputs,
    check_restart,
    m_norm,
    sigma_update,
)
from .engine import (
    ActiveSets,
    EngineConfig,
    EprAverages,
    FrozenAffineMap,
    NormalEquationSolver,
    PrStepTrace,
    StepWorkspace,
    epr_accumulate,
    frozen_affine_map,
    halpern_step,
    identify_active_sets,
    pr_step,
    rhpdhg_step,
    y_update_t1_zero,
)
from .model import (
    Iterate,
    KktResidual,
    LpProblem,
    box_support,
    dual_objective,
    kkt_residual,
    primal_objective,
    project_box,
    relative_residuals,
)
from .mps import MpsDocument, MpsParseError, build_problem, parse_mps
from .oracle import OracleSolution, oracle_solve
from .solver import (
    ComplexityReport,
    RestartEvent,
    SolveResult,
    SolverConfig,
    TraceRecord,
    apply_scaling,
    complexity_diagnostics,
    solve,
)
from .sparse import SparseMatrix, estimate_lambda_A, spmv, spmv_t

__version__ = "0.1.0"

__all__ = [
    "ActiveSets",
    "ComplexityReport",
    "EngineConfig",
    "EprAverages",
    "FrozenAffineMap",
    "Iterate",
    "KktResidual",
    "LpProblem",
    "MNormContext",
    "MpsDocument",
    "MpsParseError",
    "NormalEquationSolver",
    "OracleSolution",
    "PrStepTrace",
    "RestartConfig",
    "RestartEvent",
    "RestartReason",
    "SigmaUpdateInputs",
    "SolveResult",
    "SolverConfig",
    "SparseMatrix",
    "StepWorkspace",
    "TraceRecord",
    "apply_scaling",
    "box_support",
    "build_problem",
    "check_restart",
    "complexity_diagnostics",
    "dual_objective",
    "epr_accumulate",
    "estimate_lambda_A",
    "frozen_affine_map",
    "halpern_step",
    "identify_active_sets",
    "kkt_residual",
    "m_norm",
    "oracle_solve",
    "parse_mps",
    "pr_step",
    "primal_objective",
    "project_box",
    "relative_residuals",
    "rhpdhg_step",
    "sigma_update",
    "solve",
    "spmv",
    "spmv_t",
    "y_update_t1_zero",
]
