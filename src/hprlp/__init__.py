"""Anchored Peaceman-Rachford solver for general-form LPs.

Public surface, what a user of ``solve``, ``hprlp solve`` and
``hprlp bench`` needs: problem data (``LpProblem``, ``Iterate``,
``SparseMatrix``), MPS reading (``parse_mps``, ``build_problem``,
``MpsDocument``, ``MpsParseError``), and the solve driver (``solve``, its
``SolverConfig`` with ``EngineConfig`` and ``RestartConfig``, and its
``SolveResult`` with ``TraceRecord`` and ``RestartEvent``).  The step
maps, the merit seminorm and the restart tests are reached through
their own modules (``hprlp.engine``, ``hprlp.adaptive``, ``hprlp.model``,
``hprlp.sparse``, ``hprlp.solver``) and may change between versions.
"""

from .adaptive import RestartConfig
from .engine import EngineConfig
from .model import Iterate, LpProblem
from .mps import MpsDocument, MpsParseError, build_problem, parse_mps
from .solver import RestartEvent, SolveResult, SolverConfig, TraceRecord, solve
from .sparse import SparseMatrix

__version__ = "0.1.0"

__all__ = [
    "EngineConfig",
    "Iterate",
    "LpProblem",
    "MpsDocument",
    "MpsParseError",
    "RestartConfig",
    "RestartEvent",
    "SolveResult",
    "SolverConfig",
    "SparseMatrix",
    "TraceRecord",
    "build_problem",
    "parse_mps",
    "solve",
]
