"""Restart tests and penalty updates driven by a weighted seminorm.

Progress is measured in the seminorm induced by the block operator

    M = [ sigma*(A A^T + T1)   0     A      ]
        [ 0                    0     0      ]
        [ A^T                  0   I/sigma  ]

with T1 = lambda_A * I - A A^T, which collapses to

    <w, M w> = sigma*lambda_A*||y||^2 + 2 <A^T y, x> + ||x||^2 / sigma.

The cross term equals 2 <y, A x>, so a caller that already holds A x
can pass it and skip the product.

With T1 = 0 (normal-equations path) the y-block is sigma * A A^T
instead, giving <w, M w> = || sqrt(sigma) A^T y + x / sqrt(sigma) ||^2.
The z-block never contributes.

sigma, lambda_A and the route are those of the resolved ``EngineConfig``
that drives the steps being measured.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .engine import EngineConfig, _dot
from .model import Iterate
from .sparse import SparseMatrix

__all__ = [
    "RestartConfig",
    "RestartReason",
    "m_norm",
    "m_norm_squared",
    "check_restart",
    "sigma_update",
    "SIGMA_MIN",
    "SIGMA_MAX",
]

SIGMA_MIN = 1e-8
SIGMA_MAX = 1e8

# restart thresholds: a restart fires on a merit decay to ALPHA1 of the
# inner loop's first merit, on a decay to ALPHA2 that has stopped
# progressing, or once the inner loop is ALPHA3 of the global count long
ALPHA1, ALPHA2, ALPHA3 = 0.2, 0.8, 0.36


def m_norm_squared(
    w: Iterate, cfg: EngineConfig, A: SparseMatrix, ax: np.ndarray | None = None
) -> float:
    """Raw quadratic form <w, M w> for the penalty, shift and y-step
    route of ``cfg``; may be a tiny negative number in floating point.
    The z component is ignored.

    ``ax``, when given, is A w.x, and the cross term is formed as
    2 <w.y, A w.x> (= 2 <A^T w.y, w.x>) without a product of its own.
    The T1 = 0 form needs A^T w.y for its y-block and ignores ``ax``.
    """
    t1_zero = cfg.t1_zero_path
    if ax is None or t1_zero:
        aty = A.rmatvec(w.y)
        cross = 2.0 * _dot(aty, w.x)
    else:
        cross = 2.0 * _dot(w.y, ax)
    xx = _dot(w.x, w.x) / cfg.sigma
    if t1_zero:
        yy = cfg.sigma * _dot(aty, aty)
    else:
        yy = cfg.sigma * cfg.lambda_A * _dot(w.y, w.y)
    return yy + cross + xx


def m_norm(
    w: Iterate, cfg: EngineConfig, A: SparseMatrix, ax: np.ndarray | None = None
) -> float:
    """Seminorm sqrt(max(<w, M w>, 0)); ``ax`` as in ``m_norm_squared``."""
    return math.sqrt(max(m_norm_squared(w, cfg, A, ax), 0.0))


class RestartReason(enum.Enum):
    NONE = "none"
    SUFFICIENT = "sufficient"
    NECESSARY_NO_PROGRESS = "necessary_no_progress"
    LONG_LOOP = "long_loop"
    FIXED = "fixed"


@dataclass(frozen=True)
class RestartConfig:
    """Which restarts fire: ``enabled`` switches the three adaptive
    tests, whose thresholds are ALPHA1, ALPHA2 and ALPHA3;
    ``fixed_period`` adds a plain every-N restart used on its own for
    fixed-frequency runs.
    """

    enabled: bool = True
    fixed_period: int | None = None

    def __post_init__(self):
        if self.fixed_period is not None and self.fixed_period < 1:
            raise ValueError(f"fixed_period must be >= 1, got {self.fixed_period}")


def check_restart(
    merit0: float,
    merit_prev: float,
    merit_curr: float,
    t: int,
    k: int,
    cfg: RestartConfig,
) -> RestartReason:
    """Decide whether the inner loop should restart.

    In priority order: sufficient decay (merit_curr <= ALPHA1 * merit0),
    necessary decay without progress (merit_curr <= ALPHA2 * merit0 and
    merit_curr > merit_prev), long inner loop (t >= ALPHA3 * k), fixed
    period.  The first three require ``cfg.enabled``.
    """
    if min(merit0, merit_prev, merit_curr) < 0.0:
        raise ValueError("merit values must be nonnegative")
    if t < 1 or k < 1:
        raise ValueError(f"counters must be >= 1, got t={t}, k={k}")
    if cfg.enabled:
        if merit_curr <= ALPHA1 * merit0:
            return RestartReason.SUFFICIENT
        if merit_curr <= ALPHA2 * merit0 and merit_curr > merit_prev:
            return RestartReason.NECESSARY_NO_PROGRESS
        if t >= ALPHA3 * k:
            return RestartReason.LONG_LOOP
    if cfg.fixed_period is not None and t >= cfg.fixed_period:
        return RestartReason.FIXED
    return RestartReason.NONE


def sigma_update(
    delta_x: float,
    delta_y: float,
    x_scale: float,
    y_scale: float,
    sigma_prev: float,
) -> float:
    """New penalty delta_x / delta_y, clamped to [SIGMA_MIN, SIGMA_MAX].

    delta_x = ||x_bar - x_anchor|| is the primal displacement over the
    finished inner loop, and delta_y the dual one in the norm of the
    active y-step: sqrt(lambda_A) * ||y_bar - y_anchor|| on the proximal
    route, ||A^T (y_bar - y_anchor)|| on the normal-equations route.
    When either is at machine-epsilon scale relative to its magnitude
    reference (x_scale, y_scale) the previous value is kept unchanged (a
    ratio of vanishing displacements carries no information).
    """
    if delta_x < 0.0 or delta_y < 0.0:
        raise ValueError("displacements must be nonnegative")
    eps = np.finfo(np.float64).eps
    if delta_x <= eps * (1.0 + x_scale) or delta_y <= eps * (1.0 + y_scale):
        return sigma_prev
    return float(min(max(delta_x / delta_y, SIGMA_MIN), SIGMA_MAX))
