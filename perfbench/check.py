"""Independent answer check, written against the raw arrays with numpy.

Nothing here calls ``hprlp.model``: the three relative residuals of the
paper's stopping rule are recomputed from the instance's own CSC matrix
and bounds, so a solver that mis-reports its residuals or its objective
is caught.
"""

from __future__ import annotations

import numpy as np

REFERENCE_RTOL = 1e-6
OBJECTIVE_RTOL = 1e-9


def _support(s, lo, hi) -> float:
    """sup over v in [lo, hi] of <s, v>, +inf when unbounded."""
    pos, neg = s > 0.0, s < 0.0
    if np.any(pos & np.isinf(hi)) or np.any(neg & np.isinf(lo)):
        return float("inf")
    return float(np.dot(s[pos], hi[pos]) + np.dot(s[neg], lo[neg]))


def _finite_abs(v):
    return np.where(np.isfinite(v), np.abs(v), 0.0)


def bracket(inst) -> tuple[float, float]:
    """(lower, upper) bounds on the optimal value from the generator's dual
    point (y0, z0) and primal point x0, by weak duality."""
    lower = -(_support(-inst.y0, inst.l_con, inst.u_con)
              + _support(-inst.z0, inst.l_var, inst.u_var))
    if not np.isfinite(lower):
        raise ValueError(f"{inst.name}: generator's dual point is not dual feasible")
    return lower, float(inst.c @ inst.x0)


def residuals(inst, x, y, z) -> tuple[float, float, float]:
    """(rel_gap, rel_primal, rel_dual) of (x, y, z) on the original data."""
    A = inst.A
    ax = A @ x
    viol = ax - np.clip(ax, inst.l_con, inst.u_con)
    b_ref = np.maximum(_finite_abs(inst.l_con), _finite_abs(inst.u_con))
    rel_primal = np.linalg.norm(viol) / (1.0 + np.linalg.norm(b_ref))
    rel_dual = np.linalg.norm(inst.c - A.T @ y - z) / (1.0 + np.linalg.norm(inst.c))
    dual = _support(-y, inst.l_con, inst.u_con) + _support(-z, inst.l_var, inst.u_var)
    cx = float(inst.c @ x)
    rel_gap = abs(dual + cx) / (1.0 + abs(dual) + abs(cx))
    return float(rel_gap), float(rel_primal), float(rel_dual)


def check(inst, result, tol, reference=None) -> list[str]:
    """Reasons ``result`` is not a verified optimum of ``inst``; empty if it is.

    Requires status optimal, all three residuals <= tol, a reported
    objective equal to <c, x>, the objective inside the weak-duality
    bracket of the generator's points, and, when ``reference`` is given,
    agreement with it to REFERENCE_RTOL, or to 100 * tol when that is
    looser: a solve stopped at tol is only that close to the optimum.
    """
    problems = []
    if result.status != "optimal":
        problems.append(f"status {result.status}")
    res = residuals(inst, result.x, result.y, result.z)
    for label, value in zip(("gap", "primal", "dual"), res):
        if not value <= tol:
            problems.append(f"rel_{label} {value:.3e} > tol {tol:.0e}")
    cx = float(inst.c @ result.x)
    if not abs(result.primal_obj - cx) <= OBJECTIVE_RTOL * (1.0 + abs(cx)):
        problems.append(f"reported objective {result.primal_obj!r} != <c, x> {cx!r}")
    lower, upper = bracket(inst)
    slack = tol * (1.0 + abs(lower) + abs(upper))
    if not lower - slack <= cx <= upper + slack:
        problems.append(f"objective {cx:.9g} outside bracket [{lower:.9g}, {upper:.9g}]")
    if reference is not None:
        rtol = max(REFERENCE_RTOL, 100.0 * tol)
        for label, value in (("primal", result.primal_obj), ("dual", result.dual_obj)):
            if not abs(value - reference) <= rtol * max(1.0, abs(reference)):
                problems.append(
                    f"{label} objective {value:.12g} differs from HiGHS {reference:.12g}"
                )
    return problems
