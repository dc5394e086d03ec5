"""Problem data and KKT quantities for general-form linear programs.

The primal problem is

    min <c, x> + const   s.t.  A x in [l_con, u_con],  x in [l_var, u_var],

with extended-real bounds, and its dual is

    min  S_K(-y) + S_C(-z)   s.t.  A^T y + z = c,

where S_K / S_C are the support functions of the row-bound box K and the
variable-bound box C.  Maximization problems are stored in minimize form
(c and the constant negated) and the sign is restored when reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sparse import SparseMatrix

__all__ = [
    "LpProblem",
    "Iterate",
    "KktResidual",
    "project_box",
    "box_support",
    "kkt_residual",
    "primal_objective",
    "dual_objective",
    "relative_residuals",
]


def _as_float_vector(v, n, name):
    arr = np.ascontiguousarray(v, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


def project_box(
    v: np.ndarray, lo: np.ndarray, hi: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Componentwise projection of v onto the box [lo, hi].

    Bounds may be -inf/+inf; the projection is the identity in those
    components.  Requires lo <= hi componentwise.  With ``out`` the
    result is written there (it may be v itself) and returned.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != np.shape(lo) or v.shape != np.shape(hi):
        raise ValueError(
            f"shape mismatch: v {v.shape}, lo {np.shape(lo)}, hi {np.shape(hi)}"
        )
    out = np.maximum(v, lo, out=out)
    return np.minimum(out, hi, out=out)


def box_support(s: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Support function of the box [lo, hi] evaluated at s.

    sup_{v in [lo, hi]} <s, v> = sum_i hi_i * max(s_i, 0) + lo_i * min(s_i, 0)
    with the convention 0 * (+-inf) = 0.  Returns +inf when some component
    pairs a nonzero s_i with an infinite bound on that side.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.size == 0:
        return 0.0
    pos = s > 0.0
    neg = s < 0.0
    if np.any(pos & np.isinf(hi)) or np.any(neg & np.isinf(lo)):
        return float("inf")
    up = np.where(pos, hi, 0.0)
    lo_part = np.where(neg, lo, 0.0)
    return float(np.dot(up, np.maximum(s, 0.0)) + np.dot(lo_part, np.minimum(s, 0.0)))


@dataclass(frozen=True)
class LpProblem:
    """Immutable LP data in the general two-sided form.

    Attributes
    ----------
    c : (n,) objective coefficients (minimize form).
    A : SparseMatrix, shape (m, n).
    l_con, u_con : (m,) row activity bounds, entries in [-inf, inf].
    l_var, u_var : (n,) variable bounds, entries in [-inf, inf].
    obj_constant : additive objective constant (minimize form).
    obj_sense : original sense, "minimize" or "maximize".  When
        "maximize", c and obj_constant already carry the internal
        negation and reported objectives flip the sign back.
    """

    c: np.ndarray
    A: SparseMatrix
    l_con: np.ndarray
    u_con: np.ndarray
    l_var: np.ndarray
    u_var: np.ndarray
    obj_constant: float = 0.0
    obj_sense: str = "minimize"

    def __post_init__(self):
        m, n = self.A.shape
        object.__setattr__(self, "c", _as_float_vector(self.c, n, "c"))
        object.__setattr__(self, "l_con", _as_float_vector(self.l_con, m, "l_con"))
        object.__setattr__(self, "u_con", _as_float_vector(self.u_con, m, "u_con"))
        object.__setattr__(self, "l_var", _as_float_vector(self.l_var, n, "l_var"))
        object.__setattr__(self, "u_var", _as_float_vector(self.u_var, n, "u_var"))
        if self.obj_sense not in ("minimize", "maximize"):
            raise ValueError(f"obj_sense must be minimize/maximize, got {self.obj_sense!r}")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("objective coefficients must be finite")
        if not np.isfinite(self.obj_constant):
            raise ValueError("objective constant must be finite")
        if np.any(np.isnan(self.l_con)) or np.any(np.isnan(self.u_con)):
            raise ValueError("row bounds must not contain NaN")
        if np.any(np.isnan(self.l_var)) or np.any(np.isnan(self.u_var)):
            raise ValueError("variable bounds must not contain NaN")
        if np.any(self.l_con > self.u_con):
            bad = int(np.argmax(self.l_con > self.u_con))
            raise ValueError(f"row {bad}: lower bound exceeds upper bound")
        if np.any(self.l_var > self.u_var):
            bad = int(np.argmax(self.l_var > self.u_var))
            raise ValueError(f"variable {bad}: lower bound exceeds upper bound")
        for arr in (self.c, self.l_con, self.u_con, self.l_var, self.u_var):
            arr.setflags(write=False)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def objective_sign(self) -> float:
        """+1 for minimize, -1 for maximize (used when reporting)."""
        return -1.0 if self.obj_sense == "maximize" else 1.0

    def rows_are_equalities(self) -> bool:
        """True when every row bound pair is finite and equal (A x = b)."""
        return bool(
            np.all(np.isfinite(self.l_con)) and np.array_equal(self.l_con, self.u_con)
        )


@dataclass(frozen=True, eq=False)
class Iterate:
    """A primal-dual point w = (y, z, x): row multipliers, bound
    multipliers, and primal variables."""

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray

    @classmethod
    def zeros(cls, m: int, n: int) -> "Iterate":
        return cls(np.zeros(m), np.zeros(n), np.zeros(n))

    def copy(self) -> "Iterate":
        return Iterate(self.y.copy(), self.z.copy(), self.x.copy())

    def __add__(self, other: "Iterate") -> "Iterate":
        return Iterate(self.y + other.y, self.z + other.z, self.x + other.x)

    def __sub__(self, other: "Iterate") -> "Iterate":
        return Iterate(self.y - other.y, self.z - other.z, self.x - other.x)

    def __rmul__(self, a: float) -> "Iterate":
        return Iterate(a * self.y, a * self.z, a * self.x)

    __mul__ = __rmul__

    def max_abs(self) -> float:
        """Largest magnitude over all components (NaN if any NaN present)."""
        parts = [p for p in (self.y, self.z, self.x) if p.size]
        if not parts:
            return 0.0
        vals = np.array([np.max(np.abs(p)) for p in parts])
        return float(np.max(vals)) if not np.any(np.isnan(vals)) else float("nan")


@dataclass(frozen=True)
class KktResidual:
    """Raw KKT residual blocks at w = (y, z, x).

    primal   : A x - proj_K(A x - y)
    dual_box : x - proj_C(x - z)
    dual_eq  : c - A^T y - z
    """

    primal: np.ndarray
    dual_box: np.ndarray
    dual_eq: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self):
        total = np.sqrt(
            float(np.dot(self.primal, self.primal))
            + float(np.dot(self.dual_box, self.dual_box))
            + float(np.dot(self.dual_eq, self.dual_eq))
        )
        object.__setattr__(self, "norm", float(total))


def kkt_residual(w: Iterate, prob: LpProblem) -> KktResidual:
    """Residual of the optimality system; zero exactly at saddle points."""
    ax = prob.A.matvec(w.x)
    primal = ax - project_box(ax - w.y, prob.l_con, prob.u_con)
    dual_box = w.x - project_box(w.x - w.z, prob.l_var, prob.u_var)
    dual_eq = prob.c - prob.A.rmatvec(w.y) - w.z
    return KktResidual(primal, dual_box, dual_eq)


def primal_objective(x: np.ndarray, prob: LpProblem) -> float:
    """<c, x> + obj_constant in the internal minimize form."""
    return float(np.dot(prob.c, x)) + prob.obj_constant


def dual_objective(y: np.ndarray, z: np.ndarray, prob: LpProblem) -> float:
    """S_K(-y) + S_C(-z): the dual objective in minimize form.

    Returns +inf when a nonzero multiplier pairs with an infinite bound,
    in which case the duality-gap ratio is reported as +inf and the gap
    criterion cannot fire on its own.
    """
    sk = box_support(-np.asarray(y, dtype=np.float64), prob.l_con, prob.u_con)
    if np.isinf(sk):
        return float("inf")
    sc = box_support(-np.asarray(z, dtype=np.float64), prob.l_var, prob.u_var)
    if np.isinf(sc):
        return float("inf")
    return sk + sc


def relative_residuals(w: Iterate, prob: LpProblem) -> tuple[float, float, float]:
    """Relative termination measures (rel_gap, rel_primal, rel_dual).

        rel_gap    = |S_K(-y) + S_C(-z) + <c, x>|
                     / (1 + |S_K(-y) + S_C(-z)| + |<c, x>|)
        rel_primal = ||A x - proj_K(A x)|| / (1 + ||b_ref||)
        rel_dual   = ||c - A^T y - z|| / (1 + ||c||)

    b_ref is the componentwise max(|l_con|, |u_con|) with infinite bounds
    treated as zero.  A +inf dual objective yields rel_gap = +inf.  The
    additive objective constant cancels from the gap and is ignored here.
    """
    cx = float(np.dot(prob.c, w.x))
    dual = dual_objective(w.y, w.z, prob)
    if np.isinf(dual):
        rel_gap = float("inf")
    else:
        rel_gap = abs(dual + cx) / (1.0 + abs(dual) + abs(cx))

    ax = prob.A.matvec(w.x)
    pviol = ax - project_box(ax, prob.l_con, prob.u_con)
    b_ref = np.maximum(
        np.where(np.isfinite(prob.l_con), np.abs(prob.l_con), 0.0),
        np.where(np.isfinite(prob.u_con), np.abs(prob.u_con), 0.0),
    )
    rel_primal = float(np.linalg.norm(pviol)) / (1.0 + float(np.linalg.norm(b_ref)))

    dviol = prob.c - prob.A.rmatvec(w.y) - w.z
    rel_dual = float(np.linalg.norm(dviol)) / (1.0 + float(np.linalg.norm(prob.c)))
    return rel_gap, rel_primal, rel_dual
