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
    "project_box",
    "box_support",
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


@dataclass(frozen=True, eq=False, init=False)
class Iterate:
    """A primal-dual point w = (y, z, x): row multipliers, bound
    multipliers, and primal variables.

    The three blocks are slices of one contiguous float64 vector
    ``buf``, laid out z, y, x, so that an elementwise update of the
    whole point is one numpy call.  In that order the z and y blocks are
    one slice, ``zy``, and ``buf[n:]`` holds y and x.
    ``Iterate(y, z, x)`` copies its arguments into a new ``buf``; z and
    x must have the same size.
    """

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    buf: np.ndarray = field(repr=False)
    zy: np.ndarray = field(repr=False)

    def __init__(self, y: np.ndarray, z: np.ndarray, x: np.ndarray):
        n = np.size(x)
        if np.size(z) != n:
            raise ValueError(f"z and x must have the same size, got {np.size(z)} and {n}")
        self._view(np.concatenate((z, y, x), dtype=np.float64), np.size(y), n)

    def _view(self, buf: np.ndarray, m: int, n: int):
        views = dict(buf=buf, zy=buf[:n + m], z=buf[:n], y=buf[n:n + m], x=buf[n + m:])
        for name, view in views.items():
            object.__setattr__(self, name, view)

    @classmethod
    def _on(cls, buf: np.ndarray, m: int, n: int) -> "Iterate":
        w = cls.__new__(cls)
        w._view(buf, m, n)
        return w

    def __reduce__(self):
        # pickle and copy rebuild the views, which they would copy apart
        return Iterate, (self.y, self.z, self.x)

    def _like(self, buf: np.ndarray) -> "Iterate":
        return Iterate._on(buf, self.y.size, self.x.size)

    @classmethod
    def empty(cls, m: int, n: int) -> "Iterate":
        """An iterate with uninitialised values."""
        return cls._on(np.empty(m + 2 * n), m, n)

    @classmethod
    def zeros(cls, m: int, n: int) -> "Iterate":
        return cls._on(np.zeros(m + 2 * n), m, n)

    def copy(self) -> "Iterate":
        return self._like(self.buf.copy())

    def assign(self, src: "Iterate"):
        """Copy the values of ``src`` into this iterate's arrays."""
        np.copyto(self.buf, src.buf)

    def __add__(self, other: "Iterate") -> "Iterate":
        return self._like(self.buf + other.buf)

    def __sub__(self, other: "Iterate") -> "Iterate":
        return self._like(self.buf - other.buf)

    def __rmul__(self, a: float) -> "Iterate":
        return self._like(a * self.buf)

    __mul__ = __rmul__

    def max_abs(self) -> float:
        """Largest magnitude over all components (NaN if any NaN present)."""
        return float(np.max(np.abs(self.buf), initial=0.0))


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

    x in [l_var, u_var] is not checked; the solver clips each point it
    evaluates into that box after unscaling.
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
