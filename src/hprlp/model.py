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

import math
from dataclasses import dataclass, field
from functools import cached_property

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
    v: np.ndarray, lo: np.ndarray, hi: np.ndarray, out: np.ndarray | None = None, *,
    _prechecked: bool = False,
) -> np.ndarray:
    """Componentwise projection of v onto the box [lo, hi].

    Bounds may be -inf/+inf; the projection is the identity in those
    components.  Requires lo <= hi componentwise.  With ``out`` the
    result is written there (it may be v itself) and returned.
    ``_prechecked`` skips ``_check_box``, for ``engine.pr_step``, whose
    float64 v has the shape of its ``LpProblem``'s bounds.
    """
    if not _prechecked:
        v = _check_box(v, lo, hi)
    out = np.maximum(v, lo, out=out)
    return np.minimum(out, hi, out=out)


def _check_box(v, lo, hi) -> np.ndarray:
    """v as a float64 array; raises ValueError unless lo and hi have its shape."""
    v = np.asarray(v, dtype=np.float64)
    if np.shape(lo) != v.shape or np.shape(hi) != v.shape:
        raise ValueError(f"shape mismatch: v {v.shape}, lo {np.shape(lo)}, hi {np.shape(hi)}")
    return v


def box_support(
    s: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    infinite: tuple[np.ndarray, ...] | None = None,
) -> float:
    """Support function of the box [lo, hi] evaluated at s.

    sup_{v in [lo, hi]} <s, v> = sum_i hi_i * max(s_i, 0) + lo_i * min(s_i, 0)
    with the convention 0 * (+-inf) = 0.  Returns +inf when some component
    pairs a nonzero s_i with an infinite bound on that side.
    ``infinite``, when given, is (isinf(lo), isinf(hi), lo, hi) with the
    infinite entries of lo and hi set to 0, for a caller that evaluates
    one box often (``LpProblem._infinite_bounds``).
    """
    s = np.asarray(s, dtype=np.float64)
    if s.size == 0:
        return 0.0
    inf_lo, inf_hi = infinite[:2] if infinite else (np.isinf(lo), np.isinf(hi))
    pos = s > 0.0
    neg = s < 0.0
    if (pos & inf_hi).any() or (neg & inf_lo).any():
        return float("inf")
    lo, hi = infinite[2:] if infinite else (np.where(inf_lo, 0.0, lo), np.where(inf_hi, 0.0, hi))
    return float(np.dot(hi, np.maximum(s, 0.0)) + np.dot(lo, np.minimum(s, 0.0)))


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
        if not isinstance(self.A, SparseMatrix):
            raise TypeError(
                f"A must be a SparseMatrix, got {type(self.A).__name__}; build one "
                "with SparseMatrix(matrix) from a scipy sparse matrix or "
                "SparseMatrix.from_dense(array)")
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
        for kind, lo, hi in (("row", self.l_con, self.u_con),
                             ("variable", self.l_var, self.u_var)):
            # lo <= hi fails on NaN too; past this test every box is
            # nonempty, and below it one of the four faults is named
            if (lo <= hi).all() and (lo < np.inf).all() and (hi > -np.inf).all():
                continue
            if np.isnan(lo).any() or np.isnan(hi).any():
                raise ValueError(f"{kind} bounds must not contain NaN")
            for bad, what in ((lo > hi, "lower bound exceeds upper bound"),
                              (lo == np.inf, "lower bound is +inf"),
                              (hi == -np.inf, "upper bound is -inf")):
                if bad.any():
                    raise ValueError(f"{kind} {int(np.argmax(bad))}: {what}")
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

    @cached_property
    def _residual_scales(self) -> tuple[float, float]:
        """1 + ||b_ref|| and 1 + ||c||, ``relative_residuals``'s denominators."""
        bounds = (self.l_con, self.u_con)
        b_ref = np.maximum(*(np.where(np.isfinite(b), np.abs(b), 0.0) for b in bounds))
        return 1.0 + float(np.linalg.norm(b_ref)), 1.0 + float(np.linalg.norm(self.c))

    @cached_property
    def _infinite_bounds(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """(isinf(l_con), isinf(u_con), l_con, u_con) and the same of l_var
        and u_var, each bound with its infinite entries set to 0: the
        ``infinite`` arguments of ``dual_objective``'s two box supports."""
        bounds = (self.l_con, self.u_con, self.l_var, self.u_var)
        masks = [np.isinf(b) for b in bounds]
        finite = [np.where(mask, 0.0, b) for mask, b in zip(masks, bounds)]
        for a in masks + finite:
            a.setflags(write=False)
        return (*masks[:2], *finite[:2]), (*masks[2:], *finite[2:])

    def rows_are_equalities(self) -> bool:
        """True when every row bound pair is finite and equal (A x = b)."""
        return bool(
            np.all(np.isfinite(self.l_con)) and np.array_equal(self.l_con, self.u_con)
        )


@dataclass(frozen=True, eq=False, init=False)
class Iterate:
    """A primal-dual point w = (y, z, x): row multipliers, bound
    multipliers, and primal variables, with an optional product block p.

    The blocks are slices of one contiguous float64 storage, laid out
    z, y, x, p, so that an elementwise update of several blocks is one
    numpy call.  ``buf`` is (z, y, x), the point itself, which
    ``assign``, ``copy``, ``max_abs`` and pickling read; ``yx`` is
    (y, x), the blocks the solve loop updates, and ``state`` is
    (y, x, p).  An iterate's p, when it has one, holds the product of
    its route: A x on the proximal route, A^T y on the normal-equations
    route (``engine.pr_step``, ``adaptive.m_norm``).
    ``Iterate(y, z, x)`` copies its arguments into a new storage with an
    empty p; z and x must have the same size.
    """

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    buf: np.ndarray = field(repr=False)
    yx: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    state: np.ndarray = field(repr=False)

    def __init__(self, y: np.ndarray, z: np.ndarray, x: np.ndarray):
        n = np.size(x)
        if np.size(z) != n:
            raise ValueError(f"z and x must have the same size, got {np.size(z)} and {n}")
        self._view(np.concatenate((z, y, x), dtype=np.float64), np.size(y), n)

    def _view(self, storage: np.ndarray, m: int, n: int):
        end = m + 2 * n  # where p starts
        views = dict(buf=storage[:end], z=storage[:n], y=storage[n:n + m], x=storage[n + m:end],
                     yx=storage[n:end], p=storage[end:], state=storage[n:])
        for name, view in views.items():
            object.__setattr__(self, name, view)

    @classmethod
    def _on(cls, storage: np.ndarray, m: int, n: int) -> "Iterate":
        w = cls.__new__(cls)
        w._view(storage, m, n)
        return w

    def __reduce__(self):
        # pickle and copy rebuild the views, which they would copy apart
        return Iterate, (self.y, self.z, self.x)

    @classmethod
    def empty(cls, m: int, n: int, p: int = 0) -> "Iterate":
        """An iterate with uninitialised values and a product block of p entries."""
        return cls._on(np.empty(m + 2 * n + p), m, n)

    @classmethod
    def zeros(cls, m: int, n: int) -> "Iterate":
        return cls._on(np.zeros(m + 2 * n), m, n)

    def copy(self) -> "Iterate":
        return Iterate._on(self.buf.copy(), self.y.size, self.x.size)

    def assign(self, src: "Iterate"):
        """Copy the values of ``src`` into this iterate's arrays."""
        np.copyto(self.buf, src.buf)

    def max_abs(self) -> float:
        """Largest magnitude over all components (NaN if any NaN present)."""
        return float(np.max(np.abs(self.buf), initial=0.0))


def dual_objective(y: np.ndarray, z: np.ndarray, prob: LpProblem) -> float:
    """S_K(-y) + S_C(-z): the dual objective in minimize form.

    Returns +inf when a nonzero multiplier pairs with an infinite bound,
    in which case the duality-gap ratio is reported as +inf and the gap
    criterion cannot fire on its own.
    """
    inf_con, inf_var = prob._infinite_bounds
    sk = box_support(-np.asarray(y, dtype=np.float64), prob.l_con, prob.u_con, inf_con)
    if math.isinf(sk):
        return float("inf")
    sc = box_support(-np.asarray(z, dtype=np.float64), prob.l_var, prob.u_var, inf_var)
    if math.isinf(sc):
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
    if math.isinf(dual):
        rel_gap = float("inf")
    else:
        rel_gap = abs(dual + cx) / (1.0 + abs(dual) + abs(cx))

    primal_scale, dual_scale = prob._residual_scales
    ax = prob.A.matvec(w.x)
    pviol = ax - project_box(ax, prob.l_con, prob.u_con)
    # the 2-norms as np.linalg.norm forms them, for less call overhead
    rel_primal = math.sqrt(pviol.dot(pviol)) / primal_scale

    dviol = prob.c - prob.A.rmatvec(w.y) - w.z
    rel_dual = math.sqrt(dviol.dot(dviol)) / dual_scale
    return rel_gap, rel_primal, rel_dual
