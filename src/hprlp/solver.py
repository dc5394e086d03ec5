"""Restarted solve driver with scaling, penalty updates and tracing.

``solve`` is setup (scaling, the optional normal-equations factor, and
lambda_A where that factor is not in use), a loop over one ``_LoopState``
(step, the checkpoint's candidate, restart), and a report.  The state's
switches come resolved from ``EngineConfig``: anchored modes average
each step with the latest restart point, ergodic mode judges the
running mean of the proximal points, and every mode but pr restarts.
A restart fires when the step-length merit decays enough, stalls, or
the run since the last restart grows too long relative to the global
iteration count; the candidate becomes the new start and anchor, and
the penalty parameter is re-fit to the observed primal/dual
displacements.  The global iteration counter never resets.

Above the dense cutoff, whatever its shape, the loop runs on the scaled
problem ordered by row and column length
(``_order_by_length``); the scaling carries both orders, and every point
that crosses between the spaces goes through ``scale_iterate`` or
``unscale_iterate``.

Termination is decided on the proximal (bar) sequence against the
relative gap / primal / dual measures of the ORIGINAL, unscaled data,
every ``check_interval`` iterations and at restarts.  Where it fails,
the anchored modes that restart, on at most 2,000 rows, try a face solve
(``_FaceFinish``) and end "optimal" with its point if it passes the same
test; it is logged as the last trace record, marked ``face``.  A point
that fails is dropped and the iterate is not touched, so a solve that
does not end on the face runs as without it.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .adaptive import (
    RestartConfig,
    RestartReason,
    check_restart,
    m_norm,
    sigma_update,
)
from .engine import (
    EngineConfig,
    NormalEquationSolver,
    StepWorkspace,
    _check_step,
    epr_accumulate,
    halpern_step,
    pr_step,
    proximal_point,
)
from .model import (
    Iterate,
    LpProblem,
    dual_objective,
    project_box,
    relative_residuals,
)
from .sparse import SparseMatrix, _check_out, estimate_lambda_A

__all__ = [
    "SolverConfig",
    "SolveResult",
    "TraceRecord",
    "RestartEvent",
    "RuizScaling",
    "solve",
    "apply_scaling",
    "unscale_iterate",
    "scale_iterate",
]

_DIVERGENCE_NORM = 1e12
# row/column max-magnitude sweeps of the Ruiz scaling (at most; they stop
# once every maximum is within 1e-8 of 1)
RUIZ_SWEEPS = 10


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the solve driver.

    ``engine`` holds the step's parameters: the starting penalty sigma,
    re-fit at restarts when ``adaptive_sigma`` is on; lambda_A, which
    ``solve`` fits to the scaled matrix (``estimate_lambda_A``: an
    operator-norm estimate times 1.05), so it must be left None; and the
    y-step route.  Where the normal-equations factor is in use, lambda_A
    is not fitted and stays None: only the proximal y-step reads it.
    ``solve`` resolves them once into the one copy that the steps, the
    seminorm and the penalty re-fit read.
    """

    tol: float = 1e-8
    time_limit: float = float("inf")
    iter_limit: int = 1_000_000
    check_interval: int = 100
    engine: EngineConfig = field(default_factory=EngineConfig)
    restart: RestartConfig = field(default_factory=RestartConfig)
    adaptive_sigma: bool = True
    scaling: str = "ruiz"
    initial_iterate: Iterate | None = None

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.iter_limit < 0:
            raise ValueError(f"iter_limit must be >= 0, got {self.iter_limit}")
        if not self.time_limit > 0.0:
            raise ValueError(f"time_limit must be positive, got {self.time_limit}")
        if self.check_interval < 1:
            raise ValueError(f"check_interval must be >= 1, got {self.check_interval}")
        if self.scaling not in ("none", "ruiz"):
            raise ValueError(f"scaling must be 'none' or 'ruiz', got {self.scaling!r}")
        if self.engine.lambda_A is not None:
            raise ValueError("lambda_A is fitted by solve to the scaled matrix; leave it None")


@dataclass(frozen=True)
class TraceRecord:
    """One logged point: counters, penalty, relative residuals of the
    candidate point on the original data, current merit, elapsed time."""

    k: int
    r: int
    t: int
    sigma: float
    rel_gap: float
    rel_primal: float
    rel_dual: float
    merit: float
    seconds: float
    face: bool = False


@dataclass(frozen=True)
class RestartEvent:
    """A restart: global iteration k, outer index r, inner length tau,
    triggering reason, and the penalty before/after re-fitting."""

    k: int
    r: int
    tau: int
    reason: str
    sigma_before: float
    sigma_after: float


@dataclass(frozen=True)
class SolveResult:
    status: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    primal_obj: float
    dual_obj: float
    rel_gap: float
    rel_primal: float
    rel_dual: float
    iterations: int
    restarts: int
    solve_seconds: float
    trace: tuple[TraceRecord, ...]
    events: tuple[RestartEvent, ...]
    message: str = ""

    @property
    def face_finish(self) -> bool:
        """Whether the answer is the face solve's point, logged as the
        last trace record, rather than an iterate's."""
        return bool(self.trace) and self.trace[-1].face


# ---------------------------------------------------------------------
# scaling


@dataclass(frozen=True)
class RuizScaling:
    """Positive diagonal scalings: the working matrix is
    diag(row) @ A @ diag(col), with, where ``row_order`` and
    ``col_order`` are set (``_order_by_length``), its rows and columns
    taken in those orders."""

    row: np.ndarray
    col: np.ndarray
    row_order: np.ndarray | None = None
    col_order: np.ndarray | None = None

    @classmethod
    def identity(cls, m: int, n: int) -> "RuizScaling":
        return cls(np.ones(m), np.ones(n))


def _abs_max(mag: np.ndarray, index: np.ndarray, out: np.ndarray):
    """Largest entry of ``mag`` per value of ``index`` into ``out``;
    an index that no entry has, or whose largest entry is 0, gets 1, so
    its row or column is not rescaled.  Maxima are exact, so the order in
    which ``np.maximum.at`` visits the entries does not matter."""
    out.fill(0.0)
    np.maximum.at(out, index, mag)
    out[out == 0.0] = 1.0


def apply_scaling(prob: LpProblem, method: str = "ruiz") -> tuple[LpProblem, RuizScaling]:
    """Equilibrate the problem; returns the scaled copy and the diagonals.

    "ruiz": ``RUIZ_SWEEPS`` sqrt row/column max-magnitude sweeps followed
    by one column 2-norm pass.  "none" returns the problem unchanged
    with identity diagonals.  Bounds, objective and multipliers
    transform so the scaled problem is equivalent:

        A_s = Dr A Dc,   l/u_con_s = Dr l/u_con,   c_s = Dc c,
        l/u_var_s = l/u_var / Dc,   x = Dc x_s,  y = Dr y_s,  z = z_s / Dc.

    The sweeps rescale the value array of A's CSR form instead of
    forming matrix products: the row and column maxima are taken with
    ``np.maximum.at`` over each entry's row and column (on the
    mps-sparse-1e5 matrix, 0.24 ms a pass either way, against 0.59 and
    1.31 ms for ``np.maximum.reduceat`` over the rows and over a column
    permutation of the values), and each entry is multiplied by its row
    factor and then its column factor, as
    ``diags(1/r) @ W @ diags(1/c)`` does.  The column 2-norms sum each
    column in ascending row order, as ``W.multiply(W).sum(axis=0)``
    does, and entries that end up exactly zero are dropped, as the
    products drop them, so the result equals the product form bit for
    bit.
    """
    m, n = prob.A.shape
    ident = RuizScaling.identity(m, n)
    if method == "none":
        return prob, ident
    if method != "ruiz":
        raise ValueError(f"unknown scaling method {method!r}")
    if prob.A.nnz == 0 or m == 0 or n == 0:
        return prob, ident

    # each entry's row and column, set up once
    csr = prob.A.to_csr()
    indptr, cols = csr.indptr, csr.indices
    rows = np.repeat(np.arange(m), np.diff(indptr))

    data = csr.data
    rmax, cmax = np.empty(m), np.empty(n)
    row_acc = np.ones(m)
    col_acc = np.ones(n)
    for _ in range(RUIZ_SWEEPS):
        mag = np.abs(data)
        _abs_max(mag, rows, rmax)
        _abs_max(mag, cols, cmax)
        if np.max(np.abs(1.0 - rmax)) <= 1e-8 and np.max(np.abs(1.0 - cmax)) <= 1e-8:
            break
        r = np.sqrt(rmax)
        c = np.sqrt(cmax)
        data = (1.0 / r)[rows] * data * (1.0 / c)[cols]
        row_acc /= r
        col_acc /= c
    # one column 2-norm pass; no square overflows, since after a sweep
    # every entry is at most 1 in magnitude, and the loop stops before
    # one only when every row maximum is within 1e-8 of 1
    cn = np.sqrt(np.bincount(cols, weights=data * data, minlength=n))
    cn[cn == 0.0] = 1.0
    data = data * (1.0 / cn)[cols]
    col_acc /= cn

    # the index arrays of A are read-only; dropping zeros rewrites copies
    W = sp.csr_matrix((data, cols.copy(), indptr.copy()), shape=(m, n))
    W.eliminate_zeros()
    scaling = RuizScaling(row=row_acc, col=col_acc)
    scaled = LpProblem(
        c=prob.c * col_acc,
        A=SparseMatrix(W),
        l_con=prob.l_con * row_acc,
        u_con=prob.u_con * row_acc,
        l_var=prob.l_var / col_acc,
        u_var=prob.u_var / col_acc,
        obj_constant=prob.obj_constant,
        obj_sense=prob.obj_sense,
    )
    return scaled, scaling


def unscale_iterate(w: Iterate, scaling: RuizScaling) -> Iterate:
    """Map a working-space iterate back to the original space."""
    y, z, x = w.y, w.z, w.x
    if scaling.row_order is not None:
        rows, cols = scaling.row_order, scaling.col_order
        y, z, x = _unorder(y, rows), _unorder(z, cols), _unorder(x, cols)
    return Iterate(y * scaling.row, z / scaling.col, x * scaling.col)


def scale_iterate(w: Iterate, scaling: RuizScaling) -> Iterate:
    """Map an original-space iterate into the working space."""
    y, z, x = w.y / scaling.row, w.z * scaling.col, w.x / scaling.col
    if scaling.row_order is not None:
        y, z, x = y[scaling.row_order], z[scaling.col_order], x[scaling.col_order]
    return Iterate(y, z, x)


def _unorder(v: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``v``, whose entries were taken in ``order``, with each put back in
    its place."""
    out = np.empty_like(v)
    out[order] = v
    return out


def _order_by_length(work: LpProblem, scaling: RuizScaling) -> tuple[LpProblem, RuizScaling]:
    """The working problem with its rows ordered by length and its columns
    by their count of entries (both stable), and ``scaling`` with those
    orders, so that A x and A^T y gather their rows in order of length,
    A^T y those of the CSR copy of A^T that its matrix alone holds: the
    layout of every working matrix above the dense cutoff.  A row keeps
    its entries in ascending column order, in the new order of the
    columns."""
    csr = work.A.to_csr()
    n = csr.shape[1]
    rows = np.argsort(np.diff(csr.indptr), kind="stable")
    cols = np.argsort(np.bincount(csr.indices, minlength=n), kind="stable")
    new_col = np.empty(n, dtype=csr.indices.dtype)
    new_col[cols] = np.arange(n)
    A = csr[rows]  # new arrays, each row's entries in their order
    A.indices = new_col[A.indices]
    A.has_sorted_indices = False
    A.sort_indices()
    ordered = dataclasses.replace(
        work, c=work.c[cols], A=SparseMatrix._with_transpose(A), l_con=work.l_con[rows],
        u_con=work.u_con[rows], l_var=work.l_var[cols], u_var=work.u_var[cols])
    return ordered, dataclasses.replace(scaling, row_order=rows, col_order=cols)


# ---------------------------------------------------------------------
# solve driver


_NO_RESIDUALS = (float("inf"), float("inf"), float("inf"))


class _RunLog:
    """What a solve reports, on the original data: the checkpoint trace,
    the restart events, and the best checkpoint by worst relative
    residual."""

    def __init__(self, prob: LpProblem, scaling: RuizScaling, started: float):
        self.prob = prob
        self.scaling = scaling
        self.started = started
        self.trace: list[TraceRecord] = []
        self.events: list[RestartEvent] = []
        self.best_w: Iterate | None = None
        self.best_residuals = _NO_RESIDUALS

    def offer(self, w: Iterate, residuals: tuple[float, float, float]):
        if self.best_w is None or max(residuals) < max(self.best_residuals):
            self.best_w, self.best_residuals = w, residuals

    def evaluate(self, w: Iterate) -> tuple[Iterate, tuple[float, float, float]]:
        """A working-space point on the original data, x clipped to the box
        that unscaling can leave by a rounding, and its residual triple."""
        point = unscale_iterate(w, self.scaling)
        project_box(point.x, self.prob.l_var, self.prob.u_var, out=point.x)
        return point, relative_residuals(point, self.prob)

    def checkpoint(self, candidate: Iterate, k: int, r: int, t: int,
                   sigma: float, merit: float):
        """Evaluate a working-space candidate on the original data and
        log it; returns the unscaled point and its residual triple."""
        wb, res = self.evaluate(candidate)
        self.offer(wb, res)
        self.record(k, r, t, sigma, res, merit)
        return wb, res

    def record(self, k: int, r: int, t: int, sigma: float,
               residuals: tuple[float, float, float], merit: float, face: bool = False):
        seconds = time.perf_counter() - self.started
        self.trace.append(TraceRecord(k, r, t, sigma, *residuals, merit, seconds, face))

    def report(
        self,
        status: str,
        w: Iterate,
        residuals: tuple[float, float, float],
        iterations: int,
        restarts: int,
        message: str,
    ) -> SolveResult:
        prob = self.prob
        sign = prob.objective_sign
        pobj = sign * (float(np.dot(prob.c, w.x)) + prob.obj_constant)
        dual = dual_objective(w.y, w.z, prob)
        dobj = sign * (-dual + prob.obj_constant) if np.isfinite(dual) else float("nan")
        return SolveResult(
            status=status,
            x=w.x.copy(),
            y=w.y.copy(),
            z=w.z.copy(),
            primal_obj=pobj,
            dual_obj=dobj,
            rel_gap=residuals[0],
            rel_primal=residuals[1],
            rel_dual=residuals[2],
            iterations=iterations,
            restarts=restarts,
            solve_seconds=time.perf_counter() - self.started,
            trace=tuple(self.trace),
            events=tuple(self.events),
            message=message,
        )


# The face finish runs on working matrices of at most this many rows:
# it keeps storage for a dense m x m G (32 MB at 2,000 rows) and factors
# G of the active rows on each new pattern.
FACE_MAX_ROWS = 2_000


class _FaceFinish:
    """The face solve, tried at each failed checkpoint.

    Once the active sets are identified the step map is affine, and its
    fixed point solves one linear system (the paper's finding (ii)).
    The face is read from the candidate's multiplier signs: a variable
    with z > 0 and a finite lower bound, or z < 0 and a finite upper
    bound, is pinned at it (J; the rest is F); a row with y > 0 and a
    finite lower bound, or y < 0 and a finite upper bound, is active at
    it (R).  When that pattern equals the previous try's, the face point
    is formed: x_J at its bounds, x_F and y_R corrected by
    ``_face_corrections``, y = 0 off R and its sign clipped on active
    rows that are not equalities, z = c - A^T y with z_F = 0, then x
    clipped to the original box after unscaling, so that a pinned x is
    exactly on its bound.  It is returned if it passes ``tol`` on the
    original data; after the clip only a NaN leaves the box, and a NaN
    fails ``tol``.  The candidate is not written.

    A pattern whose face point failed on ``rel_dual`` by more than 10%
    of ``tol`` is refuted and not solved again: the face's y_R minimises
    ||c_F - A_RF^T y_R|| (y_R + dy is G^-1 A_RF c_F whatever y_R it
    starts from), and y, z and so ``rel_dual`` follow from the pattern
    alone, up to rounding.  The margin keeps a pattern within rounding
    of ``tol`` from being refuted on one try and skipped on a later one
    that would pass; on the equality-normal benchmark LP, where two
    refuted patterns fail at 1.55 and 1.75 times ``tol``, their
    ``rel_dual`` varies by about 1e-11 of itself from try to try.  A
    try never writes the iterate, so skipping it moves no trajectory.
    """

    def __init__(self, work: LpProblem, log: _RunLog, tol: float):
        self.work = work
        self.log = log
        self.tol = tol
        self.finite = (np.isfinite(work.l_var), np.isfinite(work.u_var),
                       np.isfinite(work.l_con), np.isfinite(work.u_con))
        self.ranged = work.l_con != work.u_con
        self.pattern = None
        self.refuted: set[bytes] = set()
        # G's storage, shared by the tries: a block per try fragments the heap
        self.gram = np.empty(work.m ** 2)

    def finish(self, cand: Iterate) -> tuple[Iterate, tuple[float, float, float]] | None:
        """The candidate's verified face point on the original data and its
        residuals; None if the face has not settled or the point fails."""
        work, A = self.work, self.work.A
        lv, uv, lc, uc = self.finite
        pin_lo, pin_hi = (cand.z > 0.0) & lv, (cand.z < 0.0) & uv
        act_lo, act_hi = (cand.y > 0.0) & lc, (cand.y < 0.0) & uc
        pattern = np.concatenate((pin_lo, pin_hi, act_lo, act_hi))
        settled = self.pattern is not None and np.array_equal(pattern, self.pattern)
        self.pattern = pattern
        key = np.packbits(pattern).tobytes() if settled else None
        if not settled or key in self.refuted:
            return None

        free, active = ~(pin_lo | pin_hi), act_lo | act_hi
        x = cand.x.copy()
        x[pin_lo] = work.l_var[pin_lo]
        x[pin_hi] = work.u_var[pin_hi]
        y = np.where(active, cand.y, 0.0)
        b_r = np.where(act_lo, work.l_con, work.u_con)[active]
        # A_RF from the dense copy, or sliced from the CSR arrays, kept sparse
        a_rf = (A.dense if A.dense is not None else A.to_csr())[active][:, free]
        corrections = _face_corrections(
            a_rf, b_r - A.matvec(x)[active], (work.c - A.rmatvec(y))[free], self.gram)
        if corrections is None:
            return None
        x[free] += corrections[0]
        y[active] += corrections[1]
        np.maximum(y, 0.0, out=y, where=act_lo & self.ranged)
        np.minimum(y, 0.0, out=y, where=act_hi & self.ranged)
        z = work.c - A.rmatvec(y)
        z[free] = 0.0

        point, res = self.log.evaluate(Iterate(y, z, x))
        if all(v <= self.tol for v in res):
            return point, res
        if res[2] > 1.1 * self.tol:
            self.refuted.add(key)
        return None


def _face_corrections(a_rf, rx, ry, buf) -> tuple[np.ndarray, np.ndarray] | None:
    """The least-norm dx with A_RF dx = rx and the least-squares dy of
    A_RF^T dy = ry from one Cholesky factor of G = A_RF A_RF^T, formed
    dense in ``buf``: dx = A_RF^T G^-1 rx, dy = G^-1 A_RF ry.  None when
    G is not numerically positive definite (no factor, or a pivot squared
    at most eps * max(|R|, |F|) * max diag(G): dependent rows) or the
    solves are not finite.  On a 600 x 603 face, on one core of a 2-vCPU
    Xeon, forming and factoring G take 0.9 and 4.0 ms, a QR 43-57 ms.
    """
    n_rows, n_free = a_rf.shape
    if n_rows == 0 or n_free == 0:
        return np.zeros(n_free), np.zeros(n_rows)
    gram = buf[:n_rows * n_rows].reshape(n_rows, n_rows)
    if sp.issparse(a_rf):
        (a_rf @ a_rf.T).toarray(out=gram)
    else:
        np.matmul(a_rf, a_rf.T, out=gram)
    tiny = max(n_rows, n_free) * np.finfo(float).eps * gram.diagonal().max()
    # G is symmetric, so its transpose is the same matrix in the Fortran
    # order that LAPACK factors in place, without a copy
    try:
        factor = scipy.linalg.cho_factor(gram.T, lower=True, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None
    if not np.diagonal(factor[0]).min() ** 2 > tiny:
        return None
    u = scipy.linalg.cho_solve(factor, rx, check_finite=False)
    dy = scipy.linalg.cho_solve(factor, a_rf @ ry, check_finite=False)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(dy))):
        return None
    return a_rf.T @ u, dy


def _setup(
    prob: LpProblem, cfg: SolverConfig
) -> tuple[LpProblem, RuizScaling, EngineConfig, NormalEquationSolver | None, Iterate, str]:
    """The working problem and its scaling, the engine configuration
    resolved for it (lambda_A fitted to the working matrix, None on the
    normal-equations route, which does not read it), the normal-equations
    factor when that y-step applies, the working-space start, and a
    message that says why that y-step does not apply when asked for."""
    work, scaling = apply_scaling(prob, cfg.scaling)
    if work.A.dense is None:
        work, scaling = _order_by_length(work, scaling)

    # normal-equations path only for pure equality rows
    normal_eq = None
    message = ""
    if cfg.engine.t1_zero_path and work.m > 0:
        if not work.rows_are_equalities():
            message = ("normal-equations path unavailable (not every row is an "
                       "equality); using proximal y-step")
        else:
            try:
                normal_eq = NormalEquationSolver(work.A)
            except ValueError as exc:
                message = f"normal-equations path unavailable ({exc}); using proximal y-step"
    lam = None
    if normal_eq is None:
        # a matrix whose entries are all 0.0 has no norm to estimate either
        lam = estimate_lambda_A(work.A) if work.A.to_csr().data.any() else 1.0
    ecfg = dataclasses.replace(cfg.engine, sigma=float(cfg.engine.sigma), lambda_A=lam,
                               t1_zero_path=normal_eq is not None)
    m, n = work.A.shape
    if cfg.initial_iterate is not None:
        start = scale_iterate(cfg.initial_iterate, scaling)
    else:
        start = Iterate(np.zeros(m), np.zeros(n), project_box(np.zeros(n), work.l_var, work.u_var))
    return work, scaling, ecfg, normal_eq, start, message


class _LoopState:
    """The iteration state of ``solve``, allocated once, and the loop's
    three operations on it, ``step``, ``candidate`` and ``restart``: the
    iterate w and the restart point (the anchor), the step's workspace,
    the point a checkpoint reads (w_bar with its z_bar formed) and the
    ergodic mean, which epr checkpoints read instead, using that point as
    scratch.  The merit's w - w_hat is formed in w itself, which the
    anchored average or the pr / epr copy of w_hat rewrites right after,
    except where the product of w_hat is formed from it (below), which
    needs a vector of its own.  The checks of the kernels' arguments run
    once, when the state is built, on these vectors, which only the loop
    writes; its step, average and restart products skip them (``_prechecked``).

    w, the anchor, that difference and the step's points are each an
    iterate with a product block p, and the loop's state is their
    ``state`` view, (y, x, p) (every step writes w_hat to the same
    iterate): p holds A x on the proximal route, A^T y on the
    normal-equations route.  The step reads no z, so w.z keeps the
    start's z until a restart copies a candidate in.  The reflection,
    the average and the copy are linear, so the step's product
    (A (2 x_bar - x), or A^T y_bar from the normal-equations solve)
    carries it along; the merit reads it instead of a product of its
    own, the normal-equations step forms xi from it, and ``restart``,
    which the start also goes through, refreshes it exactly with one
    product of its point.  It is not copied from the step, whose
    A^T y_bar is not the product of epr's ergodic mean.  The product of
    w - w_hat is formed first, as the step's one scaled by f, and the
    product of w_hat from it, so no rounded product of w_hat enters the
    merit (the no-progress restart fires on a merit increase, which near
    a fixed point rounding decides):
    x - x_hat = ((1 + g) / 2) (x - (2 x_bar - x)) and
    y - y_hat = (1 + g) (y - y_bar).  Where f is 1 (full reflection on
    the proximal route, g = 0 on the normal one) the step's product is
    that of w_hat, and the difference is one subtraction.
    """

    def __init__(self, work: LpProblem, ecfg: EngineConfig,
                 normal_eq: NormalEquationSolver | None, start: Iterate):
        m, n = work.A.shape
        normal = ecfg.t1_zero_path
        p = n if normal else m  # the product block's length
        self.A, self.work, self.normal_eq = work.A, work, normal_eq
        self.anchored, self.ergodic, self.normal = ecfg.anchored, ecfg.ergodic, normal
        self.w, self.anchor = Iterate.empty(m, n, p), Iterate.empty(m, n, p)
        self.step_work = step = StepWorkspace(m, n, p)
        self.point = Iterate.empty(m, n)
        self.mean = Iterate.empty(m, n) if ecfg.ergodic else None
        self.hat = step.w_bar if ecfg.reflection == 0.0 else step.hat
        f = (1.0 + ecfg.reflection) * (1.0 if normal else 0.5)
        self.reflect_p = f != 1.0
        # f and the average's 1 - beta as 0-d arrays, which numpy
        # multiplies by for less call overhead than by a float
        self.f, self.coef = np.array(f), np.zeros(())
        # where the step leaves its product
        self.step_p = (step.w_bar if normal else step.hat).p
        # w - w_hat: formed in w itself, which the average rewrites next,
        # but in an iterate of its own where the product of w_hat is
        # formed from it and w's
        self.diff = Iterate.empty(m, n, p) if self.reflect_p else self.w
        _check_step(self.w, work, step, normal)
        _check_out(self.w.p, (p,), self.w.y if normal else self.w.x)
        _check_out(self.w.state, self.hat.state.shape, self.hat.state, self.anchor.state)
        self.restart(start)

    def step(self, ecfg: EngineConfig, t: int) -> float:
        """One iteration, t steps after the last restart: the reflection
        step, w - w_hat with its product, the merit, then the anchored
        average into w (w_hat itself in pr / epr) and the ergodic fold.
        Returns the merit.  Raises ArithmeticError when the step fails or
        the merit is not finite; w may then hold w - w_hat, but the
        anchor is untouched."""
        w, hat, diff = self.w, self.hat, self.diff
        pr_step(w, self.work, ecfg, self.normal_eq, self.step_work, _prechecked=True)
        if self.reflect_p:
            np.subtract(w.yx, hat.yx, out=diff.yx)
            np.subtract(w.p, self.step_p, out=diff.p)
            np.multiply(self.f, diff.p, out=diff.p)
            np.subtract(w.p, diff.p, out=hat.p)
        else:
            np.subtract(w.state, hat.state, out=w.state)
        merit = m_norm(diff, ecfg, self.A)
        # the merit squares w - w_hat: it is inf or NaN when w_hat is
        # not finite or runs away from w
        if not merit < math.inf:
            raise ArithmeticError("iterate diverged (non-finite or overflowing step)")
        if self.anchored:
            halpern_step(self.anchor.state, hat.state, t, out=w.state, _prechecked=True,
                         _coef=self.coef)
        else:
            np.copyto(w.state, hat.state)
        if self.ergodic:
            epr_accumulate(self.mean, self.step_work.w_bar, t + 1, self.point)
        return merit

    def candidate(self) -> Iterate:
        """The point a checkpoint judges: the ergodic mean in epr, and
        the last step's proximal point with its z_bar formed otherwise."""
        return self.mean if self.ergodic else proximal_point(self.step_work, self.point)

    def restart(self, point: Iterate):
        """Make ``point`` the new w and anchor, with its product."""
        self.w.assign(point)
        if self.normal:
            self.A.rmatvec(self.w.y, out=self.w.p, _prechecked=True)
        else:
            self.A.matvec(self.w.x, out=self.w.p, _prechecked=True)
        self.anchor.assign(self.w)
        np.copyto(self.anchor.p, self.w.p)


def _fit_sigma(
    candidate: Iterate, anchor: Iterate, ecfg: EngineConfig, A: SparseMatrix
) -> float:
    """The penalty re-fit at a restart to the primal and dual
    displacements since the last one; the dual one is measured through
    A^T on the normal-equations path."""
    dx = float(np.linalg.norm(candidate.x - anchor.x))
    dy_vec = candidate.y - anchor.y
    if ecfg.t1_zero_path:
        dy = float(np.linalg.norm(A.rmatvec(dy_vec)))
    else:
        dy = float(np.sqrt(ecfg.lambda_A)) * float(np.linalg.norm(dy_vec))
    scales = float(np.linalg.norm(candidate.x)), float(np.linalg.norm(candidate.y))
    return sigma_update(dx, dy, *scales, ecfg.sigma)


def _limit_message(message: str, residuals: tuple[float, float, float],
                   tol: float) -> str:
    """``message`` with the residual that blocked termination appended:
    the largest of the three, all being measured against one ``tol``."""
    names = ("rel_gap", "rel_primal", "rel_dual")
    worst = int(np.argmax(residuals))
    blocking = f"blocking residual: {names[worst]} = {residuals[worst]:.3e}, tol = {tol:.1e}"
    return f"{message}; {blocking}" if message else blocking


def solve(prob: LpProblem, cfg: SolverConfig | None = None) -> SolveResult:
    """Solve the LP to the configured relative tolerance.

    Returns status "optimal" when the gap, primal and dual measures on
    the original data all fall below ``cfg.tol``, for a checkpoint or
    for a face point (``SolveResult.face_finish``); "iter_limit" /
    "time_limit" return the best checkpoint seen so far, and their
    message names the residual that blocked termination;
    "numerical_error" flags divergence (reflection modes without an
    anchor can and do diverge) and returns the best checkpoint, or the
    start point when the loop diverges before its first checkpoint.
    Raises ValueError when
    ``cfg.initial_iterate`` does not have the LP's (m, n) blocks or has a
    NaN or infinite entry.
    """
    cfg = cfg or SolverConfig()
    w0 = cfg.initial_iterate
    if w0 is not None:
        if (w0.y.size, w0.x.size) != (prob.m, prob.n):
            raise ValueError(
                f"initial_iterate has (m, n) = ({w0.y.size}, {w0.x.size}); "
                f"the LP needs ({prob.m}, {prob.n})"
            )
        for name in ("y", "z", "x"):
            if not np.all(np.isfinite(getattr(w0, name))):
                raise ValueError(f"initial_iterate has a non-finite entry in {name}")
    started = time.perf_counter()
    work, scaling, ecfg, normal_eq, start, message = _setup(prob, cfg)
    log = _RunLog(prob, scaling, started)
    if cfg.iter_limit == 0:
        w0, res = log.evaluate(start)
        return log.report(
            "iter_limit", w0, res, 0, 0,
            _limit_message("iteration limit is zero", res, cfg.tol),
        )

    # switches and limits, read once
    restarts, tol, iter_limit = ecfg.restarts, cfg.tol, cfg.iter_limit
    check_interval, restart_cfg = cfg.check_interval, cfg.restart
    deadline = started + cfg.time_limit
    no_restart = RestartReason.NONE
    state = _LoopState(work, ecfg, normal_eq, start)
    face = None
    can_restart = restart_cfg.enabled or restart_cfg.fixed_period is not None
    if ecfg.anchored and can_restart and work.m <= FACE_MAX_ROWS:
        face = _FaceFinish(work, log, tol)
    # k counts all steps, r restarts, t steps since the last restart
    k = r = t = 0
    status = None

    while status is None:
        try:
            merit = state.step(ecfg, t)
        except ArithmeticError as exc:
            if log.best_w is None:  # no checkpoint yet: the anchor is the start
                log.offer(unscale_iterate(state.anchor, scaling), _NO_RESIDUALS)
            status, message = "numerical_error", str(exc)
            break
        if t == 0:  # the restart tests measure against the first merit
            merit0 = merit_prev = merit
        t += 1
        k += 1

        reason = no_restart
        if restarts:
            reason = check_restart(merit0, merit_prev, merit, t, k, restart_cfg)
        merit_prev = merit

        hit_iter = k >= iter_limit
        hit_time = time.perf_counter() > deadline
        if k % check_interval == 0 or hit_iter or hit_time or reason != no_restart:
            # every restart and face try comes through here first
            candidate = state.candidate()
            wb, res = log.checkpoint(candidate, k, r, t, ecfg.sigma, merit)
            if max(res) <= tol:
                status = "optimal"
            elif candidate.max_abs() > _DIVERGENCE_NORM:
                status, message = "numerical_error", "iterate norm exceeded 1e12"
            elif hit_iter:
                status = "iter_limit"
            elif time.perf_counter() > deadline:
                status = "time_limit"
            elif face is not None:
                found = face.finish(candidate)
                if found is not None:
                    wb, res = found
                    log.record(k, r, t, ecfg.sigma, res, merit, face=True)
                    status = "optimal"

        if status is None and reason != no_restart:
            sigma_old = ecfg.sigma
            if cfg.adaptive_sigma:
                ecfg = ecfg.with_sigma(_fit_sigma(candidate, state.anchor, ecfg, work.A))
            log.events.append(RestartEvent(k, r, t, reason.value, sigma_old, ecfg.sigma))
            state.restart(candidate)
            r += 1
            t = 0

    if status != "optimal":  # report the best checkpoint, not the last
        wb, res = log.best_w, log.best_residuals
    if status in ("iter_limit", "time_limit"):
        message = _limit_message(message, res, tol)
    return log.report(status, wb, res, k, r, message)
