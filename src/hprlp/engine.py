"""Core iteration maps: reflection step, anchored averaging, variants.

One inner step of the method, written against the dual pair from
``model``, is

    xi    = x + sigma * (A^T y - c)
    x_bar = proj_C(xi)
    z_bar = (x_bar - xi) / sigma
    zeta  = A (2 x_bar - x) - sigma * lambda_A * y
    y_bar = (proj_K(zeta) - zeta) / (sigma * lambda_A)

followed by a reflection of the y and x blocks, (y_hat, x_hat) =
2 (y_bar, x_bar) - (y, x), and the anchored average

    (y, x)_next = 1/(t+2) * (y, x)_anchor + (t+1)/(t+2) * (y_hat, x_hat).

The iteration is a fixed-point map on (y, x): the step reads only w.y
and w.x, and z_bar is a function of the step.  So z_hat is never
formed, and z_bar only where a point is read: inside the step on the
two routes that read it there (the normal-equations right-hand side and
the ergodic mean), and by ``proximal_point`` everywhere else.

The five modes are points of one space of switches, which
``EngineConfig`` resolves once: anchored or not, a reflection factor g
(w_hat = (1 + g) w_bar - g w in y and x), and ergodic averaging or not.  "hpr" is
anchored with g = 1, "hdr" anchored with g = 0 (w_hat = w_bar),
"rhpdhg" anchored with g = gamma (gamma = 1 recovers "hpr"), "pr" plain
reflection steps with g = 1, and "epr" plain reflection steps with
ergodic averages.

When every row is an equality A x = b, an exact y-update through the
normal equations A A^T y_bar = rhs replaces the zeta/projection route
(``t1_zero_path``).  That step forms xi from the carried A^T y in the
iterate's product block and leaves A^T y_bar, which the solve's
residual check forms anyway, in the product block of ``w_bar``.

``pr_step`` and ``halpern_step`` write their results into preallocated
vectors (a ``StepWorkspace``, which ``pr_step`` returns with the step's
xi, zeta and sigma set on it, and an ``out`` iterate) with numpy ``out=``
updates and, for the anchored average, one BLAS daxpy, in the same
operations and order as the formulas above, so a run on reused buffers
is bit-identical to one on fresh arrays.  The two products go the same
way: ``SparseMatrix.matvec`` and ``rmatvec`` write A^T y into the
workspace's xi and A (2 x_bar - x) into ``hat.p``, and a partial
reflection its g (y, x) into a workspace vector that its first step
allocates, so a step of any mode on the proximal route allocates no
vector after its first.  An update of the y and x blocks is one call on
the iterate's ``yx`` view.  The workspace's points, and the solve
loop's, are iterates with a product block p (``Iterate.empty(m, n, p)``):
the step leaves its row product A (2 x_bar - x) in ``hat.p``, so under
full reflection ``hat.state``, (y, x, A x) of w_hat, is one slice, which
the reflection and the anchored average or plain copy, being linear,
carry along with the iterate.  On the normal-equations route p holds
A^T y (n entries) instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy, ddot, dtpsv
from scipy.linalg.lapack import dtrttp

from .model import Iterate, LpProblem, project_box
from .sparse import SparseMatrix, _check_out

__all__ = [
    "EngineConfig",
    "StepWorkspace",
    "NormalEquationSolver",
    "pr_step",
    "proximal_point",
    "halpern_step",
    "epr_accumulate",
    "y_update_t1_zero",
]

MODES = ("hpr", "hdr", "pr", "epr", "rhpdhg")


@dataclass(frozen=True)
class EngineConfig:
    """Parameters of one inner iteration.

    sigma        : penalty parameter, > 0.
    lambda_A     : proximal shift, must dominate ||A||_2^2; None (the
                   default) for ``solve``, which fits it itself on the
                   proximal route and leaves it None where the
                   normal-equations factor is in use, since only the
                   proximal y-step and its seminorm read it.
                   ``pr_step`` on the proximal route needs a value.
    mode         : one of "hpr", "hdr", "pr", "epr", "rhpdhg".
    gamma        : reflection factor for mode "rhpdhg", in [0, 1].
    t1_zero_path : solve the y-step through A A^T normal equations
                   (equality-row problems only).

    The mode is read through switches resolved once here:
    anchored     : Halpern anchoring to the restart point: "hpr", "hdr", "rhpdhg".
    ergodic      : plain reflection steps judged on their ergodic average: "epr".
    restarts     : whether the driver restarts; "pr" is the one mode that does not.
    reflection   : factor g of w_hat = (1 + g) w_bar - g w: 0 for "hdr",
                   ``gamma`` for "rhpdhg" and 1 otherwise.
    """

    sigma: float = 1.0
    lambda_A: float | None = None
    mode: str = "hpr"
    gamma: float = 1.0
    t1_zero_path: bool = False
    anchored: bool = field(init=False, repr=False)
    ergodic: bool = field(init=False, repr=False)
    restarts: bool = field(init=False, repr=False)
    reflection: float = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.sigma > 0.0 and np.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.lambda_A is not None and not (
            self.lambda_A > 0.0 and np.isfinite(self.lambda_A)
        ):
            raise ValueError(f"lambda_A must be positive and finite, got {self.lambda_A}")
        mode = self.mode.lower()
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        reflection = 0.0 if mode == "hdr" else self.gamma if mode == "rhpdhg" else 1.0
        anchored, ergodic = mode in ("hpr", "hdr", "rhpdhg"), mode == "epr"
        for name, value in (("mode", mode), ("anchored", anchored), ("ergodic", ergodic),
                            ("restarts", anchored or ergodic), ("reflection", reflection)):
            object.__setattr__(self, name, value)

    def with_sigma(self, sigma: float) -> "EngineConfig":
        return replace(self, sigma=sigma)


class StepWorkspace:
    """Preallocated vectors of ``pr_step`` for an m x n problem, and the
    results of the last step taken on it, which the next one overwrites.

    ``w_bar`` receives the proximal point and ``hat`` the reflected
    point, each an iterate whose product block p has ``p`` entries (m
    when None).  On the proximal route, ``hat.x`` first holds
    2 x_bar - x, the argument of the row product A (2 x_bar - x) that
    zeta is formed from, and ``hat.p`` (m entries) the product; full
    reflection keeps them as x_hat and A x_hat.  On the
    normal-equations route ``w_bar.p`` (n entries) receives A^T y_bar.
    The step writes no other product block.

    The step also sets ``w_hat``, the reflected point (``hat``, or
    ``w_bar`` itself at reflection factor 0), the pre-projection points
    ``xi`` and ``zeta``, and its penalty ``sigma``; all four are None
    before the first step.  xi (n entries) and zeta (m entries) are the
    workspace's own vectors, which the next step overwrites, not new
    arrays; zeta is None on the normal-equations route, where no row
    projection is formed.

    The step forms the y and x blocks of both points.  Their z blocks
    are NaN from allocation on, except that ``w_bar.z`` receives z_bar
    on the routes that read it in the step (the normal-equations
    right-hand side and the ergodic mean), so a z block never holds an
    older step's values; ``proximal_point`` forms w_bar with its z_bar
    everywhere.  ``pr_step`` refuses an iterate that shares memory with
    any of them.
    """

    __slots__ = ("w_bar", "hat", "w_hat", "xi", "zeta", "sigma", "_xi", "_zeta", "_gw",
                 "_sigma", "_slam")

    def __init__(self, m: int, n: int, p: int | None = None):
        p = m if p is None else p
        self.w_bar, self.hat = Iterate.empty(m, n, p), Iterate.empty(m, n, p)
        self.w_bar.z.fill(np.nan)
        self.hat.z.fill(np.nan)
        self._xi, self._zeta = np.empty(n), np.empty(m)
        self.w_hat = self.xi = self.zeta = self.sigma = None
        self._gw = None  # g (y, x) of a partial reflection, allocated by its first step
        # each step's sigma and sigma * lambda_A as 0-d arrays, which numpy
        # multiplies and divides by for less call overhead than by a float
        self._sigma, self._slam = np.zeros(()), np.zeros(())


class NormalEquationSolver:
    """Cached dense Cholesky factor L of A A^T for equality rows.

    Each solve runs two BLAS triangular sweeps (``dtpsv``) on the lower
    factor, L t = rhs and then L^T y = t, instead of LAPACK ``potrs``,
    which takes about three times as long on one thread at a few hundred
    rows.  The residual is checked through the sparse ``A``.

    Only L's lower triangle is kept, packed column by column (LAPACK's
    "packed" layout, m (m+1)/2 entries), not the m x m square: a sweep
    reads every entry once, so it is bound by memory traffic, and at 600
    rows the packed factor (1.4 MB) fits the 2 MB per-core L2 cache of
    a 2-vCPU Xeon where the square (2.9 MB) does not.  There, on one
    thread, a ``dtpsv`` sweep pair took 90-124 us against 122-144 us
    for ``dtrsv`` on the square.

    Raises ValueError when the row count exceeds the dense cap or the
    product is numerically rank deficient; callers fall back to the
    proximal y-update in that case.
    """

    MAX_ROWS = 2000

    def __init__(self, A: SparseMatrix):
        m = A.shape[0]
        if m > self.MAX_ROWS:
            raise ValueError(
                f"normal-equations path supports up to {self.MAX_ROWS} rows, got {m}"
            )
        # A A^T is symmetric, so its transpose is the same matrix in the
        # Fortran order that LAPACK factors in place, without a copy
        csr = A.to_csr()
        gram = (csr @ csr.T).toarray().T
        try:
            lower, _ = scipy.linalg.cho_factor(gram, lower=True, overwrite_a=True)
        except scipy.linalg.LinAlgError as exc:
            raise ValueError(f"A A^T is not positive definite: {exc}") from exc
        self._packed, _ = dtrttp(lower, uplo="L")
        self._m = m
        self._A = A

    def _sweeps(self, rhs: np.ndarray) -> np.ndarray:
        """L L^T y = rhs through the cached packed lower factor."""
        t = dtpsv(self._m, self._packed, rhs, lower=1)
        return dtpsv(self._m, self._packed, t, lower=1, trans=1, overwrite_x=1)

    def solve(self, rhs: np.ndarray, aty: np.ndarray) -> np.ndarray:
        """Solve A A^T y = rhs, refining up to twice through the same
        factor until the residual is below 1e-10 * (1 + ||rhs||).
        ``aty`` receives A^T y of the returned y, the product the last
        residual check formed.

        Raises ArithmeticError when that bound is not reached, which
        includes every rhs with a NaN or infinite entry.
        """
        tol = 1e-10 * (1.0 + float(np.linalg.norm(rhs)))
        if not math.isfinite(tol):
            raise ArithmeticError("normal-equations right-hand side is not finite")
        y = self._sweeps(rhs)
        # residuals through the sparse A: two products on nnz entries
        # instead of a dense m x m one
        for refinements_left in (2, 1, 0):
            product = self._A.rmatvec(y)
            resid = rhs - self._A.matvec(product)
            if float(np.linalg.norm(resid)) <= tol:
                np.copyto(aty, product)
                return y
            if refinements_left:
                y = y + self._sweeps(resid)
        raise ArithmeticError("normal-equations solve failed to reach residual tolerance")


def y_update_t1_zero(
    z_bar: np.ndarray,
    x_bar: np.ndarray,
    prob: LpProblem,
    sigma: float,
    factor: NormalEquationSolver,
    aty: np.ndarray,
) -> np.ndarray:
    """Exact y-step for equality rows: A A^T y = (b - A(x_bar + sigma(z_bar - c))) / sigma.
    ``aty`` receives A^T y of the returned y."""
    b = prob.l_con
    rhs = (b - prob.A.matvec(x_bar + sigma * (z_bar - prob.c))) / sigma
    return factor.solve(rhs, aty)


def _z_bar(out: np.ndarray, x_bar: np.ndarray, xi: np.ndarray, sigma: float | np.ndarray):
    """z_bar = (x_bar - xi) / sigma into ``out``."""
    np.subtract(x_bar, xi, out=out)
    np.divide(out, sigma, out=out)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> by BLAS ddot: np.dot's bits for less call overhead, and no
    numpy overflow warning.  scipy's ddot refuses length 0."""
    return ddot(a, b) if a.size else 0.0


def _check_step(w: Iterate, prob: LpProblem, work: StepWorkspace, normal: bool):
    """Raise ValueError unless w and the workspace fit ``prob`` and the
    route and w shares no memory with the workspace (``pr_step``)."""
    m, n = prob.A.shape
    if (w.y.size, w.x.size, work._zeta.size, work._xi.size, work.w_bar.p.size) != (
            m, n, m, n, n if normal else m):
        raise ValueError(f"w and the workspace must fit the {m} x {n} problem and its y-step")
    if normal and w.p.size != n:
        raise ValueError("the normal-equations y-step reads the carried A^T y of w from "
                         "w.p, which must have n entries")
    bar, hat = work.w_bar, work.hat
    mine = (bar.buf, bar.p, hat.buf, hat.p, work._xi, work._zeta, work._gw)
    if any(np.shares_memory(v, own) for v in (w.buf, w.p) for own in mine):
        raise ValueError("w must not share memory with the workspace")


def pr_step(
    w: Iterate,
    prob: LpProblem,
    cfg: EngineConfig,
    normal_eq: NormalEquationSolver | None = None,
    work: StepWorkspace | None = None, *, _prechecked: bool = False,
) -> StepWorkspace:
    """One proximal-reflection step at w, written into ``work`` (a new
    workspace when None), which it returns.

    With ``cfg.t1_zero_path`` the y-step is computed exactly through
    A A^T by the prepared ``normal_eq`` solver, which must then be given,
    and ``zeta`` is None.  That route forms xi from ``w.p``, the carried
    A^T w.y, instead of a product, and leaves A^T y_bar in
    ``work.w_bar.p``; both must have n entries.
    See ``StepWorkspace`` for what the step writes there, which a later
    step on the same workspace overwrites.
    Raises ArithmeticError when the normal-equations y-step misses its
    bound, a non-finite right-hand side among them; the step checks no
    other value for overflow, which ``solve`` reads from its merit.
    Raises ValueError when ``cfg.t1_zero_path`` comes without
    ``normal_eq``, when the proximal y-step finds ``cfg.lambda_A``
    unresolved, or where ``_check_step`` does; its check of the inputs
    covers the step's products and projections, which run unchecked.  A
    caller that ran it once on vectors of its own (``solver._LoopState``)
    skips it with ``_prechecked``.
    """
    normal = cfg.t1_zero_path
    if normal and normal_eq is None:
        raise ValueError("the normal-equations y-step (t1_zero_path) needs a normal_eq solver")
    if work is None:
        m, n = prob.A.shape
        work = StepWorkspace(m, n, n if normal else m)
    if not _prechecked:
        _check_step(w, prob, work, normal)
    bar, hat = work.w_bar, work.hat
    sigma, xi = cfg.sigma, work._xi
    work._sigma[()] = sigma
    if normal:
        np.subtract(w.p, prob.c, out=xi)
    else:
        prob.A.rmatvec(w.y, out=xi, _prechecked=True)
        np.subtract(xi, prob.c, out=xi)
    np.multiply(work._sigma, xi, out=xi)
    np.add(w.x, xi, out=xi)
    project_box(xi, prob.l_var, prob.u_var, out=bar.x, _prechecked=True)
    if normal or cfg.ergodic:  # the y-step or the ergodic mean reads z_bar
        _z_bar(bar.z, bar.x, xi, work._sigma)
    # 2 x_bar - x: the row product's argument and, under full reflection, x_hat
    x2 = np.add(bar.x, bar.x, out=hat.x)
    np.subtract(x2, w.x, out=x2)

    if normal:
        zeta = None
        np.copyto(bar.y, y_update_t1_zero(bar.z, bar.x, prob, sigma, normal_eq, bar.p))
    else:
        if cfg.lambda_A is None:
            raise ValueError("lambda_A is unresolved; the proximal y-step needs a value")
        slam = work._slam
        slam[()] = sigma * cfg.lambda_A
        ax2 = prob.A.matvec(x2, out=hat.p, _prechecked=True)
        zeta = np.multiply(slam, w.y, out=work._zeta)
        np.subtract(ax2, zeta, out=zeta)
        project_box(zeta, prob.l_con, prob.u_con, out=bar.y, _prechecked=True)
        np.subtract(bar.y, zeta, out=bar.y)
        np.divide(bar.y, slam, out=bar.y)

    # w_hat = (1 + g) w_bar - g w in y and x; full reflection already has
    # x_hat = 2 x_bar - x, so it reflects y alone, and g = 0 is w_bar itself
    gamma = cfg.reflection
    if gamma == 1.0:
        np.add(bar.y, bar.y, out=hat.y)
        np.subtract(hat.y, w.y, out=hat.y)
        w_hat = hat
    elif gamma == 0.0:
        w_hat = bar
    else:
        if work._gw is None:
            work._gw = np.empty(bar.yx.size)
        out = np.multiply(1.0 + gamma, bar.yx, out=hat.yx)
        np.subtract(out, np.multiply(gamma, w.yx, out=work._gw), out=out)
        w_hat = hat

    work.w_hat, work.xi, work.zeta, work.sigma = w_hat, xi, zeta, sigma
    return work


def proximal_point(step: StepWorkspace, out: Iterate | None = None) -> Iterate:
    """The proximal point w_bar of the last step on the workspace ``step``
    with its z block formed: y_bar and x_bar copied from ``step.w_bar``
    and z_bar = (x_bar - xi) / sigma at the step's sigma, the operations
    the step forms it with where it does.  Written into ``out`` (a new
    iterate when None), which must not share memory with the workspace."""
    bar = step.w_bar
    if out is None:
        out = Iterate.empty(bar.y.size, bar.x.size)
    np.copyto(out.yx, bar.yx)
    _z_bar(out.z, out.x, step.xi, step.sigma)
    return out


def halpern_step(
    w_anchor: np.ndarray | Iterate, w_hat: np.ndarray | Iterate, t: int,
    out: np.ndarray | Iterate | None = None, *, _prechecked: bool = False,
    _coef: np.ndarray | None = None,
) -> np.ndarray | Iterate:
    """Anchored average 1/(t+2) * w_anchor + (t+1)/(t+2) * w_hat of two
    vectors, or of two iterates over all their blocks.

    Computed as (1 - beta) * w_anchor, then plus beta * w_hat by one BLAS
    daxpy, with beta = (t+1)/(t+2): two passes over the result, where a
    difference, a scale and a sum would take three.  The result is
    written into ``out`` (a new vector or iterate when None), which may
    be the point the step started from.  ``out`` must pass the products'
    ``out`` check (``sparse._check_out``) against w_hat's shape, w_hat
    and w_anchor, or ValueError is raised: daxpy would write any other
    array into a copy.  ``_prechecked``, for three vectors, skips the checks
    of t and ``out`` (``solver._LoopState`` runs ``_check_out`` once on its own).
    ``_coef``, a 0-d float64 array of the caller's, receives 1 - beta,
    which numpy multiplies by for less call overhead than by a float.
    """
    a, h, o = w_anchor, w_hat, out
    if not _prechecked:
        if t < 0:
            raise ValueError(f"step counter must be >= 0, got {t}")
        if out is None:
            out = o = w_anchor.copy()
        if isinstance(out, Iterate):
            a, h, o = w_anchor.buf, w_hat.buf, out.buf
        # writing (1 - beta) * w_anchor first would overwrite w_hat before
        # daxpy reads it, or entries of w_anchor still to be read
        _check_out(o, h.shape, h, a)
    beta = (t + 1.0) / (t + 2.0)
    if _coef is None:
        np.multiply(1.0 - beta, a, out=o)
    else:
        _coef[()] = 1.0 - beta
        np.multiply(_coef, a, out=o)
    if o.size:  # scipy's daxpy refuses length 0
        daxpy(h, o, a=beta)
    return out


def epr_accumulate(mean: Iterate, w_bar: Iterate, count: int, scratch: Iterate) -> None:
    """Fold the count-th proximal point into the uniform running mean of
    the first count - 1, in place as mean + (1 / count) (w_bar - mean);
    the first is copied.  ``scratch`` is overwritten."""
    if count == 1:
        mean.assign(w_bar)
        return
    avg, d = mean.buf, scratch.buf
    np.subtract(w_bar.buf, avg, out=d)
    np.multiply(1.0 / count, d, out=d)
    np.add(avg, d, out=avg)
