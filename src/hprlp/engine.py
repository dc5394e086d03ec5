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
(``t1_zero_path``).  Given the carried A^T y of the iterate, that step
forms xi from it and leaves A^T y_bar, which the solve's residual check
forms anyway, in the product block of ``bar``.

``pr_step`` and ``halpern_step`` write their results into preallocated
vectors (a ``StepWorkspace`` and an ``out`` iterate) with numpy ``out=``
updates, in the same operations and order as the formulas above, so a
run on reused buffers is bit-identical to one on fresh arrays.  An
update of the y and x blocks is one call on the slice ``buf[n:]`` of
the packed ``Iterate.buf``.  The workspace's points, and the solve
loop's, are iterates on the first three blocks of one (z, y, x, A x)
vector (``_packed``): the step leaves its row product A (2 x_bar - x)
in the A x block of ``hat``, so under full reflection (y, x, A x) of
w_hat is one slice, which the reflection and the anchored average,
being linear, carry along with the iterate.  On the normal-equations
route the product block holds A^T y (n entries) instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot, dtpsv

from .model import Iterate, LpProblem, project_box
from .sparse import SparseMatrix

__all__ = [
    "EngineConfig",
    "PrStepTrace",
    "StepWorkspace",
    "EprAverages",
    "NormalEquationSolver",
    "pr_step",
    "proximal_point",
    "halpern_step",
    "epr_accumulate",
    "y_update_t1_zero",
]

MODES = ("hpr", "hdr", "pr", "epr", "rhpdhg")

# magnitude at which the squared iterate norm is declared divergent
_DIVERGENCE_GUARD = 1e300


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


@dataclass(eq=False, slots=True)
class PrStepTrace:
    """Intermediates of one step: the pre-projection points xi / zeta,
    the row product ax2 = A (2 x_bar - x) that zeta is formed from, the
    proximal point w_bar, the reflected point w_hat, and the step's
    penalty sigma.

    zeta and ax2 are None on the normal-equations path, where no row
    projection is formed.  xi and zeta are new arrays on every step.
    ax2 is the A x block of the workspace's ``hat_state``, and w_bar and
    w_hat are its ``bar`` and ``hat`` iterates (w_hat is w_bar itself at
    reflection factor 0): the next ``pr_step`` on the same workspace
    overwrites them.  A step called without a workspace gets one of its
    own, so its trace is never overwritten.

    The step forms the y and x blocks of both points.  It forms z_bar
    only on the normal-equations route and in the ergodic mode, which
    read it; otherwise w_bar.z reads NaN, and ``proximal_point`` forms
    w_bar with its z_bar.  w_hat.z is never formed and reads NaN.
    """

    xi: np.ndarray
    zeta: np.ndarray | None
    ax2: np.ndarray | None
    w_bar: Iterate
    w_hat: Iterate
    sigma: float


def _packed(m: int, n: int, p: int) -> tuple[Iterate, np.ndarray]:
    """An uninitialised (z, y, x, product) vector of m + 2 n + p entries
    and the iterate on its first three blocks; ``state[n:]`` is
    (y, x, product).  The product block is A x (p = m) on the proximal
    route and A^T y (p = n) on the normal-equations route."""
    state = np.empty(m + 2 * n + p)
    return Iterate._on(state[:m + 2 * n], m, n), state


class StepWorkspace:
    """Preallocated vectors of ``pr_step`` for an m x n problem.

    ``bar`` receives the proximal point w_bar and ``hat`` the reflected
    point w_hat, each the iterate on the first three blocks of a
    (z, y, x, product) vector, ``bar_state`` and ``hat_state``, whose
    product blocks have ``p`` entries (m when None).  On the proximal
    route, ``hat.x`` first holds 2 x_bar - x, the argument of the row
    product, and the product block of ``hat_state`` (m entries) the
    product; full reflection keeps them as x_hat and A x_hat.  On the
    normal-equations route with a carried A^T y, the product block of
    ``bar_state`` (n entries) receives A^T y_bar.  The step writes no
    other product block.  It writes the y and x blocks of ``bar`` and
    ``hat``; their z blocks are NaN from allocation on, except that
    ``bar.z`` receives z_bar on the routes that form it in the step
    (see ``PrStepTrace``), so a z block never holds an older step's
    values.  The iterate a step starts from must not share memory with
    any of them.
    """

    __slots__ = ("bar", "hat", "bar_state", "hat_state")

    def __init__(self, m: int, n: int, p: int | None = None):
        p = m if p is None else p
        self.bar, self.bar_state = _packed(m, n, p)
        self.hat, self.hat_state = _packed(m, n, p)
        self.bar.z.fill(np.nan)
        self.hat.z.fill(np.nan)


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
        # column j of the Fortran-ordered factor is contiguous, so each
        # copy is one slice: about 1 ms at 600 rows, against about 7 ms
        # for a fancy-indexed gather and its index arrays
        packed = np.empty(m * (m + 1) // 2)
        start = 0
        for j in range(m):
            packed[start:start + m - j] = lower[j:, j]
            start += m - j
        self._packed = packed
        self._m = m
        self._A = A

    def _sweeps(self, rhs: np.ndarray) -> np.ndarray:
        """L L^T y = rhs through the cached packed lower factor."""
        t = dtpsv(self._m, self._packed, rhs, lower=1)
        return dtpsv(self._m, self._packed, t, lower=1, trans=1, overwrite_x=1)

    def solve(self, rhs: np.ndarray, aty: np.ndarray | None = None) -> np.ndarray:
        """Solve A A^T y = rhs, refining up to twice through the same
        factor until the residual is below 1e-10 * (1 + ||rhs||).
        ``aty``, when given, receives A^T y of the returned y, the product
        the last residual check formed.

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
                if aty is not None:
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
    aty: np.ndarray | None = None,
) -> np.ndarray:
    """Exact y-step for equality rows: A A^T y = (b - A(x_bar + sigma(z_bar - c))) / sigma.
    ``aty``, when given, receives A^T y of the returned y."""
    b = prob.l_con
    rhs = (b - prob.A.matvec(x_bar + sigma * (z_bar - prob.c))) / sigma
    return factor.solve(rhs, aty)


def _z_bar(out: np.ndarray, x_bar: np.ndarray, xi: np.ndarray, sigma: float):
    """z_bar = (x_bar - xi) / sigma into ``out``."""
    np.subtract(x_bar, xi, out=out)
    np.divide(out, sigma, out=out)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> by BLAS ddot: np.dot's bits for less call overhead, and no
    numpy overflow warning.  scipy's ddot refuses length 0."""
    return ddot(a, b) if a.size else 0.0


def pr_step(
    w: Iterate,
    prob: LpProblem,
    cfg: EngineConfig,
    normal_eq: NormalEquationSolver | None = None,
    work: StepWorkspace | None = None,
    aty: np.ndarray | None = None,
) -> PrStepTrace:
    """One proximal-reflection step at w.

    With ``cfg.t1_zero_path`` and a prepared ``normal_eq`` solver the
    y-step is computed exactly through A A^T and ``zeta`` is None.
    ``aty``, when given, is the carried A^T w.y of the normal-equations
    route: xi is formed from it instead of a product, and A^T y_bar goes
    to the product block of ``work.bar_state``, which must then have n
    entries.
    The step writes w_bar and w_hat into ``work`` (a new workspace when
    None); see ``PrStepTrace`` for what a later step overwrites.
    Raises ArithmeticError when the step produces non-finite values, and
    ValueError when the proximal y-step finds ``cfg.lambda_A`` unresolved
    or ``aty`` is given off the normal-equations route or with a
    workspace whose product block does not have n entries.
    """
    normal = cfg.t1_zero_path and normal_eq is not None
    if work is None:
        m, n = prob.A.shape
        work = StepWorkspace(m, n, n if aty is not None else m)
    bar, hat = work.bar, work.hat
    if aty is not None and (not normal or work.bar_state.size - bar.buf.size != w.x.size):
        raise ValueError("a carried A^T y needs the normal-equations y-step and a "
                         "workspace whose product block has n entries")
    sigma = cfg.sigma
    if aty is None:
        xi = prob.A.rmatvec(w.y)
        np.subtract(xi, prob.c, out=xi)
    else:
        xi = np.subtract(aty, prob.c)
    np.multiply(sigma, xi, out=xi)
    np.add(w.x, xi, out=xi)
    project_box(xi, prob.l_var, prob.u_var, out=bar.x)
    if cfg.t1_zero_path or cfg.ergodic:  # the y-step or the ergodic mean reads z_bar
        _z_bar(bar.z, bar.x, xi, sigma)
    # 2 x_bar - x: the row product's argument and, under full reflection, x_hat
    x2 = np.multiply(2.0, bar.x, out=hat.x)
    np.subtract(x2, w.x, out=x2)

    if normal:
        zeta = ax2 = None
        bar_aty = None if aty is None else work.bar_state[bar.buf.size:]
        np.copyto(bar.y, y_update_t1_zero(bar.z, bar.x, prob, sigma, normal_eq, bar_aty))
    else:
        if cfg.lambda_A is None:
            raise ValueError("lambda_A is unresolved; the proximal y-step needs a value")
        slam = sigma * cfg.lambda_A
        ax2 = work.hat_state[hat.buf.size:]  # hat's A x block
        np.copyto(ax2, prob.A.matvec(x2))
        # slam * y goes to bar.y, which the projection overwrites next
        zeta = np.subtract(ax2, np.multiply(slam, w.y, out=bar.y))
        project_box(zeta, prob.l_con, prob.u_con, out=bar.y)
        np.subtract(bar.y, zeta, out=bar.y)
        np.divide(bar.y, slam, out=bar.y)

    # w_hat = (1 + g) w_bar - g w in y and x; full reflection already has
    # x_hat = 2 x_bar - x, so it reflects y alone, and g = 0 is w_bar itself
    gamma = cfg.reflection
    if gamma == 1.0:
        np.multiply(2.0, bar.y, out=hat.y)
        np.subtract(hat.y, w.y, out=hat.y)
        w_hat = hat
    elif gamma == 0.0:
        w_hat = bar
    else:
        n = w.x.size  # buf[n:] holds y and x
        out = np.multiply(1.0 + gamma, bar.buf[n:], out=hat.buf[n:])
        np.subtract(out, np.multiply(gamma, w.buf[n:]), out=out)
        w_hat = hat

    hx, hy = w_hat.x, w_hat.y
    guard = _dot(hx, hx) + _dot(hy, hy)
    if not guard < _DIVERGENCE_GUARD:
        raise ArithmeticError("iterate diverged (non-finite or overflowing step)")
    return PrStepTrace(xi=xi, zeta=zeta, ax2=ax2, w_bar=bar, w_hat=w_hat, sigma=sigma)


def proximal_point(step: PrStepTrace, out: Iterate | None = None) -> Iterate:
    """The step's proximal point w_bar with its z block formed: y_bar and
    x_bar copied from ``step.w_bar`` and z_bar = (x_bar - xi) / sigma at
    the step's sigma, the operations the step forms it with where it
    does.  Written into ``out`` (a new iterate when None), which must
    not share memory with the step's workspace."""
    bar = step.w_bar
    n = bar.x.size
    if out is None:
        out = Iterate.empty(bar.y.size, n)
    np.copyto(out.buf[n:], bar.buf[n:])
    _z_bar(out.z, out.x, step.xi, step.sigma)
    return out


def halpern_step(
    w_anchor: np.ndarray | Iterate, w_hat: np.ndarray | Iterate, t: int,
    out: np.ndarray | Iterate | None = None,
) -> np.ndarray | Iterate:
    """Anchored average 1/(t+2) * w_anchor + (t+1)/(t+2) * w_hat of two
    vectors, or of two iterates over all their blocks.

    Computed as w_anchor + (t+1)/(t+2) * (w_hat - w_anchor), which is
    exact when the two points coincide.  The result is written into
    ``out`` (a new vector or iterate when None), which may be w_hat or
    the point the step started from, but must not share memory with
    w_anchor.
    """
    if t < 0:
        raise ValueError(f"step counter must be >= 0, got {t}")
    if out is None:
        out = w_anchor.copy()
    beta = (t + 1.0) / (t + 2.0)
    if isinstance(out, Iterate):
        a, h, o = w_anchor.buf, w_hat.buf, out.buf
    else:
        a, h, o = w_anchor, w_hat, out
    np.subtract(h, a, out=o)
    np.multiply(beta, o, out=o)
    np.add(a, o, out=o)
    return out


class EprAverages:
    """Uniform running mean ``w_bar_avg`` of the proximal points
    w_bar^1 .. w_bar^k folded in since it was made, updated in place;
    ``n_bar`` is k, and the mean is undefined while it is 0."""

    __slots__ = ("w_bar_avg", "n_bar", "_tmp")

    def __init__(self, m: int, n: int):
        self.w_bar_avg = Iterate.empty(m, n)
        self.n_bar = 0
        self._tmp = Iterate.empty(m, n)


def epr_accumulate(state: EprAverages, w_bar: Iterate) -> None:
    """Fold the step's proximal point into the running mean, in place as
    avg + (1 / count) (w_bar - avg)."""
    state.n_bar += 1
    if state.n_bar == 1:
        state.w_bar_avg.assign(w_bar)
        return
    avg, d = state.w_bar_avg.buf, state._tmp.buf
    np.subtract(w_bar.buf, avg, out=d)
    np.multiply(1.0 / state.n_bar, d, out=d)
    np.add(avg, d, out=avg)
