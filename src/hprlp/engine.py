"""Core iteration maps: reflection step, anchored averaging, variants.

One inner step of the method, written against the dual pair from
``model``, is

    xi    = x + sigma * (A^T y - c)
    x_bar = proj_C(xi)
    z_bar = (x_bar - xi) / sigma
    zeta  = A (2 x_bar - x) - sigma * lambda_A * y
    y_bar = (proj_K(zeta) - zeta) / (sigma * lambda_A)

followed by a reflection w_hat = 2 w_bar - w and the anchored average

    w_next = 1/(t+2) * w_anchor + (t+1)/(t+2) * w_hat.

The five modes are points of one space of switches, which
``EngineConfig`` resolves once: anchored or not, a reflection factor g
(w_hat = (1 + g) w_bar - g w), and ergodic averaging or not.  "hpr" is
anchored with g = 1, "hdr" anchored with g = 0 (w_hat = w_bar),
"rhpdhg" anchored with g = gamma (gamma = 1 recovers "hpr"), "pr" plain
reflection steps with g = 1, and "epr" plain reflection steps with
ergodic averages.

When every row is an equality A x = b, an exact y-update through the
normal equations A A^T y_bar = rhs replaces the zeta/projection route
(``t1_zero_path``).

``pr_step`` and ``halpern_step`` write their results into preallocated
vectors (a ``StepWorkspace`` and an ``out`` iterate) with numpy ``out=``
updates, in the same operations and order as the formulas above, so a
run on reused buffers is bit-identical to one on fresh arrays.  An
update of whole iterates is one call on their packed ``Iterate.buf``
vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
                   default) for ``solve``, which fits it itself.
                   ``pr_step`` on the proximal route needs a value.
    mode         : one of "hpr", "hdr", "pr", "epr", "rhpdhg".
    gamma        : reflection factor for mode "rhpdhg", in [0, 1].
    t1_zero_path : solve the y-step through A A^T normal equations
                   (equality-row problems only).

    The mode is read through the switches ``anchored``, ``ergodic``,
    ``restarts`` and ``reflection``, resolved once here.
    """

    sigma: float = 1.0
    lambda_A: float | None = None
    mode: str = "hpr"
    gamma: float = 1.0
    t1_zero_path: bool = False

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
        object.__setattr__(self, "mode", mode)
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        reflection = 0.0 if mode == "hdr" else self.gamma if mode == "rhpdhg" else 1.0
        object.__setattr__(self, "_anchored", mode in ("hpr", "hdr", "rhpdhg"))
        object.__setattr__(self, "_ergodic", mode == "epr")
        object.__setattr__(self, "_reflection", reflection)

    def with_sigma(self, sigma: float) -> "EngineConfig":
        return replace(self, sigma=sigma)

    @property
    def anchored(self) -> bool:
        """Halpern anchoring to the restart point: "hpr", "hdr", "rhpdhg"."""
        return self._anchored

    @property
    def ergodic(self) -> bool:
        """Plain reflection steps judged on their ergodic average: "epr"."""
        return self._ergodic

    @property
    def restarts(self) -> bool:
        """Whether the driver restarts; "pr" is the one mode that does not."""
        return self._anchored or self._ergodic

    @property
    def reflection(self) -> float:
        """Reflection factor g of w_hat = (1 + g) w_bar - g w: 0 for "hdr",
        ``gamma`` for "rhpdhg" and 1 otherwise."""
        return self._reflection


@dataclass(frozen=True, eq=False)
class PrStepTrace:
    """Intermediates of one step: the pre-projection points xi / zeta,
    the row product ax2 = A (2 x_bar - x) that zeta is formed from, the
    proximal point w_bar, and the reflected point w_hat.

    zeta and ax2 are None on the normal-equations path, where no row
    projection is formed.  xi, zeta and ax2 are new arrays on every
    step.  w_bar and w_hat are the ``bar`` and ``hat`` iterates of the
    step's workspace (w_hat is w_bar itself at reflection factor 0): the
    next ``pr_step`` on the same workspace overwrites them.  A step
    called without a workspace gets one of its own, so its trace is
    never overwritten.
    """

    xi: np.ndarray
    zeta: np.ndarray | None
    ax2: np.ndarray | None
    w_bar: Iterate
    w_hat: Iterate


class StepWorkspace:
    """Preallocated vectors of ``pr_step`` for an m x n problem.

    ``bar`` receives the proximal point w_bar, ``hat`` the reflected
    point w_hat (its x block first holds 2 x_bar - x, the argument of
    the row product, which full reflection keeps as x_hat), and ``tmp``
    is scratch.  The iterate a step starts from must not share memory
    with any of them.
    """

    __slots__ = ("bar", "hat", "tmp")

    def __init__(self, m: int, n: int):
        self.bar = Iterate.empty(m, n)
        self.hat = Iterate.empty(m, n)
        self.tmp = Iterate.empty(m, n)


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

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A A^T y = rhs, refining up to twice through the same
        factor until the residual is below 1e-10 * (1 + ||rhs||).

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
            resid = rhs - self._A.matvec(self._A.rmatvec(y))
            if float(np.linalg.norm(resid)) <= tol:
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
) -> np.ndarray:
    """Exact y-step for equality rows: A A^T y = (b - A(x_bar + sigma(z_bar - c))) / sigma."""
    b = prob.l_con
    rhs = (b - prob.A.matvec(x_bar + sigma * (z_bar - prob.c))) / sigma
    return factor.solve(rhs)


def _reflect_into(
    out: np.ndarray, bar: np.ndarray, prev: np.ndarray, gamma: float,
    tmp: np.ndarray | None,
) -> np.ndarray:
    """out = (1 + gamma) * bar - gamma * prev, as 2 * bar - prev when
    gamma = 1 (the two agree bit for bit there).  ``out`` may not be
    ``prev``; ``tmp`` is scratch for gamma != 1."""
    if gamma == 1.0:
        np.multiply(2.0, bar, out=out)
    else:
        np.multiply(1.0 + gamma, bar, out=out)
        prev = np.multiply(gamma, prev, out=tmp)
    return np.subtract(out, prev, out=out)


def _reflect(w_bar: Iterate, w: Iterate, cfg: EngineConfig, work: StepWorkspace) -> Iterate:
    """w_hat for the step's reflection factor, into ``work.hat``; factor
    0 returns w_bar itself.

    ``work.hat.x`` must already hold 2 x_bar - x, which full reflection
    keeps as its x block.
    """
    gamma = cfg.reflection
    if gamma == 0.0:
        return w_bar
    if gamma == 1.0:
        _reflect_into(work.hat.zy, w_bar.zy, w.zy, gamma, None)
    else:
        _reflect_into(work.hat.buf, w_bar.buf, w.buf, gamma, work.tmp.buf)
    return work.hat


def _sum_squares(v: np.ndarray) -> float:
    """<v, v> through BLAS ddot, which, unlike np.dot, sets off no numpy
    overflow warning when the sum exceeds the float range."""
    return ddot(v, v) if v.size else 0.0


def pr_step(
    w: Iterate,
    prob: LpProblem,
    cfg: EngineConfig,
    normal_eq: NormalEquationSolver | None = None,
    work: StepWorkspace | None = None,
) -> PrStepTrace:
    """One proximal-reflection step at w.

    With ``cfg.t1_zero_path`` and a prepared ``normal_eq`` solver the
    y-step is computed exactly through A A^T and ``zeta`` is None.
    The step writes w_bar and w_hat into ``work`` (a new workspace when
    None); see ``PrStepTrace`` for what a later step overwrites.
    Raises ArithmeticError when the step produces non-finite values, and
    ValueError when the proximal y-step finds ``cfg.lambda_A`` unresolved.
    """
    if work is None:
        work = StepWorkspace(*prob.A.shape)
    bar = work.bar
    sigma = cfg.sigma
    xi = prob.A.rmatvec(w.y)
    np.subtract(xi, prob.c, out=xi)
    np.multiply(sigma, xi, out=xi)
    np.add(w.x, xi, out=xi)
    project_box(xi, prob.l_var, prob.u_var, out=bar.x)
    np.subtract(bar.x, xi, out=bar.z)
    np.divide(bar.z, sigma, out=bar.z)
    # 2 x_bar - x: the row product's argument and, under full reflection, x_hat
    x2 = _reflect_into(work.hat.x, bar.x, w.x, 1.0, None)

    if cfg.t1_zero_path and normal_eq is not None:
        zeta = ax2 = None
        np.copyto(bar.y, y_update_t1_zero(bar.z, bar.x, prob, sigma, normal_eq))
    else:
        if cfg.lambda_A is None:
            raise ValueError("lambda_A is unresolved; the proximal y-step needs a value")
        slam = sigma * cfg.lambda_A
        ax2 = prob.A.matvec(x2)
        zeta = np.subtract(ax2, np.multiply(slam, w.y, out=work.tmp.y))
        project_box(zeta, prob.l_con, prob.u_con, out=bar.y)
        np.subtract(bar.y, zeta, out=bar.y)
        np.divide(bar.y, slam, out=bar.y)

    w_hat = _reflect(bar, w, cfg, work)

    guard = _sum_squares(w_hat.x) + _sum_squares(w_hat.y)
    if not guard < _DIVERGENCE_GUARD:
        raise ArithmeticError("iterate diverged (non-finite or overflowing step)")
    return PrStepTrace(xi=xi, zeta=zeta, ax2=ax2, w_bar=bar, w_hat=w_hat)


def halpern_step(
    w_anchor: Iterate, w_hat: Iterate, t: int, out: Iterate | None = None
) -> Iterate:
    """Anchored average 1/(t+2) * w_anchor + (t+1)/(t+2) * w_hat.

    Computed as w_anchor + (t+1)/(t+2) * (w_hat - w_anchor), which is
    exact when the two points coincide.  The result is written into
    ``out`` (a new iterate when None), which may be w_hat or the
    iterate the step started from, but must not share memory with
    w_anchor.
    """
    if t < 0:
        raise ValueError(f"step counter must be >= 0, got {t}")
    if out is None:
        out = Iterate.empty(w_anchor.y.size, w_anchor.x.size)
    beta = (t + 1.0) / (t + 2.0)
    a, o = w_anchor.buf, out.buf
    np.subtract(w_hat.buf, a, out=o)
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
