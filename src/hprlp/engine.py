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

Variants: "hdr" drops the reflection (w_hat = w_bar), "pr" drops the
anchor (pure reflection steps), "epr" runs pure reflection steps while
tracking ergodic averages, and "rhpdhg" scales the reflection by a
relaxation factor gamma in [0, 1] (gamma = 1 recovers "hpr").

When every row is an equality A x = b, an exact y-update through the
normal equations A A^T y_bar = rhs replaces the zeta/projection route
(``t1_zero_path``).

``pr_step`` and ``halpern_step`` write their results into preallocated
vectors (a ``StepWorkspace`` and an ``out`` iterate) with numpy ``out=``
updates, in the same operations and order as the formulas above, so a
run on reused buffers is bit-identical to one on fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot

from .model import Iterate, LpProblem, project_box
from .sparse import SparseMatrix

__all__ = [
    "EngineConfig",
    "PrStepTrace",
    "StepWorkspace",
    "ActiveSets",
    "EprAverages",
    "FrozenAffineMap",
    "NormalEquationSolver",
    "pr_step",
    "halpern_step",
    "epr_accumulate",
    "rhpdhg_step",
    "y_update_t1_zero",
    "identify_active_sets",
    "frozen_affine_map",
]

MODES = ("hpr", "hdr", "pr", "epr", "rhpdhg")

# magnitude at which the squared iterate norm is declared divergent
_DIVERGENCE_GUARD = 1e300


@dataclass(frozen=True)
class EngineConfig:
    """Parameters of one inner iteration.

    sigma        : penalty parameter, > 0.
    lambda_A     : proximal shift, must dominate ||A||_2^2; None lets
                   the solve driver fit it from an operator-norm
                   estimate.
    mode         : one of "hpr", "hdr", "pr", "epr", "rhpdhg".
    gamma        : reflection factor for mode "rhpdhg", in [0, 1].
    t1_zero_path : solve the y-step through A A^T normal equations
                   (equality-row problems only).
    """

    sigma: float = 1.0
    lambda_A: float | None = 1.0
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

    def with_sigma(self, sigma: float) -> "EngineConfig":
        return replace(self, sigma=sigma)


@dataclass(frozen=True, eq=False)
class PrStepTrace:
    """Intermediates of one step: the pre-projection points xi / zeta,
    the proximal point w_bar, and the reflected point w_hat.

    zeta is None on the normal-equations path, where no row projection
    is formed.  xi and zeta are new arrays on every step.  w_bar and
    w_hat are the ``bar`` and ``hat`` iterates of the step's workspace
    (w_hat is w_bar itself in mode "hdr"): the next ``pr_step`` on the
    same workspace overwrites them.  A step called without a workspace
    gets one of its own, so its trace is never overwritten.
    """

    xi: np.ndarray
    zeta: np.ndarray | None
    w_bar: Iterate
    w_hat: Iterate


class StepWorkspace:
    """Preallocated vectors of ``pr_step`` for an m x n problem.

    ``bar`` receives the proximal point w_bar, ``hat`` the reflected
    point w_hat (its x block first holds 2 x_bar - x, the argument of
    the row product, which full reflection keeps as x_hat), and
    ``tmp_m`` / ``tmp_n`` are scratch.  The iterate a step starts from
    must not share memory with any of them.
    """

    __slots__ = ("bar", "hat", "tmp_m", "tmp_n")

    def __init__(self, m: int, n: int):
        self.bar = Iterate(np.empty(m), np.empty(n), np.empty(n))
        self.hat = Iterate(np.empty(m), np.empty(n), np.empty(n))
        self.tmp_m = np.empty(m)
        self.tmp_n = np.empty(n)


@dataclass(frozen=True, eq=False)
class ActiveSets:
    """Indices of box faces hit by the projections in one step.

    i_c holds variable indices where proj_C landed on a finite bound,
    i_k row indices where proj_K landed on a finite bound; c_values /
    k_values are the corresponding bound values.  Ties (both bounds
    equal) count as active.
    """

    i_c: np.ndarray
    i_k: np.ndarray
    c_values: np.ndarray
    k_values: np.ndarray

    def same_as(self, other: "ActiveSets") -> bool:
        return (
            np.array_equal(self.i_c, other.i_c)
            and np.array_equal(self.i_k, other.i_k)
            and np.array_equal(self.c_values, other.c_values)
            and np.array_equal(self.k_values, other.k_values)
        )


class NormalEquationSolver:
    """Cached dense Cholesky factorization of A A^T for equality rows.

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
        gram = A.transpose_dot_self_dense()
        try:
            self._factor = scipy.linalg.cho_factor(gram, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise ValueError(f"A A^T is not positive definite: {exc}") from exc
        self._gram = gram

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A A^T y = rhs with one round of iterative refinement so
        the residual stays below 1e-10 * (1 + ||rhs||).

        Raises ArithmeticError when that bound is not reached, which
        includes every rhs with a NaN or infinite entry.
        """
        # the factor was checked when it was made; rhs is checked by tol
        y = scipy.linalg.cho_solve(self._factor, rhs, check_finite=False)
        tol = 1e-10 * (1.0 + float(np.linalg.norm(rhs)))
        if not math.isfinite(tol):
            raise ArithmeticError("normal-equations right-hand side is not finite")
        for _ in range(2):
            resid = rhs - self._gram @ y
            if float(np.linalg.norm(resid)) <= tol:
                return y
            y = y + scipy.linalg.cho_solve(self._factor, resid, check_finite=False)
        resid = rhs - self._gram @ y
        if not float(np.linalg.norm(resid)) <= tol:
            raise ArithmeticError(
                "normal-equations solve failed to reach residual tolerance"
            )
        return y


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
    """w_hat for the step's mode, into ``work.hat``; "hdr" returns w_bar.

    ``work.hat.x`` must already hold 2 x_bar - x, which full reflection
    keeps as its x block.
    """
    if cfg.mode == "hdr":
        return w_bar
    # hpr / pr / epr: full reflection; rhpdhg: relaxed by gamma
    gamma = cfg.gamma if cfg.mode == "rhpdhg" else 1.0
    hat = work.hat
    _reflect_into(hat.y, w_bar.y, w.y, gamma, work.tmp_m)
    _reflect_into(hat.z, w_bar.z, w.z, gamma, work.tmp_n)
    if gamma != 1.0:
        _reflect_into(hat.x, w_bar.x, w.x, gamma, work.tmp_n)
    return hat


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
    Raises ArithmeticError when the step produces non-finite values.
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
        zeta = None
        np.copyto(bar.y, y_update_t1_zero(bar.z, bar.x, prob, sigma, normal_eq))
    else:
        slam = sigma * cfg.lambda_A
        zeta = prob.A.matvec(x2)
        np.subtract(zeta, np.multiply(slam, w.y, out=work.tmp_m), out=zeta)
        project_box(zeta, prob.l_con, prob.u_con, out=bar.y)
        np.subtract(bar.y, zeta, out=bar.y)
        np.divide(bar.y, slam, out=bar.y)

    w_hat = _reflect(bar, w, cfg, work)

    guard = _sum_squares(w_hat.x) + _sum_squares(w_hat.y)
    if not guard < _DIVERGENCE_GUARD:
        raise ArithmeticError("iterate diverged (non-finite or overflowing step)")
    return PrStepTrace(xi=xi, zeta=zeta, w_bar=bar, w_hat=w_hat)


def halpern_step(
    w_anchor: Iterate, w_hat: Iterate, t: int, out: Iterate | None = None
) -> Iterate:
    """Anchored average 1/(t+2) * w_anchor + (t+1)/(t+2) * w_hat.

    Computed as w_anchor + (t+1)/(t+2) * (w_hat - w_anchor), which is
    exact when the two points coincide.  The result is written into
    ``out`` (new arrays when None), which may be w_hat or the iterate
    the step started from, but must not share memory with w_anchor.
    """
    if t < 0:
        raise ValueError(f"step counter must be >= 0, got {t}")
    if out is None:
        out = Iterate(np.empty(np.shape(w_anchor.y)), np.empty(np.shape(w_anchor.z)),
                      np.empty(np.shape(w_anchor.x)))
    beta = (t + 1.0) / (t + 2.0)
    for a, h, o in ((w_anchor.y, w_hat.y, out.y), (w_anchor.z, w_hat.z, out.z),
                    (w_anchor.x, w_hat.x, out.x)):
        np.subtract(h, a, out=o)
        np.multiply(beta, o, out=o)
        np.add(a, o, out=o)
    return out


@dataclass(frozen=True, eq=False)
class EprAverages:
    """Uniform running means of the proximal points and of the reflection
    iterates.  The iterate mean is seeded with the start point, so after
    k+1 steps it averages w^0 .. w^{k+1}; the proximal mean averages
    w_bar^1 .. w_bar^{k+1}."""

    w_bar_avg: Iterate | None
    w_avg: Iterate
    n_bar: int

    @classmethod
    def start(cls, w0: Iterate) -> "EprAverages":
        return cls(w_bar_avg=None, w_avg=w0.copy(), n_bar=0)


def _mean_update(avg: Iterate, v: Iterate, count: int) -> Iterate:
    inv = 1.0 / count
    return Iterate(
        avg.y + inv * (v.y - avg.y),
        avg.z + inv * (v.z - avg.z),
        avg.x + inv * (v.x - avg.x),
    )


def epr_accumulate(
    state: EprAverages, w_bar: Iterate, w: Iterate, count: int
) -> EprAverages:
    """Fold the step's (w_bar, w) pair into the running means.

    ``count`` is the number of steps taken so far including this one;
    it must advance by exactly one per call.
    """
    if count != state.n_bar + 1:
        raise ValueError(f"count must be {state.n_bar + 1}, got {count}")
    if state.w_bar_avg is None:
        bar_avg = w_bar.copy()
    else:
        bar_avg = _mean_update(state.w_bar_avg, w_bar, count)
    w_avg = _mean_update(state.w_avg, w, count + 1)
    return EprAverages(w_bar_avg=bar_avg, w_avg=w_avg, n_bar=count)


def rhpdhg_step(
    u: tuple[np.ndarray, np.ndarray],
    u0: tuple[np.ndarray, np.ndarray],
    prob: LpProblem,
    eta: float,
    omega: float,
    gamma: float,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One reflected primal-dual step with anchored averaging.

    For the state u = (y, x):

        x_bar  = proj_C(x - (eta/omega) (c - A^T y))
        q      = A (2 x_bar - x)
        y_bar  = y - eta*omega*q - eta*omega * proj_{-K}(y/(eta*omega) - q)
        u_next = (k+1)/(k+2) * ((1+gamma) (y_bar, x_bar) - gamma u)
                 + 1/(k+2) * u0

    With gamma = 1, step sizes eta/omega matching sigma = eta/omega and
    lambda_A = 1/eta^2, the (y, x) trajectory coincides with the one
    generated by ``pr_step`` + ``halpern_step``.
    """
    if eta <= 0.0 or omega <= 0.0:
        raise ValueError("step sizes eta and omega must be positive")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    y, x = u
    y0, x0 = u0
    x_bar = project_box(
        x - (eta / omega) * (prob.c - prob.A.rmatvec(y)), prob.l_var, prob.u_var
    )
    q = prob.A.matvec(2.0 * x_bar - x)
    ew = eta * omega
    # proj onto -K = [-u_con, -l_con]
    y_bar = y - ew * q - ew * project_box(y / ew - q, -prob.u_con, -prob.l_con)
    wk = (k + 1.0) / (k + 2.0)
    w0 = 1.0 / (k + 2.0)
    y_next = wk * ((1.0 + gamma) * y_bar - gamma * y) + w0 * y0
    x_next = wk * ((1.0 + gamma) * x_bar - gamma * x) + w0 * x0
    return y_next, x_next


def identify_active_sets(trace: PrStepTrace, prob: LpProblem) -> ActiveSets:
    """Faces hit by the two projections in a step.

    A component is active when the projected point equals a finite
    bound (exact comparison; clipping returns bound values exactly).
    Requires the zeta route, i.e. not the normal-equations path.
    """
    if trace.zeta is None:
        raise ValueError("active sets are undefined on the normal-equations path")
    x_bar = trace.w_bar.x
    at_lo = np.isfinite(prob.l_var) & (x_bar == prob.l_var)
    at_hi = np.isfinite(prob.u_var) & (x_bar == prob.u_var)
    i_c = np.flatnonzero(at_lo | at_hi)
    c_values = x_bar[i_c].copy()

    pk = project_box(trace.zeta, prob.l_con, prob.u_con)
    at_lo_k = np.isfinite(prob.l_con) & (pk == prob.l_con)
    at_hi_k = np.isfinite(prob.u_con) & (pk == prob.u_con)
    i_k = np.flatnonzero(at_lo_k | at_hi_k)
    k_values = pk[i_k].copy()
    return ActiveSets(i_c=i_c, i_k=i_k, c_values=c_values, k_values=k_values)


@dataclass(frozen=True, eq=False)
class FrozenAffineMap:
    """The step map w -> w_hat with both projections frozen to fixed
    faces, which makes it affine.  The map is applied through
    matrix-vector products; ``offset`` is its value at zero."""

    active: ActiveSets
    prob: LpProblem
    cfg: EngineConfig

    def _proj_c(self, v: np.ndarray) -> np.ndarray:
        out = v.copy()
        out[self.active.i_c] = self.active.c_values
        return out

    def _proj_k(self, v: np.ndarray) -> np.ndarray:
        out = v.copy()
        out[self.active.i_k] = self.active.k_values
        return out

    def __call__(self, w: Iterate) -> Iterate:
        prob, cfg = self.prob, self.cfg
        work = StepWorkspace(*prob.A.shape)
        sigma = cfg.sigma
        xi = w.x + sigma * (prob.A.rmatvec(w.y) - prob.c)
        x_bar = self._proj_c(xi)
        z_bar = (x_bar - xi) / sigma
        slam = sigma * cfg.lambda_A
        x2 = _reflect_into(work.hat.x, x_bar, w.x, 1.0, None)
        zeta = prob.A.matvec(x2) - slam * w.y
        y_bar = (self._proj_k(zeta) - zeta) / slam
        w_bar = Iterate(y_bar, z_bar, x_bar)
        return _reflect(w_bar, w, cfg, work)

    @property
    def offset(self) -> Iterate:
        """Value of the map at the zero iterate."""
        m, n = self.prob.A.shape
        return self(Iterate.zeros(m, n))

    def apply_linear(self, w: Iterate) -> Iterate:
        """Linear part: F(w) - F(0)."""
        off = self.offset
        fw = self(w)
        return Iterate(fw.y - off.y, fw.z - off.z, fw.x - off.x)


def frozen_affine_map(
    active: ActiveSets, prob: LpProblem, cfg: EngineConfig
) -> FrozenAffineMap:
    """Affine restriction of the step map to the given active faces.

    Agrees with ``pr_step`` at every point whose own active sets equal
    ``active``.
    """
    if cfg.t1_zero_path:
        raise ValueError("frozen maps are defined for the zeta route only")
    return FrozenAffineMap(active=active, prob=prob, cfg=cfg)
