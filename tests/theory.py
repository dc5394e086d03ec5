"""Theory-checking helpers: code that verifies the paper's claims about
the iteration and is not part of the solver.

- ``rhpdhg_step``: the reflected primal-dual form of the anchored step,
  which criterion 3 checks against ``pr_step`` + ``halpern_step``;
- ``identify_active_sets`` / ``frozen_affine_map``: the step restricted to
  fixed projection faces, an affine map on which criterion 4 checks the
  Halpern/Picard identity and criterion 6 the hpr/epr equivalence;
- ``complexity_diagnostics``: the O(1/k) bounds of criterion 5, which
  read the KKT residual (``kkt_residual`` / ``KktResidual``);
- ``primal_objective``: <c, x> plus the constant, for the model tests;
- ``IterateMean``: the running mean of the reflection iterates, which
  criterion 6 compares with the anchored iterates;
- ``product_form_scaling``: Ruiz scaling written as scipy matrix
  products, the reference that ``apply_scaling`` must equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from hprlp import EngineConfig, Iterate, LpProblem, SparseMatrix
from hprlp.adaptive import m_norm
from hprlp.engine import PrStepTrace, halpern_step, pr_step
from hprlp.model import dual_objective, project_box
from hprlp.solver import RuizScaling
from hprlp.sparse import estimate_lambda_A


# ---------------------------------------------------------------------
# KKT residual and objective


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


# ---------------------------------------------------------------------
# ergodic mean of the iterates


class IterateMean:
    """Uniform running mean of the reflection iterates w^0 .. w^k, seeded
    with the start point, as avg + (1 / count) (w - avg)."""

    def __init__(self, w0: Iterate):
        self.mean = w0.copy()
        self.count = 1

    def add(self, w: Iterate):
        self.count += 1
        self.mean = self.mean + (1.0 / self.count) * (w - self.mean)


# ---------------------------------------------------------------------
# reflected primal-dual form


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


# ---------------------------------------------------------------------
# active sets and the frozen affine map


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
    faces, which makes it affine.  It is ``pr_step`` on ``pinned``: the
    problem whose boxes are the single points of the active faces and
    free everywhere else.  ``offset`` is its value at zero."""

    pinned: LpProblem
    cfg: EngineConfig

    def __call__(self, w: Iterate) -> Iterate:
        return pr_step(w, self.pinned, self.cfg).w_hat

    @property
    def offset(self) -> Iterate:
        """Value of the map at the zero iterate."""
        m, n = self.pinned.A.shape
        return self(Iterate.zeros(m, n))

    def apply_linear(self, w: Iterate) -> Iterate:
        """Linear part: F(w) - F(0)."""
        off = self.offset
        fw = self(w)
        return Iterate(fw.y - off.y, fw.z - off.z, fw.x - off.x)


def _pinned_box(size: int, idx: np.ndarray, values: np.ndarray):
    lo = np.full(size, -np.inf)
    hi = np.full(size, np.inf)
    lo[idx] = values
    hi[idx] = values
    return lo, hi


def frozen_affine_map(
    active: ActiveSets, prob: LpProblem, cfg: EngineConfig
) -> FrozenAffineMap:
    """Affine restriction of the step map to the given active faces.

    Agrees with ``pr_step`` at every point whose own active sets equal
    ``active``.
    """
    if cfg.t1_zero_path:
        raise ValueError("frozen maps are defined for the zeta route only")
    l_var, u_var = _pinned_box(prob.n, active.i_c, active.c_values)
    l_con, u_con = _pinned_box(prob.m, active.i_k, active.k_values)
    pinned = replace(prob, l_con=l_con, u_con=u_con, l_var=l_var, u_var=u_var)
    return FrozenAffineMap(pinned=pinned, cfg=cfg)


# ---------------------------------------------------------------------
# complexity diagnostics


@dataclass(frozen=True)
class ComplexityReport:
    """Per-iteration violation ratios of the O(1/k) guarantees of the
    anchored method with fixed penalty: the weighted step norm, the KKT
    residual, and the two-sided dual objective-error bound.  A ratio is
    lhs / bound; values <= 1 mean the guarantee holds."""

    r0: float
    norm_a: float
    kkt_constant: float
    ratios_step: np.ndarray
    ratios_kkt: np.ndarray
    ratios_obj_upper: np.ndarray
    ratios_obj_lower: np.ndarray

    @property
    def max_ratio(self) -> float:
        parts = [
            r for r in (
                self.ratios_step, self.ratios_kkt,
                self.ratios_obj_upper, self.ratios_obj_lower,
            ) if r.size
        ]
        return float(max(np.max(p) for p in parts)) if parts else 0.0


def _operator_norm(A: SparseMatrix) -> float:
    m, n = A.shape
    if A.nnz == 0:
        return 0.0
    if min(m, n) <= 1500:
        return float(np.linalg.norm(A.to_dense(), 2))
    est = estimate_lambda_A(A, rel_tol=1e-6, safety=1.0)
    return float(np.sqrt(est) * (1.0 + 1e-6))


def _safe_ratio(lhs: float, rhs: float) -> float:
    if rhs > 0.0:
        return lhs / rhs
    return 0.0 if lhs <= 0.0 else float("inf")


def complexity_diagnostics(
    prob: LpProblem,
    cfg: EngineConfig,
    w0: Iterate,
    w_star: Iterate,
    num_iters: int,
) -> ComplexityReport:
    """Run ``num_iters`` anchored steps with fixed penalty (no restarts)
    and report how close each O(1/k) bound comes to being violated.

    w_star must be a solution (its dual support values must be finite);
    use a high-accuracy solve to produce it.
    """
    if cfg.mode != "hpr":
        raise ValueError("diagnostics cover the anchored full-reflection mode")
    if cfg.lambda_A is None:
        raise ValueError("cfg.lambda_A must be resolved")
    r0 = m_norm(w0 - w_star, cfg, prob.A)
    norm_a = _operator_norm(prob.A)
    sqrt_sigma = float(np.sqrt(cfg.sigma))
    kkt_c = (cfg.sigma * (norm_a + float(np.sqrt(cfg.lambda_A))) + 1.0) / sqrt_sigma
    dual_ref = dual_objective(w_star.y, w_star.z, prob)
    if not np.isfinite(dual_ref):
        raise ValueError("reference point has an infinite dual objective")
    x_star_term = float(np.linalg.norm(w_star.x)) / sqrt_sigma

    ratios_step = np.empty(num_iters)
    ratios_kkt = np.empty(num_iters)
    ratios_up = np.empty(num_iters)
    ratios_lo = np.empty(num_iters)
    w = w0
    for k in range(num_iters):
        step = pr_step(w, prob, cfg)
        wb = step.w_bar
        inv = r0 / (k + 1.0)
        ratios_step[k] = _safe_ratio(m_norm(wb - w, cfg, prob.A), inv)
        ratios_kkt[k] = _safe_ratio(kkt_residual(wb, prob).norm, kkt_c * inv)
        h = dual_objective(wb.y, wb.z, prob) - dual_ref
        if h >= 0.0:
            ratios_up[k] = _safe_ratio(h, (3.0 * r0 + x_star_term) * inv)
            ratios_lo[k] = 0.0
        else:
            ratios_up[k] = 0.0
            ratios_lo[k] = _safe_ratio(-h, x_star_term * inv)
        w = halpern_step(w0, step.w_hat, k)
    return ComplexityReport(
        r0=r0,
        norm_a=norm_a,
        kkt_constant=kkt_c,
        ratios_step=ratios_step,
        ratios_kkt=ratios_kkt,
        ratios_obj_upper=ratios_up,
        ratios_obj_lower=ratios_lo,
    )


# ---------------------------------------------------------------------
# Ruiz scaling as matrix products


def _sparse_row_abs_max(W: sp.csr_matrix) -> np.ndarray:
    out = np.ones(W.shape[0])
    absW = sp.csr_matrix(
        (np.abs(W.data), W.indices, W.indptr), shape=W.shape
    )
    mx = absW.max(axis=1).toarray().ravel()
    nz = mx > 0.0
    out[nz] = mx[nz]
    return out


def product_form_scaling(
    prob: LpProblem, ruiz_iters: int = 10
) -> tuple[LpProblem, RuizScaling]:
    """``apply_scaling(prob, "ruiz", ruiz_iters)`` with every sweep
    written as scipy products ``diags(1/r) @ W @ diags(1/c)``."""
    m, n = prob.A.shape
    if prob.A.nnz == 0 or m == 0 or n == 0:
        return prob, RuizScaling.identity(m, n)

    W = prob.A.to_csr().copy()
    row_acc = np.ones(m)
    col_acc = np.ones(n)
    for _ in range(ruiz_iters):
        rmax = _sparse_row_abs_max(W)
        cmax = _sparse_row_abs_max(sp.csr_matrix(W.T))
        if np.max(np.abs(1.0 - rmax)) <= 1e-8 and np.max(np.abs(1.0 - cmax)) <= 1e-8:
            break
        r = np.sqrt(rmax)
        c = np.sqrt(cmax)
        W = sp.diags(1.0 / r) @ W @ sp.diags(1.0 / c)
        W = sp.csr_matrix(W)
        row_acc /= r
        col_acc /= c
    # one column 2-norm pass
    cn = np.sqrt(np.asarray(W.multiply(W).sum(axis=0)).ravel())
    cn[cn == 0.0] = 1.0
    W = sp.csr_matrix(W @ sp.diags(1.0 / cn))
    col_acc /= cn

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
    return scaled, RuizScaling(row=row_acc, col=col_acc)
