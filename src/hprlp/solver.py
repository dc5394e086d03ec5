"""Restarted solve driver with scaling, penalty updates and tracing.

The driver runs inner loops of reflection steps with anchored
averaging.  Each inner loop starts from the latest restart point, which
doubles as the anchor.  A loop ends when the step-length merit decays
enough, stalls, or the loop grows too long relative to the global
iteration count; the proximal point of the last step becomes the next
start, and the penalty parameter is re-fit to the observed primal/dual
displacements.  The global iteration counter never resets.

Termination is decided on the proximal (bar) sequence against the
relative gap / primal / dual measures of the ORIGINAL, unscaled data,
every ``check_interval`` iterations and at restarts.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .adaptive import (
    MNormContext,
    RestartConfig,
    RestartReason,
    SigmaUpdateInputs,
    check_restart,
    m_norm,
    sigma_update,
)
from .engine import (
    EngineConfig,
    EprAverages,
    NormalEquationSolver,
    StepWorkspace,
    epr_accumulate,
    halpern_step,
    pr_step,
)
from .model import (
    Iterate,
    LpProblem,
    dual_objective,
    kkt_residual,
    project_box,
    relative_residuals,
)
from .sparse import SparseMatrix, estimate_lambda_A

__all__ = [
    "SolverConfig",
    "SolveResult",
    "TraceRecord",
    "RestartEvent",
    "RuizScaling",
    "ComplexityReport",
    "solve",
    "apply_scaling",
    "unscale_iterate",
    "scale_iterate",
    "complexity_diagnostics",
]

_DIVERGENCE_NORM = 1e12


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the solve driver.

    engine.sigma and engine.lambda_A act as overrides: the driver
    manages sigma starting from ``sigma0`` and estimates lambda_A from
    the (scaled) matrix when the override is None.
    """

    tol: float = 1e-8
    time_limit: float = float("inf")
    iter_limit: int = 1_000_000
    check_interval: int = 100
    engine: EngineConfig = field(default_factory=lambda: EngineConfig(lambda_A=None))
    restart: RestartConfig = field(default_factory=RestartConfig)
    sigma0: float = 1.0
    adaptive_sigma: bool = True
    scaling: str = "ruiz"
    ruiz_iters: int = 10
    lambda_safety: float = 1.05
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
        if not self.sigma0 > 0.0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")
        if self.scaling not in ("none", "ruiz"):
            raise ValueError(f"scaling must be 'none' or 'ruiz', got {self.scaling!r}")
        if self.ruiz_iters < 0:
            raise ValueError(f"ruiz_iters must be >= 0, got {self.ruiz_iters}")
        if not self.lambda_safety >= 1.0:
            raise ValueError(f"lambda_safety must be >= 1, got {self.lambda_safety}")


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
    def rel_residuals(self) -> tuple[float, float, float]:
        return (self.rel_gap, self.rel_primal, self.rel_dual)


# ---------------------------------------------------------------------
# scaling


@dataclass(frozen=True)
class RuizScaling:
    """Positive diagonal scalings: the working matrix is
    diag(row) @ A @ diag(col)."""

    row: np.ndarray
    col: np.ndarray

    @classmethod
    def identity(cls, m: int, n: int) -> "RuizScaling":
        return cls(np.ones(m), np.ones(n))

    @property
    def is_identity(self) -> bool:
        return bool(np.all(self.row == 1.0) and np.all(self.col == 1.0))


def _sparse_row_abs_max(W: sp.csr_matrix) -> np.ndarray:
    out = np.ones(W.shape[0])
    absW = sp.csr_matrix(
        (np.abs(W.data), W.indices, W.indptr), shape=W.shape
    )
    mx = absW.max(axis=1).toarray().ravel()
    nz = mx > 0.0
    out[nz] = mx[nz]
    return out


def apply_scaling(
    prob: LpProblem, method: str = "ruiz", ruiz_iters: int = 10
) -> tuple[LpProblem, RuizScaling]:
    """Equilibrate the problem; returns the scaled copy and the diagonals.

    "ruiz": sqrt row/column max-magnitude sweeps (default 10) followed
    by one column 2-norm pass.  "none" returns the problem unchanged
    with identity diagonals.  Bounds, objective and multipliers
    transform so the scaled problem is equivalent:

        A_s = Dr A Dc,   l/u_con_s = Dr l/u_con,   c_s = Dc c,
        l/u_var_s = l/u_var / Dc,   x = Dc x_s,  y = Dr y_s,  z = z_s / Dc.
    """
    m, n = prob.A.shape
    ident = RuizScaling.identity(m, n)
    if method == "none":
        return prob, ident
    if method != "ruiz":
        raise ValueError(f"unknown scaling method {method!r}")
    if prob.A.nnz == 0 or m == 0 or n == 0:
        return prob, ident

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
    return Iterate(w.y * scaling.row, w.z / scaling.col, w.x * scaling.col)


def scale_iterate(w: Iterate, scaling: RuizScaling) -> Iterate:
    """Map an original-space iterate into the working space."""
    return Iterate(w.y / scaling.row, w.z * scaling.col, w.x / scaling.col)


# ---------------------------------------------------------------------
# solve driver


class _Best:
    """Best point seen at any checkpoint, by worst relative residual."""

    def __init__(self):
        self.score = float("inf")
        self.w: Iterate | None = None
        self.residuals = (float("inf"), float("inf"), float("inf"))

    def offer(self, w: Iterate, residuals: tuple[float, float, float]):
        score = max(residuals)
        if self.w is not None and not score < self.score:
            return
        self.score = score
        self.w = w
        self.residuals = residuals


def _assign(dst: Iterate, src: Iterate):
    np.copyto(dst.y, src.y)
    np.copyto(dst.z, src.z)
    np.copyto(dst.x, src.x)


def _report(
    prob: LpProblem,
    status: str,
    w: Iterate,
    residuals: tuple[float, float, float],
    iterations: int,
    restarts: int,
    started: float,
    trace: list[TraceRecord],
    events: list[RestartEvent],
    message: str = "",
) -> SolveResult:
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
        solve_seconds=time.perf_counter() - started,
        trace=tuple(trace),
        events=tuple(events),
        message=message,
    )


def solve(prob: LpProblem, cfg: SolverConfig | None = None) -> SolveResult:
    """Solve the LP to the configured relative tolerance.

    Returns status "optimal" when the gap, primal and dual measures on
    the original data all fall below ``cfg.tol``; "iter_limit" /
    "time_limit" return the best checkpoint seen so far;
    "numerical_error" flags divergence (reflection modes without an
    anchor can and do diverge).
    """
    cfg = cfg or SolverConfig()
    started = time.perf_counter()

    work, scaling = (
        apply_scaling(prob, "ruiz", cfg.ruiz_iters)
        if cfg.scaling == "ruiz"
        else (prob, RuizScaling.identity(prob.m, prob.n))
    )
    m, n = work.A.shape

    # resolve lambda_A against the working matrix
    if work.A.nnz == 0:
        lam = 1.0
    elif cfg.engine.lambda_A is not None:
        lam = float(cfg.engine.lambda_A)
        est = estimate_lambda_A(work.A, safety=1.0)
        if lam < est * (1.0 - 5e-4):
            raise ValueError(
                f"lambda_A={lam} is below the operator-norm estimate {est:.6g}"
            )
    else:
        lam = estimate_lambda_A(work.A, safety=cfg.lambda_safety)

    # normal-equations path only for pure equality rows
    normal_eq = None
    t1_active = False
    message = ""
    if cfg.engine.t1_zero_path and work.rows_are_equalities() and m > 0:
        try:
            normal_eq = NormalEquationSolver(work.A)
            t1_active = True
        except ValueError as exc:
            message = f"normal-equations path unavailable ({exc}); using proximal y-step"

    mode = cfg.engine.mode
    anchored = mode in ("hpr", "hdr", "rhpdhg")
    sigma = float(cfg.sigma0)
    ecfg = dataclasses.replace(
        cfg.engine, sigma=sigma, lambda_A=lam, t1_zero_path=t1_active
    )
    mctx = MNormContext(sigma, lam, work.A, t1_zero=t1_active)

    if cfg.initial_iterate is not None:
        w = scale_iterate(cfg.initial_iterate, scaling)
    else:
        x0 = project_box(np.zeros(n), work.l_var, work.u_var)
        w = Iterate(np.zeros(m), np.zeros(n), x0)

    trace: list[TraceRecord] = []
    events: list[RestartEvent] = []
    best = _Best()

    def checkpoint(wb_work: Iterate, k: int, r: int, t: int, merit: float):
        """Evaluate a candidate on the original data; returns the
        residual triple after logging."""
        wb = unscale_iterate(wb_work, scaling)
        res = relative_residuals(wb, prob)
        best.offer(wb, res)
        trace.append(
            TraceRecord(
                k=k,
                r=r,
                t=t,
                sigma=sigma,
                rel_gap=res[0],
                rel_primal=res[1],
                rel_dual=res[2],
                merit=merit,
                seconds=time.perf_counter() - started,
            )
        )
        return res, wb

    if cfg.iter_limit == 0:
        res0 = relative_residuals(unscale_iterate(w, scaling), prob)
        best.offer(unscale_iterate(w, scaling), res0)
        return _report(
            prob, "iter_limit", best.w, best.residuals, 0, 0, started, trace, events,
            "iteration limit is zero",
        )

    k = 0
    r = 0
    averages = EprAverages.start(w) if mode == "epr" else None

    # every vector of the loop, allocated once: the iterate w (which the
    # anchored average overwrites), the restart point, the step's
    # workspace, and w - w_hat for the merit (whose z block it ignores)
    step_work = StepWorkspace(m, n)
    anchor = w.copy()
    diff = Iterate(np.empty(m), np.empty(0), np.empty(n))

    while True:
        merit0 = 0.0
        merit_prev = 0.0
        t = 0
        restarted = False
        while True:
            try:
                step = pr_step(w, work, ecfg, normal_eq, step_work)
            except ArithmeticError as exc:
                if best.w is None:
                    inf3 = (float("inf"), float("inf"), float("inf"))
                    best.offer(unscale_iterate(w, scaling), inf3)
                return _report(
                    prob, "numerical_error", best.w, best.residuals, k, r,
                    started, trace, events, str(exc),
                )
            np.subtract(w.y, step.w_hat.y, out=diff.y)
            np.subtract(w.x, step.w_hat.x, out=diff.x)
            merit = m_norm(diff, mctx)
            if t == 0:
                merit0 = merit
                merit_prev = merit

            if anchored:
                halpern_step(anchor, step.w_hat, t, out=w)
            else:  # pr / epr: pure reflection
                _assign(w, step.w_hat)
            t += 1
            k += 1
            if mode == "epr":
                averages = epr_accumulate(averages, step.w_bar, w, averages.n_bar + 1)

            candidate = averages.w_bar_avg if mode == "epr" else step.w_bar

            reason = RestartReason.NONE
            if mode != "pr":
                reason = check_restart(merit0, merit_prev, merit, t, k, cfg.restart)
            merit_prev = merit

            hit_iter = k >= cfg.iter_limit
            due = (k % cfg.check_interval == 0) or hit_iter or reason != RestartReason.NONE
            if due:
                res, wb = checkpoint(candidate, k, r, t, merit)
                if max(res) <= cfg.tol:
                    return _report(
                        prob, "optimal", wb, res, k, r, started, trace, events, message
                    )
                if candidate.max_abs() > _DIVERGENCE_NORM:
                    return _report(
                        prob, "numerical_error", best.w, best.residuals, k, r,
                        started, trace, events, "iterate norm exceeded 1e12",
                    )
                if hit_iter:
                    return _report(
                        prob, "iter_limit", best.w, best.residuals, k, r,
                        started, trace, events, message,
                    )
                if time.perf_counter() - started > cfg.time_limit:
                    return _report(
                        prob, "time_limit", best.w, best.residuals, k, r,
                        started, trace, events, message,
                    )

            if reason != RestartReason.NONE:
                tau = t
                sigma_old = sigma
                if cfg.adaptive_sigma:
                    dx = float(np.linalg.norm(candidate.x - anchor.x))
                    dy_vec = candidate.y - anchor.y
                    if t1_active:
                        dy = float(np.linalg.norm(work.A.rmatvec(dy_vec)))
                    else:
                        dy = float(np.sqrt(lam)) * float(np.linalg.norm(dy_vec))
                    sigma = sigma_update(
                        SigmaUpdateInputs(
                            delta_x=dx,
                            delta_y=dy,
                            x_scale=float(np.linalg.norm(candidate.x)),
                            y_scale=float(np.linalg.norm(candidate.y)),
                        ),
                        sigma_old,
                    )
                    if sigma != sigma_old:
                        ecfg = ecfg.with_sigma(sigma)
                        mctx = mctx.with_sigma(sigma)
                events.append(
                    RestartEvent(
                        k=k, r=r, tau=tau, reason=reason.value,
                        sigma_before=sigma_old, sigma_after=sigma,
                    )
                )
                _assign(w, candidate)
                _assign(anchor, candidate)
                if mode == "epr":
                    averages = EprAverages.start(w)
                r += 1
                restarted = True
                break
        if not restarted:  # pragma: no cover - inner loop only exits via return/restart
            break


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
    ctx = MNormContext(cfg.sigma, cfg.lambda_A, prob.A)
    r0 = m_norm(w0 - w_star, ctx)
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
        ratios_step[k] = _safe_ratio(m_norm(wb - w, ctx), inv)
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
