import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import dtpsv

import hprlp.solver

from hprlp import EngineConfig, Iterate, LpProblem, SolverConfig, SparseMatrix, solve
from hprlp.adaptive import m_norm
from hprlp.engine import (
    MODES,
    NormalEquationSolver,
    StepWorkspace,
    epr_accumulate,
    halpern_step,
    pr_step,
    proximal_point,
    y_update_t1_zero,
)

from conftest import random_lp
from theory import (
    IterateMean,
    frozen_affine_map,
    identify_active_sets,
    minus,
    plus,
    reflected_point,
    rhpdhg_step,
    with_product,
)


def prob_corner():
    """min -x, row x in [0, 2], box x in [0, 1]; optimum at x = 1."""
    return LpProblem(
        c=[-1.0],
        A=SparseMatrix.from_dense([[1.0]]),
        l_con=[0.0],
        u_con=[2.0],
        l_var=[0.0],
        u_var=[1.0],
    )


def prob_row_active():
    """Zero objective with row bound [1, 2]; zeta projects onto the lower face."""
    return LpProblem(
        c=[0.0],
        A=SparseMatrix.from_dense([[1.0]]),
        l_con=[1.0],
        u_con=[2.0],
        l_var=[0.0],
        u_var=[5.0],
    )


# ---------------------------------------------------------------------------
# EngineConfig


def test_config_validation():
    with pytest.raises(ValueError, match="sigma"):
        EngineConfig(sigma=0.0)
    with pytest.raises(ValueError, match="lambda_A"):
        EngineConfig(lambda_A=-1.0)
    with pytest.raises(ValueError, match="mode"):
        EngineConfig(mode="nope")
    with pytest.raises(ValueError, match="gamma"):
        EngineConfig(gamma=1.5)


def test_config_mode_case_and_with_sigma():
    cfg = EngineConfig(mode="HPR")
    assert cfg.mode == "hpr"
    assert cfg.with_sigma(3.0).sigma == 3.0
    assert cfg.with_sigma(3.0).mode == "hpr"


@pytest.mark.parametrize(
    "mode, gamma, anchored, ergodic, restarts, reflection",
    [
        ("hpr", 1.0, True, False, True, 1.0),
        ("hdr", 1.0, True, False, True, 0.0),
        ("rhpdhg", 0.25, True, False, True, 0.25),
        ("pr", 1.0, False, False, False, 1.0),
        ("epr", 1.0, False, True, True, 1.0),
    ],
)
def test_config_resolves_mode_into_switches(mode, gamma, anchored, ergodic,
                                            restarts, reflection):
    cfg = EngineConfig(mode=mode.upper(), gamma=gamma).with_sigma(2.0)
    assert (cfg.anchored, cfg.ergodic, cfg.restarts, cfg.reflection) == (
        anchored, ergodic, restarts, reflection
    )


def test_config_allows_deferred_lambda():
    assert EngineConfig(lambda_A=None).lambda_A is None


def test_unresolved_lambda_is_the_default_and_the_proximal_step_rejects_it():
    assert EngineConfig().lambda_A is None
    with pytest.raises(ValueError, match="lambda_A is unresolved"):
        pr_step(Iterate.zeros(1, 1), prob_corner(), EngineConfig())
    # the normal-equations y-step does not read lambda_A
    prob = random_lp(np.random.default_rng(5), 6, 3, style="equality")
    cfg = EngineConfig(t1_zero_path=True)
    step = pr_step(with_product(Iterate.zeros(3, 6), np.zeros(6)), prob, cfg,
                   NormalEquationSolver(prob.A))
    assert step.zeta is None and np.isfinite(step.w_hat.y).all()


def test_normal_route_without_a_factor_is_refused():
    """``cfg.t1_zero_path`` alone picks the y-step, as it picks the
    merit's seminorm: without a factor the step raises, where it once
    took the proximal step and formed a z_bar that nothing read."""
    prob = random_lp(np.random.default_rng(5), 6, 3, style="equality")
    cfg = EngineConfig(lambda_A=50.0, t1_zero_path=True)
    with pytest.raises(ValueError, match="normal_eq"):
        pr_step(with_product(Iterate.zeros(3, 6), np.zeros(6)), prob, cfg)


# ---------------------------------------------------------------------------
# pr_step hand values


def test_pr_step_from_zero():
    prob = prob_corner()
    w = Iterate.zeros(1, 1)
    tr = pr_step(w, prob, EngineConfig(sigma=1.0, lambda_A=1.0))
    # xi = 0 + 1*(0 - (-1)) = 1 -> x_bar = 1, z_bar = 0
    npt.assert_array_equal(tr.xi, [1.0])
    npt.assert_array_equal(tr.w_bar.x, [1.0])
    npt.assert_array_equal(proximal_point(tr).z, [0.0])
    # zeta = A(2*1 - 0) - 0 = 2 (inside [0,2]) -> y_bar = 0
    npt.assert_array_equal(tr.zeta, [2.0])
    npt.assert_array_equal(tr.w_bar.y, [0.0])
    # full reflection
    npt.assert_array_equal(tr.w_hat.x, [2.0])
    npt.assert_array_equal(tr.w_hat.y, [0.0])


def test_pr_step_row_projection_active():
    prob = prob_row_active()
    tr = pr_step(Iterate.zeros(1, 1), prob, EngineConfig(sigma=1.0, lambda_A=1.0))
    # everything is zero until zeta = 0 projects up to the lower row bound 1
    npt.assert_array_equal(tr.xi, [0.0])
    npt.assert_array_equal(tr.zeta, [0.0])
    npt.assert_array_equal(tr.w_bar.y, [1.0])
    npt.assert_array_equal(tr.w_hat.y, [2.0])
    npt.assert_array_equal(tr.w_hat.x, [0.0])


def test_pr_step_general_parameters():
    # sigma = 2, lambda = 3, from w = (y, z, x) = (1, 0, 0.5)
    prob = prob_corner()
    w = Iterate(np.array([1.0]), np.array([0.0]), np.array([0.5]))
    cfg = EngineConfig(sigma=2.0, lambda_A=3.0)
    tr = pr_step(w, prob, cfg)
    npt.assert_array_equal(tr.xi, [4.5])          # 0.5 + 2*(1+1)
    npt.assert_array_equal(tr.w_bar.x, [1.0])     # clip to [0, 1]
    npt.assert_array_equal(proximal_point(tr).z, [-1.75])   # (1 - 4.5)/2
    npt.assert_array_equal(tr.zeta, [-4.5])       # 1*(2 - 0.5) - 6*1
    npt.assert_array_equal(tr.w_bar.y, [0.75])    # (0 + 4.5)/6
    npt.assert_array_equal(tr.w_hat.y, [0.5])
    npt.assert_array_equal(reflected_point(w, tr, cfg).z, [-3.5])
    npt.assert_array_equal(tr.w_hat.x, [1.5])


def test_pr_step_hdr_skips_reflection():
    prob = prob_corner()
    tr = pr_step(Iterate.zeros(1, 1), prob, EngineConfig(lambda_A=1.0, mode="hdr"))
    npt.assert_array_equal(tr.w_hat.x, tr.w_bar.x)
    npt.assert_array_equal(tr.w_hat.y, tr.w_bar.y)


def test_pr_step_relaxed_reflection():
    prob = prob_corner()
    w = Iterate.zeros(1, 1)
    tr = pr_step(w, prob, EngineConfig(lambda_A=1.0, mode="rhpdhg", gamma=0.5))
    # (1 + 0.5) * w_bar - 0.5 * w with w = 0
    npt.assert_array_equal(tr.w_hat.x, [1.5])


@pytest.mark.parametrize("mode", MODES)
def test_overflowing_step_ends_the_loop_at_its_first_merit(mode):
    """x = 1e160 projects to 1, so x - x_hat = 2e160 squares past the
    float range in the merit, and the first step ends the solve as
    numerical_error, with the warm start kept."""
    w0 = Iterate(np.array([0.0]), np.array([0.0]), np.array([1e160]))
    cfg = SolverConfig(initial_iterate=w0, engine=EngineConfig(mode=mode))
    res = solve(prob_corner(), cfg)
    assert res.status == "numerical_error" and res.iterations == 0
    assert "diverged" in res.message
    assert np.isfinite(res.y).all() and np.isfinite(res.x).all()


def test_overflow_after_a_step_reports_the_start():
    """On an equality LP with free variables the pr step is affine, and
    its difference w - w_hat alternates with one of equal seminorm but
    larger entries: from a warm start of 1e153 the first merit is finite
    and the second overflows, before the first checkpoint.  The solve
    ends numerical_error with the start point, unscaled and finite, as
    a solve with no step reports it, not the iterate the first step
    left."""
    inf = np.inf
    prob = LpProblem([2.0, 3.0], SparseMatrix.from_dense([[2.0, 3.0]]), [1.0], [1.0],
                     [-inf, -inf], [inf, inf])
    w0 = Iterate(np.array([1e153]), np.zeros(2), np.array([1e153, 0.0]))
    cfg = SolverConfig(initial_iterate=w0, engine=EngineConfig(mode="pr"))
    res = solve(prob, cfg)
    assert res.status == "numerical_error" and "diverged" in res.message
    assert 1 <= res.iterations < cfg.check_interval and not res.trace
    start = solve(prob, dataclasses.replace(cfg, iter_limit=0))
    for got, want in ((res.y, start.y), (res.z, start.z), (res.x, start.x)):
        assert np.isfinite(got).all() and got.tobytes() == want.tobytes()
    npt.assert_allclose(res.x, w0.x, rtol=1e-15)
    npt.assert_allclose(res.y, w0.y, rtol=1e-15)


def test_fixed_points_are_invariant():
    """A KKT point reproduces itself through the step."""
    prob = prob_corner()
    w_star = Iterate(np.array([0.0]), np.array([-1.0]), np.array([1.0]))
    cfg = EngineConfig(sigma=0.7, lambda_A=2.0)
    tr = pr_step(w_star, prob, cfg)
    npt.assert_allclose(tr.w_hat.y, w_star.y, atol=1e-15)
    npt.assert_allclose(reflected_point(w_star, tr, cfg).z, w_star.z, atol=1e-15)
    npt.assert_allclose(tr.w_hat.x, w_star.x, atol=1e-15)


# ---------------------------------------------------------------------------
# halpern_step


def test_halpern_weights():
    anchor = Iterate.zeros(1, 1)
    w_hat = Iterate(np.array([1.0]), np.array([1.0]), np.array([1.0]))
    out = halpern_step(anchor, w_hat, t=8)
    npt.assert_allclose(out.x, [0.9])  # (t+1)/(t+2) = 9/10
    out0 = halpern_step(anchor, w_hat, t=0)
    npt.assert_allclose(out0.x, [0.5])


def test_halpern_exact_at_fixed_point():
    w = Iterate(np.array([0.3]), np.array([-0.7]), np.array([1.1]))
    out = halpern_step(w, w, t=123)
    npt.assert_array_equal(out.y, w.y)
    npt.assert_array_equal(out.x, w.x)


def test_halpern_refuses_an_out_daxpy_cannot_write():
    """daxpy would write a strided or non-float64 ``out`` into a copy,
    and one shorter than w_hat only in part; an ``out`` that shares memory
    with w_hat or w_anchor would be written before they are read: each is
    refused."""
    a, h = np.zeros(4), np.ones(4)
    for out in (np.zeros(8)[::2], np.zeros(4, dtype=np.float32), np.zeros(3)):
        with pytest.raises(ValueError, match="out"):
            halpern_step(a[:out.size], h, t=2, out=out)
    buf = np.arange(6.0)
    for anchor, w_hat, out in ((a, h, h), (buf[:4], h, buf[2:]), (a, buf[:4], buf[1:5])):
        with pytest.raises(ValueError, match="share"):
            halpern_step(anchor, w_hat, t=2, out=out)
    w = Iterate(np.array([0.3]), np.array([-0.7]), np.array([1.1]))
    with pytest.raises(ValueError, match="share"):
        halpern_step(Iterate.zeros(1, 1), w, t=2, out=w)
    npt.assert_array_equal(halpern_step(a, h, t=2, out=np.empty(4)), np.full(4, 0.75))
    assert halpern_step(np.zeros(0), np.zeros(0), t=0).size == 0


def test_halpern_rejects_negative_counter():
    w = Iterate.zeros(1, 1)
    with pytest.raises(ValueError):
        halpern_step(w, w, t=-1)


# ---------------------------------------------------------------------------
# ergodic averages


def test_epr_running_means():
    mean, scratch = Iterate.empty(1, 1), Iterate.empty(1, 1)
    w_bar1 = Iterate(np.array([2.0]), np.array([0.0]), np.array([0.0]))
    w_bar2 = Iterate(np.array([4.0]), np.array([0.0]), np.array([0.0]))
    epr_accumulate(mean, w_bar1, 1, scratch)  # the first point is copied
    npt.assert_array_equal(mean.y, [2.0])
    epr_accumulate(mean, w_bar2, 2, scratch)
    npt.assert_array_equal(mean.y, [3.0])  # (2 + 4)/2
    # a count of 1 starts a new mean, as at a restart
    epr_accumulate(mean, w_bar2, 1, scratch)
    npt.assert_array_equal(mean.y, [4.0])

    # the iterate mean of criterion 6 includes the start point
    mean = IterateMean(Iterate(np.array([0.0]), np.array([0.0]), np.array([0.0])))
    mean.add(Iterate(np.array([4.0]), np.array([0.0]), np.array([0.0])))
    npt.assert_array_equal(mean.mean.y, [2.0])      # (0 + 4)/2
    mean.add(Iterate(np.array([5.0]), np.array([0.0]), np.array([0.0])))
    npt.assert_array_equal(mean.mean.y, [3.0])      # (0 + 4 + 5)/3


# ---------------------------------------------------------------------------
# reflected primal-dual form


def test_rhpdhg_single_step_hand_value():
    prob = prob_corner()
    u0 = (np.zeros(1), np.zeros(1))
    y1, x1 = rhpdhg_step(u0, u0, prob, eta=0.5, omega=2.0, gamma=1.0, k=0)
    npt.assert_array_equal(y1, [0.0])
    npt.assert_array_equal(x1, [0.25])


def test_rhpdhg_parameter_validation():
    prob = prob_corner()
    u = (np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        rhpdhg_step(u, u, prob, eta=0.0, omega=1.0, gamma=1.0, k=0)
    with pytest.raises(ValueError):
        rhpdhg_step(u, u, prob, eta=1.0, omega=1.0, gamma=2.0, k=0)


def test_rhpdhg_matches_reflection_route():
    """gamma = 1 with sigma = eta/omega, lambda_A = 1/eta^2 reproduces the
    proximal-reflection trajectory in (y, x)."""
    rng = np.random.default_rng(21)
    prob = random_lp(rng, 6, 4, style="two_sided")
    norm_a = np.linalg.norm(prob.A.to_csc().toarray(), 2)
    eta = 0.93 / norm_a
    omega = 1.7
    cfg = EngineConfig(sigma=eta / omega, lambda_A=1.0 / eta**2)

    w = Iterate.zeros(prob.m, prob.n)
    anchor = w.copy()
    u = (np.zeros(prob.m), np.zeros(prob.n))
    u0 = (np.zeros(prob.m), np.zeros(prob.n))
    for k in range(100):
        tr = pr_step(w, prob, cfg)
        w = halpern_step(anchor, tr.w_hat, k)
        u = rhpdhg_step(u, u0, prob, eta=eta, omega=omega, gamma=1.0, k=k)
        scale = 1.0 + max(np.max(np.abs(w.y)), np.max(np.abs(w.x)))
        assert np.max(np.abs(u[0] - w.y)) <= 1e-11 * scale
        assert np.max(np.abs(u[1] - w.x)) <= 1e-11 * scale


# ---------------------------------------------------------------------------
# equality-row normal equations


def test_normal_equation_hand_value():
    A = SparseMatrix.from_dense([[2.0]])
    prob = LpProblem(
        c=[0.0], A=A, l_con=[2.0], u_con=[2.0], l_var=[-10.0], u_var=[10.0]
    )
    solver = NormalEquationSolver(A)
    aty = np.full(1, np.nan)
    y = y_update_t1_zero(np.zeros(1), np.zeros(1), prob, 1.0, solver, aty)
    # A A^T y = b / sigma  ->  4 y = 2, and A^T y = 1
    npt.assert_allclose(y, [0.5], rtol=1e-12)
    assert aty.tobytes() == A.rmatvec(y).tobytes()


def test_normal_equation_solver_accuracy():
    rng = np.random.default_rng(9)
    for m, n, density in ((5, 8, 1.0), (40, 90, 0.2)):
        dense = rng.standard_normal((m, n)) * (rng.uniform(size=(m, n)) < density)
        dense[np.arange(m), np.arange(m)] += 1.0  # full row rank
        A = SparseMatrix.from_dense(dense)
        solver = NormalEquationSolver(A)
        # the factor of the same Gram matrix, made without the in-place route
        packed = _packed_lower(A)
        assert np.array_equal(solver._packed, packed)
        for scale in (1.0, 1e6):
            rhs = scale * rng.standard_normal(m)
            aty = np.full(n, np.nan)
            y = solver.solve(rhs, aty)
            assert aty.tobytes() == A.rmatvec(y).tobytes()
            # no refinement once the first solve meets the bound
            assert np.array_equal(y, _triangular_sweeps(packed, rhs))
            npt.assert_allclose(y, np.linalg.solve(dense @ dense.T, rhs),
                                rtol=1e-10, atol=1e-10 * scale)
            resid = rhs - (dense @ dense.T) @ y
            assert np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(rhs))


def _packed_lower(A):
    """The lower Cholesky factor of A A^T, packed column by column: the
    upper triangle of its transpose, row by row."""
    csr = A.to_csr()
    lower, _ = scipy.linalg.cho_factor((csr @ csr.T).toarray(), lower=True)
    return lower.T[np.triu_indices(A.shape[0])]


def _triangular_sweeps(packed, rhs):
    """L L^T y = rhs by two BLAS triangular solves on the packed lower factor."""
    m = rhs.size
    t = dtpsv(m, packed, rhs, lower=1)
    return dtpsv(m, packed, t, lower=1, trans=1)


def test_normal_equation_solver_refines_once():
    """Two nearly parallel rows make A A^T badly conditioned (cond ~3e8):
    the first solve misses the residual bound and one refinement through
    the same kernel meets it."""
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((60, 120))
    dense[1] = dense[0] + 2e-4 * rng.standard_normal(120)
    A = SparseMatrix.from_dense(dense)
    solver = NormalEquationSolver(A)
    packed = _packed_lower(A)
    assert np.array_equal(solver._packed, packed)
    rhs = rng.standard_normal(60)
    bound = 1e-10 * (1.0 + np.linalg.norm(rhs))

    first = _triangular_sweeps(packed, rhs)
    resid = rhs - A.matvec(A.rmatvec(first))
    assert np.linalg.norm(resid) > bound

    aty = np.full(120, np.nan)
    y = solver.solve(rhs, aty)
    assert np.array_equal(y, first + _triangular_sweeps(packed, resid))
    assert aty.tobytes() == A.rmatvec(y).tobytes()
    assert np.linalg.norm(rhs - A.matvec(A.rmatvec(y))) <= bound


def test_normal_equation_rejects_rank_deficient():
    A = SparseMatrix.from_dense([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="positive definite"):
        NormalEquationSolver(A)


def test_normal_equation_row_cap():
    with pytest.raises(ValueError, match="rows"):
        NormalEquationSolver(SparseMatrix(sp.identity(2001)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_normal_equation_rejects_nonfinite_rhs(bad):
    rng = np.random.default_rng(10)
    solver = NormalEquationSolver(SparseMatrix.from_dense(rng.standard_normal((4, 7))))
    rhs = rng.standard_normal(4)
    rhs[2] = bad
    with pytest.raises(ArithmeticError):
        solver.solve(rhs, np.empty(7))


def test_normal_equation_solver_raises_when_refinement_misses_its_bound():
    """Through the factor of 2A each sweep solves 4 A A^T y = rhs, so each
    residual check finds 3/4 of the last residual: both refinements miss
    the bound."""
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((4, 7))
    solver = NormalEquationSolver(SparseMatrix.from_dense(dense))
    solver._packed = NormalEquationSolver(SparseMatrix.from_dense(2.0 * dense))._packed
    with pytest.raises(ArithmeticError, match="residual tolerance"):
        solver.solve(rng.standard_normal(4), np.empty(7))


def test_pr_step_t1_path_matches_projection_path():
    """On equality rows the exact y-update agrees with the proximal one in
    the limit lambda_A -> the projection route's own fixed parameters; both
    must satisfy the same optimality system, so compare the solves instead."""
    rng = np.random.default_rng(15)
    prob = random_lp(rng, 6, 3, style="equality")
    solver = NormalEquationSolver(prob.A)
    w = Iterate(
        rng.standard_normal(3), rng.standard_normal(6), rng.standard_normal(6)
    )
    tr = pr_step(
        with_product(w, prob.A.rmatvec(w.y)), prob, EngineConfig(sigma=0.8, t1_zero_path=True),
        normal_eq=solver,
    )
    assert tr.zeta is None
    # the exact step satisfies A A^T y_bar = (b - A(x_bar + sigma(z_bar - c)))/sigma
    lhs = prob.A.matvec(prob.A.rmatvec(tr.w_bar.y))
    rhs = (
        prob.l_con
        - prob.A.matvec(tr.w_bar.x + 0.8 * (tr.w_bar.z - prob.c))
    ) / 0.8
    npt.assert_allclose(lhs, rhs, atol=1e-9)


# ---------------------------------------------------------------------------
# active sets and the frozen affine map


def test_identify_active_sets():
    prob = prob_corner()
    tr = pr_step(Iterate.zeros(1, 1), prob, EngineConfig(lambda_A=1.0))
    act = identify_active_sets(tr, prob)
    # x_bar = 1 hits the variable upper bound; zeta = 2 hits the row upper bound
    npt.assert_array_equal(act.i_c, [0])
    npt.assert_array_equal(act.c_values, [1.0])
    npt.assert_array_equal(act.i_k, [0])
    npt.assert_array_equal(act.k_values, [2.0])


def test_identify_active_sets_interior():
    prob = LpProblem(
        c=[-1.0],
        A=SparseMatrix.from_dense([[1.0]]),
        l_con=[-5.0],
        u_con=[5.0],
        l_var=[0.0],
        u_var=[10.0],
    )
    tr = pr_step(Iterate.zeros(1, 1), prob, EngineConfig(lambda_A=1.0))
    act = identify_active_sets(tr, prob)
    assert act.i_c.size == 0 and act.i_k.size == 0


def test_active_sets_comparison():
    prob = prob_corner()
    tr = pr_step(Iterate.zeros(1, 1), prob, EngineConfig(lambda_A=1.0))
    a = identify_active_sets(tr, prob)
    b = identify_active_sets(tr, prob)
    assert a.same_as(b)


def test_active_sets_require_zeta():
    rng = np.random.default_rng(2)
    prob = random_lp(rng, 4, 2, style="equality")
    solver = NormalEquationSolver(prob.A)
    tr = pr_step(
        with_product(Iterate.zeros(2, 4), np.zeros(4)),
        prob,
        EngineConfig(t1_zero_path=True),
        normal_eq=solver,
    )
    with pytest.raises(ValueError, match="normal-equations"):
        identify_active_sets(tr, prob)


def test_frozen_map_agrees_with_step():
    rng = np.random.default_rng(33)
    prob = random_lp(rng, 5, 3, style="two_sided")
    cfg = EngineConfig(sigma=0.9, lambda_A=25.0)
    w = Iterate(
        rng.standard_normal(3), rng.standard_normal(5), rng.standard_normal(5)
    )
    tr = pr_step(w, prob, cfg)
    frozen = frozen_affine_map(identify_active_sets(tr, prob), prob, cfg)
    fw = frozen(w)
    ref = reflected_point(w, tr, cfg)
    # the reference's y and x blocks are the step's own, bit for bit
    assert ref.buf[5:].tobytes() == tr.w_hat.buf[5:].tobytes()
    npt.assert_allclose(fw.y, tr.w_hat.y, rtol=0, atol=1e-14)
    npt.assert_allclose(fw.z, ref.z, rtol=0, atol=1e-14)
    npt.assert_allclose(fw.x, tr.w_hat.x, rtol=0, atol=1e-14)


def test_frozen_map_is_affine():
    rng = np.random.default_rng(34)
    prob = random_lp(rng, 4, 3, style="two_sided")
    cfg = EngineConfig(sigma=1.3, lambda_A=30.0)
    tr = pr_step(Iterate.zeros(3, 4), prob, cfg)
    frozen = frozen_affine_map(identify_active_sets(tr, prob), prob, cfg)

    a = Iterate(rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4))
    b = Iterate(rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4))
    lin_sum = frozen.apply_linear(plus(a, b))
    lin_parts = plus(frozen.apply_linear(a), frozen.apply_linear(b))
    npt.assert_allclose(lin_sum.y, lin_parts.y, atol=1e-12)
    npt.assert_allclose(lin_sum.z, lin_parts.z, atol=1e-12)
    npt.assert_allclose(lin_sum.x, lin_parts.x, atol=1e-12)
    # offset really is the image of zero
    off = frozen.offset
    z = frozen(Iterate.zeros(3, 4))
    npt.assert_array_equal(off.x, z.x)


def test_frozen_map_rejects_normal_equations_route():
    prob = prob_corner()
    tr = pr_step(Iterate.zeros(1, 1), prob, EngineConfig(lambda_A=1.0))
    act = identify_active_sets(tr, prob)
    with pytest.raises(ValueError, match="zeta"):
        frozen_affine_map(act, prob, EngineConfig(t1_zero_path=True))


# ---------------------------------------------------------------------------
# preallocated workspace


def _run_steps(prob, cfg, normal_eq, reuse, steps=200, carry=False):
    """The solve loop in miniature: anchored or plain steps from a fixed
    start, a sigma change at step 70, a restart at the proximal point at
    step 120.  With ``reuse`` every vector is allocated once, as in
    ``solve``; without it every call allocates.  On the normal-equations
    route (given ``normal_eq``) the step reads A^T y from the product
    block of the iterate it is given: with ``carry`` (the anchored modes)
    that A^T y and the merit's are averaged and refreshed as in
    ``solve``; without it A^T y is formed from w.y before every step and
    the merit forms its own product.
    Returns per-step copies of w, w_bar and the merit."""
    m, n = prob.A.shape
    rng = np.random.default_rng(4)
    w = Iterate(rng.standard_normal(m), rng.standard_normal(n), rng.standard_normal(n))
    anchor = w.copy()
    anchored = cfg.mode in ("hpr", "hdr", "rhpdhg")
    normal = normal_eq is not None
    aty = prob.A.rmatvec(w.y) if normal else None
    anchor_aty = None if aty is None else aty.copy()
    work = StepWorkspace(m, n, n if normal else None) if reuse else None
    point = Iterate.empty(m, n, n) if normal and reuse else None  # w with its A^T y
    history = []
    t = 0
    for k in range(steps):
        if k == 70:
            cfg = cfg.with_sigma(1.7 * cfg.sigma)
        if normal and not carry:
            aty = prob.A.rmatvec(w.y)
        step = pr_step(with_product(w, aty, point) if normal else w, prob, cfg, normal_eq, work)
        diff = minus(w, step.w_hat)
        if carry:
            # A^T (y - y_hat) = (1 + g) (A^T y - A^T y_bar), and A^T y_hat from it
            diff_aty = (1.0 + cfg.reflection) * (aty - step.w_bar.p)
            hat_aty = aty - diff_aty
            diff = with_product(diff, diff_aty)
        merit = m_norm(diff, cfg, prob.A)
        if not reuse:
            w = halpern_step(anchor, step.w_hat, t) if anchored else step.w_hat
            if carry:
                aty = halpern_step(anchor_aty, hat_aty, t)
        elif anchored:
            halpern_step(anchor, step.w_hat, t, out=w)
            if carry:
                halpern_step(anchor_aty, hat_aty, t, out=aty)
        else:
            w.assign(step.w_hat)
        t += 1
        history.append((w.copy(), proximal_point(step), merit))
        if k == 120:
            anchor = proximal_point(step)
            w = proximal_point(step)
            if carry:
                aty = prob.A.rmatvec(w.y)
                anchor_aty = aty.copy()
            t = 0
    return history


def _lp_and_config(mode, equality):
    rng = np.random.default_rng(12)
    prob = random_lp(rng, 9, 5, style="equality" if equality else "two_sided")
    lam = 1.05 * np.linalg.norm(prob.A.to_csc().toarray(), 2) ** 2
    cfg = EngineConfig(sigma=0.6, lambda_A=lam, mode=mode, gamma=0.5,
                       t1_zero_path=equality)
    return prob, cfg, NormalEquationSolver(prob.A) if equality else None


def _assert_same_steps(fresh, reused):
    for (wf, bf, mf), (wr, br, mr) in zip(fresh, reused, strict=True):
        # bit for bit in all three blocks, a z block the step leaves NaN included
        for a, b in ((wf, wr), (bf, br)):
            assert a.buf.tobytes() == b.buf.tobytes()
        assert mf == mr


@pytest.mark.parametrize(
    "mode, equality",
    [("hpr", False), ("hdr", False), ("pr", False), ("epr", False),
     ("rhpdhg", False), ("hpr", True)],
)
def test_reused_workspace_is_bit_identical(mode, equality):
    prob, cfg, normal_eq = _lp_and_config(mode, equality)
    fresh = _run_steps(prob, cfg, normal_eq, reuse=False)
    reused = _run_steps(prob, cfg, normal_eq, reuse=True)
    _assert_same_steps(fresh, reused)


@pytest.mark.parametrize("mode", ["hpr", "rhpdhg"])
def test_reused_workspace_with_carried_aty_is_bit_identical(mode):
    """The anchored normal-equations loop with its carried A^T y, on an
    LP with m = 5 rows and n = 9 columns: a fresh workspace per step and
    one reused give the same bits, and the trajectory stays within
    rounding of one that forms A^T y itself."""
    prob, cfg, normal_eq = _lp_and_config(mode, True)
    fresh = _run_steps(prob, cfg, normal_eq, reuse=False, carry=True)
    reused = _run_steps(prob, cfg, normal_eq, reuse=True, carry=True)
    _assert_same_steps(fresh, reused)
    plain = _run_steps(prob, cfg, normal_eq, reuse=True)
    for (wc, _, mc), (wp, _, mp) in zip(reused, plain, strict=True):
        # (y, x): z is the start's until the restart
        npt.assert_allclose(wc.buf[9:], wp.buf[9:], rtol=1e-9, atol=1e-12)
        npt.assert_allclose(mc, mp, rtol=1e-9, atol=1e-12)


def test_normal_route_refuses_a_w_without_an_n_entry_product_block():
    """The normal-equations step reads A^T y from w.p, so a w whose p
    does not have n entries (none, or an A x of m entries) is refused,
    not stepped from or broadcast; a workspace whose product block has m
    entries does not fit the route.  The proximal step reads no p."""
    rng = np.random.default_rng(12)
    prob = random_lp(rng, 9, 5, style="equality")
    w = Iterate(rng.standard_normal(5), rng.standard_normal(9), rng.standard_normal(9))
    carried = with_product(w, prob.A.rmatvec(w.y))
    normal = EngineConfig(sigma=0.6, t1_zero_path=True)
    normal_eq = NormalEquationSolver(prob.A)
    for bad_w in (w, with_product(w, prob.A.matvec(w.x))):
        with pytest.raises(ValueError, match="n entries"):
            pr_step(bad_w, prob, normal, normal_eq)
    with pytest.raises(ValueError, match="fit"):
        pr_step(carried, prob, normal, normal_eq, StepWorkspace(5, 9))
    # with a fitting workspace, or none, the step reads it
    step = pr_step(carried, prob, normal, normal_eq, StepWorkspace(5, 9, 9))
    npt.assert_array_equal(step.w_bar.buf, pr_step(carried, prob, normal, normal_eq).w_bar.buf)
    proximal = EngineConfig(sigma=0.6, lambda_A=50.0)
    assert pr_step(carried, prob, proximal).w_bar.buf.tobytes() == \
        pr_step(w, prob, proximal).w_bar.buf.tobytes()


def test_pr_step_refuses_an_input_that_shares_or_misfits_the_workspace():
    """The step writes its workspace while it reads w and, on the
    normal-equations route, its carried A^T y in w.p, so a w with either
    in the workspace's memory is refused, not stepped from; so are a w
    or a workspace whose blocks do not fit the LP, which the step's
    unchecked products would read or write past."""
    rng = np.random.default_rng(14)
    prob = random_lp(rng, 6, 4)
    cfg = EngineConfig(sigma=0.9, lambda_A=40.0, mode="rhpdhg", gamma=0.5)
    w = Iterate(rng.standard_normal(4), rng.standard_normal(6), rng.standard_normal(6))
    work = pr_step(w, prob, cfg, work=StepWorkspace(4, 6))
    for alias in (work.w_bar, work.hat, Iterate._on(work.hat.buf.base[4:], 4, 6)):
        with pytest.raises(ValueError, match="share memory"):
            pr_step(alias, prob, cfg, work=work)
    for bad_w, bad_work in ((Iterate.zeros(5, 6), work), (Iterate.zeros(4, 7), work),
                            (w, StepWorkspace(4, 7)), (w, StepWorkspace(4, 6, 6))):
        with pytest.raises(ValueError, match="fit"):
            pr_step(bad_w, prob, cfg, work=bad_work)

    eq = random_lp(rng, 9, 5, style="equality")
    normal, normal_eq = EngineConfig(sigma=0.6, t1_zero_path=True), NormalEquationSolver(eq.A)
    w = Iterate(rng.standard_normal(5), rng.standard_normal(9), rng.standard_normal(9))
    work = pr_step(with_product(w, eq.A.rmatvec(w.y)), eq, normal, normal_eq,
                   StepWorkspace(5, 9, 9))
    # w_bar.p receives A^T y_bar while the step reads w.p
    for alias in (work.w_bar, work.hat):
        with pytest.raises(ValueError, match="share memory"):
            pr_step(alias, eq, normal, normal_eq, work)
    with pytest.raises(ValueError, match="n entries"):
        pr_step(with_product(w, np.zeros(10)), eq, normal, normal_eq, work)
    pr_step(with_product(w, eq.A.rmatvec(w.y)), eq, normal, normal_eq, work)  # a p of its own


def test_trace_without_workspace_is_not_overwritten():
    rng = np.random.default_rng(13)
    prob = random_lp(rng, 6, 4)
    cfg = EngineConfig(sigma=0.9, lambda_A=40.0)
    w = Iterate(rng.standard_normal(4), rng.standard_normal(6), rng.standard_normal(6))
    first = pr_step(w, prob, cfg)
    kept = [first.xi.copy(), first.zeta.copy(), first.w_bar.copy(), first.w_hat.copy()]
    work = StepWorkspace(4, 6)
    nxt = w
    for _ in range(3):
        nxt = pr_step(nxt, prob, cfg).w_hat
        pr_step(w.copy(), prob, cfg.with_sigma(2.0), work=work)
    npt.assert_array_equal(first.xi, kept[0])
    npt.assert_array_equal(first.zeta, kept[1])
    for now, then in ((first.w_bar, kept[2]), (first.w_hat, kept[3])):
        # bit for bit in all three blocks, the NaN z blocks included
        assert now.buf.tobytes() == then.buf.tobytes()


# ---------------------------------------------------------------------------
# merit from the carried row product


@pytest.mark.parametrize("mode", ["hpr", "hdr", "rhpdhg"])
def test_carried_row_product_keeps_trajectory(mode, monkeypatch):
    """The anchored modes form the merit's cross term from a carried A x.
    Solving again with the driver's m_norm forced onto the A^T dy product
    gives the same iterates, restarts and iteration counts; the merits
    differ by rounding, which is absolute in A x, so they are compared on
    the scale of the run's largest merit."""
    cfg = SolverConfig(tol=1e-8, iter_limit=5000,
                       engine=EngineConfig(lambda_A=None, mode=mode, gamma=0.5))
    m_norm_carried = hprlp.solver.m_norm
    # the last two have more rows than columns
    for seed, (n, m, style) in enumerate([(12, 6, "two_sided"), (30, 15, "upper"),
                                          (25, 10, "equality"), (40, 20, "two_sided"),
                                          (8, 14, "two_sided"), (15, 30, "upper")]):
        prob = random_lp(np.random.default_rng(100 + seed), n, m, style=style)
        monkeypatch.setattr(hprlp.solver, "m_norm", m_norm_carried)
        carried = solve(prob, cfg)
        # an iterate without a product block: the merit forms A^T dy
        monkeypatch.setattr(hprlp.solver, "m_norm",
                            lambda w, cfg, A: m_norm(Iterate(w.y, w.z, w.x), cfg, A))
        product = solve(prob, cfg)
        assert carried.status == product.status
        assert carried.iterations == product.iterations
        assert carried.events == product.events
        for v in ("x", "y", "z"):
            assert np.array_equal(getattr(carried, v), getattr(product, v))
        assert len(carried.trace) == len(product.trace)
        scale = max(rec.merit for rec in product.trace)
        for a, b in zip(carried.trace, product.trace):
            assert (a.k, a.r, a.t, a.sigma) == (b.k, b.r, b.t, b.sigma)
            assert (a.rel_gap, a.rel_primal, a.rel_dual) == (b.rel_gap, b.rel_primal, b.rel_dual)
            assert abs(a.merit - b.merit) <= 1e-6 * max(b.merit, 1e-3 * scale)


def test_step_returns_the_workspace_it_was_given():
    """A step writes its results onto the workspace it is given and
    returns it, the same bits a step on a workspace of its own gives;
    the next step on that workspace overwrites them."""
    rng = np.random.default_rng(14)
    prob = random_lp(rng, 6, 4)
    cfg = EngineConfig(sigma=0.9, lambda_A=40.0)
    w = Iterate(rng.standard_normal(4), rng.standard_normal(6), rng.standard_normal(6))
    work = StepWorkspace(4, 6)
    assert work.w_hat is None and work.xi is None and work.zeta is None and work.sigma is None
    for point, step_cfg in ((w, cfg), (w.copy(), cfg.with_sigma(2.0))):
        kept = None if work.xi is None else (work.xi.copy(), work.w_bar.copy())
        assert pr_step(point, prob, step_cfg, work=work) is work
        own = pr_step(point, prob, step_cfg)
        assert own is not work and work.w_hat is work.hat and work.sigma == step_cfg.sigma
        for mine, theirs in ((work.xi, own.xi), (work.zeta, own.zeta),
                             (work.w_bar.buf, own.w_bar.buf), (work.w_hat.buf, own.w_hat.buf)):
            assert mine.tobytes() == theirs.tobytes()
        if kept is not None:  # the second step, at another sigma, overwrote the first
            assert not np.array_equal(work.xi, kept[0])
            assert not np.array_equal(work.w_bar.x, kept[1].x)
    hdr = pr_step(w, prob, EngineConfig(lambda_A=40.0, mode="hdr"), work=StepWorkspace(4, 6))
    assert hdr.w_hat is hdr.w_bar
