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
    EprAverages,
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
    step = pr_step(Iterate.zeros(3, 6), prob, cfg, NormalEquationSolver(prob.A))
    assert step.zeta is None and np.isfinite(step.w_hat.y).all()


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


def test_pr_step_divergence_guard():
    prob = prob_corner()
    w = Iterate(np.array([1e160]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(ArithmeticError, match="diverged"):
        pr_step(w, prob, EngineConfig(lambda_A=1.0))


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


def test_halpern_rejects_negative_counter():
    w = Iterate.zeros(1, 1)
    with pytest.raises(ValueError):
        halpern_step(w, w, t=-1)


# ---------------------------------------------------------------------------
# ergodic averages


def test_epr_running_means():
    st = EprAverages(1, 1)
    assert st.n_bar == 0

    w_bar1 = Iterate(np.array([2.0]), np.array([0.0]), np.array([0.0]))
    w_bar2 = Iterate(np.array([4.0]), np.array([0.0]), np.array([0.0]))
    epr_accumulate(st, w_bar1)
    npt.assert_array_equal(st.w_bar_avg.y, [2.0])
    epr_accumulate(st, w_bar2)
    npt.assert_array_equal(st.w_bar_avg.y, [3.0])  # (2 + 4)/2
    assert st.n_bar == 2

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
    y = y_update_t1_zero(np.zeros(1), np.zeros(1), prob, 1.0, solver)
    # A A^T y = b / sigma  ->  4 y = 2
    npt.assert_allclose(y, [0.5], rtol=1e-12)


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
            y = solver.solve(rhs)
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

    y = solver.solve(rhs)
    assert np.array_equal(y, first + _triangular_sweeps(packed, resid))
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
        solver.solve(rhs)


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
        w, prob, EngineConfig(sigma=0.8, t1_zero_path=True), normal_eq=solver
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
        Iterate.zeros(2, 4),
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
    ``solve``; without it every call allocates.  With ``carry`` (the
    anchored modes on the normal-equations route) the step and the merit
    read a carried A^T y, averaged and refreshed as in ``solve``.
    Returns per-step copies of w, w_bar and the merit."""
    m, n = prob.A.shape
    rng = np.random.default_rng(4)
    w = Iterate(rng.standard_normal(m), rng.standard_normal(n), rng.standard_normal(n))
    anchor = w.copy()
    anchored = cfg.mode in ("hpr", "hdr", "rhpdhg")
    aty = prob.A.rmatvec(w.y) if carry else None
    anchor_aty = None if aty is None else aty.copy()
    work = StepWorkspace(m, n, n if carry else None) if reuse else None
    history = []
    t = 0
    for k in range(steps):
        if k == 70:
            cfg = cfg.with_sigma(1.7 * cfg.sigma)
        if carry and not reuse:
            work = StepWorkspace(m, n, n)  # where the step leaves A^T y_bar
        step = pr_step(w, prob, cfg, normal_eq, work, aty)
        diff_aty = None
        if carry:
            # A^T (y - y_hat) = (1 + g) (A^T y - A^T y_bar), and A^T y_hat from it
            bar_aty = work.bar_state[work.bar.buf.size:]
            diff_aty = (1.0 + cfg.reflection) * (aty - bar_aty)
            hat_aty = aty - diff_aty
        merit = m_norm(minus(w, step.w_hat), cfg, prob.A, diff_aty)
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


def test_carried_aty_needs_the_normal_route_and_an_n_entry_block():
    """A carried A^T y is refused, not broadcast, off the normal-equations
    route and with a workspace whose product block has m entries."""
    rng = np.random.default_rng(12)
    prob = random_lp(rng, 9, 5, style="equality")
    w = Iterate(rng.standard_normal(5), rng.standard_normal(9), rng.standard_normal(9))
    aty = prob.A.rmatvec(w.y)
    normal = EngineConfig(sigma=0.6, t1_zero_path=True)
    normal_eq = NormalEquationSolver(prob.A)
    with pytest.raises(ValueError, match="n entries"):
        pr_step(w, prob, normal, normal_eq, StepWorkspace(5, 9), aty)
    with pytest.raises(ValueError, match="normal-equations"):
        pr_step(w, prob, EngineConfig(sigma=0.6, lambda_A=50.0), None, None, aty)
    # with a fitting workspace, or none, the step reads it
    step = pr_step(w, prob, normal, normal_eq, StepWorkspace(5, 9, 9), aty)
    npt.assert_array_equal(step.w_bar.buf, pr_step(w, prob, normal, normal_eq, None, aty).w_bar.buf)


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
        monkeypatch.setattr(hprlp.solver, "m_norm", lambda w, cfg, A, ax=None: m_norm(w, cfg, A))
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
