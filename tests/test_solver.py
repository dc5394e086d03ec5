import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from hprlp import (
    EngineConfig,
    Iterate,
    LpProblem,
    RestartConfig,
    SolverConfig,
    SparseMatrix,
    solve,
)
from hprlp.adaptive import SIGMA_MAX, SIGMA_MIN
from hprlp.engine import NormalEquationSolver, halpern_step, pr_step, proximal_point
import hprlp.solver as solver_module
from hprlp.solver import apply_scaling, scale_iterate, unscale_iterate

from conftest import random_lp
from theory import complexity_diagnostics, product_form_scaling


def prob_corner():
    return LpProblem(
        c=[-1.0],
        A=SparseMatrix.from_dense([[1.0]]),
        l_con=[0.0],
        u_con=[2.0],
        l_var=[0.0],
        u_var=[1.0],
    )


def quick_cfg(**kw):
    base = dict(tol=1e-8, iter_limit=50_000, check_interval=20)
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# config validation


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(iter_limit=-1)
    with pytest.raises(ValueError):
        SolverConfig(check_interval=0)
    with pytest.raises(ValueError, match="time_limit"):
        SolverConfig(time_limit=0)
    with pytest.raises(ValueError):
        SolverConfig(scaling="fancy")
    with pytest.raises(TypeError):  # fixed at estimate_lambda_A's 1.05
        SolverConfig(lambda_safety=1.05)


# ---------------------------------------------------------------------------
# scaling


def test_ruiz_normalizes_diagonal_matrix():
    prob = LpProblem(
        c=[1.0, 1.0],
        A=SparseMatrix.from_dense([[100.0, 0.0], [0.0, 0.01]]),
        l_con=[0.0, 0.0],
        u_con=[1.0, 1.0],
        l_var=[0.0, 0.0],
        u_var=[1.0, 1.0],
    )
    scaled, sc = apply_scaling(prob, "ruiz")
    dense = scaled.A.to_csc().toarray()
    npt.assert_allclose(np.diag(dense), [1.0, 1.0], rtol=1e-12)
    npt.assert_allclose(sc.row, [0.1, 10.0], rtol=1e-12)
    npt.assert_allclose(sc.col, [0.1, 10.0], rtol=1e-12)


def test_ruiz_column_norms_near_one():
    rng = np.random.default_rng(8)
    prob = random_lp(rng, 6, 4)
    scaled, _ = apply_scaling(prob, "ruiz")
    col_norms = np.linalg.norm(scaled.A.to_csc().toarray(), axis=0)
    npt.assert_allclose(col_norms, 1.0, rtol=1e-8)


def _lp_on(A: SparseMatrix, rng) -> LpProblem:
    m, n = A.shape
    return LpProblem(
        c=rng.standard_normal(n),
        A=A,
        l_con=-rng.uniform(0.5, 2.0, m),
        u_con=np.where(rng.uniform(size=m) < 0.3, np.inf, rng.uniform(0.5, 2.0, m)),
        l_var=np.where(rng.uniform(size=n) < 0.3, -np.inf, -rng.uniform(0.5, 2.0, n)),
        u_var=rng.uniform(0.5, 2.0, n),
    )


def _assert_same_scaling(got, want):
    """Every field of the scaled problem and both diagonals, bit for bit."""
    (p, s), (q, t) = got, want
    a, b = p.A.to_csc(), q.A.to_csc()
    pairs = [(a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr),
             (p.c, q.c), (p.l_con, q.l_con), (p.u_con, q.u_con),
             (p.l_var, q.l_var), (p.u_var, q.u_var), (s.row, t.row), (s.col, t.col)]
    for x, y in pairs:
        assert x.dtype == y.dtype and np.array_equal(x, y)


def _random_scaling_lp(rng, m, n):
    """Triplets with empty rows and columns, stored zeros and magnitudes
    from 1e-6 to 1e6."""
    nnz = int(rng.integers(0, m * n + 1))
    rows = rng.integers(0, max(m - 1, 1), nnz)  # the last row stays empty when m > 1
    cols = rng.integers(0, max(n - 1, 1), nnz)
    vals = rng.standard_normal(nnz) * 10.0 ** rng.uniform(-6.0, 6.0, nnz)
    vals[rng.uniform(size=nnz) < 0.15] = 0.0
    return _lp_on(SparseMatrix(sp.coo_matrix((vals, (rows, cols)), shape=(m, n))), rng)


@pytest.mark.parametrize("ruiz_iters", [0, 1, 10])
def test_ruiz_matches_product_form_bitwise(ruiz_iters, monkeypatch):
    monkeypatch.setattr(solver_module, "RUIZ_SWEEPS", ruiz_iters)
    rng = np.random.default_rng(100 + ruiz_iters)
    probs = [  # 1x1, one-row and one-column matrices, every entry nonzero
        _lp_on(SparseMatrix.from_dense(
            rng.standard_normal(shape) * 10.0 ** rng.uniform(-6.0, 6.0, shape)), rng)
        for shape in ((1, 1), (1, 7), (7, 1))
    ]
    probs += [_random_scaling_lp(rng, *map(int, rng.integers(1, 30, 2))) for _ in range(40)]
    for prob in probs:
        _assert_same_scaling(
            apply_scaling(prob, "ruiz"), product_form_scaling(prob, ruiz_iters)
        )


def test_ruiz_leaves_signed_permutation_unchanged():
    """Every row and column maximum is already 1, so the first sweep
    stops and the column norms are 1."""
    rng = np.random.default_rng(12)
    n = 8
    A = SparseMatrix(sp.coo_matrix(
        (rng.choice([-1.0, 1.0], n), (np.arange(n), rng.permutation(n))), shape=(n, n)))
    prob = _lp_on(A, rng)
    got = apply_scaling(prob, "ruiz")
    _assert_same_scaling(got, product_form_scaling(prob))
    scaled, sc = got
    assert np.all(sc.row == 1.0) and np.all(sc.col == 1.0)
    assert np.array_equal(scaled.A.to_csc().toarray(), A.to_csc().toarray())


def test_ruiz_drops_stored_and_underflowing_zeros(monkeypatch):
    """Zeros stored in the input, and an entry that underflows to 0 in
    a sweep, are gone from the scaled matrix, as the product form drops
    every product that is exactly zero."""
    rng = np.random.default_rng(13)
    rows = np.array([0, 0, 1, 1, 2, 2, 3])
    cols = np.array([0, 1, 1, 2, 0, 3, 3])
    vals = np.array([2.0, 0.0, 1e300, 1e-300, 0.0, -3.0, 0.0])
    mixed = _lp_on(SparseMatrix(sp.coo_matrix((vals, (rows, cols)), shape=(4, 5))), rng)
    zeros_only = _lp_on(
        SparseMatrix(sp.coo_matrix(([0.0, 0.0], ([0, 1], [1, 2])), shape=(3, 3))), rng)
    # (without a sweep the column norm of 1e300 overflows, so the mixed
    # matrix is scaled with at least one)
    for prob, iters, nnz in ((mixed, 1, 3), (mixed, 10, 3), (zeros_only, 0, 0),
                             (zeros_only, 10, 0)):
        assert np.any(prob.A.to_csc().data == 0.0)
        monkeypatch.setattr(solver_module, "RUIZ_SWEEPS", iters)
        got = apply_scaling(prob, "ruiz")
        _assert_same_scaling(got, product_form_scaling(prob, iters))
        # 1e-300 underflows in the first sweep; the stored zeros go with it
        assert got[0].A.nnz == nnz
        assert np.all(got[0].A.to_csc().data != 0.0)


def test_column_norm_pass_survives_overflowing_squares():
    """1e300 squared overflows, but the column norms are taken after the
    sweeps, which leave every entry at most 1 in magnitude, so no column
    drops out and no bound turns into NaN or an infinity."""
    prob = LpProblem(
        c=[1.0, 1.0],
        A=SparseMatrix.from_dense([[1e300, 1.0], [2.0, 3.0]]),
        l_con=[-1.0, -1.0],
        u_con=[1.0, 1.0],
        l_var=[0.0, -2.0],
        u_var=[5.0, 0.0],
    )
    scaled, scaling = apply_scaling(prob, "ruiz")
    assert scaled.A.nnz == 4
    npt.assert_allclose(np.linalg.norm(scaled.A.to_csc().toarray(), axis=0), 1.0, rtol=1e-15)
    assert np.all(np.isfinite(scaling.col)) and np.all(scaling.col > 0.0)
    for got in (scaled.l_var, scaled.u_var):
        assert np.all(np.isfinite(got))


def test_scaling_none_is_identity():
    prob = prob_corner()
    scaled, sc = apply_scaling(prob, "none")
    assert scaled is prob
    assert np.all(sc.row == 1.0) and np.all(sc.col == 1.0)


def test_scaling_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="unknown scaling method 'fancy'"):
        apply_scaling(prob_corner(), "fancy")


def test_scale_unscale_round_trip():
    rng = np.random.default_rng(4)
    prob = random_lp(rng, 5, 3)
    _, sc = apply_scaling(prob, "ruiz")
    w = Iterate(rng.standard_normal(3), rng.standard_normal(5), rng.standard_normal(5))
    back = scale_iterate(unscale_iterate(w, sc), sc)
    npt.assert_allclose(back.y, w.y, rtol=1e-15)
    npt.assert_allclose(back.z, w.z, rtol=1e-15)
    npt.assert_allclose(back.x, w.x, rtol=1e-15)


def _ordered_lp(monkeypatch):
    """A 40 x 25 LP of rows and columns of many lengths, on CSR, with the
    ``ORDERED_MIN_ROWS`` cutoff below its rows, so that ``solve`` runs on
    it ordered by length."""
    import hprlp.sparse

    monkeypatch.setattr(hprlp.sparse, "DENSE_MAX_ENTRIES", -1)
    monkeypatch.setattr(hprlp.sparse, "ORDERED_MIN_ROWS", 10)
    rng = np.random.default_rng(61)
    base = random_lp(rng, 25, 40, density=0.3)
    dense = base.A.to_csr().toarray()
    dense[rng.uniform(size=dense.shape) < rng.uniform(0.0, 0.8, size=(40, 1))] = 0.0
    dense[np.arange(40), rng.integers(25, size=40)] = 1.0  # no empty row
    b = dense @ rng.uniform(0.0, 1.0, 25)
    return LpProblem(base.c, SparseMatrix(dense), b - 0.4, b + 0.6, base.l_var, base.u_var)


@pytest.mark.parametrize("scaling", ["ruiz", "none"])
def test_ordered_working_problem_maps_back(scaling, monkeypatch):
    """From the ``ORDERED_MIN_ROWS`` cutoff, with either scaling, ``solve``
    runs on the scaled problem with its rows ordered by length and its
    columns by count, and the map carries both orders: it adds no
    rounding to the round trip, a warm start from the optimum ends
    optimal at the first checkpoint, and x, y and z come back in the
    original order, optimal on the original data."""
    prob = _ordered_lp(monkeypatch)
    m, n = prob.A.shape
    cfg = SolverConfig(tol=1e-8, scaling=scaling)
    work, sc, *_ = solver_module._setup(prob, cfg)
    rows, cols = sc.row_order, sc.col_order
    csr = work.A.to_csr()
    assert np.all(np.diff(np.diff(csr.indptr)) >= 0)
    assert np.all(np.diff(np.bincount(csr.indices, minlength=n)) >= 0)
    assert not np.array_equal(rows, np.arange(m)) and not np.array_equal(cols, np.arange(n))
    scaled, _ = apply_scaling(prob, scaling)
    want = scaled.A.to_csr().toarray()[rows][:, cols]
    assert csr.has_canonical_format and np.array_equal(csr.toarray(), want)
    for got, orig, order in ((work.c, scaled.c, cols), (work.l_con, scaled.l_con, rows),
                             (work.u_var, scaled.u_var, cols)):
        assert np.array_equal(got, orig[order])

    rng = np.random.default_rng(62)
    w = Iterate(rng.standard_normal(m), rng.standard_normal(n), rng.standard_normal(n))
    plain = dataclasses.replace(sc, row_order=None, col_order=None)
    back = unscale_iterate(scale_iterate(w, sc), sc)
    assert back.buf.tobytes() == unscale_iterate(scale_iterate(w, plain), plain).buf.tobytes()
    if scaling == "none":
        assert back.buf.tobytes() == w.buf.tobytes()
    assert scale_iterate(w, sc).y.tobytes() == scale_iterate(w, plain).y[rows].tobytes()

    res = solve(prob, cfg)
    assert res.status == "optimal"
    point = Iterate(res.y, res.z, res.x)
    assert max(solver_module.relative_residuals(point, prob)) <= cfg.tol
    warm = solve(prob, dataclasses.replace(cfg, initial_iterate=point))
    assert warm.status == "optimal" and len(warm.trace) == 1
    monkeypatch.setattr(solver_module.sparse, "ORDERED_MIN_ROWS", m + 1)
    unordered = solve(prob, cfg)
    assert unordered.status == "optimal"
    assert [r.merit for r in unordered.trace] != [r.merit for r in res.trace]
    npt.assert_allclose(res.x, unordered.x, atol=1e-5)
    npt.assert_allclose(res.y, unordered.y, atol=1e-5)
    npt.assert_allclose(res.z, unordered.z, atol=1e-5)


def test_scaled_solve_matches_unscaled():
    rng = np.random.default_rng(77)
    prob = random_lp(rng, 5, 3, scale=10.0)
    r1 = solve(prob, quick_cfg(scaling="ruiz"))
    r2 = solve(prob, quick_cfg(scaling="none"))
    assert r1.status == "optimal" and r2.status == "optimal"
    assert r1.primal_obj == pytest.approx(r2.primal_obj, rel=1e-6, abs=1e-8)


# ---------------------------------------------------------------------------
# basic solves


def test_solve_corner_instance():
    res = solve(prob_corner(), quick_cfg())
    assert res.status == "optimal"
    npt.assert_allclose(res.x, [1.0], atol=1e-6)
    assert res.primal_obj == pytest.approx(-1.0, abs=1e-6)
    assert res.dual_obj == pytest.approx(-1.0, abs=1e-6)
    assert max(res.rel_gap, res.rel_primal, res.rel_dual) <= 1e-8


def test_solve_maximize_reports_original_sense():
    # maximize x stored internally as minimize -x
    prob = LpProblem(
        c=[-1.0],
        A=SparseMatrix.from_dense([[1.0]]),
        l_con=[0.0],
        u_con=[2.0],
        l_var=[0.0],
        u_var=[1.0],
        obj_sense="maximize",
    )
    res = solve(prob, quick_cfg())
    assert res.status == "optimal"
    assert res.primal_obj == pytest.approx(1.0, abs=1e-6)
    assert res.dual_obj == pytest.approx(1.0, abs=1e-6)


def test_solve_with_objective_constant():
    prob = LpProblem(
        c=[-1.0],
        A=SparseMatrix.from_dense([[1.0]]),
        l_con=[0.0],
        u_con=[2.0],
        l_var=[0.0],
        u_var=[1.0],
        obj_constant=10.0,
    )
    res = solve(prob, quick_cfg())
    assert res.primal_obj == pytest.approx(9.0, abs=1e-6)


def test_solve_no_rows():
    # pure box problem: min x1 - x2 over [0,1]^2
    prob = LpProblem(
        c=[1.0, -1.0],
        A=SparseMatrix(sp.coo_matrix((0, 2))),
        l_con=[],
        u_con=[],
        l_var=[0.0, 0.0],
        u_var=[1.0, 1.0],
    )
    res = solve(prob, quick_cfg())
    assert res.status == "optimal"
    npt.assert_allclose(res.x, [0.0, 1.0], atol=1e-6)


@pytest.mark.parametrize("mode", ["hpr", "hdr", "epr", "rhpdhg"])
def test_restarted_modes_converge(mode):
    rng = np.random.default_rng(55)
    prob = random_lp(rng, 5, 3)
    gamma = 0.5 if mode == "rhpdhg" else 1.0
    res = solve(
        prob,
        quick_cfg(engine=EngineConfig(lambda_A=None, mode=mode, gamma=gamma)),
    )
    assert res.status == "optimal", res.message
    assert max(res.rel_gap, res.rel_primal, res.rel_dual) <= 1e-8


@pytest.mark.parametrize("gamma, same_as", [(1.0, "hpr"), (0.0, "hdr")])
def test_rhpdhg_end_points_are_hpr_and_hdr(gamma, same_as):
    """The modes are points of one space: rhpdhg at gamma = 1 is hpr and
    at gamma = 0 is hdr, run for run."""
    rng = np.random.default_rng(57)
    for style in ("two_sided", "equality", "two_sided"):
        prob = random_lp(rng, int(rng.integers(4, 12)), int(rng.integers(2, 8)), style=style)
        a = solve(prob, quick_cfg(
            engine=EngineConfig(lambda_A=None, mode="rhpdhg", gamma=gamma)))
        b = solve(prob, quick_cfg(engine=EngineConfig(lambda_A=None, mode=same_as)))
        assert a.status == b.status
        assert a.iterations == b.iterations and a.events == b.events
        assert a.restarts > 0
        for got, want in ((a.x, b.x), (a.y, b.y), (a.z, b.z)):
            assert np.array_equal(got, want)


def test_engine_sigma_is_the_starting_penalty():
    rng = np.random.default_rng(58)
    prob = random_lp(rng, 5, 3)
    res = solve(prob, quick_cfg(engine=EngineConfig(lambda_A=None, sigma=7.0)))
    assert res.trace[0].sigma == 7.0
    assert res.events[0].sigma_before == 7.0


def test_pure_reflection_mode_runs_without_restarts():
    rng = np.random.default_rng(56)
    prob = random_lp(rng, 4, 2)
    res = solve(
        prob,
        quick_cfg(engine=EngineConfig(lambda_A=None, mode="pr"), iter_limit=500),
    )
    # the un-anchored method makes no restarts regardless of configuration
    assert res.restarts == 0
    assert res.events == ()
    assert res.status in ("optimal", "iter_limit")


def test_t1_zero_path_matches_projection_path():
    rng = np.random.default_rng(60)
    prob = random_lp(rng, 6, 3, style="equality")
    r_proj = solve(prob, quick_cfg())
    r_exact = solve(
        prob,
        quick_cfg(engine=EngineConfig(lambda_A=None, t1_zero_path=True)),
    )
    assert r_proj.status == "optimal" and r_exact.status == "optimal"
    assert r_exact.message == ""  # the requested path was taken
    assert r_exact.primal_obj == pytest.approx(r_proj.primal_obj, rel=1e-6, abs=1e-8)


def test_t1_zero_path_falls_back_on_inequality_rows():
    rng = np.random.default_rng(61)
    prob = random_lp(rng, 4, 2, style="two_sided")
    res = solve(
        prob, quick_cfg(engine=EngineConfig(lambda_A=None, t1_zero_path=True))
    )
    # two-sided rows cannot use the normal-equations route; the driver
    # takes the proximal y-step and says so
    assert res.status == "optimal"
    assert res.message == (
        "normal-equations path unavailable (not every row is an equality); "
        "using proximal y-step"
    )


@pytest.mark.parametrize("case", ["factor", "inequality", "rows"])
def test_lambda_A_is_fitted_only_off_the_normal_equations_route(case, monkeypatch):
    """Only the proximal y-step reads lambda_A.  A solve whose
    normal-equations factor is in use never estimates it; one whose
    factor is refused (a row that is not an equality, or more rows than
    the factor takes) estimates it once, and its message is unchanged."""
    estimate, calls = solver_module.estimate_lambda_A, []

    def counted(A):
        calls.append(A.shape)
        return estimate(A)

    monkeypatch.setattr(solver_module, "estimate_lambda_A", counted)
    rng = np.random.default_rng(62)
    if case == "factor":
        prob = random_lp(rng, 6, 3, style="equality")
    elif case == "inequality":
        prob = random_lp(rng, 4, 2, style="two_sided")
    else:
        prob = random_lp(rng, 40, NormalEquationSolver.MAX_ROWS + 1, style="equality",
                         density=0.05)
    engine = EngineConfig(lambda_A=None, t1_zero_path=True)
    res = solve(prob, quick_cfg(engine=engine, iter_limit=5 if case == "rows" else 50_000))
    if case == "factor":
        assert calls == [] and res.message == "" and res.status == "optimal"
        return
    assert calls == [prob.A.shape]
    reason = ("not every row is an equality" if case == "inequality" else
              "normal-equations path supports up to 2000 rows, got 2001")
    fallback = f"normal-equations path unavailable ({reason}); using proximal y-step"
    if case == "inequality":
        assert res.status == "optimal" and res.message == fallback
    else:
        assert res.status == "iter_limit" and res.message.startswith(fallback + "; blocking")


def test_default_engine_config_estimates_lambda():
    """An EngineConfig that names only the mode leaves lambda_A to the
    estimate, here about 1.7 on the scaled matrix, above the shift 1.0
    that a set value would claim."""
    prob = LpProblem(
        c=[1.0, 1.0],
        A=SparseMatrix.from_dense([[3.0, 1.0], [1.0, 2.0]]),
        l_con=[1.0, 1.0],
        u_con=[np.inf, np.inf],
        l_var=[0.0, 0.0],
        u_var=[10.0, 10.0],
    )
    res = solve(prob, SolverConfig(engine=EngineConfig(mode="hdr")))
    assert res.status == "optimal"
    npt.assert_allclose(res.x, [0.2, 0.4], atol=1e-7)
    assert SolverConfig().engine == EngineConfig()


def test_explicit_lambda_below_norm_rejected():
    """solve fits lambda_A to the scaled matrix and refuses any set value:
    one below ||A||^2, and on [[3, 1], [1, 2]] also ||A||^2 itself (about
    13.1), which is several times the shift the scaled problem needs.  A
    step called directly still takes an explicit lambda_A."""
    one = LpProblem(
        c=[0.0],
        A=SparseMatrix.from_dense([[3.0]]),
        l_con=[0.0],
        u_con=[1.0],
        l_var=[0.0],
        u_var=[1.0],
    )
    dense = np.array([[3.0, 1.0], [1.0, 2.0]])
    two = LpProblem(
        c=[1.0, 1.0],
        A=SparseMatrix.from_dense(dense),
        l_con=[1.0, 1.0],
        u_con=[np.inf, np.inf],
        l_var=[0.0, 0.0],
        u_var=[10.0, 10.0],
    )
    norm2 = float(np.linalg.norm(dense, 2) ** 2)
    for prob, lam, scaling in ((one, 0.5, "none"), (two, norm2, "ruiz"), (two, norm2, "none")):
        with pytest.raises(ValueError, match="lambda_A is fitted by solve"):
            solve(prob, quick_cfg(engine=EngineConfig(lambda_A=lam), scaling=scaling))
    step = pr_step(Iterate.zeros(2, 2), two, EngineConfig(lambda_A=norm2))
    assert np.all(np.isfinite(proximal_point(step).buf))


# ---------------------------------------------------------------------------
# determinism, warm starts, limits


def test_solve_is_deterministic():
    rng = np.random.default_rng(90)
    prob = random_lp(rng, 6, 4)
    r1 = solve(prob, quick_cfg())
    r2 = solve(prob, quick_cfg())
    npt.assert_array_equal(r1.x, r2.x)
    npt.assert_array_equal(r1.y, r2.y)
    assert r1.iterations == r2.iterations
    assert [t.k for t in r1.trace] == [t.k for t in r2.trace]
    assert [t.sigma for t in r1.trace] == [t.sigma for t in r2.trace]


def test_warm_start_accelerates():
    rng = np.random.default_rng(91)
    prob = random_lp(rng, 6, 4)
    cold = solve(prob, quick_cfg())
    assert cold.status == "optimal"
    warm = solve(
        prob,
        quick_cfg(initial_iterate=Iterate(cold.y, cold.z, cold.x)),
    )
    assert warm.status == "optimal"
    assert warm.iterations <= cold.iterations


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 3), (3, 3)])
def test_warm_start_of_the_wrong_shape_is_refused(m, n):
    """Blocks that do not match the LP are refused, not broadcast: a
    1-element warm start on a 2 x 3 LP would run as x = [9, 9, 9]."""
    prob = random_lp(np.random.default_rng(92), 3, 2)
    bad = Iterate(np.full(m, 5.0), np.zeros(n), np.full(n, 9.0))
    with pytest.raises(ValueError, match=r"the LP needs \(2, 3\)"):
        solve(prob, quick_cfg(initial_iterate=bad))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("block", ["y", "z", "x"])
def test_non_finite_warm_start_is_refused(block, value):
    """A NaN or infinite entry in a warm start is refused, naming its
    block, not stepped from: the loop would end numerical_error at k = 0
    and report the start, NaN or inf included, as the answer."""
    prob = random_lp(np.random.default_rng(93), 2, 1, style="equality")
    parts = dict(y=np.zeros(1), z=np.zeros(2), x=np.zeros(2))
    parts[block][0] = value
    with pytest.raises(ValueError, match=f"non-finite entry in {block}"):
        solve(prob, quick_cfg(initial_iterate=Iterate(**parts)))


@pytest.mark.parametrize("mode", ["hpr", "hdr", "pr", "epr", "rhpdhg"])
@pytest.mark.parametrize("equality", [False, True], ids=["proximal", "normal"])
def test_solve_ignores_starting_z(mode, equality):
    """z is not part of the iteration state: a warm start with a random z
    block solves bit for bit as the same start with z = 0."""
    rng = np.random.default_rng(94)
    prob = random_lp(rng, 9, 5, style="equality" if equality else "two_sided")
    y0, x0 = rng.standard_normal(5), rng.uniform(0.0, 1.0, 9)
    engine = EngineConfig(mode=mode, gamma=0.5, t1_zero_path=equality)
    a, b = (solve(prob, quick_cfg(iter_limit=3000, engine=engine,
                                  initial_iterate=Iterate(y0, z0, x0)))
            for z0 in (10.0 * rng.standard_normal(9), np.zeros(9)))
    assert a.message == b.message
    assert "unavailable" not in a.message  # the asked-for y-step route ran
    assert (a.status, a.iterations, a.events) == (b.status, b.iterations, b.events)
    assert a.iterations > 0 and a.trace
    for got, want in ((a.x, b.x), (a.y, b.y), (a.z, b.z)):
        assert got.tobytes() == want.tobytes()
    strip = [dataclasses.replace(rec, seconds=0.0) for rec in a.trace]
    assert strip == [dataclasses.replace(rec, seconds=0.0) for rec in b.trace]


def test_iter_limit_zero():
    res = solve(prob_corner(), quick_cfg(iter_limit=0))
    assert res.status == "iter_limit"
    assert res.iterations == 0
    assert res.x.shape == (1,)


def test_iter_limit_returns_best_checkpoint():
    rng = np.random.default_rng(92)
    prob = random_lp(rng, 6, 4)
    res = solve(prob, quick_cfg(iter_limit=5, check_interval=100))
    assert res.status == "iter_limit"
    assert res.iterations == 5
    assert np.all(np.isfinite(res.x))


def test_limit_exit_names_blocking_residual():
    """An iter_limit exit names the residual furthest above tol, with its
    value and tol, after any message the solve already had."""
    rng = np.random.default_rng(92)
    prob = random_lp(rng, 6, 4)
    names = ("rel_gap", "rel_primal", "rel_dual")
    for limit, before in ((5, ""), (0, "iteration limit is zero; ")):
        res = solve(prob, quick_cfg(iter_limit=limit, tol=1e-6))
        assert res.status == "iter_limit"
        residuals = (res.rel_gap, res.rel_primal, res.rel_dual)
        worst = int(np.argmax(residuals))
        assert residuals[worst] > 1e-6
        assert res.message == (
            f"{before}blocking residual: {names[worst]} = "
            f"{residuals[worst]:.3e}, tol = 1.0e-06"
        )


def test_time_limit():
    rng = np.random.default_rng(93)
    prob = random_lp(rng, 6, 4)
    res = solve(prob, quick_cfg(tol=1e-14, time_limit=1e-7, iter_limit=10_000_000))
    assert res.status in ("time_limit", "optimal")
    # with a limit this tight the solve must not run anywhere near the cap
    assert res.solve_seconds < 30.0


def test_time_limit_read_every_iteration():
    """With no checkpoint due for a million iterations and no restarts, the
    solve still stops at the time limit, checkpointing the iteration that
    passed it."""
    rng = np.random.default_rng(94)
    prob = random_lp(rng, 300, 150, density=0.3)
    limit = 0.3
    res = solve(prob, quick_cfg(tol=1e-14, time_limit=limit, iter_limit=10**6,
                                check_interval=10**6,
                                restart=RestartConfig(enabled=False)))
    assert res.status == "time_limit"
    last = res.trace[-1]
    assert last.k == res.iterations
    per_iter = last.seconds / res.iterations
    assert last.seconds - limit <= 0.05 + 5 * per_iter
    assert res.solve_seconds - limit <= 0.25
    assert np.all(np.isfinite(res.x)) and np.all(np.isfinite(res.y))


def test_divergence_detected():
    # free growth direction with a huge gradient: iterates blow up fast
    prob = LpProblem(
        c=[-1e9],
        A=SparseMatrix.from_dense([[1.0]]),
        l_con=[-np.inf],
        u_con=[np.inf],
        l_var=[0.0],
        u_var=[np.inf],
    )
    res = solve(prob, quick_cfg(iter_limit=200_000))
    assert res.status == "numerical_error"
    assert "1e12" in res.message or "diverged" in res.message


# ---------------------------------------------------------------------------
# trace and restart bookkeeping


def test_trace_and_events_consistent():
    rng = np.random.default_rng(94)
    prob = random_lp(rng, 6, 4)
    res = solve(prob, quick_cfg())
    assert res.status == "optimal"
    ks = [t.k for t in res.trace]
    assert ks == sorted(ks)
    assert all(t.sigma > 0.0 for t in res.trace)
    assert all(np.isfinite(t.merit) for t in res.trace)
    # final trace row is the accepted candidate
    last = res.trace[-1]
    assert max(last.rel_gap, last.rel_primal, last.rel_dual) <= 1e-8
    valid = {"sufficient", "necessary_no_progress", "long_loop", "fixed"}
    for ev in res.events:
        assert ev.reason in valid
        assert SIGMA_MIN <= ev.sigma_after <= SIGMA_MAX
        assert ev.tau >= 1
    assert res.restarts == len(res.events)


def test_fixed_period_restarts(monkeypatch):
    # every face point discarded: this LP would otherwise end on its face
    # at its first fixed restart, before that restart is logged
    monkeypatch.setattr(solver_module._FaceFinish, "finish", lambda self, cand: None)
    rng = np.random.default_rng(95)
    prob = random_lp(rng, 6, 4)
    res = solve(
        prob,
        quick_cfg(
            restart=RestartConfig(enabled=False, fixed_period=50),
            iter_limit=2_000,
        ),
    )
    assert len(res.events) >= 1
    assert all(ev.reason == "fixed" for ev in res.events)
    assert all(ev.tau == 50 for ev in res.events)


def test_restarts_disabled_entirely():
    rng = np.random.default_rng(96)
    prob = random_lp(rng, 4, 2, scale=0.05)
    res = solve(
        prob,
        quick_cfg(
            tol=1e-6,
            restart=RestartConfig(enabled=False),
            iter_limit=300_000,
        ),
    )
    assert res.events == ()
    assert res.status == "optimal"


# ---------------------------------------------------------------------------
# complexity diagnostics


def test_complexity_hand_instance():
    prob = prob_corner()
    w0 = Iterate.zeros(1, 1)
    w_star = Iterate(np.array([0.0]), np.array([-1.0]), np.array([1.0]))
    rep = complexity_diagnostics(
        prob, EngineConfig(sigma=1.0, lambda_A=1.0), w0, w_star, num_iters=2
    )
    assert rep.r0 == pytest.approx(1.0, rel=1e-12)
    assert rep.norm_a == pytest.approx(1.0, rel=1e-12)
    # first step moves by exactly the bound; second step lands on the optimum
    npt.assert_allclose(rep.ratios_step, [1.0, 0.0], atol=1e-12)
    npt.assert_allclose(rep.ratios_kkt, [1.0 / 3.0, 0.0], atol=1e-12)
    npt.assert_allclose(rep.ratios_obj_lower, [1.0, 0.0], atol=1e-12)
    npt.assert_allclose(rep.ratios_obj_upper, [0.0, 0.0], atol=1e-12)
    assert rep.max_ratio == pytest.approx(1.0, rel=1e-12)


def test_complexity_requires_resolved_config():
    prob = prob_corner()
    w = Iterate.zeros(1, 1)
    with pytest.raises(ValueError, match="mode"):
        complexity_diagnostics(prob, EngineConfig(mode="hdr"), w, w, 1)
    with pytest.raises(ValueError, match="lambda_A"):
        complexity_diagnostics(prob, EngineConfig(lambda_A=None), w, w, 1)


@pytest.mark.parametrize("mode", ["hpr", "hdr", "rhpdhg", "pr", "epr"])
def test_loop_step_allocates_no_vector(mode):
    """After warm-up, a step of the loop on the CSR route writes its two
    products, zeta, the partial reflection, w - w_hat, the merit and the
    average or copy into preallocated vectors: 200 steps on a
    2,000 x 4,000 LP keep the traced peak below one n-vector of 8 n
    bytes."""
    import tracemalloc

    rng = np.random.default_rng(23)
    m, n = 2_000, 4_000
    A = sp.random(m, n, density=0.002, random_state=rng, format="csr")
    x0 = rng.uniform(0.0, 1.0, n)
    b = A @ x0
    prob = LpProblem(rng.standard_normal(n), SparseMatrix(A), b - 1.0, b + 1.0,
                     np.zeros(n), np.ones(n))
    assert prob.A.dense is None
    work, _, ecfg, normal_eq, start, _ = solver_module._setup(
        prob, SolverConfig(engine=EngineConfig(mode=mode, gamma=0.5)))
    state = solver_module._LoopState(work, ecfg, normal_eq, start)
    for t in range(5):
        state.step(ecfg, t)
    tracemalloc.start()
    try:
        for t in range(5, 205):
            state.step(ecfg, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n, f"traced peak {peak} bytes"


@pytest.mark.parametrize("mode", ["hpr", "hdr", "rhpdhg", "pr", "epr"])
def test_loop_step_on_two_ordered_operands_allocates_no_vector(mode, monkeypatch):
    """The same on an LP at the ``ORDERED_MIN_ROWS`` cutoff, whose working
    problem is ordered by row and column length and whose A^T y gathers
    the rows of a CSR copy of A^T: the products take no vector for their
    result."""
    import hprlp.sparse

    monkeypatch.setattr(hprlp.sparse, "ORDERED_MIN_ROWS", 2_000)
    m, n = 2_000, 4_000
    A = SparseMatrix(sp.random(m, n, density=0.002, random_state=0, format="csr"))
    prob = LpProblem(np.zeros(n), A, -np.ones(m), np.ones(m), np.zeros(n), np.ones(n))
    work = solver_module._setup(prob, SolverConfig())[0]
    assert A._aty.format == "csc" and work.A._aty.format == "csr"
    test_loop_step_allocates_no_vector(mode)


@pytest.mark.parametrize("normal", [False, True], ids=["proximal", "normal"])
@pytest.mark.parametrize("mode", ["hpr", "hdr", "rhpdhg", "pr", "epr"])
def test_loop_checks_its_buffers_once(mode, normal, monkeypatch):
    """The loop's buffers pass the kernels' checks once, when the loop
    state is built: 200 steps with a restart every 50 call neither the
    products' and the average's ``_check_out``, nor ``project_box``'s
    ``_check_box``, nor the step's ``_check_step``, each of which a
    public call of its kernel still makes."""
    import hprlp.engine
    import hprlp.model
    import hprlp.sparse

    rng = np.random.default_rng(31)
    prob = random_lp(rng, 30, 12, style="equality" if normal else "two_sided")
    work, _, ecfg, normal_eq, start, _ = solver_module._setup(
        prob, SolverConfig(engine=EngineConfig(mode=mode, gamma=0.5, t1_zero_path=normal)))
    assert ecfg.t1_zero_path == normal
    state = solver_module._LoopState(work, ecfg, normal_eq, start)
    calls = []

    def counted(name, check):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return check(*args, **kwargs)
        return wrapper

    for module, name in ((hprlp.sparse, "_check_out"), (hprlp.engine, "_check_out"),
                         (hprlp.model, "_check_box"), (hprlp.engine, "_check_step")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for k in range(200):
        t = k % 50
        if k and t == 0:
            state.restart(state.candidate())
        state.step(ecfg, t)
    assert calls == []
    work.A.matvec(state.w.x, out=np.empty(work.m))
    halpern_step(state.anchor, state.w, 3)
    hprlp.engine.project_box(state.w.x, work.l_var, work.u_var)
    pr_step(state.anchor, work, ecfg, normal_eq)
    assert sorted(calls) == ["_check_box", "_check_out", "_check_out", "_check_step"]


@pytest.mark.parametrize("normal", [False, True], ids=["proximal", "normal"])
@pytest.mark.parametrize("mode", ["hpr", "hdr", "rhpdhg", "pr", "epr"])
def test_carried_product_is_the_product_of_the_state(mode, normal):
    """Every mode carries the product of its state, A x on the proximal
    route and A^T y on the normal-equations route, through its steps and
    through restarts to the checkpoint's candidate (the ergodic mean in
    epr): over 400 steps with a restart every 50 it stays within
    1e-12 (1 + |fresh|) of a fresh product of w."""
    rng = np.random.default_rng(29)
    prob = random_lp(rng, 30, 12, style="equality" if normal else "two_sided")
    work, _, ecfg, normal_eq, start, _ = solver_module._setup(
        prob, SolverConfig(engine=EngineConfig(mode=mode, gamma=0.5, t1_zero_path=normal)))
    assert ecfg.t1_zero_path == normal
    state = solver_module._LoopState(work, ecfg, normal_eq, start)
    A = work.A
    for k in range(400):
        t = k % 50
        if k and t == 0:
            state.restart(state.candidate())
        state.step(ecfg, t)
        fresh = A.rmatvec(state.w.y) if normal else A.matvec(state.w.x)
        err = np.linalg.norm(state.w.p - fresh)
        assert err <= 1e-12 * (1.0 + np.linalg.norm(fresh)), f"step {k}: off by {err:.3e}"
