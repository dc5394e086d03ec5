import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import linprog

from hprlp import LpProblem, SparseMatrix

from conftest import random_lp
from oracle import oracle_solve


def lp(c, A, l_con, u_con, l_var, u_var, **kw):
    return LpProblem(
        c=c, A=SparseMatrix.from_dense(A), l_con=l_con, u_con=u_con,
        l_var=l_var, u_var=u_var, **kw
    )


def linprog_reference(prob):
    """Cross-check through scipy's HiGHS interface."""
    A = prob.A.to_csc().toarray()
    rows_ub, rhs_ub = [], []
    for i in range(prob.m):
        if np.isfinite(prob.u_con[i]):
            rows_ub.append(A[i])
            rhs_ub.append(prob.u_con[i])
        if np.isfinite(prob.l_con[i]):
            rows_ub.append(-A[i])
            rhs_ub.append(-prob.l_con[i])
    bounds = [
        (
            prob.l_var[j] if np.isfinite(prob.l_var[j]) else None,
            prob.u_var[j] if np.isfinite(prob.u_var[j]) else None,
        )
        for j in range(prob.n)
    ]
    return linprog(
        prob.c,
        A_ub=np.array(rows_ub) if rows_ub else None,
        b_ub=np.array(rhs_ub) if rhs_ub else None,
        bounds=bounds,
        method="highs",
    )


def test_simple_box_optimum():
    sol = oracle_solve(lp([-1.0], [[1.0]], [0.0], [2.0], [0.0], [1.0]))
    assert sol.status == "optimal"
    npt.assert_allclose(sol.x, [1.0], atol=1e-9)
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_two_variable_vertex():
    # min -x - 2y s.t. x + y <= 1, x, y in [0, 1]: unique optimum (0, 1)
    sol = oracle_solve(
        lp([-1.0, -2.0], [[1.0, 1.0]], [-np.inf], [1.0], [0.0, 0.0], [1.0, 1.0])
    )
    assert sol.status == "optimal"
    npt.assert_allclose(sol.x, [0.0, 1.0], atol=1e-9)
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)


def test_degenerate_face_lexicographic_tie_break():
    # min -x - y on x + y <= 1: the whole face is optimal; the reported
    # point is the lexicographically smallest optimal vertex
    sol = oracle_solve(
        lp([-1.0, -1.0], [[1.0, 1.0]], [-np.inf], [1.0], [0.0, 0.0], [1.0, 1.0])
    )
    assert sol.status == "optimal"
    npt.assert_allclose(sol.x, [0.0, 1.0], atol=1e-9)


def test_objective_excludes_constant():
    prob = lp([-1.0], [[1.0]], [0.0], [2.0], [0.0], [1.0], obj_constant=5.0)
    sol = oracle_solve(prob)
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_unbounded():
    prob = lp([-1.0], [[1.0]], [-np.inf], [np.inf], [0.0], [np.inf])
    sol = oracle_solve(prob)
    assert sol.status == "unbounded"
    assert sol.x is None


def test_infeasible_row_vs_box():
    prob = lp([0.0], [[1.0]], [2.0], [3.0], [0.0], [1.0])
    assert oracle_solve(prob).status == "infeasible"


def test_infeasible_constant_row():
    # a zero row forces 0 in [1, 2]
    prob = lp([0.0, 0.0], [[0.0, 0.0], [1.0, 0.0]], [1.0, 0.0], [2.0, 5.0],
              [0.0, 0.0], [1.0, 1.0])
    assert oracle_solve(prob).status == "infeasible"


def test_equality_row():
    # x + y = 1, min x => (0, 1)
    sol = oracle_solve(
        lp([1.0, 0.0], [[1.0, 1.0]], [1.0], [1.0], [0.0, 0.0], [2.0, 2.0])
    )
    assert sol.status == "optimal"
    npt.assert_allclose(sol.x, [0.0, 1.0], atol=1e-9)


def test_size_cap():
    n = 11
    with pytest.raises(ValueError, match="at most"):
        oracle_solve(
            lp(np.zeros(n), np.ones((1, n)), [0.0], [1.0], np.zeros(n), np.ones(n))
        )


def test_matches_linprog_on_random_instances():
    rng = np.random.default_rng(100)
    checked = 0
    for _ in range(25):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        style = ("two_sided", "upper", "equality")[checked % 3]
        prob = random_lp(rng, n, m, style=style)
        sol = oracle_solve(prob)
        ref = linprog_reference(prob)
        assert sol.status == "optimal"
        assert ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
        checked += 1
    assert checked == 25


def test_unbounded_matches_linprog():
    rng = np.random.default_rng(101)
    hits = 0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        A = rng.standard_normal((m, n))
        # half-open boxes and one-sided rows leave room for rays
        prob = lp(
            rng.standard_normal(n), A,
            np.full(m, -np.inf), rng.uniform(0.5, 2.0, m),
            np.zeros(n), np.full(n, np.inf),
        )
        sol = oracle_solve(prob)
        ref = linprog_reference(prob)
        if ref.status == 3:
            assert sol.status == "unbounded"
            hits += 1
        elif ref.status == 0:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
    assert hits >= 3  # the family genuinely produces unbounded cases
