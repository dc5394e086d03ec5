import copy
import pickle
import re

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hprlp import Iterate, LpProblem, SparseMatrix
from hprlp.model import box_support, dual_objective, project_box, relative_residuals

from conftest import random_lp
from theory import kkt_residual, minus, plus, primal_objective, times


def tiny_problem():
    """min -x subject to x in [0, 2] (row) and x in [0, 1] (box)."""
    return LpProblem(
        c=[-1.0],
        A=SparseMatrix.from_dense([[1.0]]),
        l_con=[0.0],
        u_con=[2.0],
        l_var=[0.0],
        u_var=[1.0],
    )


# ---------------------------------------------------------------------------
# project_box


def test_project_box_basic():
    v = np.array([-2.0, 0.5, 7.0])
    lo = np.array([0.0, 0.0, 0.0])
    hi = np.array([1.0, 1.0, 1.0])
    npt.assert_array_equal(project_box(v, lo, hi), [0.0, 0.5, 1.0])


def test_project_box_infinite_bounds_identity():
    v = np.array([-1e30, 3.0, 1e30])
    lo = np.full(3, -np.inf)
    hi = np.full(3, np.inf)
    npt.assert_array_equal(project_box(v, lo, hi), v)


def test_project_box_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        project_box(np.zeros(3), np.zeros(2), np.zeros(3))


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=6),
    st.lists(st.floats(-100, 100), min_size=1, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_project_box_idempotent_and_nonexpansive(vals_a, vals_b):
    k = min(len(vals_a), len(vals_b))
    a = np.array(vals_a[:k])
    b = np.array(vals_b[:k])
    lo = np.minimum(a, b) - 1.0
    hi = np.maximum(a, b) + 1.0
    pa = project_box(a, lo, hi)
    pb = project_box(b, lo, hi)
    # projection is idempotent and 1-Lipschitz
    npt.assert_array_equal(project_box(pa, lo, hi), pa)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12
    assert np.all(pa >= lo) and np.all(pa <= hi)


# ---------------------------------------------------------------------------
# box_support


def test_box_support_finite_box():
    # sup over [0,4] x [-1,5] of <(2,-3), v> = 2*4 + (-3)*(-1)
    assert box_support(np.array([2.0, -3.0]), np.array([0.0, -1.0]), np.array([4.0, 5.0])) == 11.0


def test_box_support_zero_times_infinity_is_zero():
    s = np.zeros(2)
    assert box_support(s, np.full(2, -np.inf), np.full(2, np.inf)) == 0.0


@pytest.mark.parametrize(
    "s,lo,hi",
    [
        ([1.0], [0.0], [np.inf]),
        ([-1.0], [-np.inf], [0.0]),
    ],
)
def test_box_support_infinite(s, lo, hi):
    assert box_support(np.array(s), np.array(lo), np.array(hi)) == np.inf


def test_box_support_empty():
    assert box_support(np.array([]), np.array([]), np.array([])) == 0.0


def test_dual_objective_reads_cached_masks():
    """dual_objective passes each box's isinf masks, cached on the problem,
    and gets the bits of box_support computing them itself."""
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(40):
        m, n = 4, 6
        lo_c, lo_v = rng.standard_normal(m) - 1.0, rng.standard_normal(n) - 1.0
        hi_c, hi_v = lo_c + rng.uniform(0, 2, m), lo_v + rng.uniform(0, 2, n)
        lo_c[rng.uniform(size=m) < 0.3] = -np.inf
        hi_v[rng.uniform(size=n) < 0.3] = np.inf
        prob = LpProblem(c=np.zeros(n), A=SparseMatrix.from_dense(np.ones((m, n))),
                         l_con=lo_c, u_con=hi_c, l_var=lo_v, u_var=hi_v)
        y, z = rng.standard_normal(m), rng.standard_normal(n)
        sk = box_support(-y, lo_c, hi_c)
        sc = box_support(-z, lo_v, hi_v)
        want = np.inf if np.isinf(sk) or np.isinf(sc) else sk + sc
        assert dual_objective(y, z, prob) == want
        seen.add(bool(np.isinf(want)))
        masks = prob._infinite_bounds
        assert all(not mask.flags.writeable for pair in masks for mask in pair)
        assert box_support(-y, lo_c, hi_c, masks[0]) == sk
    assert seen == {False, True}


# ---------------------------------------------------------------------------
# LpProblem validation


def test_problem_shapes_and_props():
    prob = tiny_problem()
    assert prob.m == 1 and prob.n == 1
    assert prob.objective_sign == 1.0
    assert not prob.rows_are_equalities()


def test_problem_rejects_bound_crossing():
    with pytest.raises(ValueError, match="lower bound exceeds"):
        LpProblem(
            c=[0.0],
            A=SparseMatrix.from_dense([[1.0]]),
            l_con=[1.0],
            u_con=[0.0],
            l_var=[0.0],
            u_var=[1.0],
        )


def test_problem_rejects_nan_bounds():
    with pytest.raises(ValueError, match="NaN"):
        LpProblem(
            c=[0.0],
            A=SparseMatrix.from_dense([[1.0]]),
            l_con=[np.nan],
            u_con=[1.0],
            l_var=[0.0],
            u_var=[1.0],
        )


@pytest.mark.parametrize("bound, value, message", [
    ("l_var", np.inf, "variable 1: lower bound is +inf"),
    ("u_var", -np.inf, "variable 1: upper bound is -inf"),
    ("l_con", np.inf, "row 0: lower bound is +inf"),
    ("u_con", -np.inf, "row 0: upper bound is -inf"),
], ids=["l_var", "u_var", "l_con", "u_con"])
def test_problem_rejects_an_infinite_bound_on_the_wrong_side(bound, value, message):
    """A lower bound of +inf or an upper bound of -inf leaves no point
    in the box even where it equals the other bound; MPS can write one
    (a LO bound or a G-row RHS of 1e400)."""
    bounds = {"l_con": [0.0], "u_con": [4.0], "l_var": [0.0, 0.0], "u_var": [1.0, 1.0]}
    other = {"l_var": "u_var", "u_var": "l_var", "l_con": "u_con", "u_con": "l_con"}[bound]
    bounds[bound][-1] = bounds[other][-1] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        LpProblem(c=[1.0, 1.0], A=SparseMatrix.from_dense([[1.0, 1.0]]), **bounds)


@pytest.mark.parametrize("A", [sp.csr_matrix([[1.0, 1.0]]), np.array([[1.0, 1.0]])],
                         ids=["scipy", "ndarray"])
def test_problem_refuses_a_matrix_that_is_not_a_sparse_matrix(A):
    with pytest.raises(TypeError, match=r"SparseMatrix\.from_dense"):
        LpProblem(c=[1.0, 1.0], A=A, l_con=[0.0], u_con=[4.0], l_var=[0.0, 0.0],
                  u_var=[1.0, 1.0])


def test_problem_rejects_nonfinite_objective():
    with pytest.raises(ValueError, match="finite"):
        LpProblem(
            c=[np.inf],
            A=SparseMatrix.from_dense([[1.0]]),
            l_con=[0.0],
            u_con=[1.0],
            l_var=[0.0],
            u_var=[1.0],
        )


def test_problem_rejects_nonfinite_objective_constant():
    with pytest.raises(ValueError, match="objective constant must be finite"):
        LpProblem(c=[0.0], A=SparseMatrix.from_dense([[1.0]]), l_con=[0.0], u_con=[1.0],
                  l_var=[0.0], u_var=[1.0], obj_constant=np.nan)


def test_problem_rejects_a_vector_of_the_wrong_shape():
    with pytest.raises(ValueError, match=re.escape(r"u_var must have shape (1,), got (2,)")):
        LpProblem(c=[0.0], A=SparseMatrix.from_dense([[1.0]]), l_con=[0.0], u_con=[1.0],
                  l_var=[0.0], u_var=[1.0, 1.0])


def test_problem_rejects_bad_sense():
    with pytest.raises(ValueError, match="obj_sense"):
        LpProblem(
            c=[0.0],
            A=SparseMatrix.from_dense([[1.0]]),
            l_con=[0.0],
            u_con=[1.0],
            l_var=[0.0],
            u_var=[1.0],
            obj_sense="max",
        )


def test_problem_arrays_read_only():
    prob = tiny_problem()
    with pytest.raises(ValueError):
        prob.c[0] = 5.0


def test_maximize_sign():
    prob = LpProblem(
        c=[1.0],
        A=SparseMatrix.from_dense([[1.0]]),
        l_con=[0.0],
        u_con=[1.0],
        l_var=[0.0],
        u_var=[1.0],
        obj_sense="maximize",
    )
    assert prob.objective_sign == -1.0


def test_rows_are_equalities():
    prob = LpProblem(
        c=[0.0, 0.0],
        A=SparseMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]]),
        l_con=[1.0, 2.0],
        u_con=[1.0, 2.0],
        l_var=[-1.0, -1.0],
        u_var=[5.0, 5.0],
    )
    assert prob.rows_are_equalities()


# ---------------------------------------------------------------------------
# Iterate


def test_iterate_arithmetic():
    a = Iterate(np.array([1.0]), np.array([2.0, 3.0]), np.array([4.0, 5.0]))
    b = Iterate(np.array([10.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    s = plus(a, b)
    npt.assert_array_equal(s.y, [11.0])
    npt.assert_array_equal(minus(a, b).z, [2.0, 2.0])
    npt.assert_array_equal(times(2.0, a).x, [8.0, 10.0])


def test_iterate_zeros_and_copy():
    w = Iterate.zeros(2, 3)
    assert w.y.shape == (2,) and w.z.shape == (3,) and w.x.shape == (3,)
    c = w.copy()
    c.x[0] = 9.0
    assert w.x[0] == 0.0

    # the constructor packs copies of its blocks into a new buffer laid
    # out z, y, x, so that buf[n:] holds y and x
    y, z, x = np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0]), np.array([6, 7, 8])
    w = Iterate(y, z, x)
    npt.assert_array_equal(w.buf, [3.0, 4.0, 5.0, 1.0, 2.0, 6.0, 7.0, 8.0])
    assert w.buf.dtype == np.float64
    for block in (w.y, w.z, w.x):
        assert np.shares_memory(block, w.buf)
    assert not hasattr(w, "zy")
    npt.assert_array_equal(w.buf[3:], np.concatenate((w.y, w.x)))
    w.y[0] = w.z[0] = w.x[0] = -1.0
    assert (y[0], z[0], x[0]) == (1.0, 3.0, 6)
    w.buf[:] = 0.0
    assert (y[0], z[0], x[0]) == (1.0, 3.0, 6)
    with pytest.raises(ValueError, match="same size"):
        Iterate(y, z, x[:2])
    for twin in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w)):
        npt.assert_array_equal(twin.buf, w.buf)
        assert np.shares_memory(twin.y, twin.buf) and not np.shares_memory(twin.buf, w.buf)
    for block in range(3):
        parts = [np.zeros(2), np.zeros(3), np.zeros(3)]
        parts[block][1] = np.nan
        assert np.isnan(Iterate(*parts).max_abs())


def test_iterate_product_block_layout():
    """Iterate.empty(m, n, p) lays z, y, x and p out in that order in one
    storage, of which buf (z, y, x), yx (y, x), p and state (y, x, p) are
    views; the constructor, copy and pickling keep z, y and x and give
    an empty p."""
    m, n, p = 2, 3, 4
    w = Iterate.empty(m, n, p)
    storage = w.buf.base
    assert storage.shape == (m + 2 * n + p,)
    storage[:] = np.arange(storage.size)
    views = dict(z=range(0, 3), y=range(3, 5), x=range(5, 8), buf=range(0, 8),
                 yx=range(3, 8), p=range(8, 12), state=range(3, 12))
    for name, entries in views.items():
        view = getattr(w, name)
        assert view.base is storage, name
        npt.assert_array_equal(view, list(entries), err_msg=name)
    w.state[:] = -1.0
    npt.assert_array_equal(storage, [0.0, 1.0, 2.0] + [-1.0] * 9)
    assert Iterate.empty(m, n).p.size == 0

    w.z[:] = [7.0, 8.0, 9.0]
    made = Iterate(w.y, w.z, w.x)
    for twin in (made, w.copy(), pickle.loads(pickle.dumps(w))):
        assert twin.buf.tobytes() == w.buf.tobytes()
        assert twin.p.size == 0 and twin.state.size == twin.yx.size == m + n
        assert twin.buf.base is twin.p.base and not np.shares_memory(twin.buf, storage)


def test_iterate_max_abs():
    w = Iterate(np.array([-3.0]), np.array([2.0]), np.array([1.0]))
    assert w.max_abs() == 3.0
    assert Iterate.zeros(0, 0).max_abs() == 0.0
    w_nan = Iterate(np.array([np.nan]), np.array([0.0]), np.array([0.0]))
    assert np.isnan(w_nan.max_abs())


# ---------------------------------------------------------------------------
# objectives and residuals


def test_objectives_at_optimum():
    prob = tiny_problem()
    # optimum x* = 1, with y* = 0 (row inactive) and z* = c - A^T y = -1
    assert primal_objective(np.array([1.0]), prob) == -1.0
    assert dual_objective(np.array([0.0]), np.array([-1.0]), prob) == 1.0


def test_dual_objective_infinite():
    prob = LpProblem(
        c=[1.0],
        A=SparseMatrix.from_dense([[1.0]]),
        l_con=[0.0],
        u_con=[0.0],
        l_var=[-np.inf],
        u_var=[np.inf],
    )
    # -z = -1 < 0 pairs with l_var = -inf
    assert dual_objective(np.array([0.0]), np.array([1.0]), prob) == np.inf


def test_kkt_residual_zero_at_saddle():
    prob = tiny_problem()
    w = Iterate(np.array([0.0]), np.array([-1.0]), np.array([1.0]))
    r = kkt_residual(w, prob)
    npt.assert_array_equal(r.primal, [0.0])
    npt.assert_array_equal(r.dual_box, [0.0])
    npt.assert_array_equal(r.dual_eq, [0.0])
    assert r.norm == 0.0


def test_kkt_residual_norm():
    prob = tiny_problem()
    w = Iterate(np.array([0.0]), np.array([0.0]), np.array([5.0]))
    r = kkt_residual(w, prob)
    # primal 5 - clip(5,[0,2]) = 3, box 5 - clip(5,[0,1]) = 4, dual -1
    npt.assert_array_equal(r.primal, [3.0])
    npt.assert_array_equal(r.dual_box, [4.0])
    npt.assert_array_equal(r.dual_eq, [-1.0])
    assert r.norm == pytest.approx(np.sqrt(26.0), rel=1e-15)


def test_relative_residuals_zero_at_saddle():
    prob = tiny_problem()
    w = Iterate(np.array([0.0]), np.array([-1.0]), np.array([1.0]))
    assert relative_residuals(w, prob) == (0.0, 0.0, 0.0)


def test_relative_residuals_infinite_gap():
    prob = LpProblem(
        c=[1.0],
        A=SparseMatrix.from_dense([[1.0]]),
        l_con=[0.0],
        u_con=[0.0],
        l_var=[-np.inf],
        u_var=[np.inf],
    )
    w = Iterate(np.array([0.0]), np.array([1.0]), np.array([0.0]))
    gap, pres, dres = relative_residuals(w, prob)
    assert gap == np.inf
    assert pres == 0.0
    assert dres == 0.0


def test_weak_duality_on_random_instances():
    """-dual objective is a lower bound on <c, x> for feasible x."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        prob = random_lp(rng, n, m, style="two_sided")
        # feasible primal point: project a random point, then pull row
        # activity into range is not needed -- the generator guarantees
        # a feasible box point exists; sample one by rejection
        for _ in range(100):
            x = rng.uniform(prob.l_var, prob.u_var)
            ax = prob.A.matvec(x)
            if np.all(ax >= prob.l_con - 1e-12) and np.all(ax <= prob.u_con + 1e-12):
                break
        else:
            continue
        y = rng.standard_normal(m)
        z = prob.c - prob.A.rmatvec(y)
        d = dual_objective(y, z, prob)
        assert -d <= float(np.dot(prob.c, x)) + 1e-9
