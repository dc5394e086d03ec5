import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

import hprlp.sparse
from hprlp import LpProblem, SolverConfig, SparseMatrix, solve
from hprlp.sparse import DENSE_MAX_ENTRIES, estimate_lambda_A

from conftest import random_lp


def test_constructor_sums_duplicates():
    A = SparseMatrix(sp.coo_matrix(([1.0, 2.0, 4.0], ([0, 0, 1], [0, 0, 1])), shape=(2, 2)))
    npt.assert_array_equal(A.to_dense(), [[3.0, 0.0], [0.0, 4.0]])
    assert A.nnz == 2


def test_from_dense_round_trip():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, -3.0, 0.0]])
    A = SparseMatrix.from_dense(dense)
    assert A.shape == (2, 3)
    npt.assert_array_equal(A.to_dense(), dense)


def test_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        SparseMatrix.from_dense([[np.nan]])


def test_csc_arrays_read_only():
    A = SparseMatrix.from_dense([[1.0, 2.0]])
    with pytest.raises(ValueError):
        A.to_csc().data[0] = 7.0


def test_matvec_and_rmatvec_agree_with_dense():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, n = rng.integers(1, 9, size=2)
        dense = rng.standard_normal((m, n))
        dense[rng.uniform(size=(m, n)) < 0.5] = 0.0
        A = SparseMatrix.from_dense(dense)
        x = rng.standard_normal(n)
        y = rng.standard_normal(m)
        npt.assert_allclose(A.matvec(x), dense @ x, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(A.rmatvec(y), dense.T @ y, rtol=1e-12, atol=1e-12)


def test_adjoint_identity():
    """<A x, y> == <x, A^T y> up to roundoff."""
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((6, 4))
    A = SparseMatrix.from_dense(dense)
    for _ in range(10):
        x = rng.standard_normal(4)
        y = rng.standard_normal(6)
        lhs = float(np.dot(A.matvec(x), y))
        rhs = float(np.dot(x, A.rmatvec(y)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_matvec_shape_check():
    A = SparseMatrix.from_dense([[1.0, 2.0]])
    with pytest.raises(ValueError, match="shape"):
        A.matvec(np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        A.rmatvec(np.zeros(2))


def test_lambda_estimate_singleton():
    # ||A||^2 for A = [[3]] is 9 exactly
    A = SparseMatrix.from_dense([[3.0]])
    assert estimate_lambda_A(A, safety=1.0) == pytest.approx(9.0, rel=1e-6)


def test_lambda_estimate_diagonal():
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0]))
    est = estimate_lambda_A(A)  # default safety 1.05
    assert est == pytest.approx(4.0 * 1.05, rel=1e-3)


def test_lambda_estimate_dominates_norm():
    """With the default safety margin the estimate covers ||A||^2."""
    rng = np.random.default_rng(5)
    for _ in range(15):
        m, n = rng.integers(1, 12, size=2)
        dense = rng.standard_normal((m, n))
        A = SparseMatrix.from_dense(dense)
        true_sq = np.linalg.norm(dense, 2) ** 2
        est = estimate_lambda_A(A)
        assert est >= true_sq * (1.0 - 1e-6)
        assert est <= true_sq * 1.05 * (1.0 + 1e-3)


def test_lambda_estimate_zero_matrix_raises():
    A = SparseMatrix(sp.coo_matrix((2, 2)))
    with pytest.raises(ValueError, match="all-zero"):
        estimate_lambda_A(A)


def test_rmatvec_matches_csc_transpose_bitwise():
    """Above the dense cutoff the cached A^T gives exactly what csc.T @ y
    gives, empty rows and columns included, and reads the CSC's own
    read-only arrays."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        m, n = rng.integers(160, 200, size=2)
        assert m * n > DENSE_MAX_ENTRIES
        dense = rng.standard_normal((m, n))
        dense[rng.uniform(size=(m, n)) < 0.6] = 0.0
        dense[rng.integers(m)] = 0.0
        dense[:, rng.integers(n)] = 0.0
        A = SparseMatrix.from_dense(dense)
        y = rng.standard_normal(m)
        assert np.array_equal(A.rmatvec(y), A.to_csc().T @ y)

        csc, at = A.to_csc(), A._csr_t
        for mine, theirs in ((at.data, csc.data), (at.indices, csc.indices),
                             (at.indptr, csc.indptr)):
            assert theirs.size == 0 or np.shares_memory(mine, theirs)
            assert not mine.flags.writeable
        with pytest.raises(ValueError):
            at.indptr[0] = 1


# ---------------------------------------------------------------------------
# dense route for small matrices


def _sparse_matrix(rng, m, n, density=0.3):
    dense = rng.standard_normal((m, n))
    dense[rng.uniform(size=(m, n)) >= density] = 0.0
    dense[rng.integers(m)] = 0.0
    dense[:, rng.integers(n)] = 0.0
    return dense


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (40, 90), (100, 250), (0, 5),
                                   (5, 0), (101, 250), (160, 300)])
def test_products_agree_across_routes(shape):
    """Up to DENSE_MAX_ENTRIES entries both products run on one dense,
    read-only copy and agree with the CSR products to a few ulps of
    |A| |x|, empty rows and columns included; above it no copy is made."""
    m, n = shape
    rng = np.random.default_rng(m * 1000 + n)
    dense = _sparse_matrix(rng, m, n) if m and n else np.zeros(shape)
    A = SparseMatrix.from_dense(dense)
    is_dense = isinstance(A._ax, np.ndarray)
    assert is_dense == (m * n <= DENSE_MAX_ENTRIES)
    if not is_dense:
        assert A._ax is A.to_csr() and A._aty is A._csr_t
        return
    assert A._aty.base is A._ax and A._ax.flags.c_contiguous
    for arr in (A._ax, A._aty):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 1.0
    abs_csr = abs(A.to_csr())
    for _ in range(5):
        x = rng.standard_normal(n)
        y = rng.standard_normal(m)
        bound = 8 * np.finfo(float).eps * (abs_csr @ np.abs(x))
        assert np.all(np.abs(A.matvec(x) - A.to_csr() @ x) <= bound)
        bound = 8 * np.finfo(float).eps * (abs_csr.T @ np.abs(y))
        assert np.all(np.abs(A.rmatvec(y) - A.to_csc().T @ y) <= bound)
    # an empty row or column gives an exact zero
    if m > 1 and n > 1:
        assert np.any(A.matvec(rng.standard_normal(n)) == 0.0)
        assert np.any(A.rmatvec(rng.standard_normal(m)) == 0.0)


def test_small_lp_solves_on_both_routes(monkeypatch):
    rng = np.random.default_rng(8)
    prob = random_lp(rng, 40, 20)
    cfg = SolverConfig(tol=1e-8)
    dense = solve(prob, cfg)
    monkeypatch.setattr(hprlp.sparse, "DENSE_MAX_ENTRIES", -1)
    csr = LpProblem(prob.c, SparseMatrix(prob.A.to_csc()), prob.l_con, prob.u_con,
                    prob.l_var, prob.u_var)
    assert not isinstance(csr.A._ax, np.ndarray)
    sparse = solve(csr, cfg)
    assert dense.status == sparse.status == "optimal"
    for a, b in ((dense.primal_obj, sparse.primal_obj), (dense.dual_obj, sparse.dual_obj)):
        assert abs(a - b) <= cfg.tol * (1.0 + abs(a) + abs(b))
