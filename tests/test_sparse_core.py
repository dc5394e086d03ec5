import numpy as np
import numpy.testing as npt
import pytest

from hprlp import SparseMatrix, estimate_lambda_A


def test_from_coo_sums_duplicates():
    A = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 4.0])
    npt.assert_array_equal(A.to_dense(), [[3.0, 0.0], [0.0, 4.0]])
    assert A.nnz == 2


def test_from_dense_round_trip():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, -3.0, 0.0]])
    A = SparseMatrix.from_dense(dense)
    assert A.shape == (2, 3)
    npt.assert_array_equal(A.to_dense(), dense)


def test_identity():
    eye = SparseMatrix.identity(3)
    npt.assert_array_equal(eye.to_dense(), np.eye(3))


def test_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        SparseMatrix.from_dense([[np.nan]])


def test_csc_arrays_read_only():
    A = SparseMatrix.from_dense([[1.0, 2.0]])
    with pytest.raises(ValueError):
        A.values[0] = 7.0


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


def test_transpose_dot_self_dense():
    dense = np.array([[1.0, 2.0], [0.0, 1.0]])
    A = SparseMatrix.from_dense(dense)
    npt.assert_allclose(A.transpose_dot_self_dense(), dense @ dense.T, rtol=1e-15)


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
    A = SparseMatrix.from_coo(2, 2, [], [], [])
    with pytest.raises(ValueError, match="all-zero"):
        estimate_lambda_A(A)


def test_rmatvec_matches_csc_transpose_bitwise():
    """The cached A^T gives exactly what csc.T @ y gives, empty rows and
    columns included, and reads the CSC's own read-only arrays."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        m, n = rng.integers(1, 30, size=2)
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
