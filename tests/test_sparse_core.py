import copy
import pickle
import threading
import tracemalloc

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
    npt.assert_array_equal(A.to_csc().toarray(), [[3.0, 0.0], [0.0, 4.0]])
    assert A.nnz == 2


@pytest.mark.parametrize("source", ["coo", "csr"])
def test_duplicates_sum_in_input_order_in_long_rows(source):
    """Duplicates are added one by one in input order also in rows of more
    than 16 entries, where scipy's index sort is not stable: A through
    its own CSR and through the CSR of its transpose (A's CSC) gives the
    same bits, and each cell equals the input-order sum."""
    rng = np.random.default_rng(5)
    m, n, k = 3, 40, 400
    rows, cols = rng.integers(0, m, k), rng.integers(0, n, k)
    vals = rng.standard_normal(k) * 10.0 ** rng.integers(-8, 9, k)
    want = {}
    for cell, v in zip(zip(rows.tolist(), cols.tolist()), vals.tolist()):
        want[cell] = want[cell] + v if cell in want else v
    assert max(np.bincount(rows)) > 16 and len(want) < k
    if source == "coo":
        matrix = sp.coo_matrix((vals, (rows, cols)), shape=(m, n))
        transposed = matrix.T  # a COO transpose keeps the entry order
    else:  # a CSR with duplicates and unsorted indices, in storage order
        order = np.argsort(rows, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m))))
        matrix = sp.csr_matrix((vals, cols, indptr), shape=(m, n))
        assert not matrix.has_canonical_format
        transposed = sp.csc_matrix((vals, cols, indptr), shape=(n, m))
    by_rows = SparseMatrix(matrix).to_csr()
    by_cols = SparseMatrix(transposed).to_csr().T.tocsr()
    for got in (by_rows, by_cols):
        got = got.tocoo()
        cells = list(zip(got.row.tolist(), got.col.tolist()))
        assert sorted(cells) == sorted(want)
        assert [v.hex() for v in got.data.tolist()] == [want[c].hex() for c in cells]
    assert by_rows.data.tobytes() == by_cols.data.tobytes()


def test_from_dense_round_trip():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, -3.0, 0.0]])
    A = SparseMatrix.from_dense(dense)
    assert A.shape == (2, 3)
    npt.assert_array_equal(A.to_csc().toarray(), dense)


def test_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        SparseMatrix.from_dense([[np.nan]])


def test_csc_arrays_read_only():
    A = SparseMatrix.from_dense([[1.0, 2.0]])
    with pytest.raises(ValueError):
        A.to_csc().data[0] = 7.0


@pytest.mark.parametrize("source", ["coo_duplicates", "unsorted_csc"])
def test_to_csc_is_scipys_canonical_csc(source):
    """A is kept in CSR alone; ``to_csc`` converts it on each call to
    scipy's canonical CSC of the input, bit for bit, read-only.  Three
    duplicates of one entry are summed in COO order, as a CSC
    canonicalisation sums them: (0.1 + 0.2) + 0.3 rounds differently
    from 0.1 + (0.2 + 0.3).  (scipy sorts the indices of a row or column
    with an unstable sort, which keeps the order of duplicates only in
    rows and columns of at most 16 entries, as here.)"""
    shape = (5, 7)
    rng = np.random.default_rng(5)
    dense = rng.standard_normal(shape)
    dense[rng.uniform(size=shape) < 0.7] = 0.0
    dense[1, 2] = 0.0  # where the duplicates go
    if source == "coo_duplicates":
        rows, cols = np.nonzero(dense)
        vals = dense[rows, cols]
        matrix = sp.coo_matrix(
            (np.concatenate((vals, [0.1, 0.2, 0.3])),
             (np.concatenate((rows, [1, 1, 1])), np.concatenate((cols, [2, 2, 2])))),
            shape=shape)
    else:
        csc = sp.csc_matrix(dense)
        order = np.concatenate([np.arange(lo, hi)[::-1]
                                for lo, hi in zip(csc.indptr[:-1], csc.indptr[1:])])
        matrix = sp.csc_matrix((csc.data[order], csc.indices[order], csc.indptr), shape=shape)
        assert not matrix.has_sorted_indices
    want = sp.csc_matrix(matrix, copy=True)
    want.sum_duplicates()
    want.sort_indices()
    A = SparseMatrix(matrix)
    got = A.to_csc()
    assert got.format == "csc" and got.shape == want.shape and got is not A.to_csc()
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()
    if source == "coo_duplicates":
        assert ((0.1 + 0.2) + 0.3) != (0.1 + (0.2 + 0.3)) and want[1, 2] == (0.1 + 0.2) + 0.3
    for arr in (got.data, got.indices, got.indptr):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        got.data[0] = 7.0


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


def test_lambda_estimate_rejects_a_safety_factor_that_is_not_positive():
    with pytest.raises(ValueError, match="safety factor must be positive"):
        estimate_lambda_A(SparseMatrix.from_dense([[3.0]]), safety=0)


def test_lambda_estimate_restarts_after_a_zero_product(monkeypatch):
    """A start vector whose product is zero, here forced on the first
    A^T v, is replaced by the generator's next vector, from which the
    power iteration converges."""
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0]))
    rmatvec, calls = A.rmatvec, []

    def zero_first(y, out=None, **kwargs):
        calls.append(1)
        out = rmatvec(y, out=out, **kwargs)
        if len(calls) == 1:
            out.fill(0.0)
        return out

    monkeypatch.setattr(A, "rmatvec", zero_first)
    assert estimate_lambda_A(A, safety=1.0) == pytest.approx(4.0, rel=1e-3)
    assert len(calls) > 2


def test_repr_names_the_shape_and_the_stored_entries():
    assert repr(SparseMatrix.from_dense([[1.0, 0.0, 2.0]])) == "SparseMatrix(1x3, nnz=2)"


def test_lambda_estimate_zero_matrix_raises():
    A = SparseMatrix(sp.coo_matrix((2, 2)))
    with pytest.raises(ValueError, match="all-zero"):
        estimate_lambda_A(A)


def _assert_transpose_of_csr(A):
    """A^T y runs on a CSC view of A's CSR mirror: its own read-only
    arrays, no copy, at any number of rows."""
    csr, at = A.to_csr(), A._aty
    assert at.format == "csc" and at.shape == A.shape[::-1]
    for mine, theirs in ((at.data, csr.data), (at.indices, csr.indices),
                         (at.indptr, csr.indptr)):
        assert theirs.size == 0 or np.shares_memory(mine, theirs)
        assert not mine.flags.writeable
    with pytest.raises(ValueError):
        at.indptr[0] = 1


def _with_duplicates(rng, dense):
    """``dense`` as COO triplets in which about a third of the entries are
    split into two summands, plus three pairs that cancel to explicit
    zeros."""
    rows, cols = np.nonzero(dense)
    vals = dense[rows, cols].copy()
    split = rng.uniform(size=vals.size) < 0.3
    part = rng.standard_normal(int(split.sum()))
    vals[split] -= part
    zr, zc = rng.integers(dense.shape[0], size=3), rng.integers(dense.shape[1], size=3)
    zv = rng.standard_normal(3)
    return sp.coo_matrix(
        (np.concatenate((vals, part, zv, -zv)),
         (np.concatenate((rows, rows[split], zr, zr)),
          np.concatenate((cols, cols[split], zc, zc)))),
        shape=dense.shape,
    )


def test_rmatvec_matches_csc_transpose_bitwise():
    """Above the dense cutoff, on a matrix from the constructor, A^T y, a
    scatter over A's CSR rows, gives exactly what the gather of
    csc.T @ y gives: empty rows and columns, and duplicate entries summed
    at construction, included."""
    rng = np.random.default_rng(17)
    for trial in range(12):
        m, n = rng.integers(160, 200, size=2)
        assert m * n > DENSE_MAX_ENTRIES
        dense = rng.standard_normal((m, n))
        dense[rng.uniform(size=(m, n)) < 0.6] = 0.0
        dense[rng.choice(m, size=3, replace=False)] = 0.0
        dense[:, rng.integers(n)] = 0.0
        A = SparseMatrix(_with_duplicates(rng, dense) if trial % 2 else dense)
        for _ in range(3):
            y = rng.standard_normal(m)
            assert np.array_equal(A.rmatvec(y), A.to_csc().T @ y)
        _assert_transpose_of_csr(A)


def _assert_copy_of_csc(at, want):
    """``at`` is a read-only CSR matrix of A^T whose compressed arrays
    hold the bits of ``want``, A's canonical CSC form."""
    assert at.format == "csr" and at.shape == want.shape[::-1]
    for arr in (at.data, at.indices, at.indptr):
        assert not arr.flags.writeable
    assert np.array_equal(at.indptr, want.indptr) and np.array_equal(at.indices, want.indices)
    assert at.data.tobytes() == want.data.tobytes()


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
    |A| |x|, empty rows and columns included; above it no dense copy is
    made, and the products give the bits of scipy's."""
    m, n = shape
    rng = np.random.default_rng(m * 1000 + n)
    dense = _sparse_matrix(rng, m, n) if m and n else np.zeros(shape)
    A = SparseMatrix.from_dense(dense)
    is_dense = isinstance(A._ax, np.ndarray)
    assert is_dense == (m * n <= DENSE_MAX_ENTRIES)
    if not is_dense:
        assert A._ax is A.to_csr()
        _assert_transpose_of_csr(A)
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        assert A.matvec(x).tobytes() == (A.to_csr() @ x).tobytes()
        assert A.rmatvec(y).tobytes() == (A.to_csc().T @ y).tobytes()
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


# ---------------------------------------------------------------------------
# products written into a given vector


def _on_route(dense, route, monkeypatch):
    """``dense`` as a SparseMatrix on the dense copy, on CSR, or on CSR
    with a CSR copy of A^T (the route of every working matrix that
    ``solve`` orders by length)."""
    if route != "dense":
        monkeypatch.setattr(hprlp.sparse, "DENSE_MAX_ENTRIES", -1)
    A = (SparseMatrix._with_transpose if route == "ordered" else SparseMatrix.from_dense)(dense)
    assert (A.dense is not None) == (route == "dense")
    return A


@pytest.mark.parametrize("route", ["dense", "csr", "ordered"])
@pytest.mark.parametrize("shape", [(30, 12), (12, 30), (1, 7), (7, 1), (0, 4), (4, 0)])
@pytest.mark.parametrize("empty", [False, True], ids=["entries", "nnz0"])
def test_products_into_out_are_bit_exact(route, shape, empty, monkeypatch):
    """``out=`` gives the bits of the call without it, and on CSR, with a
    copy of A^T or not, those of scipy's ``csr @ x`` and ``csr.T @ y``, on the dense
    copy those of ``dense @ x``: empty rows and columns, and a matrix with
    no entries, included.  Whatever ``out`` held before is overwritten."""
    m, n = shape
    rng = np.random.default_rng(m * 100 + n)
    dense = np.zeros(shape) if empty or not (m and n) else _sparse_matrix(rng, m, n, 0.4)
    A = _on_route(dense, route, monkeypatch)
    csr = A.to_csr()
    for _ in range(3):
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        ax, aty = np.full(m, np.nan), np.full(n, np.nan)
        assert A.matvec(x, out=ax) is ax and A.rmatvec(y, out=aty) is aty
        want_ax = dense @ x if route == "dense" else csr @ x
        want_aty = dense.T @ y if route == "dense" else csr.T @ y
        assert ax.tobytes() == want_ax.tobytes() == A.matvec(x).tobytes()
        assert aty.tobytes() == want_aty.tobytes() == A.rmatvec(y).tobytes()


def _refused_outs(size):
    """Vectors of ``size`` entries, or nearly, that no product may write."""
    read_only = np.zeros(size)
    read_only.setflags(write=False)
    return {
        "float32": np.zeros(size, dtype=np.float32),
        "shape": np.zeros(size + 1),
        "2-d": np.zeros((size, 1)),
        "strided": np.zeros(2 * size)[::2],
        "read-only": read_only,
        "list": [0.0] * size,
    }


@pytest.mark.parametrize("route", ["dense", "csr", "ordered"])
def test_products_refuse_an_out_they_cannot_write(route, monkeypatch):
    """An ``out`` that is not a writable C-contiguous float64 array of the
    product's shape, or that shares memory with the vector multiplied, is
    refused."""
    m, n = 6, 4
    A = _on_route(_sparse_matrix(np.random.default_rng(2), m, n, 0.6), route, monkeypatch)
    x, y = np.ones(n), np.ones(m)
    for ax, aty in zip(_refused_outs(m).values(), _refused_outs(n).values()):
        with pytest.raises(ValueError):
            A.matvec(x, out=ax)
        with pytest.raises(ValueError):
            A.rmatvec(y, out=aty)
    buf = np.ones(m + n)
    with pytest.raises(ValueError, match="share"):
        A.matvec(buf[:n], out=buf[n - 1:n - 1 + m])
    with pytest.raises(ValueError, match="share"):
        A.rmatvec(buf[:m], out=buf[:n])
    # adjacent slices of one buffer share no memory
    assert A.matvec(buf[:n], out=buf[n:]).tobytes() == A.matvec(x).tobytes()


# ---------------------------------------------------------------------------
# a CSR copy of A^T, on the working matrix ordered by length


def test_only_the_working_matrix_holds_a_copy_of_the_transpose():
    """Above the dense cutoff, the public constructor keeps A^T y on the
    scatter, with no copy of A^T, for the bits of ``to_csc().T @ y``; so
    do the parsed problem's matrix and the scaled one.  Only the working matrix that ``solve`` orders by length
    holds the CSR copy of A^T, whose A^T y has the same bits of its own
    ``to_csc()``."""
    from hprlp.solver import _setup, apply_scaling

    rng = np.random.default_rng(59)
    m, n = 300, 200
    matrix = sp.random(m, n, density=0.02, random_state=rng, format="csr")
    prob = LpProblem(rng.standard_normal(n), SparseMatrix(matrix), -np.ones(m), np.ones(m),
                     np.zeros(n), np.ones(n))
    scaled = apply_scaling(prob)[0]
    work = _setup(prob, SolverConfig())[0]
    for A in (prob.A, scaled.A, work.A):
        assert A.dense is None and A.shape == (m, n)
        y = rng.standard_normal(m)
        assert A.rmatvec(y).tobytes() == (A.to_csc().T @ y).tobytes()
    for A in (prob.A, scaled.A):
        _assert_transpose_of_csr(A)
    _assert_copy_of_csc(work.A._aty, work.A.to_csc())


def _plain_and_ordered(matrix, monkeypatch):
    """``matrix`` as a SparseMatrix on plain CSR, and as ``solve`` holds
    a working matrix, with the CSR copy of A^T; both above the dense
    cutoff."""
    monkeypatch.setattr(hprlp.sparse, "DENSE_MAX_ENTRIES", -1)
    plain = SparseMatrix(matrix)
    assert plain._ax is plain.to_csr()
    return plain, SparseMatrix._with_transpose(matrix)


def _varied_rows(rng, m, n):
    """A dense m x n matrix whose rows hold from none to all of its
    columns, an empty row and an empty column among them."""
    return _sparse_matrix(rng, m, n, density=rng.uniform(size=(m, 1)))


@pytest.mark.parametrize("m, n", [(60, 45), (45, 60)], ids=["tall", "wide"])
@pytest.mark.parametrize("duplicates", [False, True], ids=["entries", "duplicates"])
def test_ordered_products_are_bit_exact(m, n, duplicates, monkeypatch):
    """With A^T y on a CSR copy of A^T, ``matvec`` and ``rmatvec`` give
    the bits of ``to_csr() @ x`` and ``to_csc().T @ y`` (scipy's
    ``csr.T @ y``), with ``out`` and without, and those of the plain CSR
    route, on a tall and a wide matrix: rows of many lengths, empty rows and columns, and
    duplicate entries summed at construction included.  Whatever ``out``
    held before is overwritten."""
    rng = np.random.default_rng(m * 1000 + n)
    dense = _varied_rows(rng, m, n)
    matrix = _with_duplicates(rng, dense) if duplicates else dense
    plain, A = _plain_and_ordered(matrix, monkeypatch)
    assert A._ax is A.to_csr() and A._aty.format == "csr"
    csr, csc = A.to_csr(), A.to_csc()
    for _ in range(3):
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        ax, aty = np.full(m, np.nan), np.full(n, np.nan)
        assert A.matvec(x, out=ax) is ax and A.rmatvec(y, out=aty) is aty
        assert ax.tobytes() == (csr @ x).tobytes() == A.matvec(x).tobytes()
        assert aty.tobytes() == (csc.T @ y).tobytes() == A.rmatvec(y).tobytes()
        assert aty.tobytes() == (csr.T @ y).tobytes()
        assert ax.tobytes() == plain.matvec(x).tobytes()
        assert aty.tobytes() == plain.rmatvec(y).tobytes()


def test_ordered_matrix_gives_its_canonical_forms(monkeypatch):
    """With a copy of A^T, A gives from ``to_csr`` and ``to_csc`` the
    canonical forms the plain route gives, read-only: ``to_csr`` the
    stored arrays that A x runs on, and the copy of A^T holds those of
    ``to_csc``."""
    rng = np.random.default_rng(41)
    matrix = _with_duplicates(rng, _varied_rows(rng, 50, 70))
    plain, A = _plain_and_ordered(matrix, monkeypatch)
    assert A._ax is A.to_csr() is A.to_csr()
    _assert_copy_of_csc(A._aty, plain.to_csc())
    for got, want in ((A.to_csr(), plain.to_csr()), (A.to_csc(), plain.to_csc())):
        assert got.format == want.format and got.shape == want.shape
        assert got.has_canonical_format
        assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()
        for arr in (got.data, got.indices, got.indptr):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            got.data[0] = 7.0
    assert (A.shape, A.nnz) == (plain.shape, plain.nnz)


def test_ordered_products_into_out_allocate_nothing(monkeypatch):
    """Into ``out``, a product on the route with a copy of A^T takes no
    vector: 100 of each keep the traced peak below one vector of the
    smaller side."""
    rng = np.random.default_rng(43)
    m, n = 300, 500
    _, A = _plain_and_ordered(_varied_rows(rng, m, n), monkeypatch)
    x, y, ax, aty = rng.standard_normal(n), rng.standard_normal(m), np.empty(m), np.empty(n)
    A.matvec(x, out=ax)
    A.rmatvec(y, out=aty)
    tracemalloc.start()
    try:
        for _ in range(100):
            A.matvec(x, out=ax, _prechecked=True)
            A.rmatvec(y, out=aty, _prechecked=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m, f"traced peak {peak} bytes"


def test_ordered_products_in_two_threads(monkeypatch):
    """Two threads that multiply with one matrix with a copy of A^T at
    once both get the bits of one thread: the products keep no state
    between calls."""
    rng = np.random.default_rng(47)
    m, n = 3_000, 2_000
    matrix = sp.random(m, n, density=0.005, random_state=rng, format="csr")
    _, A = _plain_and_ordered(matrix, monkeypatch)
    xs, ys = rng.standard_normal((2, n)), rng.standard_normal((2, m))
    want = [(A.matvec(x).tobytes(), A.rmatvec(y).tobytes()) for x, y in zip(xs, ys)]
    start, wrong = threading.Barrier(2), []

    def multiply(k):
        ax, aty = np.empty(m), np.empty(n)
        start.wait()
        for _ in range(500):
            A.matvec(xs[k], out=ax)
            A.rmatvec(ys[k], out=aty)
            wrong.extend([k] * ((ax.tobytes(), aty.tobytes()) != want[k]))

    threads = [threading.Thread(target=multiply, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert wrong == []


@pytest.mark.parametrize("clone", [lambda A: pickle.loads(pickle.dumps(A)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_ordered_matrix_pickles_and_copies(clone, monkeypatch):
    """A matrix with a copy of A^T pickles and deep-copies, alone or
    inside an LpProblem: the clone keeps the copy's arrays and gives
    both products' bits."""
    rng = np.random.default_rng(53)
    m, n = 80, 60
    _, A = _plain_and_ordered(_with_duplicates(rng, _varied_rows(rng, m, n)), monkeypatch)
    prob = LpProblem(np.ones(n), A, -np.ones(m), np.ones(m), np.zeros(n), np.ones(n))
    assert clone(prob).A.matvec(np.ones(n)).tobytes() == A.matvec(np.ones(n)).tobytes()
    B = clone(A)
    assert B._aty.format == "csr" and B._ax is B.to_csr()
    for mine, theirs in ((B._aty, A._aty), (B._ax, A._ax)):
        assert np.array_equal(mine.indptr, theirs.indptr)
        assert np.array_equal(mine.indices, theirs.indices)
        assert mine.data.tobytes() == theirs.data.tobytes()
    x, y = rng.standard_normal(n), rng.standard_normal(m)
    ax, aty = np.empty(m), np.empty(n)
    assert B.matvec(x, out=ax).tobytes() == A.matvec(x).tobytes()
    assert B.rmatvec(y, out=aty).tobytes() == A.rmatvec(y).tobytes()
    assert B.to_csr().data.tobytes() == A.to_csr().data.tobytes()
