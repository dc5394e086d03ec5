"""Immutable sparse-matrix wrapper and a power-method norm estimate.

A is stored in compressed sparse row form.  A x gathers its rows; A^T y
scatters them through ``csr.T``, scipy's CSC view of A^T on the same
read-only arrays.  Only the working matrix that ``solve`` orders by row
and column length from ``ORDERED_MIN_ROWS`` rows
(``solver._order_by_length``) also holds an explicit CSR copy of A^T
(``SparseMatrix._with_transpose``), whose rows A^T y gathers, so that
both of its products gather rows in order of length.  Backed by
scipy.sparse.  A matrix of at most ``DENSE_MAX_ENTRIES`` entries also
keeps a dense copy, and both products run on it through BLAS dgemv
instead, called by ``ndarray.dot``, which gives the bits of ``@`` for
less call overhead.  All products are deterministic, and the CSR routes
give the bits of scipy's ``csr @ x`` and ``csr.T @ y``.

Either product can write into a given vector (``out=``) instead of a new
one.  On CSR both call the kernel that ``csr @ x`` and ``csr.T @ y``
call, ``csr_matvec`` or ``csc_matvec`` of ``scipy.sparse._sparsetools``
(private scipy API), on the stored arrays, without scipy's dispatch and
with the same bits; the bit tests in ``tests/test_sparse_core.py`` guard
that on other scipy versions.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

__all__ = ["SparseMatrix", "estimate_lambda_A"]

# Up to this many entries (m * n) the products run on a dense copy of A.
# There a product is mostly call overhead, and numpy's dgemv call costs
# less than scipy's sparse dispatch; above it the dense arithmetic costs
# more.  Microseconds per product, CSR against dense, best of 9 repeats
# in two runs on one OpenBLAS thread of a 2-vCPU Xeon:
#   shape       nnz    A x: CSR / dense    A^T y: CSR / dense
#   60 x 150    1,800  5.9-6.4 / 2.5-3.8   9.9 / 4.4-4.7
#   100 x 250   1,250  8.1-8.4 / 6.6-7.4   7.8-9.6 / 5.2-8.1
#   120 x 250   1,500  6.2-8.0 / 6.9-7.7   7.3-8.0 / 6.2-7.1
#   200 x 400   1,600  7.8 / 10.8-15.6     9.8-10.7 / 16.3-16.4
#   600 x 1500  6,030  12-15 / 390         17 / 395
# The routes break even near 25,000 entries at low density; denser
# matrices break even later, so the cutoff errs towards CSR.
DENSE_MAX_ENTRIES = 25_000

# Above DENSE_MAX_ENTRIES, from this many rows of A, ``solve`` orders the
# working problem's rows and columns by length and gives its matrix a
# CSR copy of A^T (``SparseMatrix._with_transpose``), so that both
# products take their rows in that order.  The kernel leaves a row through a
# branch whose trip count changes from row to row; once a matrix has
# more rows than the branch predictor can learn, that exit is
# mispredicted on almost every row, and in order of length it rarely is.
# A^T y's scatter loops over A's rows alike.
# Microseconds per product into ``out``, plain against ordered, medians
# of 15 x 300 calls in each of two runs, one core of a 2-vCPU Xeon;
# random rows of 1 to 2k - 1 entries, k = 5 max(m, n) / m.  The ordered
# column was read on copies ordered per product, with a gather back to
# natural order after each, which the ordered working problem does not
# need, so it overstates the ordered cost:
#   shape            nnz*     A x: plain / ordered   A^T y: scatter / ordered
#   600 x 1,500      5,989    4.9-5.0 / 6.9-7.2      6.2-7.3 / 8.2-10.7
#   2,000 x 4,000    20,000   14.7-15.0 / 16.6-17.8  16.4-18.1 / 19.4-19.9
#   4,000 x 2,000    20,000   25.6-25.7 / 19.4-22.4  25.3-36.6 / 16.2-23.9
#   3,000 x 6,000    30,000   29.8-30.6 / 23.5-25.2  35.4-38.6 / 29.9-30.5
#   8,000 x 4,000    40,000   69.5-70.0 / 35.4-36.4  72.6-72.9 / 32.0-32.4
#   1,000 x 20,000   100,000  70.4-73.2 / 72.2-77.8  114.7-115.9 / 87.8-93.0
#   20,000 x 1,000   100,000  203-211 / 84-86        201-208 / 75-76
#   10,000 x 20,000  99,978   136 / 86-90            149-154 / 95-101
#   32,000 x 64,000  320,000  487-519 / 337-365      553-556 / 367-378
# (* about, for the random ones.)  The 600 x 1,500 matrix is the
# equality-normal benchmark's, and the 10,000 x 20,000 one is
# mps-sparse-1e5's after scaling.  The routes break even near 3,000 rows;
# the cutoff errs towards the plain route.  On equality-normal's scaled
# matrix, ordered as ``solve`` orders its working matrix, with no gather
# back, the products tie (ten runs as above): A x 4.7-5.3 / 4.9-5.5 and
# A^T y 5.6-5.9 / 5.4-6.1; the ordering itself takes 0.44 ms of its
# setup.  Ordered from 600 rows, that benchmark kept its 2,700
# iterations, its setup_s rose by 0.5-0.7 ms of about 6.5 and its
# solve_s did not move beyond the spread of its runs, so the cutoff
# stays above it.  For A^T y of a wide matrix
# with fewer rows they break even somewhere between 4,000 and 20,000
# columns (slower ordered at 2,000 x 4,000, faster at 1,000 x 20,000);
# such a matrix stays on the plain route, since no benchmark measures
# that shape end to end.
ORDERED_MIN_ROWS = 4_000


class SparseMatrix:
    """CSR sparse matrix for both products or, for a matrix of at most
    ``DENSE_MAX_ENTRIES`` entries, one C-ordered dense copy for both.

    A x gathers the rows of A's canonical CSR, and A^T y scatters them:
    it adds each product in ascending row order from 0, as a gather over
    A's sorted columns does, for the same bits; its adds go to different
    sums and overlap.  On the scaled mps-sparse-1e5 matrix (99,978
    entries), one core of a 2-vCPU Xeon, best of 5 x 300 calls, the
    scatter took 169-177 us against 222-240 us for that gather in
    natural column order.

    On the working matrix that ``solve`` orders by length
    (``_with_transpose``), A^T y gathers the rows of a CSR copy of A^T
    instead: a row of A^T keeps its entries in ascending row order of A,
    so every sum adds the same products in the same order from 0, for
    the bits of the scatter.  Gathered in natural column order it is
    slower than the scatter (222-240 us above); it pays on a matrix
    whose columns are ordered by length.  A matrix from the constructor,
    such as the parsed or the scaled problem's, holds no copy.

    Duplicate entries are summed one by one in input order, and indices
    sorted, at construction; the stored arrays are read-only afterwards.
    """

    def __init__(self, matrix):
        csr = _canonical_csr(matrix)
        if csr.nnz and not np.all(np.isfinite(csr.data)):
            raise ValueError("matrix entries must be finite")
        m, n = self._shape = csr.shape
        self._nnz = csr.nnz
        # the shapes the products check their vectors against
        self._x_shape, self._y_shape = (n,), (m,)
        self._csr, self._dense = _read_only(csr), None
        # the operands of A x (_ax) and A^T y (_aty), and A^T y's kernel
        if m * n <= DENSE_MAX_ENTRIES:
            dense = csr.toarray(order="C")
            dense.setflags(write=False)
            self._ax, self._aty = dense, dense.T
            self._dense = dense
        else:
            self._ax, self._aty, self._rmv = csr, csr.T, _sparsetools.csc_matvec

    # -- constructors -------------------------------------------------

    @classmethod
    def from_dense(cls, array) -> "SparseMatrix":
        return cls(np.asarray(array, dtype=np.float64))

    @classmethod
    def _with_transpose(cls, matrix) -> "SparseMatrix":
        """``cls(matrix)`` whose A^T y, above ``DENSE_MAX_ENTRIES``
        entries, gathers the rows of an explicit read-only CSR copy of
        A^T: the working matrix of ``solve`` ordered by length
        (``solver._order_by_length``)."""
        A = cls(matrix)
        if A._dense is None:
            A._aty, A._rmv = _read_only(A._csr.T.tocsr()), _sparsetools.csr_matvec
        return A

    # -- structure ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def dense(self) -> np.ndarray | None:
        """The read-only dense copy the products run on, or None above
        ``DENSE_MAX_ENTRIES`` entries."""
        return self._dense

    def to_csc(self) -> sp.csc_matrix:
        """A in canonical CSC form, converted on each call, read-only."""
        return _read_only(self.to_csr().tocsc())

    def to_csr(self) -> sp.csr_matrix:
        """A in canonical CSR form, read-only: the stored arrays."""
        return self._csr

    def __repr__(self):
        m, n = self.shape
        return f"SparseMatrix({m}x{n}, nnz={self.nnz})"

    # -- products -----------------------------------------------------

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None, *,
               _prechecked: bool = False) -> np.ndarray:
        """A x, written into ``out`` (an m-vector, see ``_check_out``) when
        given, or into a new vector, which is returned; ``_prechecked``: see there."""
        if not _prechecked:
            if getattr(x, "shape", None) != self._x_shape and np.shape(x) != self._x_shape:
                raise ValueError(f"x must have shape {self._x_shape}, got {np.shape(x)}")
            if out is not None:
                _check_out(out, self._y_shape, x)
        a = self._ax
        if self._dense is not None:
            return a.dot(x, out=out)
        out = _zeroed(out, self._y_shape)
        _sparsetools.csr_matvec(*a.shape, a.indptr, a.indices, a.data, x, out)
        return out

    def rmatvec(self, y: np.ndarray, out: np.ndarray | None = None, *,
                _prechecked: bool = False) -> np.ndarray:
        """A^T y, written into ``out`` (an n-vector, see ``_check_out``)
        when given, or into a new vector, which is returned; ``_prechecked``: see there."""
        if not _prechecked:
            if getattr(y, "shape", None) != self._y_shape and np.shape(y) != self._y_shape:
                raise ValueError(f"y must have shape {self._y_shape}, got {np.shape(y)}")
            if out is not None:
                _check_out(out, self._x_shape, y)
        at = self._aty
        if self._dense is not None:
            return at.dot(y, out=out)
        out = _zeroed(out, self._x_shape)  # at: A^T, n x m, in CSC on A's arrays or a CSR copy
        self._rmv(*at.shape, at.indptr, at.indices, at.data, y, out)
        return out


def _zeroed(out, shape: tuple[int]) -> np.ndarray:
    """``out`` filled with zeros, or a new zero vector of ``shape`` when
    None: the kernels add to it, as scipy's ``@`` has them add to its
    zeroed result."""
    if out is None:
        return np.zeros(shape)
    out.fill(0.0)
    return out


def _check_out(out, shape: tuple[int], *operands) -> None:
    """Raise ValueError unless ``out`` is a writable C-contiguous float64
    array of ``shape`` that shares no memory with any of ``operands``.
    Given any other array, the kernels (and BLAS) would write into a
    converted copy, and the result would be lost.  A product or
    ``engine.halpern_step`` call marked ``_prechecked`` skips it (a product
    its shape check too): its caller ran them once on vectors of its own."""
    # flags.carray: C-contiguous, aligned and writable
    if not (isinstance(out, np.ndarray) and out.shape == shape
            and out.dtype == np.float64 and out.flags.carray):
        raise ValueError(f"out must be a writable C-contiguous float64 array of shape {shape}")
    for operand in operands:
        if np.shares_memory(out, operand):
            raise ValueError("out must not share memory with a vector it is formed from")


def _canonical_csr(matrix) -> sp.csr_matrix:
    """A float64 CSR copy of ``matrix`` with sorted indices and each set
    of duplicate entries summed one by one in input (storage) order.

    scipy sums duplicates in the order its per-row index sort leaves
    them, which is not stable above 16 entries in a row; so only a dense
    array or a canonical CSR or CSC matrix converts directly, and other
    input goes through ``compress_entries``."""
    if not sp.issparse(matrix) or (matrix.format in ("csr", "csc")
                                   and matrix.has_canonical_format):
        return sp.csr_matrix(matrix, dtype=np.float64, copy=True)
    coo = sp.coo_matrix(matrix, dtype=np.float64)
    return sp.csr_matrix(compress_entries(coo.row, coo.col, coo.data, coo.shape),
                         shape=coo.shape)


def compress_entries(major, minor, values, shape):
    """``(data, indices, indptr)`` of the entries ``values[k]`` at
    ``(major[k], minor[k])`` of a ``shape`` matrix in compressed form
    along its first axis: sorted by major and then minor index, each set
    of duplicates summed one by one in input order."""
    n_major, n_minor = shape
    major = major.astype(np.int64)
    order = np.argsort(major * n_minor + minor, kind="stable")
    major, minor, values = major[order], minor[order], values[order]
    lead = np.ones(values.size, dtype=bool)
    lead[1:] = (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])
    data = values[lead]
    if data.size < values.size:
        rest = ~lead
        np.add.at(data, (np.cumsum(lead) - 1)[rest], values[rest])
    indptr = np.zeros(n_major + 1, dtype=np.int64)
    np.cumsum(np.bincount(major[lead], minlength=n_major), out=indptr[1:])
    return data, minor[lead], indptr


def _read_only(matrix):
    """``matrix`` with its compressed arrays marked read-only."""
    for a in (matrix.data, matrix.indices, matrix.indptr):
        a.setflags(write=False)
    return matrix


def estimate_lambda_A(
    A: SparseMatrix,
    rel_tol: float = 1e-4,
    safety: float = 1.05,
) -> float:
    """Estimate of lambda_max(A A^T) = ||A||_2^2, times a safety factor.

    Power iteration on A A^T from a seed-0 start vector; stops when
    successive Rayleigh estimates agree to rel_tol, or after 5000 steps.
    The safety factor (default 1.05) compensates for the one-sided
    convergence of the power method so the result can be used where at
    least ||A||^2 is required.
    """
    m, n = A.shape
    if A.nnz == 0:
        raise ValueError("cannot estimate the norm of an all-zero matrix")
    if safety <= 0:
        raise ValueError("safety factor must be positive")
    rng = np.random.default_rng(0)
    v = rng.standard_normal(m)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:  # pragma: no cover - measure zero
        v = np.ones(m)
        nrm = np.sqrt(m)
    v /= nrm
    u, w = np.empty(n), np.empty(m)  # A^T v and A A^T v
    lam = 0.0
    for _ in range(5000):
        A.rmatvec(v, out=u, _prechecked=True)
        A.matvec(u, out=w, _prechecked=True)
        lam_new = float(np.dot(v, w))
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            # start vector orthogonal to the range; restart deterministically
            v = rng.standard_normal(m)
            v /= np.linalg.norm(v)
            continue
        np.divide(w, nrm, out=v)
        if abs(lam_new - lam) <= rel_tol * max(lam_new, np.finfo(float).tiny):
            lam = lam_new
            break
        lam = lam_new
    return safety * lam
