"""Immutable sparse-matrix wrapper and a power-method norm estimate.

Storage is compressed sparse column with a CSR mirror so that both A x
and A^T y run against a row-major layout.  The CSR mirror of A is a copy;
A^T needs none, since the CSC arrays of A, read as CSR, are A^T.  That
CSR view of A^T is built once and shares the CSC's read-only data,
indices and indptr.  Backed by scipy.sparse.  A matrix of at most
``DENSE_MAX_ENTRIES`` entries also keeps a dense copy, and both products
run on it through BLAS dgemv instead.  All products are deterministic.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

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


class SparseMatrix:
    """CSC sparse matrix (canonical) with a CSR mirror for A x and a
    CSR view of A^T on the CSC arrays for A^T y, or, for a matrix of at
    most ``DENSE_MAX_ENTRIES`` entries, one C-ordered dense copy for
    both products.

    Duplicate entries are summed and indices sorted at construction;
    the stored arrays are read-only afterwards.
    """

    def __init__(self, matrix):
        csc = sp.csc_matrix(matrix, dtype=np.float64, copy=True)
        csc.sum_duplicates()
        csc.sort_indices()
        if csc.nnz and not np.all(np.isfinite(csc.data)):
            raise ValueError("matrix entries must be finite")
        self._csc = csc
        self._csr = csc.tocsr()
        for a in (csc.data, csc.indices, csc.indptr, self._csr.data,
                  self._csr.indices, self._csr.indptr):
            a.setflags(write=False)
        # what csc.T returns, kept: rebuilding it per product rescans indices
        self._csr_t = sp.csr_matrix(
            (csc.data, csc.indices, csc.indptr), shape=csc.shape[::-1], copy=False
        )
        # the operands of A x and A^T y; the dense A^T is a view of the copy
        self._ax, self._aty = self._csr, self._csr_t
        self._dense = None
        if csc.shape[0] * csc.shape[1] <= DENSE_MAX_ENTRIES:
            dense = csc.toarray(order="C")
            dense.setflags(write=False)
            self._ax, self._aty = dense, dense.T
            self._dense = dense

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coo(cls, m, n, rows, cols, vals) -> "SparseMatrix":
        """Build from triplets; duplicates are summed."""
        return cls(sp.coo_matrix((vals, (rows, cols)), shape=(m, n)))

    @classmethod
    def from_dense(cls, array) -> "SparseMatrix":
        return cls(sp.csc_matrix(np.asarray(array, dtype=np.float64)))

    @classmethod
    def identity(cls, n) -> "SparseMatrix":
        return cls(sp.identity(n, format="csc"))

    # -- structure ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._csc.shape

    @property
    def nnz(self) -> int:
        return self._csc.nnz

    @property
    def col_ptrs(self) -> np.ndarray:
        return self._csc.indptr

    @property
    def row_idx(self) -> np.ndarray:
        return self._csc.indices

    @property
    def values(self) -> np.ndarray:
        return self._csc.data

    def to_dense(self) -> np.ndarray:
        return self._csc.toarray()

    @property
    def dense(self) -> np.ndarray | None:
        """The read-only dense copy the products run on, or None above
        ``DENSE_MAX_ENTRIES`` entries."""
        return self._dense

    def to_csc(self) -> sp.csc_matrix:
        return self._csc

    def to_csr(self) -> sp.csr_matrix:
        return self._csr

    def transpose_dot_self_dense(self) -> np.ndarray:
        """Dense A A^T (used by the equality-row normal equations)."""
        return (self._csr @ self._csr.T).toarray()

    def __repr__(self):
        m, n = self.shape
        return f"SparseMatrix({m}x{n}, nnz={self.nnz})"

    # -- products -----------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x."""
        if np.shape(x) != (self.shape[1],):
            raise ValueError(f"x must have shape ({self.shape[1]},), got {np.shape(x)}")
        return self._ax @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A^T y."""
        if np.shape(y) != (self.shape[0],):
            raise ValueError(f"y must have shape ({self.shape[0]},), got {np.shape(y)}")
        return self._aty @ y


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
    lam = 0.0
    for _ in range(5000):
        w = A.matvec(A.rmatvec(v))
        lam_new = float(np.dot(v, w))
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            # start vector orthogonal to the range; restart deterministically
            v = rng.standard_normal(m)
            v /= np.linalg.norm(v)
            continue
        v = w / nrm
        if abs(lam_new - lam) <= rel_tol * max(lam_new, np.finfo(float).tiny):
            lam = lam_new
            break
        lam = lam_new
    return safety * lam
