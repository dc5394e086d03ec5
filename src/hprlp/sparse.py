"""Immutable sparse-matrix wrapper and a power-method norm estimate.

Storage is compressed sparse column with a CSR mirror so that both A x
and A^T y run against a row-major layout.  The CSR mirror of A is a copy;
A^T needs none, since the CSC arrays of A, read as CSR, are A^T.  That
CSR view of A^T is built once and shares the CSC's read-only data,
indices and indptr.  Backed by scipy.sparse; all products are
single-threaded and deterministic.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["SparseMatrix", "estimate_lambda_A"]


class SparseMatrix:
    """CSC sparse matrix (canonical) with a CSR mirror for A x and a
    CSR view of A^T on the CSC arrays for A^T y.

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
        return self._csr @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A^T y."""
        if np.shape(y) != (self.shape[0],):
            raise ValueError(f"y must have shape ({self.shape[0]},), got {np.shape(y)}")
        return self._csr_t @ y


def estimate_lambda_A(
    A: SparseMatrix,
    rel_tol: float = 1e-4,
    max_iter: int = 5000,
    safety: float = 1.05,
    seed: int = 0,
) -> float:
    """Estimate of lambda_max(A A^T) = ||A||_2^2, times a safety factor.

    Power iteration on A A^T from a fixed-seed start vector; stops when
    successive Rayleigh estimates agree to rel_tol.  The safety factor
    (default 1.05) compensates for the one-sided convergence of the
    power method so the result can be used where at least ||A||^2 is
    required.
    """
    m, n = A.shape
    if A.nnz == 0:
        raise ValueError("cannot estimate the norm of an all-zero matrix")
    if safety <= 0:
        raise ValueError("safety factor must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:  # pragma: no cover - measure zero
        v = np.ones(m)
        nrm = np.sqrt(m)
    v /= nrm
    lam = 0.0
    for _ in range(max_iter):
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
