"""Pinned trajectories: the iteration count, the bits of the primal
objective and a digest of the checkpoint trace of 33 seeded solves.

Every mode runs on both y-step routes (proximal on a two-sided LP, normal
equations on an equality LP) with both product routes (the dense copy,
and CSR with the dense cutoff switched off), and on one LP above
``DENSE_MAX_ENTRIES``, which runs on CSR by itself.  Those three LPs have
fewer rows than columns; the anchored modes also run on one with more
rows than columns, where the carried A x is longer than x, on both
product routes.  hpr and rhpdhg also run on one LP of
``ORDERED_MIN_ROWS`` rows, whose working problem ``solve`` orders by
row and column length.  A change that only
trims call overhead keeps every pin; one that reorders floating-point
work, even in the last bit of one product or of the restart merit,
moves some of them.  A change
that means to reorder it sets new pins and says so.

The pins hold for the BLAS kernels they were read with: a kernel that
sums in another order (another OpenBLAS build, or another instruction
set picked at run time) rounds differently and moves the trajectories
with no change to this code.  ``_blas_fingerprint`` reads the bits of a
few dot products, matrix-vector products and daxpy updates of fixed
inputs, and the pins are checked only where those bits match the ones
the pins were read with.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.blas import daxpy

import hprlp.sparse
from hprlp import EngineConfig, LpProblem, SolverConfig, SparseMatrix, solve

from conftest import random_lp

# the bits the pins were read with: OpenBLAS 0.3.31 (numpy) and 0.3.30
# (scipy) on an AVX2 x86-64 core
PINNED_BLAS = "1e6d066e097a4b4d"

# (LP, product route, mode): (iterations, primal_obj.hex(), trace digest)
PINS = {
    ("general", "dense", "hpr"): (51, "-0x1.b6674e69af20dp+2", "8bd6ce570501"),
    ("general", "dense", "hdr"): (100, "-0x1.b6674e69af20dp+2", "49a5cfad26fa"),
    ("general", "dense", "pr"): (2000, "-0x1.b682080ed6e5ep+2", "b7bb3be391fa"),
    ("general", "dense", "epr"): (800, "-0x1.b6674e69b754ep+2", "63878dd7d547"),
    ("general", "dense", "rhpdhg"): (83, "-0x1.b6674e69af20cp+2", "f483d38d277f"),
    ("general", "sparse", "hpr"): (51, "-0x1.b6674e69af20dp+2", "5083a98a0b5b"),
    ("general", "sparse", "hdr"): (100, "-0x1.b6674e69af20dp+2", "02e14ac7f768"),
    ("general", "sparse", "pr"): (2000, "-0x1.b682080ed6e5dp+2", "f933a9a2acfa"),
    ("general", "sparse", "epr"): (600, "-0x1.b6674e68ca166p+2", "6ea345f12ed0"),
    ("general", "sparse", "rhpdhg"): (83, "-0x1.b6674e69af20dp+2", "be775a24a6c1"),
    ("equality", "dense", "hpr"): (37, "-0x1.1fd45870510fdp+1", "5e4aa48e72a7"),
    ("equality", "dense", "hdr"): (59, "-0x1.1fd45870510fdp+1", "016bcf7b0dd3"),
    ("equality", "dense", "pr"): (2000, "-0x1.2215c86176449p+1", "65748b611f80"),
    ("equality", "dense", "epr"): (200, "-0x1.1fd4587164214p+1", "2db604eb4915"),
    ("equality", "dense", "rhpdhg"): (48, "-0x1.1fd45870510fdp+1", "242005569767"),
    ("equality", "sparse", "hpr"): (37, "-0x1.1fd45870510fdp+1", "90ab84d6cce8"),
    ("equality", "sparse", "hdr"): (59, "-0x1.1fd45870510fdp+1", "ada50bd6215c"),
    ("equality", "sparse", "pr"): (2000, "-0x1.2215c8617644cp+1", "c8a3d33e51af"),
    ("equality", "sparse", "epr"): (200, "-0x1.1fd4587164213p+1", "ec6aa1007a7a"),
    ("equality", "sparse", "rhpdhg"): (48, "-0x1.1fd45870510fdp+1", "6538b121b2c6"),
    ("large", "sparse", "hpr"): (409, "-0x1.bc834fb43e6cfp+5", "1154b091a7a6"),
    ("large", "sparse", "hdr"): (900, "-0x1.bc834fb43e6cfp+5", "b7c6cfe8976e"),
    ("large", "sparse", "pr"): (2000, "-0x1.bc6dc0bef15cbp+5", "57af77508e49"),
    ("large", "sparse", "epr"): (2000, "-0x1.bc8224015fdfdp+5", "04ea7c6593b5"),
    ("large", "sparse", "rhpdhg"): (600, "-0x1.bc834fb43e6cfp+5", "1078c86c0f1e"),
    ("tall", "dense", "hpr"): (100, "0x1.1d741aa8254e8p+0", "4eb7b4867061"),
    ("tall", "dense", "hdr"): (200, "0x1.1d741aa8254e7p+0", "4c7eee889431"),
    ("tall", "dense", "rhpdhg"): (200, "0x1.1d741aa8254e8p+0", "82317ba40b46"),
    ("tall", "sparse", "hpr"): (100, "0x1.1d741aa8254e8p+0", "04f098fe6076"),
    ("tall", "sparse", "hdr"): (200, "0x1.1d741aa8254e7p+0", "7336e17c32f7"),
    ("tall", "sparse", "rhpdhg"): (200, "0x1.1d741aa8254e8p+0", "e5837a4e111a"),
    ("ordered", "sparse", "hpr"): (1564, "-0x1.9087702c51fffp+9", "4062aefad33d"),
    ("ordered", "sparse", "rhpdhg"): (2000, "-0x1.9087702f860d2p+9", "446845bf8ac8"),
}


def _blas_fingerprint() -> str:
    """Digest of the bits of seeded dot products of several lengths, of a
    small matrix-vector product and its transpose, and of scipy's daxpy,
    which the Halpern average is formed with."""
    rng = np.random.default_rng(7)
    h = hashlib.sha256()
    for n in (5, 37, 150, 2001):
        h.update(np.dot(rng.standard_normal(n), rng.standard_normal(n)).tobytes())
    a = rng.standard_normal((13, 29))
    h.update((a @ rng.standard_normal(29)).tobytes())
    h.update((a.T @ rng.standard_normal(13)).tobytes())
    for n in (5, 37, 2001):
        h.update(daxpy(rng.standard_normal(n), rng.standard_normal(n), a=0.9).tobytes())
    return h.hexdigest()[:16]


def _trace_digest(res) -> str:
    """Digest of every trace field but the time: the counters, sigma, the
    three residuals and the merit, in hex."""
    fields = [(r.k, r.r, r.t, r.sigma.hex(), r.rel_gap.hex(), r.rel_primal.hex(),
               r.rel_dual.hex(), r.merit.hex(), r.face) for r in res.trace]
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:12]


def _ordered_lp():
    """A two-sided LP of 4,000 rows of 1 to 3 entries at random columns of
    3,000, feasible at a point in the box [0, 1]^n."""
    rng = np.random.default_rng(45)
    m, n = 4_000, 3_000
    rows = np.repeat(np.arange(m), rng.integers(1, 4, size=m))
    cols = rng.integers(n, size=rows.size)
    A = SparseMatrix(sp.coo_matrix((rng.standard_normal(rows.size), (rows, cols)), shape=(m, n)))
    b = A.matvec(rng.uniform(0.0, 1.0, n))
    prob = LpProblem(rng.standard_normal(n), A, b - 0.4, b + 0.6, np.zeros(n), np.ones(n))
    assert prob.A.dense is None and m >= hprlp.sparse.ORDERED_MIN_ROWS
    return prob


def _problem(name):
    if name == "ordered":
        return _ordered_lp()
    if name == "general":
        return random_lp(np.random.default_rng(41), 12, 7)
    if name == "equality":
        return random_lp(np.random.default_rng(42), 12, 5, style="equality")
    if name == "tall":
        return random_lp(np.random.default_rng(44), 7, 12)
    prob = random_lp(np.random.default_rng(43), 200, 130, density=0.1)
    assert prob.A.dense is None
    return prob


@pytest.mark.parametrize("key", sorted(PINS), ids="-".join)
def test_trajectory_pinned(key, monkeypatch):
    if _blas_fingerprint() != PINNED_BLAS:
        pytest.skip("this BLAS rounds the fingerprint products differently; "
                    "the pins hold only for the kernels they were read with")
    name, products, mode = key
    if products == "sparse":
        monkeypatch.setattr(hprlp.sparse, "DENSE_MAX_ENTRIES", -1)
    engine = EngineConfig(mode=mode, gamma=0.5, t1_zero_path=name == "equality")
    res = solve(_problem(name), SolverConfig(tol=1e-8, iter_limit=2000, engine=engine))
    assert (res.iterations, res.primal_obj.hex(), _trace_digest(res)) == PINS[key]
