"""Pinned trajectories: the iteration count, the bits of the primal
objective and a digest of the checkpoint trace of 31 seeded solves.

Every mode runs on both y-step routes (proximal on a two-sided LP, normal
equations on an equality LP) with both product routes (the dense copy,
and CSR with the dense cutoff switched off), and on one LP above
``DENSE_MAX_ENTRIES``, which runs on CSR by itself.  Those three LPs have
fewer rows than columns; the anchored modes, which carry A x in their
state on the proximal route, also run on one with more rows than
columns, on both product routes.  A change that only
trims call overhead keeps every pin; one that reorders floating-point
work, even in the last bit of one product or of the restart merit,
moves some of them.  A change
that means to reorder it sets new pins and says so.

The pins hold for the BLAS kernels they were read with: a kernel that
sums in another order (another OpenBLAS build, or another instruction
set picked at run time) rounds differently and moves the trajectories
with no change to this code.  ``_blas_fingerprint`` reads the bits of a
few dot and matrix-vector products of fixed inputs, and the pins are
checked only where those bits match the ones the pins were read with.
"""

import hashlib

import numpy as np
import pytest

import hprlp.sparse
from hprlp import EngineConfig, SolverConfig, solve

from conftest import random_lp

# the bits the pins were read with: OpenBLAS 0.3.31 (numpy) and 0.3.30
# (scipy) on an AVX2 x86-64 core
PINNED_BLAS = "43e0dce7d37da5b7"

# (LP, product route, mode): (iterations, primal_obj.hex(), trace digest)
PINS = {
    ("general", "dense", "hpr"): (51, "-0x1.b6674e69af20dp+2", "4183ee41e331"),
    ("general", "dense", "hdr"): (100, "-0x1.b6674e69af20dp+2", "9d526d4c9ee9"),
    ("general", "dense", "pr"): (2000, "-0x1.b682080ed6e5ep+2", "1dd99244e0fa"),
    ("general", "dense", "epr"): (600, "-0x1.b6674e69b2288p+2", "aa975cd5d21e"),
    ("general", "dense", "rhpdhg"): (83, "-0x1.b6674e69af20dp+2", "8d2e8285721e"),
    ("general", "sparse", "hpr"): (51, "-0x1.b6674e69af20dp+2", "a1e10b4cc6ed"),
    ("general", "sparse", "hdr"): (100, "-0x1.b6674e69af20dp+2", "69699e40a99e"),
    ("general", "sparse", "pr"): (2000, "-0x1.b682080ed6e5dp+2", "a39292f7dfc7"),
    ("general", "sparse", "epr"): (800, "-0x1.b6674e69ad2d2p+2", "be8eba242a98"),
    ("general", "sparse", "rhpdhg"): (83, "-0x1.b6674e69af20dp+2", "becd2a9856b5"),
    ("equality", "dense", "hpr"): (37, "-0x1.1fd45870510fdp+1", "02660e9c4158"),
    ("equality", "dense", "hdr"): (59, "-0x1.1fd45870510fdp+1", "f6ac78b3d82d"),
    ("equality", "dense", "pr"): (2000, "-0x1.2215c86176446p+1", "94de241d4c1c"),
    ("equality", "dense", "epr"): (200, "-0x1.1fd4587164213p+1", "761adcc5195e"),
    ("equality", "dense", "rhpdhg"): (48, "-0x1.1fd45870510fdp+1", "d1078083d1f8"),
    ("equality", "sparse", "hpr"): (37, "-0x1.1fd45870510fdp+1", "6789cf7c47ad"),
    ("equality", "sparse", "hdr"): (59, "-0x1.1fd45870510fdp+1", "f142dfa55e20"),
    ("equality", "sparse", "pr"): (2000, "-0x1.2215c86176444p+1", "91d18769aa51"),
    ("equality", "sparse", "epr"): (200, "-0x1.1fd4587164212p+1", "694748f9c9b0"),
    ("equality", "sparse", "rhpdhg"): (48, "-0x1.1fd45870510fdp+1", "d179a3a9cda1"),
    ("large", "sparse", "hpr"): (409, "-0x1.bc834fb43e6d0p+5", "ba7f7fd21d3c"),
    ("large", "sparse", "hdr"): (900, "-0x1.bc834fb43e6cfp+5", "43c761d3cfad"),
    ("large", "sparse", "pr"): (2000, "-0x1.bc6dc0bef15cbp+5", "2467e7df5718"),
    ("large", "sparse", "epr"): (2000, "-0x1.bc8224015fdfdp+5", "2e7e1b9375fe"),
    ("large", "sparse", "rhpdhg"): (600, "-0x1.bc834fb43e6cfp+5", "89f04ed760dc"),
    ("tall", "dense", "hpr"): (100, "0x1.1d741aa8254e8p+0", "1bf5caf1e879"),
    ("tall", "dense", "hdr"): (200, "0x1.1d741aa8254e7p+0", "c0c88f78e54b"),
    ("tall", "dense", "rhpdhg"): (200, "0x1.1d741aa8254e8p+0", "5aa4182cffb2"),
    ("tall", "sparse", "hpr"): (100, "0x1.1d741aa8254e8p+0", "2c48206692d4"),
    ("tall", "sparse", "hdr"): (200, "0x1.1d741aa8254e6p+0", "0e66ed9e4fcf"),
    ("tall", "sparse", "rhpdhg"): (200, "0x1.1d741aa8254e8p+0", "396079ac090a"),
}


def _blas_fingerprint() -> str:
    """Digest of the bits of seeded dot products of several lengths, and
    of a small matrix-vector product and its transpose."""
    rng = np.random.default_rng(7)
    h = hashlib.sha256()
    for n in (5, 37, 150, 2001):
        h.update(np.dot(rng.standard_normal(n), rng.standard_normal(n)).tobytes())
    a = rng.standard_normal((13, 29))
    h.update((a @ rng.standard_normal(29)).tobytes())
    h.update((a.T @ rng.standard_normal(13)).tobytes())
    return h.hexdigest()[:16]


def _trace_digest(res) -> str:
    """Digest of every trace field but the time: the counters, sigma, the
    three residuals and the merit, in hex."""
    fields = [(r.k, r.r, r.t, r.sigma.hex(), r.rel_gap.hex(), r.rel_primal.hex(),
               r.rel_dual.hex(), r.merit.hex(), r.face) for r in res.trace]
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:12]


def _problem(name):
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
