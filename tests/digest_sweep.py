"""Digest sweep: one line per seeded solve and per MPS file read, for
comparing two versions of the solver bit for bit.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/digest_sweep.py > sweep.txt

Run it on two checkouts and diff the two outputs: a change that keeps
every trajectory and every parsed problem prints the same 626 lines.

The first 360 lines are solves.  They cover the five modes, both y-step
routes (the proximal step on two-sided and one-sided rows, the normal
equations on equality rows), the three product routes (the dense copy;
CSR with the dense cutoff switched off; and, with the dense cutoff off
and ``ORDERED_MIN_ROWS`` set to 0, the working problem ordered by row
and column length with a CSR copy of A^T, on LPs with half their
entries dropped, so that the order moves rows and columns), and LPs
with fewer and with more rows than columns (where the normal equations
are rank deficient and the solve falls back to the proximal step), six
seeds each.  Each
line holds the case, the status, the iteration count and a digest of
the bits of x, y and z, the objective, the message, every trace field
but the time, and the restart events.

The next 26 lines read MPS files through ``parse_mps`` and
``build_problem``: each file in ``tests/fixtures`` and twelve seeded
files written by ``test_mps_io.emit_mps`` (six sparse LPs of 600 to 5,100
entries, the larger ones several read blocks long, and six small dense
LPs with ranged, one-sided or equality rows).  Each line holds the file,
the problem's shape and a digest of the bits of c, A's CSC arrays, the
four bounds and the objective constant, and of the document's warnings.

The last 240 lines are warm-started solves (``SolverConfig.initial_iterate``
set to a seeded random y and x with z = 0) at iteration limits 0, 1, 7 and
2,000, in the five modes, on the three product routes, both y-step
routes and both shapes; each reads as a solve line above.  They pin the start of the
loop: the start's scaling into the working space, the product it carries,
and the report of a solve that takes no step.

Only the public API and the two cutoffs are used, so the script runs
unchanged on older checkouts.  The ordered lines move, by design, on a
checkout that changes how the working problem is ordered: the loop's
sums then add in another order.  On one that runs the same loop in
natural order they read as that route's solves of the same LPs, and
the warm lines at limit 0 keep their bits wherever the map between the
spaces adds no rounding.  Its name does not start with ``test_``:
pytest does not collect it.
"""

import contextlib
import hashlib
import io
import itertools
import warnings
from pathlib import Path

import numpy as np

import hprlp.sparse
from hprlp import EngineConfig, Iterate, SolverConfig, build_problem, parse_mps, solve

from conftest import random_lp
from test_mps_io import emit_mps, sparse_lp

FIXTURES = Path(__file__).parent / "fixtures"

MODES = ("hpr", "hdr", "pr", "epr", "rhpdhg")
ROUTES = ("proximal", "normal")
PRODUCTS = ("dense", "sparse", "ordered")
SHAPES = ("wide", "tall")
SEEDS = range(6)
WARM_LIMITS = (0, 1, 7, 2000)


def _problem(shape: str, route: str, seed: int, products: str):
    """A seeded LP; on the ordered route half its entries are dropped, so
    that its rows and columns have different lengths to be ordered by."""
    rng = np.random.default_rng(1000 + seed)
    n = 10 + 3 * seed
    m = n // 2 + 1 if shape == "wide" else n + 4 + seed
    if route == "normal":
        style = "equality"
    else:
        style = "two_sided" if seed % 2 == 0 else "upper"
    return random_lp(rng, n, m, style=style, density=0.5 if products == "ordered" else 1.0)


def _digest(res) -> str:
    h = hashlib.sha256()
    for v in (res.x, res.y, res.z):
        h.update(np.ascontiguousarray(v).tobytes())
    h.update(repr((res.primal_obj.hex(), res.dual_obj.hex(), res.message)).encode())
    h.update(repr([(r.k, r.r, r.t, r.sigma.hex(), r.rel_gap.hex(), r.rel_primal.hex(),
                    r.rel_dual.hex(), r.merit.hex(), r.face) for r in res.trace]).encode())
    h.update(repr([(e.k, e.r, e.tau, e.reason, e.sigma_before.hex(), e.sigma_after.hex())
                   for e in res.events]).encode())
    return h.hexdigest()[:16]


def _mps_sources():
    """(label, source) of every fixture and of twelve seeded files."""
    for path in sorted(FIXTURES.glob("*.mps")):
        yield path.name, path
    for seed in SEEDS:
        rng = np.random.default_rng(2000 + seed)
        m, n = 60 + 40 * seed, 90 + 60 * seed
        prob = sparse_lp(rng, m, n, 600 + 900 * seed)
        yield f"emit-sparse-{seed}", io.StringIO(emit_mps(prob))
        style = ("two_sided", "upper", "equality")[seed % 3]
        prob = random_lp(rng, 6 + seed, 4 + seed, style=style)
        yield f"emit-{style}-{seed}", io.StringIO(emit_mps(prob))


def _problem_digest(prob, notes) -> str:
    h = hashlib.sha256()
    csc = prob.A.to_csc()
    for v in (prob.c, csc.data, csc.indices.astype(np.int64), csc.indptr.astype(np.int64),
              prob.l_con, prob.u_con, prob.l_var, prob.u_var):
        h.update(np.ascontiguousarray(v).tobytes())
    h.update(repr((float(prob.obj_constant).hex(), prob.obj_sense, notes)).encode())
    return h.hexdigest()[:16]


@contextlib.contextmanager
def _products(route: str):
    """The matrices built inside run on the product route named: the
    dense copy (the default cutoffs), CSR, or ordered CSR."""
    names = ("DENSE_MAX_ENTRIES", "ORDERED_MIN_ROWS")
    saved = {name: getattr(hprlp.sparse, name, None) for name in names}
    if route != "dense":
        hprlp.sparse.DENSE_MAX_ENTRIES = -1
    if route == "ordered":
        hprlp.sparse.ORDERED_MIN_ROWS = 0
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(hprlp.sparse, name, value)


def main():
    for products, shape, route, mode, seed in itertools.product(
            PRODUCTS, SHAPES, ROUTES, MODES, SEEDS):
        with _products(products):
            prob = _problem(shape, route, seed, products)
            engine = EngineConfig(mode=mode, gamma=0.5, t1_zero_path=route == "normal")
            res = solve(prob, SolverConfig(tol=1e-8, iter_limit=2000, engine=engine))
        case = f"{products}-{shape}-{route}-{mode}-{seed} {prob.m}x{prob.n}"
        print(f"{case} {res.status} {res.iterations} {_digest(res)}", flush=True)
    for label, source in _mps_sources():
        doc = parse_mps(source)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prob = build_problem(doc)
        print(f"mps-{label} {prob.m}x{prob.n} {_problem_digest(prob, doc.warnings)}", flush=True)
    for products, shape, route, mode, (seed, limit) in itertools.product(
            PRODUCTS, SHAPES, ROUTES, MODES, enumerate(WARM_LIMITS)):
        with _products(products):
            prob = _problem(shape, route, seed, products)
            rng = np.random.default_rng(3000 + seed)
            start = Iterate(rng.standard_normal(prob.m), np.zeros(prob.n),
                            rng.standard_normal(prob.n))
            engine = EngineConfig(mode=mode, gamma=0.5, t1_zero_path=route == "normal")
            res = solve(prob, SolverConfig(tol=1e-8, iter_limit=limit, engine=engine,
                                           initial_iterate=start))
        case = f"warm-{products}-{shape}-{route}-{mode}-{limit} {prob.m}x{prob.n}"
        print(f"{case} {res.status} {res.iterations} {_digest(res)}", flush=True)


if __name__ == "__main__":
    main()
