"""Seeded LP instances for the benchmark, feasible and bounded by construction.

Every instance is built around a primal point ``x0`` that lies in both
boxes (``x0`` in [l_var, u_var] and ``A x0`` in [l_con, u_con]) and a dual
point ``(y0, z0)`` whose signs keep the support functions S_K(-y0) and
S_C(-z0) finite; the objective is then ``c = A^T y0 + z0``.  By weak
duality the optimum lies in ``[-S_K(-y0) - S_C(-z0), <c, x0>]``
(``check.bracket``).

Bound-type codes for variables: 0 boxed, 1 lower only, 2 upper only,
3 free, 4 fixed.  For rows: 0 ranged, 1 lower only (G), 2 upper only (L),
3 equality.  The same code picks which bound keys the MPS writer emits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

BOXED, LOWER, UPPER, FREE, FIXED = range(5)
RANGED, ROW_LOWER, ROW_UPPER, EQUALITY = range(4)


@dataclass(frozen=True, eq=False)
class Instance:
    """Arrays of one generated LP plus its construction certificate."""

    name: str
    A: sp.csc_matrix
    c: np.ndarray
    l_con: np.ndarray
    u_con: np.ndarray
    l_var: np.ndarray
    u_var: np.ndarray
    var_kind: np.ndarray
    row_kind: np.ndarray
    x0: np.ndarray
    y0: np.ndarray
    z0: np.ndarray

    ARRAYS = ("c", "l_con", "u_con", "l_var", "u_var", "var_kind", "row_kind",
              "x0", "y0", "z0")

    def to_npz(self, path) -> None:
        csc = self.A
        np.savez(
            path, name=np.array(self.name), shape=np.array(csc.shape),
            data=csc.data, indices=csc.indices, indptr=csc.indptr,
            **{k: getattr(self, k) for k in self.ARRAYS},
        )

    @classmethod
    def from_npz(cls, path) -> "Instance":
        with np.load(path) as f:
            A = sp.csc_matrix(
                (f["data"], f["indices"], f["indptr"]), shape=tuple(f["shape"])
            )
            return cls(name=str(f["name"]), A=A,
                       **{k: f[k].copy() for k in cls.ARRAYS})


def _pattern(rng, m, n, nnz):
    """Distinct (row, col) pairs covering every row and every column."""
    rows = np.concatenate([np.arange(m), rng.integers(0, m, n),
                           rng.integers(0, m, max(nnz - m - n, 0))])
    cols = np.concatenate([rng.integers(0, n, m), np.arange(n),
                           rng.integers(0, n, max(nnz - m - n, 0))])
    key = np.unique(rows.astype(np.int64) * n + cols)
    return key // n, key % n


def _variables(rng, n, mix):
    """Bound kinds, bounds and an interior point x0 for n variables."""
    kind = rng.choice(5, size=n, p=mix)
    lo = np.round(rng.uniform(-5.0, 5.0, n), 3)
    width = np.round(rng.uniform(0.5, 10.0, n), 3)
    l_var = np.where(np.isin(kind, (BOXED, LOWER, FIXED)), lo, -np.inf)
    u_var = np.where(kind == BOXED, lo + width,
                     np.where(kind == UPPER, lo, np.where(kind == FIXED, lo, np.inf)))
    # x0 strictly inside open sides, on the value for fixed variables
    frac = rng.uniform(0.1, 0.9, n)
    x0 = np.select(
        [kind == BOXED, kind == LOWER, kind == UPPER, kind == FREE],
        [lo + frac * width, lo + 5.0 * frac, lo - 5.0 * frac, rng.standard_normal(n)],
        default=lo,
    )
    return kind, l_var, u_var, x0


def _dual_z(rng, kind):
    """Bound multipliers with signs the variable box admits."""
    mag = rng.exponential(1.0, kind.size) * (rng.uniform(size=kind.size) < 0.6)
    sign = np.select([kind == LOWER, kind == UPPER, kind == FREE],
                     [1.0, -1.0, 0.0],
                     default=rng.choice((-1.0, 1.0), kind.size))
    return sign * mag


def _rows(rng, ax, mix, slack_scale):
    """Row kinds, bounds around A x0, and row multipliers y0."""
    m = ax.size
    kind = rng.choice(4, size=m, p=mix)
    below = rng.uniform(0.1, 1.0, m) * slack_scale
    above = rng.uniform(0.1, 1.0, m) * slack_scale
    # A ranged row is written as an L row with range R = u - l, which the
    # reader turns back into u - |R|.  Both bounds sit on a 2**-20 grid,
    # so both subtractions are exact and the round trip is bit-exact.
    lo_q = np.floor((ax - below) * 2.0**20) / 2.0**20
    hi_q = np.ceil((ax + above) * 2.0**20) / 2.0**20
    u_con = np.select([kind == RANGED, kind == ROW_UPPER, kind == EQUALITY],
                      [hi_q, ax + above, ax], default=np.inf)
    l_con = np.select([kind == RANGED, kind == ROW_LOWER, kind == EQUALITY],
                      [lo_q, ax - below, ax], default=-np.inf)
    mag = rng.exponential(1.0, m) * (rng.uniform(size=m) < 0.7)
    sign = np.select([kind == ROW_LOWER, kind == ROW_UPPER],
                     [1.0, -1.0], default=rng.choice((-1.0, 1.0), m))
    return kind, l_con, u_con, sign * mag


def general_lp(seed, m, n, nnz, spread, name, var_mix, row_mix, dense=False):
    """General-form LP with mixed bounds and a row/column scale spread.

    Entries are N(0, 1) times a row factor and a column factor, each
    drawn log-uniformly over a ``spread`` ratio, so Ruiz scaling has an
    imbalance to remove.
    """
    rng = np.random.default_rng(seed)
    if dense:
        rows, cols = np.divmod(np.arange(m * n), n)
    else:
        rows, cols = _pattern(rng, m, n, nnz)
    half = 0.5 * np.log10(spread)
    rscale = 10.0 ** rng.uniform(-half, half, m)
    cscale = 10.0 ** rng.uniform(-half, half, n)
    vals = rng.standard_normal(rows.size) * rscale[rows] * cscale[cols]
    A = sp.csc_matrix((vals, (rows, cols)), shape=(m, n))
    A.sort_indices()

    var_kind, l_var, u_var, x0 = _variables(rng, n, var_mix)
    ax = A @ x0
    row_kind, l_con, u_con, y0 = _rows(rng, ax, row_mix, rscale)
    z0 = _dual_z(rng, var_kind)
    c = A.T @ y0 + z0
    return Instance(name, A, c, l_con, u_con, l_var, u_var, var_kind, row_kind,
                    x0, y0, z0)


def standard_equality_lp(seed, m, n, nnz, name):
    """min c x s.t. A x = b, x >= 0, with an entry in every row and column of A."""
    rng = np.random.default_rng(seed)
    rows, cols = _pattern(rng, m, n, nnz)
    A = sp.csc_matrix((rng.standard_normal(rows.size), (rows, cols)), shape=(m, n))
    A.sort_indices()
    x0 = rng.uniform(0.5, 2.0, n)
    b = A @ x0
    y0 = rng.standard_normal(m)
    z0 = rng.exponential(1.0, n) * (rng.uniform(size=n) < 0.5)
    c = A.T @ y0 + z0
    return Instance(name, A, c, b, b.copy(), np.zeros(n), np.full(n, np.inf),
                    np.full(n, LOWER), np.full(m, EQUALITY), x0, y0, z0)


def present(inst: Instance, seed: int, rows: bool = False) -> Instance:
    """An equivalent presentation of ``inst``: a random half of its columns
    (or, with ``rows``, of its rows) negated, as drawn from ``seed``.

    Negation mirrors the bounds, so lower-only and upper-only kinds swap
    and the MPS text changes, while every operation of a solve maps to
    its exact negation: the iterates match the original ones up to sign,
    bit for bit.  (Column negation leaves A A^T unchanged; row negation
    changes the power method's start, so it suits only the normal-equation
    path, which does not use lambda_A.)
    """
    rng = np.random.default_rng(seed)
    m, n = inst.A.shape
    sr = rng.choice((-1.0, 1.0), m) if rows else np.ones(m)
    sc = np.ones(n) if rows else rng.choice((-1.0, 1.0), n)
    A = sp.csc_matrix(sp.diags(sr) @ inst.A @ sp.diags(sc))
    A.sort_indices()

    def mirror(lo, hi, s):
        return np.where(s > 0, lo, -hi), np.where(s > 0, hi, -lo)

    def swap(kind, s, a, b):
        flipped = np.where(kind == a, b, np.where(kind == b, a, kind))
        return np.where(s > 0, kind, flipped)

    l_con, u_con = mirror(inst.l_con, inst.u_con, sr)
    l_var, u_var = mirror(inst.l_var, inst.u_var, sc)
    return Instance(
        inst.name, A, sc * inst.c, l_con, u_con, l_var, u_var,
        swap(inst.var_kind, sc, LOWER, UPPER), swap(inst.row_kind, sr, ROW_LOWER, ROW_UPPER),
        sc * inst.x0, sr * inst.y0, sc * inst.z0,
    )


MPS_VAR_MIX = (0.4, 0.3, 0.1, 0.1, 0.1)
MPS_ROW_MIX = (0.3, 0.25, 0.25, 0.2)


def mps_sparse(seed) -> Instance:
    """10,000 x 20,000 general-form LP with about 1e5 nonzeros."""
    return general_lp(seed, 10_000, 20_000, 100_000, 1e3, "mps-sparse-1e5",
                      MPS_VAR_MIX, MPS_ROW_MIX)


def small_corpus(seed, count=40) -> list[Instance]:
    """About 40 small LPs: a third dense, a fifth equality-only."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        m = int(rng.integers(10, 61))
        n = int(round(m * rng.uniform(1.2, 2.5)))
        dense = i % 3 == 0
        row_mix = (0.0, 0.0, 0.0, 1.0) if i % 5 == 1 else MPS_ROW_MIX
        nnz = m * n if dense else int(m * n * rng.uniform(0.1, 0.3))
        out.append(general_lp(
            int(rng.integers(2**31)), m, n, nnz, 10.0, f"small-{i:02d}",
            (0.5, 0.3, 0.1, 0.05, 0.05), row_mix, dense=dense,
        ))
    return out


def equality_normal(seed) -> Instance:
    """600 x 1,500 standard-form LP with 6,000 nonzeros."""
    return standard_equality_lp(seed, 600, 1_500, 6_000, "equality-normal")


def write_mps(inst: Instance, fh) -> int:
    """Write ``inst`` as MPS with rows R<i> and columns C<j>; returns the line count.

    Only the objective is an N row.  Floats are written with
    ``repr(float(v))`` so the reader recovers every bit.
    """
    A = inst.A
    m, n = A.shape
    rk = {RANGED: "L", ROW_LOWER: "G", ROW_UPPER: "L", EQUALITY: "E"}
    lines = [f"NAME {inst.name}", "ROWS", " N OBJ"]
    lines += [f" {rk[int(k)]} R{i}" for i, k in enumerate(inst.row_kind)]
    lines.append("COLUMNS")
    for j in range(n):
        lo, hi = A.indptr[j], A.indptr[j + 1]
        if inst.c[j] != 0.0:
            lines.append(f" C{j} OBJ {float(inst.c[j])!r}")
        lines += [f" C{j} R{i} {float(v)!r}"
                  for i, v in zip(A.indices[lo:hi], A.data[lo:hi])]
    lines.append("RHS")
    for i, k in enumerate(inst.row_kind):
        rhs = inst.l_con[i] if k in (ROW_LOWER, EQUALITY) else inst.u_con[i]
        lines.append(f" RHS R{i} {float(rhs)!r}")
    lines.append("RANGES")
    for i in np.flatnonzero(inst.row_kind == RANGED):
        width = inst.u_con[i] - inst.l_con[i]
        lines.append(f" RNG R{i} {float(width)!r}")
    lines.append("BOUNDS")
    for j, k in enumerate(inst.var_kind):
        lo, hi = float(inst.l_var[j]), float(inst.u_var[j])
        if k == BOXED:
            lines += [f" LO BND C{j} {lo!r}", f" UP BND C{j} {hi!r}"]
        elif k == LOWER:
            lines.append(f" LO BND C{j} {lo!r}")
        elif k == UPPER:
            lines += [f" MI BND C{j}", f" UP BND C{j} {hi!r}"]
        elif k == FREE:
            lines.append(f" FR BND C{j}")
        else:
            lines.append(f" FX BND C{j} {lo!r}")
    lines.append("ENDATA")
    fh.write("\n".join(lines) + "\n")
    return len(lines)
