"""Brute-force reference solver for desk-sized LPs.

Every candidate basis (a choice of n constraint hyperplanes) is solved
and filtered for feasibility; the best vertex wins.  Unboundedness is
decided by minimizing the objective over the recession cone intersected
with the unit box — itself a bounded LP handled by the same
enumeration.  Variables lacking a finite bound get an artificial box
plane so that vertex-free feasible sets still produce witnesses; the box
is enlarged once before declaring infeasibility.

Deliberately independent of the iterative machinery: dense numpy only,
no projections, no shared code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from hprlp.model import LpProblem

__all__ = ["OracleSolution", "oracle_solve"]

MAX_VARS = 10
MAX_ROWS = 10

_DET_TOL = 1e-11


@dataclass(frozen=True)
class OracleSolution:
    """status is "optimal", "unbounded" or "infeasible"; x and objective
    are set only for optimal instances, with objective = <c, x> (the
    additive constant is not included)."""

    status: str
    x: np.ndarray | None = None
    objective: float | None = None


def _inequality_rows(prob: LpProblem) -> tuple[np.ndarray, np.ndarray]:
    """All constraints as B x <= d (rows, then variable bounds)."""
    dense_a = prob.A.to_dense()
    rows = []
    rhs = []
    for i in range(prob.m):
        if np.isfinite(prob.u_con[i]):
            rows.append(dense_a[i])
            rhs.append(prob.u_con[i])
        if np.isfinite(prob.l_con[i]):
            rows.append(-dense_a[i])
            rhs.append(-prob.l_con[i])
    eye = np.eye(prob.n)
    for j in range(prob.n):
        if np.isfinite(prob.u_var[j]):
            rows.append(eye[j])
            rhs.append(prob.u_var[j])
        if np.isfinite(prob.l_var[j]):
            rows.append(-eye[j])
            rhs.append(-prob.l_var[j])
    if rows:
        return np.array(rows), np.array(rhs)
    return np.zeros((0, prob.n)), np.zeros(0)


def _enumerate_vertices(
    planes: np.ndarray,
    plane_rhs: np.ndarray,
    b_all: np.ndarray,
    d_all: np.ndarray,
    feas_tol: float,
) -> list[np.ndarray]:
    """Feasible intersection points of all n-subsets of the planes.

    planes/plane_rhs define candidate active constraints; feasibility is
    checked against the full system b_all x <= d_all.

    Subsets are not solved one n-by-n system at a time.  Planes with a
    single nonzero entry pin a coordinate, so a subset that uses f of
    them reduces to a (n-f)-square system on the free variables; and
    parallel planes (the two sides of a row, duplicate rows) share that
    matrix and differ only in the right-hand side.  Grouping by (row
    subset, pinned-variable set) therefore factors each reduced matrix
    once and solves every side/value combination as a batch of
    right-hand sides — the combination count drops from C(p, n) to
    roughly C(rows + vars, n).
    """
    n = planes.shape[1]
    p = planes.shape[0]
    if p < n:
        return []
    tol_row = feas_tol * (1.0 + np.abs(d_all))

    # canonicalize to unit normals with positive leading entry so the
    # two sides of a row collapse onto one equation with several rhs
    norms = np.linalg.norm(planes, axis=1)
    unit = planes / norms[:, None]
    vals = plane_rhs / norms

    axis_options: dict[int, list[float]] = {}
    gen_rows: list[np.ndarray] = []
    gen_vals: list[list[float]] = []
    seen: dict[bytes, int] = {}
    for row, r in zip(unit, vals):
        nz = np.nonzero(row)[0]
        j = int(nz[0])
        if row[j] < 0.0:
            row, r = -row, -r
        if nz.size == 1:
            value = r / row[j]
            opts = axis_options.setdefault(j, [])
            if value not in opts:
                opts.append(value)
        else:
            key = row.tobytes()
            if key in seen:
                if r not in gen_vals[seen[key]]:
                    gen_vals[seen[key]].append(r)
            else:
                seen[key] = len(gen_rows)
                gen_rows.append(row)
                gen_vals.append([r])

    g = len(gen_rows)
    axis_vars = sorted(axis_options)
    a = len(axis_vars)
    gen = np.array(gen_rows) if g else np.zeros((0, n))
    found: list[np.ndarray] = []

    for k in range(max(0, n - a), min(g, n) + 1):
        f = n - k
        for rows_idx in combinations(range(g), k):
            sub = gen[list(rows_idx)]
            rhs_lists = [gen_vals[i] for i in rows_idx]
            v_opts = np.array(list(product(*rhs_lists)))  # (P, k)
            for fixed in combinations(axis_vars, f):
                free = [j for j in range(n) if j not in fixed]
                w_opts = np.array(
                    list(product(*(axis_options[j] for j in fixed)))
                )  # (Q, f)
                p_cnt, q_cnt = v_opts.shape[0], w_opts.shape[0]
                xs = np.empty((p_cnt * q_cnt, n))
                xs[:, list(fixed)] = np.tile(w_opts, (p_cnt, 1))
                if k:
                    mat = sub[:, free]
                    mnorm = np.linalg.norm(mat, axis=1)
                    if np.any(mnorm <= _DET_TOL):
                        continue
                    mat = mat / mnorm[:, None]
                    if abs(np.linalg.det(mat)) <= _DET_TOL:
                        continue
                    shift = w_opts @ sub[:, list(fixed)].T  # (Q, k)
                    rhs = (v_opts[:, None, :] - shift[None, :, :]) / mnorm
                    xs[:, free] = np.linalg.solve(
                        mat, rhs.reshape(-1, k).T
                    ).T
                viol = xs @ b_all.T - d_all
                feas = np.all(viol <= tol_row, axis=1)
                for x in xs[feas]:
                    found.append(x)
    return found


def _recession_minimum(prob: LpProblem, b_all: np.ndarray, feas_tol: float) -> float:
    """min <c, d> over the recession cone intersected with [-1, 1]^n."""
    n = prob.n
    hom_rhs = np.zeros(b_all.shape[0])
    box = np.vstack([np.eye(n), -np.eye(n)])
    box_rhs = np.ones(2 * n)
    b_full = np.vstack([b_all, box]) if b_all.size else box
    d_full = np.concatenate([hom_rhs, box_rhs])
    keep = np.linalg.norm(b_full, axis=1) > 0.0
    verts = _enumerate_vertices(b_full[keep], d_full[keep], b_full, d_full, feas_tol)
    if not verts:
        return 0.0  # d = 0 is always feasible; no vertex means n = 0
    objs = np.array(verts) @ prob.c
    return float(np.min(objs))


def oracle_solve(prob: LpProblem, feas_tol: float = 1e-9) -> OracleSolution:
    """Reference solution by exhaustive vertex enumeration.

    Requires n <= 10 variables and m <= 10 rows.  Among optimal
    vertices (objectives within 1e-9 relative of the best) the
    lexicographically smallest point is returned.
    """
    if prob.n > MAX_VARS or prob.m > MAX_ROWS:
        raise ValueError(
            f"oracle handles at most {MAX_VARS} variables / {MAX_ROWS} rows, "
            f"got n={prob.n}, m={prob.m}"
        )

    b_all, d_all = _inequality_rows(prob)

    # drop zero-normal rows (constant constraints): infeasible if violated
    norms = np.linalg.norm(b_all, axis=1) if b_all.size else np.zeros(0)
    trivial = norms == 0.0
    if np.any(trivial) and np.any(d_all[trivial] < -feas_tol):
        return OracleSolution(status="infeasible")
    b_real = b_all[~trivial] if b_all.size else b_all
    d_real = d_all[~trivial] if b_all.size else d_all

    finite_vals = [
        v[np.isfinite(v)]
        for v in (prob.l_con, prob.u_con, prob.l_var, prob.u_var)
    ]
    data_scale = max(
        [1.0] + [float(np.max(np.abs(v))) for v in finite_vals if v.size]
    )

    verts: list[np.ndarray] = []
    for big in (1e4 * data_scale, 1e7 * data_scale):
        # artificial planes close off directions with no finite bound
        art_rows = []
        art_rhs = []
        eye = np.eye(prob.n)
        for j in range(prob.n):
            if not np.isfinite(prob.u_var[j]):
                art_rows.append(eye[j])
                art_rhs.append(big)
            if not np.isfinite(prob.l_var[j]):
                art_rows.append(-eye[j])
                art_rhs.append(big)
        if art_rows:
            planes = np.vstack([b_real, np.array(art_rows)])
            prhs = np.concatenate([d_real, np.array(art_rhs)])
        else:
            planes = b_real
            prhs = d_real
        verts = _enumerate_vertices(planes, prhs, planes, prhs, feas_tol)
        if verts or not art_rows:
            break

    if not verts:
        return OracleSolution(status="infeasible")

    rec_min = _recession_minimum(prob, b_real, feas_tol)
    if rec_min < -1e-9 * (1.0 + float(np.linalg.norm(prob.c))):
        return OracleSolution(status="unbounded")

    objs = np.array(verts) @ prob.c
    best = float(np.min(objs))
    window = 1e-9 * (1.0 + abs(best))
    optimal = [v for v, o in zip(verts, objs) if o <= best + window]
    optimal.sort(key=lambda v: tuple(v))
    x_star = np.array(optimal[0], dtype=np.float64)
    return OracleSolution(status="optimal", x=x_star, objective=float(prob.c @ x_star))
