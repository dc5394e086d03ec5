"""The face finish: a verified face solve at the checkpoints and restarts
of the anchored modes on a working matrix of at most 2,000 rows, and the
solves it must leave alone."""

import hashlib

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import hprlp.solver as solver_module
from hprlp import (
    EngineConfig,
    LpProblem,
    RestartConfig,
    SolverConfig,
    SparseMatrix,
    solve,
)

from conftest import random_lp
from oracle import oracle_solve


def mixed_lp(rng, n, m, sense):
    """A feasible, bounded LP with free, boxed and one-sided variables and
    equality, ranged and one-sided rows, in the given sense, with a
    nonzero objective constant.  A point x0 inside every bound makes it
    feasible, and a dual point whose signs match the bounds (c = A^T y0
    + z0) makes it bounded."""
    A = rng.standard_normal((m, n))
    A[rng.uniform(size=(m, n)) < 0.3] = 0.0
    var_kind = rng.integers(0, 4, n)  # free, boxed, lower only, upper only
    x0 = rng.standard_normal(n)
    l_var = np.where(np.isin(var_kind, (1, 2)), x0 - rng.uniform(0.0, 1.0, n), -np.inf)
    u_var = np.where(np.isin(var_kind, (1, 3)), x0 + rng.uniform(0.0, 1.0, n), np.inf)
    row_kind = rng.integers(0, 4, m)  # equality, ranged, lower only, upper only
    ax = A @ x0
    l_con = np.where(row_kind == 0, ax,
                     np.where(row_kind == 3, -np.inf, ax - rng.uniform(0.0, 1.0, m)))
    u_con = np.where(row_kind == 0, ax,
                     np.where(row_kind == 2, np.inf, ax + rng.uniform(0.0, 1.0, m)))
    y0 = rng.standard_normal(m)
    y0 = np.where(row_kind == 2, np.abs(y0), np.where(row_kind == 3, -np.abs(y0), y0))
    z0 = rng.standard_normal(n)
    z0 = np.select([var_kind == 0, var_kind == 2, var_kind == 3],
                   [0.0, np.abs(z0), -np.abs(z0)], z0)
    return LpProblem(
        c=A.T @ y0 + z0,
        A=SparseMatrix.from_dense(A),
        l_con=l_con,
        u_con=u_con,
        l_var=l_var,
        u_var=u_var,
        obj_constant=float(rng.uniform(-5.0, 5.0)),
        obj_sense=sense,
    )


def _support(s, lo, hi):
    pos, neg = s > 0.0, s < 0.0
    if np.any(pos & np.isinf(hi)) or np.any(neg & np.isinf(lo)):
        return np.inf
    return float(np.dot(s[pos], hi[pos]) + np.dot(s[neg], lo[neg]))


def numpy_residuals(prob, x, y, z):
    """(rel_gap, rel_primal, rel_dual) written out with numpy on the
    problem's arrays, without ``hprlp.model``."""
    A = prob.A.to_csc().toarray()
    ax = A @ x
    viol = ax - np.clip(ax, prob.l_con, prob.u_con)
    finite_abs = [np.where(np.isfinite(b), np.abs(b), 0.0) for b in (prob.l_con, prob.u_con)]
    rel_primal = np.linalg.norm(viol) / (1.0 + np.linalg.norm(np.maximum(*finite_abs)))
    rel_dual = np.linalg.norm(prob.c - A.T @ y - z) / (1.0 + np.linalg.norm(prob.c))
    dual = _support(-y, prob.l_con, prob.u_con) + _support(-z, prob.l_var, prob.u_var)
    cx = float(prob.c @ x)
    rel_gap = abs(dual + cx) / (1.0 + abs(dual) + abs(cx))
    return rel_gap, rel_primal, rel_dual


def highs_objective(prob):
    """The optimal objective from scipy's HiGHS, in the problem's sense
    and with its constant."""
    A = prob.A.to_csc().toarray()
    eq = prob.l_con == prob.u_con
    lo, hi = ~eq & np.isfinite(prob.l_con), ~eq & np.isfinite(prob.u_con)
    ref = scipy.optimize.linprog(
        prob.c,
        A_ub=np.vstack((A[hi], -A[lo])),
        b_ub=np.concatenate((prob.u_con[hi], -prob.l_con[lo])),
        A_eq=A[eq],
        b_eq=prob.u_con[eq],
        bounds=np.column_stack((prob.l_var, prob.u_var)),
        method="highs",
    )
    assert ref.status == 0, ref.message
    return prob.objective_sign * (ref.fun + prob.obj_constant)


def test_face_finish_on_mixed_bounds_agrees_with_oracle():
    rng = np.random.default_rng(1101)
    tol = 1e-8
    face_ended = 0
    for i in range(24):
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 8))
        prob = mixed_lp(rng, n, m, "maximize" if i % 2 else "minimize")
        ref = oracle_solve(prob)
        assert ref.status == "optimal"
        res = solve(prob, SolverConfig(tol=tol, iter_limit=100_000))
        assert res.status == "optimal", res.message
        if not res.face_finish:
            continue
        face_ended += 1
        assert max(numpy_residuals(prob, res.x, res.y, res.z)) <= tol
        assert np.all(prob.l_var <= res.x) and np.all(res.x <= prob.u_var)
        expected = prob.objective_sign * (ref.objective + prob.obj_constant)
        assert res.primal_obj == pytest.approx(expected, rel=1e-7, abs=1e-7)
    assert face_ended >= 20


def test_face_point_is_the_last_trace_record():
    prob = mixed_lp(np.random.default_rng(1102), 7, 5, "minimize")
    res = solve(prob, SolverConfig(tol=1e-8))
    assert res.face_finish and res.message == ""
    last = res.trace[-1]
    assert last.face and not any(rec.face for rec in res.trace[:-1])
    residuals = (res.rel_gap, res.rel_primal, res.rel_dual)
    assert (last.rel_gap, last.rel_primal, last.rel_dual) == residuals
    assert last.k == res.iterations and max(residuals) <= 1e-8


@pytest.mark.parametrize("mode, restart", [
    ("pr", RestartConfig()),
    ("epr", RestartConfig()),
    ("hpr", RestartConfig(enabled=False)),
])
def test_face_solve_never_tried_without_anchored_restarts(mode, restart, monkeypatch):
    tries = []
    monkeypatch.setattr(solver_module._FaceFinish, "finish",
                        lambda self, cand: tries.append(1))
    prob = random_lp(np.random.default_rng(1103), 6, 4)
    res = solve(prob, SolverConfig(tol=1e-8, iter_limit=3_000,
                                   engine=EngineConfig(mode=mode), restart=restart))
    assert tries == [] and not res.face_finish


@pytest.mark.parametrize("extra_rows, built", [(0, True), (1, False)])
def test_no_face_finish_above_the_row_limit(extra_rows, built, monkeypatch):
    made = []
    monkeypatch.setattr(solver_module, "_FaceFinish", lambda *args: made.append(1))
    m = solver_module.FACE_MAX_ROWS + extra_rows
    prob = random_lp(np.random.default_rng(72), 40, m, density=0.05)
    assert prob.A.dense is None
    res = solve(prob, SolverConfig(tol=1e-6, iter_limit=20))
    assert made == ([1] if built else []) and res.restarts > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rank_deficient_face_is_dropped(monkeypatch):
    """A duplicated equality row makes A_RF A_RF^T singular on every face
    that holds it: each face solve is dropped, with no RuntimeWarning,
    and the iterates finish."""
    base = random_lp(np.random.default_rng(1105), 8, 5, style="equality")
    A = base.A.to_csc().toarray()
    prob = LpProblem(
        c=base.c,
        A=SparseMatrix.from_dense(np.vstack((A, A[:1]))),
        l_con=np.append(base.l_con, base.l_con[0]),
        u_con=np.append(base.u_con, base.u_con[0]),
        l_var=base.l_var,
        u_var=base.u_var,
    )
    corrections = solver_module._face_corrections
    dropped = []

    def record(*args):
        out = corrections(*args)
        dropped.append(out is None)
        return out

    monkeypatch.setattr(solver_module, "_face_corrections", record)
    res = solve(prob, SolverConfig(tol=1e-8, iter_limit=100_000))
    assert dropped and all(dropped)
    assert res.status == "optimal" and not res.face_finish
    assert max(numpy_residuals(prob, res.x, res.y, res.z)) <= 1e-8


def test_face_corrections_drop_a_solve_that_is_not_finite(monkeypatch):
    """A face whose G factors, but whose solve through that factor is not
    finite, is dropped like a singular one."""
    a_rf = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])
    rx, ry, buf = np.array([1.0, 2.0]), np.array([1.0, 0.0, 1.0]), np.empty(4)
    dx, dy = solver_module._face_corrections(a_rf, rx, ry, buf)
    np.testing.assert_allclose(a_rf @ dx, rx)
    monkeypatch.setattr(scipy.linalg, "cho_solve",
                        lambda factor, b, **kwargs: np.full_like(b, np.nan))
    assert solver_module._face_corrections(a_rf, rx, ry, buf) is None


def test_refuted_face_is_not_solved_again(monkeypatch):
    """A face point that fails on rel_dual refutes its pattern, whose y
    and z follow from the pattern alone: while the pattern persists, the
    face is not formed and factored again.  Solving each try anyway gives
    the same answer, bit for bit, with more face solves."""
    prob = random_lp(np.random.default_rng(1103), 10, 6, style="equality")
    cfg = SolverConfig(tol=1e-8, iter_limit=20_000)
    corrections, finish = solver_module._face_corrections, solver_module._FaceFinish.finish
    solves, tries = [], []

    def counted(*args):
        solves.append(1)
        return corrections(*args)

    def traced(self, cand):
        previous, made = self.pattern, len(solves)
        found = finish(self, cand)
        if previous is not None and np.array_equal(previous, self.pattern):
            refuted = np.packbits(self.pattern).tobytes() in self.refuted
            tries.append((self.pattern.tobytes(), len(solves) - made, refuted))
        return found

    monkeypatch.setattr(solver_module, "_face_corrections", counted)
    monkeypatch.setattr(solver_module._FaceFinish, "finish", traced)
    res = solve(prob, cfg)
    refuted = {}
    for key, made, now_refuted in tries:
        if now_refuted:
            refuted.setdefault(key, []).append(made)
    # each refuted pattern is solved once, and one persists for two more tries
    assert refuted and all(made[0] == 1 and not any(made[1:]) for made in refuted.values())
    assert max(map(len, refuted.values())) >= 3
    digest = hashlib.sha256(b"".join(v.tobytes() for v in (res.x, res.y, res.z)))
    assert (res.status, res.iterations, res.face_finish) == ("optimal", 205, True)
    assert digest.hexdigest()[:16] == "6fcff2f4d2d881de"

    init = solver_module._FaceFinish.__init__

    class Forgetful(set):
        def add(self, key):
            pass

    def forgetful(self, *args):
        init(self, *args)
        self.refuted = Forgetful()

    monkeypatch.setattr(solver_module._FaceFinish, "__init__", forgetful)
    first = len(solves)
    again = solve(prob, cfg)
    assert len(solves) - first > first
    assert (again.status, again.iterations, again.face_finish) == ("optimal", 205, True)
    for got, want in ((again.x, res.x), (again.y, res.y), (again.z, res.z)):
        assert np.array_equal(got, want)


def test_face_within_margin_of_tol_is_not_refuted(monkeypatch):
    """A face point whose rel_dual fails ``tol`` by less than the 10%
    margin, which rounding might move below it on a later try, leaves
    its pattern open: each try solves the face again, and the solve ends
    as before."""
    prob = random_lp(np.random.default_rng(1103), 10, 6, style="equality")
    cfg = SolverConfig(tol=1e-8, iter_limit=20_000)
    evaluate, finish = solver_module._RunLog.evaluate, solver_module._FaceFinish.finish
    in_face, moved, refuted = [False], [], []

    def near_tol(self, w):
        point, res = evaluate(self, w)
        if in_face[0] and res[2] > cfg.tol:
            moved.append(res[2])
            res = (res[0], res[1], 1.05 * cfg.tol)
        return point, res

    def traced(self, cand):
        in_face[0] = True
        try:
            return finish(self, cand)
        finally:
            in_face[0] = False
            refuted.append(len(self.refuted))

    monkeypatch.setattr(solver_module._RunLog, "evaluate", near_tol)
    monkeypatch.setattr(solver_module._FaceFinish, "finish", traced)
    res = solve(prob, cfg)
    # the unpatched solve refutes a pattern that fails at several times tol
    assert len(moved) >= 3 and max(moved) > 1.1 * cfg.tol
    assert not any(refuted)
    assert (res.status, res.iterations, res.face_finish) == ("optimal", 205, True)
    digest = hashlib.sha256(b"".join(v.tobytes() for v in (res.x, res.y, res.z)))
    assert digest.hexdigest()[:16] == "6fcff2f4d2d881de"


def test_iterate_answers_lie_in_the_variable_box(monkeypatch):
    """x of a solve that ends on an iterate is clipped to the original
    box after unscaling, so no component is outside it by a rounding."""
    monkeypatch.setattr(solver_module._FaceFinish, "finish", lambda self, cand: None)
    rng = np.random.default_rng(1106)
    for i in range(12):
        prob = mixed_lp(rng, int(rng.integers(4, 9)), int(rng.integers(2, 7)),
                        "maximize" if i % 2 else "minimize")
        res = solve(prob, SolverConfig(tol=1e-8, iter_limit=100_000))
        assert res.status == "optimal" and not res.face_finish
        assert np.all(prob.l_var <= res.x) and np.all(res.x <= prob.u_var)


def test_failed_face_tries_leave_the_trajectory_untouched(monkeypatch):
    """With every face point discarded after it is formed and checked,
    a solve runs as one that never forms it, bit for bit."""
    prob = mixed_lp(np.random.default_rng(1104), 8, 6, "minimize")
    cfg = SolverConfig(tol=1e-10, iter_limit=4_000)
    finish = solver_module._FaceFinish.finish
    tried = []

    def discard(self, cand):
        tried.append(finish(self, cand) is not None)
        return None

    monkeypatch.setattr(solver_module._FaceFinish, "finish", discard)
    a = solve(prob, cfg)
    monkeypatch.setattr(solver_module._FaceFinish, "finish", lambda self, cand: None)
    b = solve(prob, cfg)
    assert any(tried)  # a face point was accepted, then thrown away
    assert a.status == b.status and a.iterations == b.iterations
    assert a.events == b.events
    assert list(map(_fields, a.trace)) == list(map(_fields, b.trace))
    for got, want in ((a.x, b.x), (a.y, b.y), (a.z, b.z)):
        assert np.array_equal(got, want)


def _fields(rec):
    """A trace record without its clock reading."""
    return (rec.k, rec.r, rec.t, rec.sigma, rec.rel_gap, rec.rel_primal, rec.rel_dual,
            rec.merit)


# iteration counts and objective bits of solves that make no face try,
# recorded before the face finish existed
@pytest.mark.parametrize("name, prob, cfg, iterations, objective", [
    ("epr", lambda: random_lp(np.random.default_rng(71), 6, 4),
     SolverConfig(tol=1e-8, iter_limit=50_000, engine=EngineConfig(mode="epr")),
     300, "-0x1.1b2652068292dp+0"),
])
def test_solves_without_face_tries_are_unchanged(name, prob, cfg, iterations, objective):
    res = solve(prob(), cfg)
    assert res.status == "optimal" and not res.face_finish
    assert res.iterations == iterations
    assert res.primal_obj.hex() == objective


# sparse working matrices, on the proximal and the normal-equations y-step
@pytest.mark.parametrize("name, prob, cfg", [
    ("hpr", lambda: random_lp(np.random.default_rng(72), 250, 110, density=0.05),
     SolverConfig(tol=1e-6, iter_limit=50_000)),
    ("normal equations",
     lambda: random_lp(np.random.default_rng(73), 250, 110, style="equality", density=0.05),
     SolverConfig(tol=1e-6, iter_limit=50_000, engine=EngineConfig(t1_zero_path=True))),
])
def test_sparse_solves_end_on_the_face(name, prob, cfg):
    prob = prob()
    assert prob.A.dense is None
    res = solve(prob, cfg)
    assert res.status == "optimal" and res.face_finish
    assert max(numpy_residuals(prob, res.x, res.y, res.z)) <= cfg.tol
    assert np.all(prob.l_var <= res.x) and np.all(res.x <= prob.u_var)
    assert res.primal_obj == pytest.approx(highs_objective(prob), rel=1e-6)


def test_nan_face_point_is_dropped(monkeypatch):
    """A face correction with a NaN leaves x NaN after the clip to the
    original box; its rel_gap is NaN or inf, so it fails ``tol``: every
    try returns None and the solve does not end on the face."""
    prob = mixed_lp(np.random.default_rng(1102), 7, 5, "minimize")
    assert solve(prob, SolverConfig(tol=1e-8)).face_finish
    corrections, finish = solver_module._face_corrections, solver_module._FaceFinish.finish
    made, found = [], []

    def nan_x(*args):
        out = corrections(*args)
        if out is None:
            return None
        made.append(out[0].size)
        return np.full_like(out[0], np.nan), out[1]

    def traced(self, cand):
        found.append(finish(self, cand))
        return found[-1]

    monkeypatch.setattr(solver_module, "_face_corrections", nan_x)
    monkeypatch.setattr(solver_module._FaceFinish, "finish", traced)
    res = solve(prob, SolverConfig(tol=1e-8))
    assert made and max(made) > 0
    assert found and all(point is None for point in found)
    assert not res.face_finish and not any(rec.face for rec in res.trace)
