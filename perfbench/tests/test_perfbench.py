"""Tests of the benchmark's own parts: generator, tracer, answer check.

    python3 -m pytest perfbench/tests
"""

import io
from dataclasses import replace

import numpy as np
import pytest

import generate
from check import bracket, check
from hprlp import EngineConfig, LpProblem, SolverConfig, SparseMatrix, solve
from prepare import check_round_trip
from tracer import Tracer, nesting_errors, self_times
from workloads import WORKLOADS, inputs_digest


def mps_bytes(inst):
    buf = io.StringIO()
    generate.write_mps(inst, buf)
    return buf.getvalue().encode()


def small_instance(seed=3):
    return generate.general_lp(seed, 15, 25, 120, 10.0, "t",
                               generate.MPS_VAR_MIX, generate.MPS_ROW_MIX)


def as_problem(inst):
    return LpProblem(inst.c, SparseMatrix(inst.A), inst.l_con, inst.u_con,
                     inst.l_var, inst.u_var)


# -- generator ---------------------------------------------------------


def test_generator_same_seed_same_bytes_other_seed_other_bytes():
    w = WORKLOADS["mps-sparse-1e5"]
    first = mps_bytes(w.instances(5)[0])
    assert mps_bytes(w.instances(5)[0]) == first
    assert mps_bytes(w.instances(6)[0]) != first


def test_inputs_digest_names_the_workload_settings():
    w = WORKLOADS["small-corpus"]
    assert inputs_digest(w) == inputs_digest(w)
    assert inputs_digest(replace(w, tol=w.tol * 10)) != inputs_digest(w)
    assert inputs_digest(WORKLOADS["equality-normal"]) != inputs_digest(w)


@pytest.mark.parametrize("name", ["small-corpus", "equality-normal"])
def test_in_memory_workloads_depend_on_seed_only(name):
    w = WORKLOADS[name]
    a, b, c = (w.instances(s)[0] for s in (5, 5, 6))
    for k in ("c", "l_con", "u_con", "l_var", "u_var"):
        np.testing.assert_array_equal(getattr(a, k), getattr(b, k))
    assert mps_bytes(a) == mps_bytes(b) != mps_bytes(c)


def test_instances_are_feasible_with_a_finite_bracket():
    for inst in (small_instance(), generate.present(small_instance(), 9),
                 generate.equality_normal(1)):
        ax = inst.A @ inst.x0
        slack = 1e-9 * (1.0 + np.abs(ax))
        assert np.all(ax >= inst.l_con - slack) and np.all(ax <= inst.u_con + slack)
        assert np.all(inst.x0 >= inst.l_var) and np.all(inst.x0 <= inst.u_var)
        lower, upper = bracket(inst)
        assert np.isfinite(lower) and lower <= upper


def test_mps_round_trip_is_bit_exact(tmp_path):
    inst = generate.present(small_instance(), 4)
    assert set(inst.var_kind) == set(range(5)) and set(inst.row_kind) == set(range(4))
    path = tmp_path / "t.mps"
    path.write_bytes(mps_bytes(inst))
    check_round_trip(inst, path)


@pytest.mark.parametrize("rows", [False, True])
def test_presentation_keeps_the_trajectory(rows):
    if rows:
        base = generate.standard_equality_lp(2, 12, 30, 100, "t")
        cfg = SolverConfig(tol=1e-9, engine=EngineConfig(lambda_A=None, t1_zero_path=True))
    else:
        base, cfg = small_instance(), SolverConfig(tol=1e-9)
    want = solve(as_problem(base), cfg)
    for seed in (1, 2):
        inst = generate.present(base, seed, rows=rows)
        got = solve(as_problem(inst), cfg)
        assert got.iterations == want.iterations
        assert got.primal_obj == want.primal_obj


# -- tracer ------------------------------------------------------------


def test_self_times_on_a_synthetic_tree():
    # a[0,10] > (b[1,4] > c[2,3]), d[5,9];  e[10,12] is a second root
    names = ["a", "b", "c", "d", "e"]
    starts = [0.0, 1.0, 2.0, 5.0, 10.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    got = self_times(names, starts, ends, parents)
    assert got == {"a": [1, 10.0, 3.0], "b": [1, 3.0, 2.0], "c": [1, 1.0, 1.0],
                   "d": [1, 4.0, 4.0], "e": [1, 2.0, 2.0]}
    assert sum(row[2] for row in got.values()) == 12.0  # root durations
    assert nesting_errors(starts, ends, parents) == 0
    # c sticks out of b, and d was never closed
    assert nesting_errors(starts, [10.0, 4.0, 4.5, 0.0, 12.0], parents) == 2


def test_wrapped_calls_record_parents_and_missing_hooks():
    tracer = Tracer()
    inner = tracer.wrap(lambda v: v + 1, "inner")
    outer = tracer.wrap(lambda v: inner(v) * 2, "outer")
    assert outer(1) == 4
    assert tracer.names == ["outer", "inner"] and tracer.parents == [-1, 0]
    tracer.install([("hprlp.solver", "no_such_function", "x.gone")])
    assert tracer.missing == ["x.gone"]
    tracer.uninstall()
    # installing again reports the missing hook once, not twice
    tracer.install([("hprlp.solver", "no_such_function", "x.gone")])
    assert tracer.missing == ["x.gone"]
    tracer.uninstall()


def test_span_cost_is_positive_and_leaves_no_spans():
    tracer = Tracer()
    assert tracer.span_cost(calls=2_000, reps=3) > 0
    assert tracer.names == []


def test_installed_hooks_count_one_pr_step_per_iteration():
    import hprlp.solver

    original = hprlp.solver.pr_step
    tracer = Tracer()
    tracer.install()
    try:
        res = solve(as_problem(small_instance()), SolverConfig(tol=1e-6))
    finally:
        tracer.uninstall()
    assert hprlp.solver.pr_step is original
    assert not tracer.missing
    assert self_times(tracer.names, tracer.starts, tracer.ends,
                      tracer.parents)["engine.pr_step"][0] == res.iterations


# -- answer check ------------------------------------------------------


@pytest.fixture(scope="module")
def solved():
    inst = small_instance()
    res = solve(as_problem(inst), SolverConfig(tol=1e-8))
    return inst, res


def test_check_accepts_the_solver_answer(solved):
    inst, res = solved
    assert check(inst, res, 1e-8, reference=res.primal_obj * (1 + 1e-9)) == []


def test_check_rejects_a_perturbed_objective(solved):
    inst, res = solved
    bad = replace(res, primal_obj=res.primal_obj * (1 + 1e-4) + 1e-4)
    assert check(inst, bad, 1e-8)
    assert check(inst, res, 1e-8, reference=res.primal_obj * (1 + 1e-4) + 1e-4)


def test_check_rejects_a_perturbed_x(solved):
    inst, res = solved
    x = res.x.copy()
    x[np.argmax(np.abs(inst.c))] += 1e-3 * (1.0 + np.abs(x).max())
    assert check(inst, replace(res, x=x), 1e-8)
