"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and reports a single
``[ACCEPT] criterion N: PASS/FAIL`` line (echoed again in the terminal
summary).  The criteria exercise the solver against the independent
enumeration oracle, the equivalence and complexity guarantees of the
iteration, the restart ablation ordering, and the data-handling layers.
"""

import functools
import io
import time
import warnings

import numpy as np

import hprlp
from hprlp import (
    EngineConfig,
    Iterate,
    LpProblem,
    RestartConfig,
    SolverConfig,
    SparseMatrix,
    build_problem,
    parse_mps,
    solve,
)
from hprlp.adaptive import m_norm, m_norm_squared
from hprlp.cli import sgm10
from hprlp.engine import halpern_step, pr_step
from hprlp.sparse import estimate_lambda_A

from conftest import ACCEPTANCE_LINES, random_lp
from oracle import oracle_solve
from theory import (
    IterateMean,
    complexity_diagnostics,
    frozen_affine_map,
    identify_active_sets,
    rhpdhg_step,
)

INF = np.inf


def _record(num: int, ok: bool, detail: str):
    line = f"[ACCEPT] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def criterion(num: int):
    """Wrap a test returning (ok, detail); always emit the status line."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                ok, detail = fn(*args, **kwargs)
            except Exception as exc:
                _record(num, False, f"{type(exc).__name__}: {exc}")
                raise
            _record(num, ok, detail)
            assert ok, detail

        return wrapper

    return deco


def build_fixture(fixtures_dir, name) -> LpProblem:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_problem(parse_mps(fixtures_dir / name))


# the feasible, bounded members of the fixture corpus (oracle-checkable)
SOLVABLE_FIXTURES = (
    "bounds_int.mps",
    "bounds_neg_up.mps",
    "dup_entries.mps",
    "fixed_format.mps",
    "free_format.mps",
    "int_markers.mps",
    "obj_const.mps",
    "objsense_max.mps",
    "ranges_e.mps",
    "rows_lge.mps",
)


# ---------------------------------------------------------------------------
# 1. solver vs oracle on random instances and the fixture corpus


@criterion(1)
def test_criterion_01_oracle_agreement(fixtures_dir):
    rng = np.random.default_rng(0)
    styles = ("two_sided", "upper", "equality")
    problems = []
    for i in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 9))
        problems.append(random_lp(rng, n, m, style=styles[i % 3]))
    problems += [build_fixture(fixtures_dir, name) for name in SOLVABLE_FIXTURES]

    cfg = SolverConfig(tol=1e-8, iter_limit=300_000, check_interval=50)
    worst_rel = 0.0
    worst_sec = 0.0
    for prob in problems:
        ref = oracle_solve(prob)
        assert ref.status == "optimal"
        res = solve(prob, cfg)
        if res.status != "optimal":
            return False, f"solver returned {res.status} on an oracle-optimal instance"
        got = float(np.dot(prob.c, res.x))
        rel = abs(got - ref.objective) / (1.0 + abs(ref.objective))
        worst_rel = max(worst_rel, rel)
        worst_sec = max(worst_sec, res.solve_seconds)
        if rel > 1e-6:
            return False, f"objective off by {rel:.2e} relative (> 1e-6)"
        if res.solve_seconds >= 5.0:
            return False, f"solve took {res.solve_seconds:.2f} s (>= 5 s)"
    return True, (
        f"60/60 optimal, max objective error {worst_rel:.2e} rel, "
        f"max {worst_sec:.2f} s per instance"
    )


# ---------------------------------------------------------------------------
# 2. every reported optimum satisfies the three stopping inequalities


def _support(s, lo, hi):
    """Box support function, written out independently of the package."""
    val = 0.0
    for si, l, h in zip(s, lo, hi):
        if si > 0.0:
            if np.isinf(h):
                return float("inf")
            val += si * h
        elif si < 0.0:
            if np.isinf(l):
                return float("inf")
            val += si * l
    return val


@criterion(2)
def test_criterion_02_termination_soundness():
    eps = 1e-8
    rng = np.random.default_rng(1)
    styles = ("two_sided", "upper", "equality")
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 9))
        prob = random_lp(rng, n, m, style=styles[i % 3])
        res = solve(prob, SolverConfig(tol=eps, iter_limit=300_000))
        assert res.status == "optimal"

        dense = prob.A.to_dense()
        cx = float(np.dot(prob.c, res.x))
        dual = _support(-res.y, prob.l_con, prob.u_con) + _support(
            -res.z, prob.l_var, prob.u_var
        )
        assert np.isfinite(dual)
        gap = abs(dual + cx)
        if gap > eps * (1.0 + abs(dual) + abs(cx)):
            return False, f"gap inequality violated by instance {i}"

        ax = dense @ res.x
        pviol = ax - np.clip(ax, prob.l_con, prob.u_con)
        b_ref = np.maximum(
            np.where(np.isfinite(prob.l_con), np.abs(prob.l_con), 0.0),
            np.where(np.isfinite(prob.u_con), np.abs(prob.u_con), 0.0),
        )
        if np.linalg.norm(pviol) > eps * (1.0 + np.linalg.norm(b_ref)):
            return False, f"primal inequality violated by instance {i}"

        dviol = prob.c - dense.T @ res.y - res.z
        if np.linalg.norm(dviol) > eps * (1.0 + np.linalg.norm(prob.c)):
            return False, f"dual inequality violated by instance {i}"

        worst = max(
            worst,
            gap / (1.0 + abs(dual) + abs(cx)),
            np.linalg.norm(pviol) / (1.0 + np.linalg.norm(b_ref)),
            np.linalg.norm(dviol) / (1.0 + np.linalg.norm(prob.c)),
        )
    return True, f"20/20 optima satisfy all three inequalities, worst measure {worst:.2e}"


# ---------------------------------------------------------------------------
# 3. reflected primal-dual trajectory equals the proximal-reflection one


@criterion(3)
def test_criterion_03_primal_dual_equivalence():
    rng = np.random.default_rng(42)
    omegas = (0.25, 0.5, 1.0, 2.0, 4.0)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(10, 51))
        m = int(rng.integers(5, 41))
        prob = random_lp(rng, n, m, density=0.6)
        eta = 0.93 / np.linalg.norm(prob.A.to_dense(), 2)
        omega = omegas[trial % len(omegas)]
        cfg = EngineConfig(sigma=eta / omega, lambda_A=1.0 / eta**2)

        w = Iterate.zeros(m, n)
        anchor = w.copy()
        u = (np.zeros(m), np.zeros(n))
        u0 = (np.zeros(m), np.zeros(n))
        for k in range(1000):
            step = pr_step(w, prob, cfg)
            w = halpern_step(anchor, step.w_hat, k)
            u = rhpdhg_step(u, u0, prob, eta=eta, omega=omega, gamma=1.0, k=k)
            scale = 1.0 + max(np.max(np.abs(w.y)), np.max(np.abs(w.x)))
            dev = max(np.max(np.abs(u[0] - w.y)), np.max(np.abs(u[1] - w.x))) / scale
            worst = max(worst, dev)
            if dev > 1e-9:
                return False, f"trajectories diverged to {dev:.2e} relative at k={k}"
    secs = time.perf_counter() - started
    return True, (
        f"10 instances x 1000 iterations agree to {worst:.2e} relative "
        f"({secs:.2f} s)"
    )


# ---------------------------------------------------------------------------
# 4. anchored iteration of an affine map equals the Picard average


@criterion(4)
def test_criterion_04_halpern_is_picard_average():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 8))
        m = int(rng.integers(2, 6))
        prob = random_lp(rng, n, m)
        lam = estimate_lambda_A(prob.A)
        cfg = EngineConfig(sigma=float(rng.uniform(0.5, 2.0)), lambda_A=lam)
        w_probe = Iterate(
            rng.standard_normal(m), rng.standard_normal(n), rng.standard_normal(n)
        )
        fmap = frozen_affine_map(
            identify_active_sets(pr_step(w_probe, prob, cfg), prob), prob, cfg
        )

        w0 = Iterate(
            rng.standard_normal(m), rng.standard_normal(n), rng.standard_normal(n)
        )
        w = w0.copy()
        picard = w0.copy()          # F^k(w0)
        acc = w0.copy()             # sum of F^0..F^k applied to w0
        for k in range(200):
            w = halpern_step(w0, fmap(w), k)
            picard = fmap(picard)
            acc = acc + picard
            avg = (1.0 / (k + 2.0)) * acc
            diff = w - avg
            scale = 1.0 + avg.max_abs()
            dev = diff.max_abs() / scale
            worst = max(worst, dev)
            if dev > 1e-11:
                return False, f"identity violated at k={k}: {dev:.2e} relative"
    return True, f"10 maps x 200 iterations, max deviation {worst:.2e} relative"


# ---------------------------------------------------------------------------
# 5. O(1/k) complexity guarantees with a fixed penalty


@criterion(5)
def test_criterion_05_complexity_bounds():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(3, 8))
        m = int(rng.integers(2, 7))
        prob = random_lp(rng, n, m)
        ref = solve(
            prob,
            SolverConfig(tol=1e-12, iter_limit=500_000, scaling="none"),
        )
        assert ref.status == "optimal"
        w_star = Iterate(ref.y, ref.z, ref.x)
        lam = estimate_lambda_A(prob.A)
        rep = complexity_diagnostics(
            prob,
            EngineConfig(sigma=1.0, lambda_A=lam),
            Iterate.zeros(m, n),
            w_star,
            num_iters=5000,
        )
        worst = max(worst, rep.max_ratio)
        if rep.max_ratio > 1.0 + 1e-6:
            return False, f"a bound ratio reached {rep.max_ratio:.6f} (> 1 + 1e-6)"
    return True, f"5 instances x 5000 iterations, max bound ratio {worst:.3f}"


# ---------------------------------------------------------------------------
# 6. anchored iterates equal the ergodic average of pure reflection steps


@criterion(6)
def test_criterion_06_ergodic_segment_equivalence():
    # search deterministically for an instance whose active sets stay
    # fixed from the very first step when warm-started near the optimum
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 8))
        m = int(rng.integers(2, 6))
        prob = random_lp(rng, n, m)
        ref = solve(prob, SolverConfig(tol=1e-12, iter_limit=500_000, scaling="none"))
        if ref.status != "optimal":
            continue
        w_star = Iterate(ref.y, ref.z, ref.x)
        pert = Iterate(
            rng.standard_normal(m), rng.standard_normal(n), rng.standard_normal(n)
        )
        w0 = w_star + 1e-4 * pert

        lam = estimate_lambda_A(prob.A)
        cfg_h = EngineConfig(sigma=1.0, lambda_A=lam, mode="hpr")
        cfg_e = EngineConfig(sigma=1.0, lambda_A=lam, mode="epr")

        base = identify_active_sets(pr_step(w0, prob, cfg_h), prob)
        w_h = w0.copy()
        w_e = w0.copy()
        mean = IterateMean(w0)
        constant = True
        worst = 0.0
        for k in range(500):
            step_h = pr_step(w_h, prob, cfg_h)
            step_e = pr_step(w_e, prob, cfg_e)
            if not (
                identify_active_sets(step_h, prob).same_as(base)
                and identify_active_sets(step_e, prob).same_as(base)
            ):
                constant = False
                break
            w_h = halpern_step(w0, step_h.w_hat, k)
            w_e = step_e.w_hat
            mean.add(w_e)
            diff = w_h - mean.mean
            scale = 1.0 + mean.mean.max_abs()
            worst = max(worst, diff.max_abs() / scale)
        if not constant:
            continue
        ok = worst <= 1e-9
        detail = (
            f"seed {seed}: active sets constant on both trajectories over 500 "
            f"iterations, max deviation {worst:.2e} relative"
        )
        return ok, detail
    return False, "no instance with constant active sets found in 20 seeds"


# ---------------------------------------------------------------------------
# 7. restart ablation ordering


@criterion(7)
def test_criterion_07_restart_ablation():
    rng = np.random.default_rng(2024)
    problems = []
    for _ in range(20):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, 6))
        problems.append(random_lp(rng, n, m, scale=0.01))

    def run(prob, mode="hpr", enabled=True, fixed=None, cap=100_000):
        cfg = SolverConfig(
            tol=1e-6,
            iter_limit=cap,
            check_interval=100,
            engine=EngineConfig(lambda_A=None, mode=mode),
            restart=RestartConfig(enabled=enabled, fixed_period=fixed),
            adaptive_sigma=True,
            scaling="none",
        )
        return solve(prob, cfg)

    schemes = {
        "adaptive": dict(),
        "norestart": dict(enabled=False),
        "fix64": dict(enabled=False, fixed=64),
        "fix256": dict(enabled=False, fixed=256),
        "fix1024": dict(enabled=False, fixed=1024),
        "hdr": dict(mode="hdr"),
        "pr": dict(mode="pr", cap=10_000),
    }
    iters: dict[str, list[int]] = {}
    solved: dict[str, int] = {}
    for label, kw in schemes.items():
        results = [run(p, **kw) for p in problems]
        iters[label] = [r.iterations for r in results]
        solved[label] = sum(1 for r in results if r.status == "optimal")

    med = {label: float(np.median(v)) for label, v in iters.items()}
    pr_failed = 20 - solved["pr"]
    checks = [
        (pr_failed >= 10, f"plain reflection failed on only {pr_failed}/20"),
        (solved["norestart"] == 20, "a no-restart run did not converge"),
        (
            med["norestart"] >= med["adaptive"],
            f"no-restart median {med['norestart']:.0f} < adaptive {med['adaptive']:.0f}",
        ),
        (
            med["adaptive"] <= min(med["fix64"], med["fix256"], med["fix1024"]),
            "adaptive restart beaten by a fixed period",
        ),
        (
            med["adaptive"] <= med["hdr"],
            f"full reflection median {med['adaptive']:.0f} > {med['hdr']:.0f}",
        ),
    ]
    for ok, msg in checks:
        if not ok:
            return False, msg
    return True, (
        f"pr failed {pr_failed}/20; median iterations: adaptive {med['adaptive']:.0f}"
        f" <= fixed {min(med['fix64'], med['fix256'], med['fix1024']):.0f}"
        f" <= no-restart {med['norestart']:.0f}; hdr {med['hdr']:.0f}"
    )


# ---------------------------------------------------------------------------
# 8. seminorm properties


@criterion(8)
def test_criterion_08_seminorm_properties():
    rng = np.random.default_rng(3)
    floor = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        dense = rng.standard_normal((m, n))
        lam = float(np.linalg.norm(dense, 2) ** 2 * rng.uniform(1.0, 3.0))
        cfg = EngineConfig(sigma=float(rng.uniform(0.1, 10.0)), lambda_A=lam)
        A = SparseMatrix.from_dense(dense)
        w = Iterate(
            rng.standard_normal(m), rng.standard_normal(n), rng.standard_normal(n)
        )
        norm_sq = float(
            np.dot(w.y, w.y) + np.dot(w.z, w.z) + np.dot(w.x, w.x)
        )
        q = m_norm_squared(w, cfg, A)
        if q < -1e-12 * max(norm_sq, 1.0):
            return False, f"quadratic form came out {q:.2e} on ||w||^2 = {norm_sq:.2e}"
        floor = min(floor, q / max(norm_sq, 1.0))

    dense = rng.standard_normal((5, 7))
    cfg = EngineConfig(sigma=1.7, lambda_A=float(np.linalg.norm(dense, 2) ** 2 * 1.05))
    A = SparseMatrix.from_dense(dense)
    for _ in range(200):
        a = Iterate(rng.standard_normal(5), rng.standard_normal(7), rng.standard_normal(7))
        b = Iterate(rng.standard_normal(5), rng.standard_normal(7), rng.standard_normal(7))
        if m_norm(a + b, cfg, A) > m_norm(a, cfg, A) + m_norm(b, cfg, A) + 1e-10:
            return False, "triangle inequality violated"
    return True, (
        f"1000 points PSD (floor {floor:.1e} of ||w||^2), "
        "triangle inequality holds to 1e-10"
    )


# ---------------------------------------------------------------------------
# 9. MPS corpus, bit-exact


FIXTURE_EXPECTED = {
    "simple_l.mps": dict(
        c=[2.0, 1.0], A=[[1.0, 1.0]], l_con=[-INF], u_con=[4.0],
        l_var=[0.0, 0.0], u_var=[INF, INF], const=0.0, sense="minimize",
    ),
    "rows_lge.mps": dict(
        c=[1.0, -1.0], A=[[2.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
        l_con=[-INF, 0.5, 2.0], u_con=[8.0, INF, 2.0],
        l_var=[0.0, 0.0], u_var=[INF, INF], const=0.0, sense="minimize",
    ),
    "ranges_l.mps": dict(
        c=[1.0], A=[[1.0], [1.0]], l_con=[3.0, 3.0], u_con=[4.0, 4.0],
        l_var=[0.0], u_var=[INF], const=0.0, sense="minimize",
    ),
    "ranges_g.mps": dict(
        c=[1.0], A=[[1.0], [1.0]], l_con=[2.0, 2.0], u_con=[5.0, 5.0],
        l_var=[0.0], u_var=[INF], const=0.0, sense="minimize",
    ),
    "ranges_e.mps": dict(
        c=[1.0], A=[[1.0], [1.0]], l_con=[1.0, -1.0], u_con=[3.0, 1.0],
        l_var=[0.0], u_var=[INF], const=0.0, sense="minimize",
    ),
    "bounds_all.mps": dict(
        c=[1.0] * 6, A=[[1.0] * 6], l_con=[1.0], u_con=[INF],
        l_var=[0.0, -1.5, 0.25, -INF, -INF, 0.0],
        u_var=[2.5, INF, 0.25, INF, INF, INF], const=0.0, sense="minimize",
    ),
    "bounds_int.mps": dict(
        c=[1.0, 2.0], A=[[1.0, 1.0]], l_con=[1.0], u_con=[INF],
        l_var=[0.0, 1.0], u_var=[1.0, 3.0], const=0.0, sense="minimize",
    ),
    "bounds_neg_up.mps": dict(
        c=[1.0, 1.0], A=[[1.0, 1.0]], l_con=[-10.0], u_con=[INF],
        l_var=[-INF, -5.0], u_var=[-2.0, -2.0], const=0.0, sense="minimize",
    ),
    "objsense_max.mps": dict(
        c=[-3.0, -2.0], A=[[1.0, 1.0]], l_con=[-INF], u_con=[4.0],
        l_var=[0.0, 0.0], u_var=[3.0, 3.0], const=0.0, sense="maximize",
    ),
    "int_markers.mps": dict(
        c=[1.0, 2.0], A=[[1.0, 1.0]], l_con=[1.0], u_con=[INF],
        l_var=[0.0, 0.0], u_var=[INF, INF], const=0.0, sense="minimize",
    ),
    "obj_const.mps": dict(
        c=[1.0], A=[[1.0]], l_con=[2.0], u_con=[INF],
        l_var=[0.0], u_var=[INF], const=-5.0, sense="minimize",
    ),
    "dup_entries.mps": dict(
        c=[1.0], A=[[5.0]], l_con=[2.5], u_con=[INF],
        l_var=[0.0], u_var=[INF], const=0.0, sense="minimize",
    ),
    "free_format.mps": dict(
        c=[1.5], A=[[1.0]], l_con=[3.5], u_con=[INF],
        l_var=[0.0], u_var=[INF], const=0.0, sense="minimize",
    ),
    "fixed_format.mps": dict(
        c=[1.0, 2.0], A=[[1.0, 1.0], [1.0, 0.0]], l_con=[2.0, 0.5],
        u_con=[4.0, INF], l_var=[0.0, 0.0], u_var=[3.0, INF],
        const=0.0, sense="minimize",
    ),
}

RANGES_CASES = (
    ("L", 4.0, 1.0, 3.0, 4.0),
    ("L", 4.0, -1.0, 3.0, 4.0),
    ("G", 2.0, 3.0, 2.0, 5.0),
    ("G", 2.0, -3.0, 2.0, 5.0),
    ("E", 1.0, 2.0, 1.0, 3.0),
    ("E", 1.0, -2.0, -1.0, 1.0),
)


@criterion(9)
def test_criterion_09_mps_corpus(fixtures_dir):
    for name, exp in FIXTURE_EXPECTED.items():
        prob = build_fixture(fixtures_dir, name)
        checks = (
            np.array_equal(prob.c, exp["c"]),
            np.array_equal(prob.A.to_dense(), exp["A"]),
            np.array_equal(prob.l_con, exp["l_con"]),
            np.array_equal(prob.u_con, exp["u_con"]),
            np.array_equal(prob.l_var, exp["l_var"]),
            np.array_equal(prob.u_var, exp["u_var"]),
            prob.obj_constant == exp["const"],
            prob.obj_sense == exp["sense"],
        )
        if not all(checks):
            return False, f"{name}: fields {[i for i, c in enumerate(checks) if not c]}"

    for kind, rhs, rng_val, lo, hi in RANGES_CASES:
        text = (
            f"ROWS\n N  OBJ\n {kind}  R1\nCOLUMNS\n    X1 OBJ 1.0 R1 1.0\n"
            f"RHS\n    RHS R1 {rhs}\nRANGES\n    RNG R1 {rng_val}\nENDATA\n"
        )
        prob = build_problem(parse_mps(io.StringIO(text)))
        if not (prob.l_con[0] == lo and prob.u_con[0] == hi):
            return False, (
                f"range rule {kind}/{rng_val:+}: got "
                f"[{prob.l_con[0]}, {prob.u_con[0]}], want [{lo}, {hi}]"
            )
    return True, (
        f"{len(FIXTURE_EXPECTED)} fixtures bit-exact; "
        "all six range-rule cases match"
    )


# ---------------------------------------------------------------------------
# 10. shifted geometric mean


@criterion(10)
def test_criterion_10_sgm10():
    want = float(np.sqrt(20200.0) - 10.0)
    got = sgm10([10.0, 1000.0])
    if abs(got - want) > 1e-9:
        return False, f"sgm10([10, 1000]) = {got!r}, want {want!r}"
    rng = np.random.default_rng(5)
    for _ in range(20):
        times = rng.uniform(0.0, 300.0, int(rng.integers(1, 30)))
        perm = rng.permutation(times)
        if abs(sgm10(times) - sgm10(perm)) > 1e-9 * (1.0 + abs(sgm10(times))):
            return False, "permutation changed the value"
    return True, (
        f"sgm10([10, 1000]) = sqrt(20200) - 10 to {abs(got - want):.1e}; "
        "permutation invariant on 20 random lists"
    )
