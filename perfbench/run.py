"""hprlp benchmark: time to a verified optimum on generated LP workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from any directory; needs the repository's ``src/hprlp``.  The
workload's inputs are generated in a separate process (``prepare.py``)
and cached under ``perfbench/.cache``.  One process then solves them
through the public API (``parse_mps`` -> ``build_problem`` -> ``solve``,
or ``solve`` on an in-memory ``LpProblem``), one solve at a time, and
checks every answer with ``check.py``.

``--trace 0`` reports the end-to-end metrics: ``solve_s`` (input to
returned result, summed over the workload's instances), ``iterations``
(summed likewise; every seed runs the same trajectory, see
``workloads.py``, so a change of ``solve_s`` is read together with it),
``setup_s`` (parse + build + a zero-iteration solve, which scales the
problem, estimates lambda_A and factors the normal equations),
``sgm10_s`` and ``peak_rss_mb``.  Each solve's wall time is rescaled to
a nominal core speed sampled during it (``SpeedProbe``); each instance's
time is its median over the passes of one run, and the sums and sgm10 are
taken over those medians.  The plain wall times are printed too.
``--trace 1`` solves each instance twice in a row, untraced and then
with every layer timed from outside (``tracer.py``), and reports the
per-layer metrics and the tracing overhead, taken between those pairs.
The last line of output is one JSON object.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads: the plain single-threaded
# baseline, and no oversubscription of a small machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CACHE = HERE / ".cache"
RESTART_REASONS = ("sufficient", "necessary_no_progress", "long_loop")
MIN_SETUP_REPS, MAX_SETUP_REPS, SETUP_SECONDS = 3, 50, 3.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sgm10(times, shift=10.0):
    """The paper's shifted geometric mean."""
    return math.exp(sum(math.log(t + shift) for t in times) / len(times)) - shift


# ---------------------------------------------------------------------
# inputs


def load_inputs(workload, seed):
    """Instances, sources for solve() and meta data; prepares on a cache miss.
    The cache is keyed by the digest of the sources the inputs depend on."""
    from generate import Instance
    from hprlp import LpProblem, SparseMatrix
    from workloads import inputs_digest

    digest = inputs_digest(workload)
    d = CACHE / f"{workload.name}-s{seed}-{digest}"
    if not (d / "meta.json").is_file():
        # keep one prepared seed per workload: MPS files are megabytes each
        for old in CACHE.glob(f"{workload.name}-*"):
            shutil.rmtree(old, ignore_errors=True)
        CACHE.mkdir(exist_ok=True)
        subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", workload.name,
             "--seed", str(seed), "--out", str(d)],
            check=True, timeout=600,
        )
    meta = json.loads((d / "meta.json").read_text())
    if meta.get("digest") != digest:
        raise RuntimeError(f"{d}: prepared for other sources; delete it and run again")
    insts = [Instance.from_npz(p) for p in sorted(d.glob("*.npz"))]
    if workload.from_mps:
        sources = [str(d / "model.mps")]
    else:
        sources = [LpProblem(i.c, SparseMatrix(i.A), i.l_con, i.u_con, i.l_var, i.u_var)
                   for i in insts]
    return insts, sources, meta


def warm_up():
    """One small untimed solve on each y-step route, so lazy imports in
    scipy and first-call costs do not land on the first timed instance."""
    import generate
    from hprlp import EngineConfig, LpProblem, SolverConfig, SparseMatrix, solve

    for inst, t1 in ((generate.general_lp(1, 20, 30, 200, 10.0, "warm-up",
                                          generate.MPS_VAR_MIX, generate.MPS_ROW_MIX), False),
                     (generate.standard_equality_lp(1, 20, 40, 200, "warm-up"), True)):
        prob = LpProblem(inst.c, SparseMatrix(inst.A), inst.l_con, inst.u_con,
                         inst.l_var, inst.u_var)
        solve(prob, SolverConfig(tol=1e-6, engine=EngineConfig(lambda_A=None, t1_zero_path=t1)))


# ---------------------------------------------------------------------
# timed passes


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def run_one(source, cfg, tracer=None):
    """Wall seconds from the input to a returned SolveResult, and the result."""
    from hprlp import build_problem, parse_mps, solve

    t0 = time.perf_counter()
    if isinstance(source, str):
        with _span(tracer, "mps.parse_mps"):
            doc = parse_mps(source)
        with _span(tracer, "mps.build_problem"):
            prob = build_problem(doc)
    else:
        prob = source
    with _span(tracer, "solver.solve"):
        result = solve(prob, cfg)
    return time.perf_counter() - t0, result


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


class SpeedProbe:
    """Local speed of this core, sampled during each solve with a fixed
    numpy, scipy and plain Python kernel that does not touch hprlp.

    The cores of a shared host slow down by up to 1.7x for seconds to
    minutes at a time, each core on its own: a fixed numpy loop took
    176-341 ms within one minute on the 2-core machine this was tuned on,
    and its two cores correlated at 0.13.  ``run`` times the kernel just
    before and just after a solve and, from a SIGALRM handler, every
    ``INTERVAL_S`` during it.  The handler's time is taken out of the
    solve's wall time, and the rest is rescaled to the speed at which the
    kernel takes ``NOMINAL_S``, about that machine's speed when not slowed
    down.  Over one 6 s solve the kernel's mean tracks the core's speed
    far better than its two end points: on that machine the per-solve
    spread of equality-normal fell from 0.18 to 0.07 (interquartile range
    over median), at 0.8% extra wall time.
    """

    NOMINAL_S = 0.0006
    INTERVAL_S = 0.1

    def __init__(self):
        import numpy as np
        import scipy.linalg
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        # the workloads' costs in miniature, in about 150 KB so that the
        # probe adds little to peak_rss_mb and to the caches' traffic:
        # sparse products, dense Cholesky solves and products (the
        # normal-equation path), and below, in _kernel(), plain interpreter work
        A = sp.random(1_000, 2_000, density=5_000 / 2e6, random_state=rng, format="csr")
        self._sparse = (A, A.T.tocsr(), rng.standard_normal(2_000))
        gram = rng.standard_normal((60, 60))
        self._gram = gram @ gram.T + 60.0 * np.eye(60)
        self._factor = scipy.linalg.cho_factor(self._gram, lower=True)
        self._rhs = rng.standard_normal(60)
        self.samples: list[float] = []  # every kernel time, for the report
        self._current: list[float] = []  # kernel times of the running solve
        self._spent = 0.0  # handler seconds inside the running solve
        signal.signal(signal.SIGALRM, self._tick)
        for _ in range(20):
            self._kernel()

    def _kernel(self) -> float:
        import numpy as np
        import scipy.linalg

        t0 = time.perf_counter()
        A, At, x = self._sparse
        for _ in range(4):
            x = np.minimum(np.maximum(x - 0.01 * (At @ (A @ x)), -1.0), 1.0)
        y = self._rhs
        for _ in range(4):
            y = self._rhs - 1e-3 * (self._gram @ scipy.linalg.cho_solve(self._factor, y))
        acc = _Pair(0.0, 1.0)
        for k in range(300):
            acc = _Pair(acc.b * 0.5 + k, acc.a * 0.25)
        return time.perf_counter() - t0

    def _sample(self):
        dt = self._kernel()
        self._current.append(dt)
        self.samples.append(dt)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._sample()
        self._spent += time.perf_counter() - t0

    def run(self, source, cfg):
        """``run_one(source, cfg)`` sampled: (wall seconds less the
        sampling, those seconds rescaled, result)."""
        self._current, self._spent = [], 0.0
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            dt, result = run_one(source, cfg)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()
        wall = dt - self._spent
        return wall, wall * self.NOMINAL_S / statistics.fmean(self._current), result


def setup_pass(sources, cfg0, probe):
    times = []
    for src in sources:
        wall, rescaled, res = probe.run(src, cfg0)
        if res.status != "iter_limit" or res.iterations != 0:
            raise RuntimeError(f"zero-iteration solve returned {res.status}")
        times.append((wall, rescaled))
    return times


def instance_medians(passes):
    """Each instance's median time over the passes of a run.  Slow spells
    of the host CPU last seconds, so a median per instance discards more
    of them than a median of pass totals."""
    return [statistics.median(column) for column in zip(*passes)]


def product_bytes(inst):
    """Computed bytes of one A x and one A^T y: matrix arrays plus the two
    vectors, each read or written once.  Ignores caches."""
    m, n = inst.A.shape
    nnz, isz = inst.A.nnz, inst.A.indices.itemsize
    vectors = 8 * (m + n)
    return (nnz * (8 + isz) + (m + 1) * isz + vectors,
            nnz * (8 + isz) + (n + 1) * isz + vectors)


class PassStats:
    """Span totals and counters summed over the solves of one traced pass."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.lambda_products = {"sparse.matvec": 0, "sparse.rmatvec": 0}
        self.m_norm_products = 0
        self.bytes = 0.0
        self.flops = 0.0
        self.wall = 0.0
        self.untraced_wall = 0.0
        self.untraced_results = []
        self.nesting_errors = 0
        self.iterations = 0
        self.restarts = 0
        self.reasons = dict.fromkeys(RESTART_REASONS, 0)

    def fold(self, tracer, inst, dt, result):
        from tracer import nesting_errors, self_times

        names, parents = tracer.names, tracer.parents
        self.nesting_errors += nesting_errors(tracer.starts, tracer.ends, parents)
        for name, row in self_times(names, tracer.starts, tracer.ends, parents).items():
            acc = self.spans.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]
        bytes_mv, bytes_rmv = product_bytes(inst)
        for i, name in enumerate(names):
            if name not in ("sparse.matvec", "sparse.rmatvec"):
                continue
            parent = names[parents[i]] if parents[i] >= 0 else ""
            self.lambda_products[name] += parent == "sparse.estimate_lambda_A"
            self.m_norm_products += parent == "adaptive.m_norm"
            self.bytes += bytes_mv if name == "sparse.matvec" else bytes_rmv
            self.flops += 2.0 * inst.A.nnz
        self.wall += dt
        self.iterations += result.iterations
        self.restarts += result.restarts
        for ev in result.events:
            self.reasons[ev.reason] = self.reasons.get(ev.reason, 0) + 1
        tracer.clear()

    def calls(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def total(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[2]


def solve_pass(insts, sources, cfg, probe=None, tracer=None):
    """Runs every instance once; times are (wall, rescaled) pairs, the
    rescaled one None without a probe.  With a tracer every instance is
    solved untraced and then traced, one right after the other, so that the
    host's slow spells, which last seconds, rarely fall on one of the two
    only; the untraced results are kept in the stats."""
    times, results = [], []
    stats = PassStats() if tracer else None
    for inst, src in zip(insts, sources):
        if probe:
            dt, rescaled, res = probe.run(src, cfg)
        elif tracer:
            untraced, res = run_one(src, cfg)
            stats.untraced_wall += untraced
            stats.untraced_results.append(res)
            tracer.install()
            try:
                (dt, res), rescaled = run_one(src, cfg, tracer), None
            finally:
                tracer.uninstall()
        else:
            (dt, res), rescaled = run_one(src, cfg), None
        times.append((dt, rescaled))
        results.append(res)
        if tracer:
            stats.fold(tracer, inst, dt, res)
    return times, results, stats


# ---------------------------------------------------------------------
# metrics


def layer_metrics(S: PassStats, untraced_setup_s, span_cost, meta):
    """Per-layer metrics of one traced pass: (name, unit, spans needed, value)."""
    it = max(S.iterations, 1)
    mv, rmv = "sparse.matvec", "sparse.rmatvec"
    lam = "sparse.estimate_lambda_A"
    parse_s = S.total("mps.parse_mps")
    kernel_s = S.self_s(mv) + S.self_s(rmv)
    lam_mv, lam_rmv = S.lambda_products[mv], S.lambda_products[rmv]
    rows = [
        ("sparse.matvec_per_iter", "count/iter", (mv, lam), (S.calls(mv) - lam_mv) / it),
        ("sparse.rmatvec_per_iter", "count/iter", (rmv, lam), (S.calls(rmv) - lam_rmv) / it),
        ("sparse.matvec_self_s", "s", (mv,), S.self_s(mv)),
        ("sparse.rmatvec_self_s", "s", (rmv,), S.self_s(rmv)),
        ("sparse.gbps_computed", "GB/s", (mv, rmv), S.bytes / kernel_s / 1e9 if kernel_s else 0.0),
        ("sparse.flops_per_byte_computed", "flop/B", (mv, rmv), S.flops / S.bytes if S.bytes else 0.0),
        ("sparse.estimate_lambda_A_s", "s", (lam,), S.total(lam)),
        ("sparse.lambda_products", "count", (lam, mv, rmv), lam_mv + lam_rmv),
        ("model.project_box_calls", "count", ("model.project_box",), S.calls("model.project_box")),
        ("model.project_box_self_s", "s", ("model.project_box",), S.self_s("model.project_box")),
        ("model.relative_residuals_calls", "count", ("model.relative_residuals",),
         S.calls("model.relative_residuals")),
        ("model.relative_residuals_self_s", "s", ("model.relative_residuals",),
         S.self_s("model.relative_residuals")),
        ("engine.pr_step_self_s", "s", ("engine.pr_step",), S.self_s("engine.pr_step")),
        ("engine.halpern_step_self_s", "s", ("engine.halpern_step",),
         S.self_s("engine.halpern_step")),
        ("engine.y_update_t1_zero_self_s", "s", ("engine.y_update_t1_zero",),
         S.self_s("engine.y_update_t1_zero")),
        ("engine.normal_solve_calls", "count", ("engine.normal_solve",),
         S.calls("engine.normal_solve")),
        ("engine.normal_solve_self_s", "s", ("engine.normal_solve",),
         S.self_s("engine.normal_solve")),
        ("engine.normal_factor_s", "s", ("engine.normal_factor",), S.total("engine.normal_factor")),
        ("adaptive.m_norm_calls", "count", ("adaptive.m_norm",), S.calls("adaptive.m_norm")),
        ("adaptive.m_norm_self_s", "s", ("adaptive.m_norm",), S.self_s("adaptive.m_norm")),
        ("adaptive.m_norm_products_per_iter", "count/iter", ("adaptive.m_norm", rmv),
         S.m_norm_products / it),
        *[(f"adaptive.restarts.{r}", "count", (), S.reasons[r]) for r in RESTART_REASONS],
        ("adaptive.sigma_update_calls", "count", ("adaptive.sigma_update",),
         S.calls("adaptive.sigma_update")),
        ("solver.iterations", "count", (), S.iterations),
        ("solver.restarts", "count", (), S.restarts),
        ("solver.iter_us", "us", (), (S.untraced_wall - untraced_setup_s) / it * 1e6),
        ("solver.self_s", "s", (), S.self_s("solver.solve")),
        ("solver.apply_scaling_s", "s", ("solver.apply_scaling",), S.total("solver.apply_scaling")),
        ("mps.parse_s", "s", (), parse_s),
        ("mps.build_s", "s", (), S.total("mps.build_problem")),
        ("mps.parse_mb_per_s", "MB/s", (), meta["mps_bytes"] / 1e6 / parse_s if parse_s else 0.0),
        ("mps.lines", "count", (), meta["mps_lines"]),
        ("trace.wall_s", "s", (), S.wall),
        # traced minus untraced wall time of the same solves; on a host whose
        # cores slow down for seconds at a time this is only as exact as
        # those slow spells allow, and trace.overhead_est_s is the steadier
        # companion: the spans times the calibrated cost of one
        ("trace.overhead_s", "s", (), S.wall - S.untraced_wall),
        ("trace.spans", "count", (), sum(row[0] for row in S.spans.values())),
        ("trace.overhead_est_s", "s", (), span_cost * sum(row[0] for row in S.spans.values())),
        # equals 1 up to the few statements of run_one outside its spans
        ("trace.coverage", "ratio", (),
         sum(row[2] for row in S.spans.values()) / S.wall),
        # the share of the traced wall time that the hooked layers account
        # for: all but the solve driver's own code
        ("trace.layer_share", "ratio", (),
         sum(row[2] for name, row in S.spans.items() if name != "solver.solve") / S.wall),
    ]
    return rows


def environment(workload, seed):
    import numpy as np
    import scipy

    from workloads import BASE_SEED

    def cache_size(index):
        try:
            return Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").read_text().strip()
        except OSError:
            return "unknown"

    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "l2_per_core": cache_size(2),
        "l3": cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": workload.name,
        "seed": seed,
        "base_seed": BASE_SEED,
        "note": "the 1e5-nonzero matrix (about 1.2 MB in CSR) fits in L2+L3, "
                "so sparse.gbps_computed is not a memory-bandwidth measurement",
    }


# ---------------------------------------------------------------------
# main


def main(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="hprlp benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]

    from check import check
    from hprlp import EngineConfig, SolverConfig

    insts, sources, meta = load_inputs(w, args.seed)
    refs = meta["references"] or [None] * len(insts)
    cfg = SolverConfig(tol=w.tol, time_limit=w.time_limit,
                       engine=EngineConfig(lambda_A=None, t1_zero_path=w.normal_equations))
    cfg0 = replace(cfg, iter_limit=0)
    print(f"env: {json.dumps(environment(w, args.seed))}")
    print(f"peak rss before the first solve: {peak_rss_mb():.6g} MB (inputs loaded)")
    warm_up()

    attempted, failures = 0, []

    def verify(results):
        nonlocal attempted
        for inst, res, ref in zip(insts, results, refs):
            attempted += 1
            problems = check(inst, res, w.tol, ref)
            if problems:
                failures.append(f"{inst.name}: " + "; ".join(problems))

    probe = SpeedProbe()
    started = time.perf_counter()
    setups = []
    while len(setups) < MAX_SETUP_REPS and (
        len(setups) < (1 if args.trace else MIN_SETUP_REPS)
        or (not args.trace and time.perf_counter() - started < SETUP_SECONDS)
    ):
        setups.append(setup_pass(sources, cfg0, probe))

    passes = []  # (times, results, stats)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        span_cost = tracer.span_cost()
    while True:
        t0 = time.perf_counter()
        times, results, stats = solve_pass(insts, sources, cfg,
                                           None if tracer else probe, tracer)
        verify(results)
        if stats:
            verify(stats.untraced_results)
        passes.append((times, results, stats))
        last = time.perf_counter() - t0
        if time.perf_counter() - started + last > args.seconds:
            break

    fail_frac = len(failures) / attempted
    for f in failures[:20]:
        print(f"check failed: {f}")
    per_pass_iterations = [sum(r.iterations for r in rs) for _, rs, _ in passes]
    print(f"passes: {len(passes)} solve, {len(setups)} setup; iterations per pass "
          f"{', '.join(map(str, per_pass_iterations))}; "
          f"attempted {attempted}, failed {len(failures)}, fail_frac {fail_frac:.4f} ratio")

    if not args.trace:
        def medians(runs, k):
            return instance_medians([[t[k] for t in ts] for ts in runs])

        solves = [ts for ts, _, _ in passes]
        # unsolved instances are charged the time limit, as `hprlp bench` does
        charged = [[(w.time_limit,) * 2 if r.status != "optimal" else t for t, r in zip(ts, rs)]
                   for ts, rs, _ in passes]
        print(f"wall less sampling, not rescaled: solve {sum(medians(solves, 0)):.6g} s, "
              f"setup {sum(medians(setups, 0)):.6g} s; speed probe median "
              f"{statistics.median(probe.samples) * 1e3:.4g} ms over {len(probe.samples)} samples, nominal "
              f"{probe.NOMINAL_S * 1e3:g} ms")
        metrics = {
            "solve_s": (sum(medians(solves, 1)), "s"),
            # read together with solve_s: a change of trajectory moves both
            "iterations": (statistics.median_low(per_pass_iterations), "count"),
            "setup_s": (sum(medians(setups, 1)), "s"),
            "sgm10_s": (sgm10(medians(charged, 1)), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        correct = not failures
    else:
        setup_wall = sum(wall for wall, _ in setups[0])
        per_pass = [layer_metrics(st, setup_wall, span_cost, meta) for _, _, st in passes]
        metrics, correct = {}, not failures
        for k, (name, unit, deps, _) in enumerate(per_pass[0]):
            if any(d in tracer.missing for d in deps):
                metrics[name] = (None, unit)
            else:
                metrics[name] = (statistics.median([rows[k][3] for rows in per_pass]), unit)
        # self-checks: one pr_step span per iteration; spans nest; spans
        # account for the wall time
        for stats in (st for _, _, st in passes):
            if stats.nesting_errors:
                print(f"trace check failed: {stats.nesting_errors} spans not nested in their parents")
                correct = False
            if "engine.pr_step" not in tracer.missing and stats.calls("engine.pr_step") != stats.iterations:
                print(f"trace check failed: {stats.calls('engine.pr_step')} pr_step spans "
                      f"for {stats.iterations} iterations")
                correct = False
        coverage = metrics["trace.coverage"][0]
        if not abs(coverage - 1.0) <= 0.05:
            print(f"trace check failed: self times cover {coverage:.3f} of the traced wall time")
            correct = False
        if tracer.missing:
            print(f"missing hooks: {', '.join(tracer.missing)}")

    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{w.name:>16} {name:<36} {shown:>14} {unit}")
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: ({"value": value, "unit": unit} if value is not None
                   else {"value": None, "unit": unit, "status": "missing"})
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(out))


if __name__ == "__main__":
    if not (SRC / "hprlp" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hprlp'} not found; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    main()
