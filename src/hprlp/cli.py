"""Command-line front end: solve one file, benchmark a directory, or
reshape trace CSVs for plotting.

Exit codes: 0 solved to tolerance, 2 iteration/time limit, 3 numerical
failure, 64 bad usage, 65 unreadable/unparsable input.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .adaptive import RestartConfig
from .engine import MODES, EngineConfig
from .mps import MpsParseError, build_problem, parse_mps
from .solver import SolveResult, SolverConfig, solve

__all__ = ["main", "cmd_solve", "cmd_bench", "cmd_trace_plotdata", "sgm10", "BenchReport"]

EXIT_OK = 0
EXIT_LIMIT = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64
EXIT_DATA = 65

_TRACE_FIELDS = (
    "k", "r", "t", "sigma", "rel_gap", "rel_primal", "rel_dual", "merit", "seconds",
    "face",
)


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code 64 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _SubcommandParser(_Parser):
    """A subcommand's parser, which reports an unknown option itself,
    with its own usage, instead of leaving it to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def sgm10(times, shift: float = 10.0) -> float:
    """Shifted geometric mean: (prod (t_i + shift))^(1/n) - shift.

    Computed in log space; times must be a nonempty sequence of
    nonnegative finite numbers.
    """
    times = list(times)
    if not times:
        raise ValueError("sgm10 of an empty sequence")
    total = 0.0
    for t in times:
        t = float(t)
        if not (t >= 0.0 and math.isfinite(t)):
            raise ValueError(f"times must be finite and >= 0, got {t}")
        total += math.log(t + shift)
    return math.exp(total / len(times)) - shift


def _solver_config(args, mode: str) -> SolverConfig:
    restart = RestartConfig(
        enabled=not (args.no_restart or args.fixed_restart is not None),
        fixed_period=args.fixed_restart,
    )
    engine = EngineConfig(sigma=args.sigma0, mode=mode, gamma=args.gamma)
    return SolverConfig(
        tol=args.tol,
        time_limit=args.time_limit,
        iter_limit=args.iter_limit,
        check_interval=args.check_interval,
        engine=engine,
        restart=restart,
        adaptive_sigma=not args.no_adaptive_sigma,
        scaling=args.scaling,
    )


def _add_solver_flags(p: argparse.ArgumentParser, time_limit_default: float):
    p.add_argument("--tol", type=float, default=1e-8, help="relative tolerance")
    p.add_argument("--time-limit", type=float, default=time_limit_default,
                   help="wall-clock limit in seconds")
    p.add_argument("--iter-limit", type=int, default=1_000_000)
    p.add_argument("--gamma", type=float, default=1.0,
                   help="reflection factor for mode rhpdhg")
    p.add_argument("--sigma0", type=float, default=1.0, help="initial penalty")
    p.add_argument("--no-restart", action="store_true")
    p.add_argument("--fixed-restart", type=int, default=None, metavar="N",
                   help="restart every N iterations (disables adaptive restarts)")
    p.add_argument("--no-adaptive-sigma", action="store_true")
    p.add_argument("--check-interval", type=int, default=100)
    p.add_argument("--scaling", choices=("none", "ruiz"), default="ruiz")


def _solve_file(path: str, cfg: SolverConfig) -> tuple[SolveResult, float]:
    """The result, and the seconds taken to read the file (parse + build)."""
    started = time.perf_counter()
    prob = build_problem(parse_mps(path))
    read_seconds = time.perf_counter() - started
    return solve(prob, cfg), read_seconds


def _write_trace(result: SolveResult, path: str):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(_TRACE_FIELDS)
        for rec in result.trace:
            out.writerow([
                rec.k, rec.r, rec.t, f"{rec.sigma:.12g}",
                f"{rec.rel_gap:.12g}", f"{rec.rel_primal:.12g}",
                f"{rec.rel_dual:.12g}", f"{rec.merit:.12g}",
                f"{rec.seconds:.6f}", int(rec.face),
            ])


def _status_code(status: str) -> int:
    if status == "optimal":
        return EXIT_OK
    if status in ("iter_limit", "time_limit"):
        return EXIT_LIMIT
    return EXIT_NUMERICAL


def cmd_solve(args) -> int:
    try:
        result, read_seconds = _solve_file(args.file, _solver_config(args, args.mode))
    except (MpsParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if args.trace:
        _write_trace(result, args.trace)
    if args.json:
        payload = {
            "status": result.status,
            "primal_obj": result.primal_obj,
            "dual_obj": result.dual_obj,
            "rel_gap": result.rel_gap,
            "rel_primal": result.rel_primal,
            "rel_dual": result.rel_dual,
            "iterations": result.iterations,
            "restarts": result.restarts,
            "solve_seconds": result.solve_seconds,
            "read_seconds": read_seconds,
            "message": result.message,
            "face_finish": result.face_finish,
            "x": list(result.x),
            "y": list(result.y),
            "z": list(result.z),
            "events": [
                {
                    "k": e.k, "r": e.r, "tau": e.tau, "reason": e.reason,
                    "sigma_before": e.sigma_before, "sigma_after": e.sigma_after,
                }
                for e in result.events
            ],
            "trace": [
                {f: getattr(rec, f) for f in _TRACE_FIELDS} for rec in result.trace
            ],
        }
        print(json.dumps(payload))
    else:
        print(f"status: {result.status}")
        print(f"objective: primal={result.primal_obj:.10g} dual={result.dual_obj:.10g}")
        print(
            "residuals: "
            f"gap={result.rel_gap:.3e} primal={result.rel_primal:.3e} "
            f"dual={result.rel_dual:.3e}"
        )
        print(
            f"iterations: {result.iterations}  restarts: {result.restarts}  "
            f"seconds: {result.solve_seconds:.3f}"
        )
        print(f"read: {read_seconds:.3f} s")
        if result.face_finish:
            print("finish: face solve at the last checkpoint (verified on the original data)")
        if result.message:
            print(f"note: {result.message}")
    return _status_code(result.status)


# ---------------------------------------------------------------------
# bench


@dataclass(frozen=True)
class BenchReport:
    """Per-instance rows and shifted-geometric-mean seconds per mode.
    Unsolved instances are charged the full time limit."""

    rows: tuple[dict, ...]
    sgm10_seconds: dict[str, float]
    solved: dict[str, int]
    time_limit: float


def _bench_worker(job):
    path, cfg = job
    mode = cfg.engine.mode
    try:
        result, _ = _solve_file(path, cfg)
        return {
            "instance": os.path.basename(path),
            "mode": mode,
            "status": result.status,
            "iterations": result.iterations,
            "seconds": result.solve_seconds,
            "objective": result.primal_obj,
        }
    except (MpsParseError, OSError, ValueError) as exc:
        return {
            "instance": os.path.basename(path),
            "mode": mode,
            "status": f"error({exc})",
            "iterations": 0,
            "seconds": float("nan"),
            "objective": float("nan"),
        }


def _worker_cap() -> int:
    env = os.environ.get("HPRLP_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def run_bench(directory: str, modes: list[str], cfg: SolverConfig) -> BenchReport:
    paths = sorted(
        os.path.join(directory, f)
        for f in os.listdir(directory)
        if f.endswith(".mps") or f.endswith(".mps.gz")
    )
    if not paths:
        raise FileNotFoundError(f"no .mps or .mps.gz files under {directory!r}")
    jobs = [
        (p, replace(cfg, engine=replace(cfg.engine, mode=mode)))
        for p in paths
        for mode in modes
    ]
    workers = min(_worker_cap(), len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_worker, jobs))
    else:
        rows = [_bench_worker(j) for j in jobs]
    rows.sort(key=lambda row: (row["instance"], row["mode"]))

    limit = cfg.time_limit
    sgm = {}
    solved = {}
    for mode in modes:
        charged = [
            row["seconds"] if row["status"] == "optimal" else limit
            for row in rows
            if row["mode"] == mode
        ]
        sgm[mode] = sgm10(charged)
        solved[mode] = sum(
            1 for row in rows if row["mode"] == mode and row["status"] == "optimal"
        )
    return BenchReport(
        rows=tuple(rows), sgm10_seconds=sgm, solved=solved, time_limit=limit
    )


def cmd_bench(args) -> int:
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    bad = [m for m in modes if m not in MODES]
    if bad or not modes:
        print(f"error: invalid mode list {args.modes!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = run_bench(args.directory, modes, _solver_config(args, modes[0]))
    except (FileNotFoundError, NotADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    header = f"{'instance':<30} {'mode':<8} {'status':<16} {'iters':>8} {'seconds':>10}"
    print(header)
    print("-" * len(header))
    for row in report.rows:
        print(
            f"{row['instance']:<30} {row['mode']:<8} {row['status']:<16} "
            f"{row['iterations']:>8} {row['seconds']:>10.3f}"
        )
    for mode in modes:
        print(
            f"sgm10[{mode}] = {report.sgm10_seconds[mode]:.3f} s "
            f"({report.solved[mode]}/{len(report.rows) // len(modes)} solved, "
            f"unsolved charged {report.time_limit:g} s)"
        )
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            out = csv.DictWriter(
                fh,
                fieldnames=["instance", "mode", "status", "iterations", "seconds", "objective"],
            )
            out.writeheader()
            out.writerows(report.rows)
    return EXIT_OK


# ---------------------------------------------------------------------
# trace plot data


def cmd_trace_plotdata(args) -> int:
    """Reshape one or more trace CSVs into long-format (k, series, value)
    rows; several inputs get their series prefixed by the file stem."""
    series_fields = ("sigma", "rel_gap", "rel_primal", "rel_dual", "merit")
    out_rows = []
    for path in args.files:
        try:
            with open(path, newline="") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None or "k" not in reader.fieldnames:
                    print(f"error: {path}: not a trace CSV", file=sys.stderr)
                    return EXIT_DATA
                missing = [f for f in series_fields if f not in reader.fieldnames]
                if missing:
                    print(
                        f"error: {path}: missing columns {', '.join(missing)}",
                        file=sys.stderr,
                    )
                    return EXIT_DATA
                rows = list(reader)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        if not rows:
            print(f"error: {path}: empty trace", file=sys.stderr)
            return EXIT_DATA
        stem = os.path.basename(path).rsplit(".", 1)[0]
        prefix = f"{stem}:" if len(args.files) > 1 else ""
        for row in rows:
            for fieldname in series_fields:
                out_rows.append((row["k"], prefix + fieldname, row[fieldname]))

    dest = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        out = csv.writer(dest)
        out.writerow(["k", "series", "value"])
        out.writerows(out_rows)
    finally:
        if args.out:
            dest.close()
    return EXIT_OK


# ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hprlp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)

    p_solve = sub.add_parser("solve", help="solve one MPS file")
    p_solve.add_argument("file", help="path to .mps or .mps.gz")
    p_solve.add_argument("--mode", choices=MODES, default="hpr")
    _add_solver_flags(p_solve, time_limit_default=float("inf"))
    p_solve.add_argument("--trace", metavar="FILE", default=None,
                         help="write the iteration trace as CSV")
    p_solve.add_argument("--json", action="store_true",
                         help="print a JSON report instead of text")
    p_solve.set_defaults(func=cmd_solve)

    # no abbreviations: they would read solve's --mode as --modes
    p_bench = sub.add_parser("bench", help="run all MPS files in a directory",
                             allow_abbrev=False)
    p_bench.add_argument("directory")
    p_bench.add_argument("--modes", default="hpr",
                         help="comma-separated list of modes to compare")
    _add_solver_flags(p_bench, time_limit_default=100.0)
    p_bench.add_argument("--csv", metavar="FILE", default=None,
                         help="also write per-instance rows as CSV")
    p_bench.set_defaults(func=cmd_bench)

    p_plot = sub.add_parser("trace-plotdata",
                            help="reshape trace CSVs to long format for plotting")
    p_plot.add_argument("files", nargs="+", help="trace CSV files")
    p_plot.add_argument("--out", default=None, help="output path (default stdout)")
    p_plot.set_defaults(func=cmd_trace_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
