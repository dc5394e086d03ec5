"""Command-line front end: solve one file, benchmark a directory, or
reshape trace CSVs for plotting.

bench reads each file once and runs one solve at a time in the calling
process, so the times it reports are those of uncontended solves.

Exit codes: 0 solved to tolerance, 2 iteration/time limit, 3 numerical
failure, 64 bad usage, 65 unreadable/unparsable input or unwritable output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields, replace

from .adaptive import RestartConfig
from .engine import MODES, EngineConfig
from .mps import MpsParseError, build_problem, parse_mps
from .solver import SolveResult, SolverConfig, TraceRecord, solve

__all__ = ["main", "cmd_solve", "cmd_bench", "cmd_trace_plotdata", "sgm10"]

EXIT_OK = 0
EXIT_LIMIT = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64
EXIT_DATA = 65

# a status missing from the table is a numerical failure
_STATUS_EXIT = {"optimal": EXIT_OK, "iter_limit": EXIT_LIMIT, "time_limit": EXIT_LIMIT}

_TRACE_FIELDS = tuple(f.name for f in fields(TraceRecord))
# the SolveResult scalars that open the --json report, in order
_JSON_SCALARS = (
    "status", "primal_obj", "dual_obj", "rel_gap", "rel_primal", "rel_dual",
    "iterations", "restarts", "solve_seconds",
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
        tol=args.tol, time_limit=args.time_limit, iter_limit=args.iter_limit,
        check_interval=args.check_interval, engine=engine, restart=restart,
        adaptive_sigma=not args.no_adaptive_sigma, scaling=args.scaling,
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


def _write_trace(result: SolveResult, fh):
    """One row per record: counters and the face flag as integers, seconds
    to the microsecond, every other float to 12 significant digits."""
    out = csv.writer(fh)
    out.writerow(_TRACE_FIELDS)
    for rec in result.trace:
        values = (getattr(rec, f) for f in _TRACE_FIELDS)
        out.writerow([
            format(v, ".6f" if f == "seconds" else ".12g") if isinstance(v, float)
            else int(v)
            for f, v in zip(_TRACE_FIELDS, values)
        ])


def cmd_solve(args) -> int:
    # the trace file is opened first, so an unwritable path costs no solve
    with open(args.trace, "w", newline="") if args.trace else contextlib.nullcontext() as trace:
        result, read_seconds = _solve_file(args.file, _solver_config(args, args.mode))
        if trace:
            _write_trace(result, trace)
    if args.json:
        payload = {name: getattr(result, name) for name in _JSON_SCALARS}
        payload.update(
            read_seconds=read_seconds,
            message=result.message,
            face_finish=result.face_finish,
            x=list(result.x), y=list(result.y), z=list(result.z),
            events=[asdict(e) for e in result.events],
            trace=[asdict(rec) for rec in result.trace],
        )
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
    return _STATUS_EXIT.get(result.status, EXIT_NUMERICAL)


# ---------------------------------------------------------------------
# bench


def run_bench(directory: str, modes: list[str], cfg: SolverConfig) -> list[dict]:
    """One row per instance and mode, in instance order, then mode order.

    Each file is read once and solved once per mode, one solve at a time
    in the calling process, so no solve shares the machine with another.
    A file that fails to read or solve gets an ``error(...)`` status
    instead of ending the run.
    """
    paths = sorted(
        os.path.join(directory, f)
        for f in os.listdir(directory)
        if f.endswith(".mps") or f.endswith(".mps.gz")
    )
    if not paths:
        raise FileNotFoundError(f"no .mps or .mps.gz files under {directory!r}")
    rows = []
    for path in paths:
        instance = os.path.basename(path)
        try:
            prob, failure = build_problem(parse_mps(path)), None
        except (MpsParseError, OSError, ValueError) as exc:
            prob, failure = None, exc
        for mode in sorted(modes):
            row = {"instance": instance, "mode": mode}
            try:
                if failure is not None:  # every mode reports the read's error
                    raise failure
                result = solve(prob, replace(cfg, engine=replace(cfg.engine, mode=mode)))
            except (MpsParseError, OSError, ValueError) as exc:
                row.update(status=f"error({exc})", iterations=0, seconds=math.nan,
                           objective=math.nan)
            else:
                row.update(status=result.status, iterations=result.iterations,
                           seconds=result.solve_seconds, objective=result.primal_obj)
            rows.append(row)
    return rows


def cmd_bench(args) -> int:
    modes = list(dict.fromkeys(m.strip() for m in args.modes.split(",") if m.strip()))
    bad = [m for m in modes if m not in MODES]
    if bad or not modes:
        print(f"error: invalid mode list {args.modes!r}", file=sys.stderr)
        return EXIT_USAGE
    # the CSV is opened first, so an unwritable path costs no solve
    with open(args.csv, "w", newline="") if args.csv else contextlib.nullcontext() as fh:
        rows = run_bench(args.directory, modes, _solver_config(args, modes[0]))
        if fh:
            out = csv.DictWriter(fh, fieldnames=list(rows[0]))
            out.writeheader()
            out.writerows(rows)
    # the shifted geometric mean per mode, unsolved instances charged the
    # time limit; sgm10 takes finite times only, and an infinite charge is inf
    limit = args.time_limit
    summary = []
    for mode in modes:
        mine = [row for row in rows if row["mode"] == mode]
        solved = [row["status"] == "optimal" for row in mine]
        times = [row["seconds"] if ok else limit for row, ok in zip(mine, solved)]
        charged = math.inf if math.inf in times else sgm10(times)
        summary.append(
            f"sgm10[{mode}] = {charged:.3f} s ({sum(solved)}/{len(mine)} solved, "
            f"unsolved charged {limit:g} s)"
        )

    header = f"{'instance':<30} {'mode':<8} {'status':<16} {'iters':>8} {'seconds':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['instance']:<30} {row['mode']:<8} {row['status']:<16} "
            f"{row['iterations']:>8} {row['seconds']:>10.3f}"
        )
    print("\n".join(summary))
    return EXIT_OK


# ---------------------------------------------------------------------
# trace plot data


def cmd_trace_plotdata(args) -> int:
    """Reshape one or more trace CSVs into long-format (k, series, value)
    rows; several inputs get their series prefixed by the file stem."""
    series_fields = ("sigma", "rel_gap", "rel_primal", "rel_dual", "merit")
    out_rows = []
    for path in args.files:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "k" not in reader.fieldnames:
                raise ValueError(f"{path}: not a trace CSV")
            missing = [f for f in series_fields if f not in reader.fieldnames]
            if missing:
                raise ValueError(f"{path}: missing columns {', '.join(missing)}")
            rows = list(reader)
        if not rows:
            raise ValueError(f"{path}: empty trace")
        stem = os.path.basename(path).rsplit(".", 1)[0]
        prefix = f"{stem}:" if len(args.files) > 1 else ""
        for row in rows:
            for fieldname in series_fields:
                out_rows.append((row["k"], prefix + fieldname, row[fieldname]))

    dest = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    with dest as fh:
        out = csv.writer(fh)
        out.writerow(["k", "series", "value"])
        out.writerows(out_rows)
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
    """Run one subcommand; every unreadable or invalid input and every
    unwritable output ends here as ``error: ...`` with exit code 65."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MpsParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
