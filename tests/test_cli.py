import csv
import dataclasses
import json
import math
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

import hprlp.cli
from hprlp import RestartEvent, TraceRecord
from hprlp.cli import (
    EXIT_DATA,
    EXIT_LIMIT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    sgm10,
)


# ---------------------------------------------------------------------------
# shifted geometric mean


def test_sgm10_two_point_value():
    # ((10+10)(1000+10))^(1/2) - 10 = sqrt(20200) - 10
    assert sgm10([10.0, 1000.0]) == pytest.approx(math.sqrt(20200.0) - 10.0, abs=1e-9)


def test_sgm10_permutation_invariant():
    rng = np.random.default_rng(1)
    times = list(rng.uniform(0.0, 500.0, 20))
    a = sgm10(times)
    b = sgm10(list(reversed(times)))
    rng.shuffle(times)
    c = sgm10(times)
    assert a == pytest.approx(b, rel=1e-12)
    assert a == pytest.approx(c, rel=1e-12)


def test_sgm10_identity_on_constant():
    assert sgm10([7.0, 7.0, 7.0]) == pytest.approx(7.0, rel=1e-12)


def test_sgm10_rejects_bad_input():
    with pytest.raises(ValueError):
        sgm10([])
    with pytest.raises(ValueError):
        sgm10([-1.0])
    with pytest.raises(ValueError):
        sgm10([float("inf")])


def test_sgm10_custom_shift():
    assert sgm10([0.0], shift=1.0) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# solve command


def test_solve_text_output(fixtures_dir, capsys):
    code = main(["solve", str(fixtures_dir / "simple_l.mps")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "status: optimal" in out
    assert "iterations:" in out


def test_solve_json_output(fixtures_dir, capsys):
    code = main(["solve", str(fixtures_dir / "simple_l.mps"), "--json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "optimal"
    # min 2 x1 + x2 over x >= 0 with x1 + x2 <= 4: optimum at the origin
    assert abs(payload["primal_obj"]) <= 1e-6
    assert set(payload) >= {
        "status", "primal_obj", "dual_obj", "rel_gap", "rel_primal",
        "rel_dual", "iterations", "restarts", "x", "y", "z", "events", "trace",
    }
    for rec in payload["trace"]:
        assert set(rec) == {
            "k", "r", "t", "sigma", "rel_gap", "rel_primal", "rel_dual",
            "merit", "seconds", "face",
        }


def test_solve_json_keys_and_records(fixtures_dir, capsys):
    """The report's keys, in order, and every trace record and restart
    event rebuilds the library's record exactly."""
    assert main(["solve", str(fixtures_dir / "bounds_all.mps"), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "status", "primal_obj", "dual_obj", "rel_gap", "rel_primal", "rel_dual",
        "iterations", "restarts", "solve_seconds", "read_seconds", "message",
        "face_finish", "x", "y", "z", "events", "trace",
    ]
    assert payload["events"] and payload["trace"]
    for rec in payload["trace"]:
        assert dataclasses.asdict(TraceRecord(**rec)) == rec
    for event in payload["events"]:
        assert dataclasses.asdict(RestartEvent(**event)) == event


def test_solve_says_when_the_answer_is_the_face_point(fixtures_dir, capsys):
    """The text and JSON reports name the face finish, and only for a
    solve that ended on it."""
    face_path = str(fixtures_dir / "bounds_all.mps")
    assert main(["solve", face_path]) == EXIT_OK
    assert "finish: face solve" in capsys.readouterr().out
    assert main(["solve", face_path, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["face_finish"] is True

    plain_path = str(fixtures_dir / "simple_l.mps")  # optimal at the start point
    assert main(["solve", plain_path]) == EXIT_OK
    assert "finish:" not in capsys.readouterr().out
    assert main(["solve", plain_path, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["face_finish"] is False


def test_trace_marks_the_face_record(fixtures_dir, tmp_path, capsys):
    """A solve that ends on its face logs the face point as a second
    record at the last checkpoint's k; the CSV's ``face`` column and the
    JSON trace's ``face`` key mark it, and only it."""
    path, trace = str(fixtures_dir / "bounds_all.mps"), tmp_path / "trace.csv"
    assert main(["solve", path, "--trace", str(trace)]) == EXIT_OK
    capsys.readouterr()
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["face"] for row in rows] == ["0"] * (len(rows) - 1) + ["1"]
    assert rows[-1]["k"] == rows[-2]["k"]

    assert main(["solve", path, "--json"]) == EXIT_OK
    records = json.loads(capsys.readouterr().out)["trace"]
    assert [rec["face"] for rec in records] == [False] * (len(records) - 1) + [True]


def test_solve_reports_read_time(fixtures_dir, capsys):
    """Both outputs give the seconds spent reading the file (parse +
    build), apart from the solve's own seconds."""
    path = str(fixtures_dir / "simple_l.mps")
    assert main(["solve", path, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload["read_seconds"], float)
    assert 0.0 < payload["read_seconds"] < 10.0
    assert main(["solve", path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    (read,) = [line for line in lines if line.startswith("read: ")]
    assert read.endswith(" s") and float(read.split()[1]) >= 0.0


def test_solve_sigma0_sets_the_starting_penalty(fixtures_dir, capsys):
    code = main(["solve", str(fixtures_dir / "simple_l.mps"), "--json",
                 "--sigma0", "7"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"][0]["sigma"] == 7.0


def test_solve_missing_file(capsys):
    code = main(["solve", "/no/such/file.mps"])
    assert code == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_solve_unparsable_file(tmp_path, capsys):
    bad = tmp_path / "bad.mps"
    bad.write_text("ROWS\n Q  R1\nENDATA\n")
    code = main(["solve", str(bad)])
    assert code == EXIT_DATA
    assert "line 2" in capsys.readouterr().err


def _no_solve(monkeypatch) -> list:
    """Replace the CLI's ``solve`` by one that records its calls."""
    calls = []
    monkeypatch.setattr("hprlp.cli.solve", lambda *args: calls.append(args))
    return calls


def test_solve_unwritable_trace_exits_65(fixtures_dir, tmp_path, capsys, monkeypatch):
    """The trace file is opened before the solve, so an unwritable path
    costs no solve."""
    calls = _no_solve(monkeypatch)
    path = tmp_path / "missing" / "t.csv"
    code = main(["solve", str(fixtures_dir / "simple_l.mps"), "--trace", str(path)])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


@pytest.mark.parametrize("section, line, message", [
    ("BOUNDS", " LO BND       X2        1e400", "variable 1: lower bound is +inf"),
    ("RHS", "    RHS       C1        1e400", "row 0: lower bound is +inf"),
], ids=["LO", "RHS"])
def test_solve_infinite_bound_on_the_wrong_side_exits_65(tmp_path, capsys, section, line,
                                                          message):
    """A bound that overflows to +inf as a lower bound leaves the LP with
    no point: the problem is refused before any solve."""
    text = ("NAME          OVER\nROWS\n N  COST\n G  C1\nCOLUMNS\n"
            "    X1        COST      1.0   C1        1.0\n"
            "    X2        COST      1.0   C1        1.0\n"
            f"{section}\n{line}\nENDATA\n")
    path = tmp_path / "over.mps"
    path.write_text(text)
    assert main(["solve", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_solve_iteration_limit_exit_code(fixtures_dir, capsys):
    code = main([
        "solve", str(fixtures_dir / "rows_lge.mps"), "--iter-limit", "2",
        "--check-interval", "1",
    ])
    assert code == EXIT_LIMIT
    assert "status: iter_limit" in capsys.readouterr().out


def test_solve_divergent_exit_code(tmp_path, capsys):
    # unbounded ray with an enormous gradient: diverges quickly
    text = (
        "NAME DIV\nROWS\n N OBJ\n G R1\nCOLUMNS\n"
        " X OBJ -1000000000.0 R1 1.0\nRHS\n R1 0.0\nENDATA\n"
    )
    p = tmp_path / "div.mps"
    p.write_text(text)
    code = main(["solve", str(p)])
    assert code == EXIT_NUMERICAL
    assert "status: numerical_error" in capsys.readouterr().out


def test_usage_errors_exit_64(fixtures_dir):
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as ei:
        main(["solve", str(fixtures_dir / "simple_l.mps"), "--mode", "nope"])
    assert ei.value.code == EXIT_USAGE


def test_lambda_safety_flag_is_gone(fixtures_dir, capsys):
    """The safety factor on lambda_A is fixed at 1.05; the flag is refused."""
    with pytest.raises(SystemExit) as ei:
        main(["solve", str(fixtures_dir / "simple_l.mps"), "--lambda-safety", "2"])
    assert ei.value.code == EXIT_USAGE
    assert "unrecognized arguments: --lambda-safety 2" in capsys.readouterr().err


def test_solve_trace_csv(fixtures_dir, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = main([
        "solve", str(fixtures_dir / "rows_lge.mps"), "--trace", str(trace),
    ])
    assert code == EXIT_OK
    capsys.readouterr()
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "k", "r", "t", "sigma", "rel_gap", "rel_primal", "rel_dual",
        "merit", "seconds", "face",
    ]
    assert len(rows) >= 2
    ks = [int(r[0]) for r in rows[1:]]
    assert ks == sorted(ks)


# ---------------------------------------------------------------------------
# trace-plotdata command


def make_trace(fixtures_dir, tmp_path, name):
    trace = tmp_path / name
    main(["solve", str(fixtures_dir / "rows_lge.mps"), "--trace", str(trace)])
    return trace


def test_trace_plotdata_single(fixtures_dir, tmp_path, capsys):
    trace = make_trace(fixtures_dir, tmp_path, "t1.csv")
    capsys.readouterr()
    code = main(["trace-plotdata", str(trace)])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,series,value"
    series = {line.split(",")[1] for line in lines[1:]}
    assert series == {"sigma", "rel_gap", "rel_primal", "rel_dual", "merit"}


def test_trace_plotdata_multiple_files_prefixed(fixtures_dir, tmp_path, capsys):
    t1 = make_trace(fixtures_dir, tmp_path, "alpha.csv")
    t2 = make_trace(fixtures_dir, tmp_path, "beta.csv")
    out = tmp_path / "long.csv"
    capsys.readouterr()
    code = main(["trace-plotdata", str(t1), str(t2), "--out", str(out)])
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    series = {r[1] for r in rows[1:]}
    assert any(s.startswith("alpha:") for s in series)
    assert any(s.startswith("beta:") for s in series)


def test_trace_plotdata_rejects_non_trace(tmp_path, capsys):
    bogus = tmp_path / "bogus.csv"
    bogus.write_text("a,b\n1,2\n")
    assert main(["trace-plotdata", str(bogus)]) == EXIT_DATA
    assert "not a trace" in capsys.readouterr().err


def test_trace_plotdata_names_a_missing_series_column(tmp_path, capsys):
    partial = tmp_path / "partial.csv"
    partial.write_text("k,sigma,rel_gap,rel_primal\n1,1.0,0.1,0.2\n")
    assert main(["trace-plotdata", str(partial)]) == EXIT_DATA
    assert "missing columns rel_dual, merit" in capsys.readouterr().err


def test_trace_plotdata_unwritable_out_exits_65(fixtures_dir, tmp_path, capsys):
    trace = make_trace(fixtures_dir, tmp_path, "t1.csv")
    capsys.readouterr()
    code = main(["trace-plotdata", str(trace), "--out", str(tmp_path / "missing" / "p.csv")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: ")


def test_trace_plotdata_rejects_empty(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("k,r,t,sigma,rel_gap,rel_primal,rel_dual,merit,seconds\n")
    assert main(["trace-plotdata", str(empty)]) == EXIT_DATA
    assert "empty" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solver flags


def _merits(report) -> list[float]:
    return [rec["merit"] for rec in report["trace"]]


def _events_hold(check):
    """A check that every restart event passes, with at least one event."""
    return lambda r, hpr: r["events"] != [] and all(check(e) for e in r["events"])


@pytest.mark.parametrize("flags, holds", [
    (["--no-adaptive-sigma", "--sigma0", "0.5"],
     _events_hold(lambda e: e["sigma_before"] == e["sigma_after"] == 0.5)),
    (["--no-restart"], lambda r, hpr: r["restarts"] == 0 and r["events"] == []),
    (["--fixed-restart", "7"], _events_hold(lambda e: e["reason"] == "fixed" and e["tau"] == 7)),
    (["--scaling", "none"],
     lambda r, hpr: r["status"] == "optimal" and _merits(r) != _merits(hpr)),
    (["--mode", "rhpdhg", "--gamma", "0.5"], lambda r, hpr: _merits(r) != _merits(hpr)),
], ids=["no-adaptive-sigma", "no-restart", "fixed-restart", "scaling-none", "rhpdhg-gamma"])
def test_solve_ablation_flags(fixtures_dir, capsys, flags, holds):
    """Each flag reaches the solve: its mark shows in the --json report,
    read against the report of a plain hpr solve."""
    def report(*extra):
        code = main(["solve", str(fixtures_dir / "rows_lge.mps"), "--json",
                     "--iter-limit", "2000", *extra])
        assert code in (EXIT_OK, EXIT_LIMIT)
        return json.loads(capsys.readouterr().out)

    assert holds(report(*flags), report())


# ---------------------------------------------------------------------------
# bench command


def _suite(fixtures_dir, tmp_path, names):
    """A bench directory holding copies of the named fixtures."""
    bench_dir = tmp_path / "suite"
    bench_dir.mkdir()
    for name in names:
        (bench_dir / name).write_text((fixtures_dir / name).read_text())
    return bench_dir


def _csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_bench_directory(fixtures_dir, tmp_path, capsys):
    bench_dir = _suite(fixtures_dir, tmp_path, ("simple_l.mps", "rows_lge.mps"))
    out_csv = tmp_path / "bench.csv"
    code = main([
        "bench", str(bench_dir), "--modes", "hpr,hdr",
        "--time-limit", "50", "--csv", str(out_csv),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "sgm10[hpr]" in out and "sgm10[hdr]" in out
    assert "2/2 solved" in out
    rows = _csv_rows(out_csv)
    assert len(rows) == 4
    assert {r["mode"] for r in rows} == {"hpr", "hdr"}
    assert all(r["status"] == "optimal" for r in rows)


def test_bench_runs_a_repeated_mode_once(fixtures_dir, tmp_path, capsys):
    """A mode named twice in --modes is solved and reported once: one CSV
    row per instance and mode, and one sgm10 line per mode."""
    bench_dir = _suite(fixtures_dir, tmp_path, ("simple_l.mps",))
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", str(bench_dir), "--modes", "hpr,hpr,hdr", "--csv", str(out_csv)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("sgm10[hpr]") == out.count("sgm10[hdr]") == 1
    assert [(r["instance"], r["mode"]) for r in _csv_rows(out_csv)] == [
        ("simple_l.mps", "hdr"), ("simple_l.mps", "hpr"),
    ]


@pytest.mark.parametrize("limit", ["50", "inf"])
def test_bench_charges_unsolved_the_time_limit(fixtures_dir, tmp_path, capsys, limit):
    """Every instance stops at its iteration limit, so each is charged the
    time limit and the shifted geometric mean is that limit, infinite
    without one."""
    bench_dir = _suite(fixtures_dir, tmp_path, ("rows_lge.mps", "ranges_e.mps"))
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", str(bench_dir), "--iter-limit", "1", "--time-limit", limit,
                 "--csv", str(out_csv)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    charged = f"{float(limit):.3f} s"  # 50.000 s, or inf s
    assert f"sgm10[hpr] = {charged} (0/2 solved, unsolved charged {limit} s)" in out
    assert [r["status"] for r in _csv_rows(out_csv)] == ["iter_limit", "iter_limit"]


def test_bench_unwritable_csv_exits_65(fixtures_dir, tmp_path, capsys, monkeypatch):
    """The CSV is opened before any solve, so an unwritable path costs
    none, and no table is printed."""
    calls = _no_solve(monkeypatch)
    bench_dir = _suite(fixtures_dir, tmp_path, ("simple_l.mps",))
    code = main(["bench", str(bench_dir), "--csv", str(tmp_path / "missing" / "b.csv")])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert calls == []


def test_bench_reads_each_file_once(fixtures_dir, tmp_path, capsys, monkeypatch):
    read = []
    parse = hprlp.cli.parse_mps
    monkeypatch.setattr(hprlp.cli, "parse_mps", lambda path: read.append(path) or parse(path))
    bench_dir = _suite(fixtures_dir, tmp_path, ("simple_l.mps", "rows_lge.mps"))
    assert main(["bench", str(bench_dir), "--modes", "hpr,hdr,pr"]) == EXIT_OK
    assert [Path(p).name for p in read] == ["rows_lge.mps", "simple_l.mps"]


def test_bench_solves_in_the_calling_process(fixtures_dir, tmp_path, capsys, monkeypatch):
    """Every solve runs here, one at a time; the rows come in instance
    order, then mode order, whatever the order of --modes."""
    pids = []
    real_solve = hprlp.cli.solve
    monkeypatch.setattr(hprlp.cli, "solve",
                        lambda *args: pids.append(os.getpid()) or real_solve(*args))
    bench_dir = _suite(fixtures_dir, tmp_path, ("simple_l.mps", "rows_lge.mps"))
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", str(bench_dir), "--modes", "hdr,hpr", "--csv", str(out_csv)])
    assert code == EXIT_OK
    assert pids == [os.getpid()] * 4
    assert [(r["instance"], r["mode"]) for r in _csv_rows(out_csv)] == [
        ("rows_lge.mps", "hdr"), ("rows_lge.mps", "hpr"),
        ("simple_l.mps", "hdr"), ("simple_l.mps", "hpr"),
    ]


def test_bench_unreadable_file_gives_an_error_row_per_mode(fixtures_dir, tmp_path, capsys):
    """A file that fails to parse is reported once per mode, and the run
    goes on to the next file."""
    bench_dir = _suite(fixtures_dir, tmp_path, ("simple_l.mps",))
    (bench_dir / "bad.mps").write_text("ROWS\n Q  R1\nENDATA\n")
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", str(bench_dir), "--modes", "hpr,hdr", "--csv", str(out_csv)])
    assert code == EXIT_OK
    rows = _csv_rows(out_csv)
    assert [(r["instance"], r["mode"]) for r in rows] == [
        ("bad.mps", "hdr"), ("bad.mps", "hpr"),
        ("simple_l.mps", "hdr"), ("simple_l.mps", "hpr"),
    ]
    assert all(r["status"].startswith("error(line 2: ") for r in rows[:2])
    assert [r["status"] for r in rows[2:]] == ["optimal", "optimal"]
    assert "1/2 solved" in capsys.readouterr().out


def test_bench_empty_directory(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["bench", str(empty)]) == EXIT_DATA


def test_bench_invalid_modes(tmp_path, capsys):
    assert main(["bench", str(tmp_path), "--modes", "hpr,warp"]) == EXIT_USAGE
    # bench takes its modes from --modes only; solve's --mode is refused
    with pytest.raises(SystemExit) as ei:
        main(["bench", str(tmp_path), "--mode", "hdr"])
    assert ei.value.code == EXIT_USAGE


def test_bench_unknown_option_prints_the_bench_usage(tmp_path, capsys):
    """An option bench does not know is reported with bench's usage,
    which lists --modes, not with the top-level one."""
    with pytest.raises(SystemExit) as ei:
        main(["bench", str(tmp_path), "--mode", "hdr"])
    assert ei.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: hprlp bench ") and "--modes" in err
    assert "unrecognized arguments: --mode hdr" in err


def test_bench_rejects_an_invalid_config(fixtures_dir, tmp_path, capsys):
    bench_dir = _suite(fixtures_dir, tmp_path, ("simple_l.mps",))
    assert main(["bench", str(bench_dir), "--tol", "-1"]) == EXIT_DATA
    assert "tol must be positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# documentation


def test_readme_command_lines_parse():
    """Every ``hprlp ...`` line of the README's command-line block is
    accepted by the parser (parsing only, nothing runs)."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("hprlp ")]
    assert len(commands) >= 4
    for argv in commands:
        build_parser().parse_args(argv[1:])
