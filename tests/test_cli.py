import csv
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

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


def test_trace_plotdata_rejects_empty(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("k,r,t,sigma,rel_gap,rel_primal,rel_dual,merit,seconds\n")
    assert main(["trace-plotdata", str(empty)]) == EXIT_DATA
    assert "empty" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench command


def test_bench_directory(fixtures_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HPRLP_THREADS", "1")
    bench_dir = tmp_path / "suite"
    bench_dir.mkdir()
    for name in ("simple_l.mps", "rows_lge.mps"):
        (bench_dir / name).write_text((fixtures_dir / name).read_text())
    out_csv = tmp_path / "bench.csv"
    code = main([
        "bench", str(bench_dir), "--modes", "hpr,hdr",
        "--time-limit", "50", "--csv", str(out_csv),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "sgm10[hpr]" in out and "sgm10[hdr]" in out
    assert "2/2 solved" in out
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["mode"] for r in rows} == {"hpr", "hdr"}
    assert all(r["status"] == "optimal" for r in rows)


def test_bench_parallel_workers(fixtures_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HPRLP_THREADS", "2")
    bench_dir = tmp_path / "suite"
    bench_dir.mkdir()
    for name in ("simple_l.mps", "fixed_format.mps"):
        (bench_dir / name).write_text((fixtures_dir / name).read_text())
    code = main(["bench", str(bench_dir)])
    assert code == EXIT_OK
    assert "sgm10[hpr]" in capsys.readouterr().out


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
    bench_dir = tmp_path / "suite"
    bench_dir.mkdir()
    (bench_dir / "simple_l.mps").write_text((fixtures_dir / "simple_l.mps").read_text())
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
