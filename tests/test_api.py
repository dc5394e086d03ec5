"""The public surface of ``hprlp``: the names a user of ``solve``,
``hprlp solve`` and ``hprlp bench`` needs, and the README's library
example, run as written."""

import importlib
from pathlib import Path

import pytest

import hprlp

PUBLIC = {
    "LpProblem", "Iterate", "SparseMatrix",
    "MpsDocument", "MpsParseError", "parse_mps", "build_problem",
    "solve", "SolverConfig", "SolveResult", "TraceRecord", "RestartEvent",
    "EngineConfig", "RestartConfig",
}


def test_all_lists_exactly_the_public_names():
    assert len(hprlp.__all__) == len(PUBLIC) == 14
    assert set(hprlp.__all__) == PUBLIC
    for name in hprlp.__all__:
        assert getattr(hprlp, name) is not None


def test_oracle_is_not_part_of_the_package():
    """The enumeration oracle is a test reference (``tests/oracle.py``)."""
    with pytest.raises(ImportError):
        importlib.import_module("hprlp.oracle")
    assert not hasattr(hprlp, "oracle_solve")


def test_readme_library_use_runs(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["res"].status == "optimal"
    assert capsys.readouterr().out.startswith("optimal ")
