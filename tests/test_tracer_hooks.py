"""The benchmark's span tracer still reaches every function it hooks.

``perfbench/tracer.py`` patches functions by name in the namespace that
calls them, so a renamed or moved function shows up only as a missing
hook.  This test loads the tracer from its file, installs it and runs
one solve down each y-step route.
"""

import importlib.util
from pathlib import Path

import numpy as np

from hprlp import EngineConfig, SolverConfig, solve

from conftest import random_lp

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reaches_every_hook():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        rng = np.random.default_rng(3)
        general = solve(random_lp(rng, 8, 4), SolverConfig(tol=1e-8))
        equality = solve(
            random_lp(rng, 8, 4, style="equality"),
            SolverConfig(tol=1e-8, engine=EngineConfig(t1_zero_path=True)),
        )
    finally:
        tracer.uninstall()
    assert general.status == equality.status == "optimal"
    assert general.events, "no restart, so no penalty re-fit was traced"
    unseen = {name for _, _, name in tracer_mod.HOOKS} - set(tracer.names)
    assert not unseen, f"hooks never recorded: {sorted(unseen)}"
