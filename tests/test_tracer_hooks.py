"""The benchmark's span tracer still reaches every function it hooks,
and the spans it records show how many products each layer makes.

``perfbench/tracer.py`` patches functions by name in the namespace that
calls them, so a renamed or moved function shows up only as a missing
hook.  These tests load the tracer from its file, install it and run
solves down each y-step route.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

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


PRODUCTS = ("sparse.matvec", "sparse.rmatvec")


def _products_below(tracer, caller: str) -> list[tuple[int, int]]:
    """(matvec, rmatvec) calls made inside each span named ``caller``,
    in the order the spans were opened."""
    counts = {i: [0, 0] for i, name in enumerate(tracer.names) if name == caller}
    for i, name in enumerate(tracer.names):
        if name in PRODUCTS:
            p = tracer.parents[i]
            while p >= 0 and p not in counts:
                p = tracer.parents[p]
            if p >= 0:
                counts[p][PRODUCTS.index(name)] += 1
    return [tuple(c) for c in counts.values()]


@pytest.mark.parametrize("mode, equality", [
    ("hpr", False), ("hdr", False), ("rhpdhg", False), ("pr", False), ("epr", False),
    ("hpr", True),
])
def test_products_per_iteration(mode, equality):
    """On the proximal route each step makes one A x and one A^T y.  The
    anchored modes carry A x in their state, so the restart merit makes
    no product there; pr / epr and the normal-equations route form its
    A^T dy.  Each anchored iteration averages once."""
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    rng = np.random.default_rng(3)
    prob = random_lp(rng, 8, 4, style="equality" if equality else "two_sided")
    cfg = SolverConfig(tol=1e-8, iter_limit=300,
                       engine=EngineConfig(mode=mode, gamma=0.5, t1_zero_path=equality))
    tracer.install()
    try:
        res = solve(prob, cfg)
    finally:
        tracer.uninstall()
    anchored = mode in ("hpr", "hdr", "rhpdhg")
    steps = _products_below(tracer, "engine.pr_step")
    merits = _products_below(tracer, "adaptive.m_norm")
    assert len(steps) == len(merits) == res.iterations > 0
    assert tracer.names.count("engine.halpern_step") == (res.iterations if anchored else 0)
    if not equality:
        assert set(steps) == {(1, 1)}
    assert set(merits) == {(0, 0) if anchored and not equality else (0, 1)}
