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
    ("hpr", True), ("hdr", True), ("rhpdhg", True), ("pr", True), ("epr", True),
])
def test_products_per_iteration(mode, equality):
    """On the proximal route each step makes one A x and one A^T y.  Every
    mode carries A x in its state there, and A^T y on the
    normal-equations route, so the restart merit makes no product, and a
    normal-equations step makes the solve's products and one A x for its
    right-hand side: (2, 1) when the solve runs no refinement.  Each
    anchored iteration averages once."""
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
    else:
        solves = _products_below(tracer, "engine.normal_solve")
        assert len(solves) == res.iterations and (1, 1) in solves
        assert steps == [(1 + mv, rmv) for mv, rmv in solves]
        assert (2, 1) in steps
    assert set(merits) == {(0, 0)}


@pytest.mark.parametrize("equality", [False, True], ids=["proximal", "normal"])
@pytest.mark.parametrize("mode", ["hpr", "hdr", "rhpdhg", "epr"])
def test_restart_makes_one_product(mode, equality):
    """A restart refreshes the carried product with one product of the
    new iterate, A x on the proximal route and A^T y on the
    normal-equations route: between the penalty re-fit (whose A^T dy on
    the normal route is its own product) and the next step, the only
    top-level span is that product."""
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    rng = np.random.default_rng(3)
    prob = random_lp(rng, 8, 4, style="equality" if equality else "two_sided")
    cfg = SolverConfig(tol=1e-8,
                       engine=EngineConfig(mode=mode, gamma=0.5, t1_zero_path=equality))
    tracer.install()
    try:
        res = solve(prob, cfg)
    finally:
        tracer.uninstall()
    assert res.status == "optimal" and res.events
    names, parents = tracer.names, tracer.parents
    fits = [i for i, name in enumerate(names) if name == "adaptive.sigma_update"]
    assert len(fits) == len(res.events)
    product = "sparse.rmatvec" if equality else "sparse.matvec"
    for i in fits:
        step = names.index("engine.pr_step", i)
        top = [names[k] for k in range(i + 1, step) if parents[k] == -1]
        assert top == [product], f"restart after span {i} made {top}"
