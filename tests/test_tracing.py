"""The benchmark's tracer still sees what a traced run reads of the package.

`perfbench/tracing.py` wraps package functions by name: `install()`
dereferences `measures.FinSuppMeasure` and `MarkovMeasure.is_bernoulli`, and
counts the exact W1 solves of a saturation check as the
`measures.wasserstein1` spans under it.  An exact solve reached by another
name would read 0 there.
"""

import importlib.util
from pathlib import Path

from emergence_lab import constructor, measures
from emergence_lab.constructor import (ConstructedOrbit, Itinerary,
                                       MeasureFamily, SimplexNet,
                                       oscillating_orbit)
from emergence_lab.measures import MarkovMeasure
from emergence_lab.sofic import ShiftSpace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

FULL2 = ShiftSpace.full_shift(2)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_exact_solve_of_a_saturation_check(monkeypatch):
    # every exact solve here is a flow LP (no side of a supply is one node),
    # so the LP calls count them whatever name they are reached by
    lp_calls = []

    def counting_linprog(*args, **kwargs):
        lp_calls.append(1)
        return linprog(*args, **kwargs)

    linprog = measures.linprog
    monkeypatch.setattr(measures, "linprog", counting_linprog)
    tracing = load_tracing()
    originals = measures.wasserstein1, constructor.verify_saturation
    tracer = tracing.Tracer(run_id=0)
    tracer.install()
    try:
        a = MarkovMeasure.bernoulli([0.2, 0.8], FULL2)
        b = MarkovMeasure.bernoulli([0.8, 0.2], FULL2)
        word = oscillating_orbit(a, b, 2048, seed=1, first_block=64,
                                 growth=1.0)
        itinerary = Itinerary(eps_tilde=(0.9, 0.8, 0.7), eps_hat=(0.1,) * 3,
                              blocks=(), connector_slots=(), gamma_n={},
                              nets=())
        orbit = ConstructedOrbit(
            word=word, itinerary=itinerary, seed=1,
            block_map=tuple((1, 0, 0, t - 64, t) for t in range(64, 2049, 64)))
        net = SimplexNet(level=1, mesh=0.25,
                         nodes=tuple((i / 4, 1 - i / 4) for i in range(5)))
        # through the module, where the tracer rebinds it
        constructor.verify_saturation(orbit, net, MeasureFamily((a, b)),
                                      slack=0.1, metric_depth=4)
    finally:
        tracer.uninstall()
    assert (measures.wasserstein1, constructor.verify_saturation) == originals
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert lp_calls
    assert metrics["constructor.verify_saturation.w1_calls"] == (
        len(lp_calls), "count")
    assert metrics["measures.w1.lp_solves"] == (len(lp_calls), "count")
    assert metrics["measures.sample.iid.symbols"] == (2048, "count")
