"""The benchmark's tracer hooks quadpole's functions by name; a renamed or
deleted function would break its traced runs, so every hook is checked here."""
import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def tracer(monkeypatch):
    pytest.importorskip("scipy")
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracer")


def test_every_traced_function_exists(tracer):
    for mod, func in tracer.TRACED:
        module = importlib.import_module("quadpole." + mod)
        assert callable(getattr(module, func, None)), "quadpole.%s.%s" % (mod, func)


def test_remove_leaves_no_wrapper(tracer):
    t = tracer.Tracer()
    t.install()
    try:
        assert t.installed_sites()   # the wrappers are in place
    finally:
        t.remove()
    assert t.installed_sites() == []


# each workload at the default seed, and the seeded ones at the held-out
# seed too, as the benchmark runs them with --seed; flow takes no seed
TRACED_PASSES = ([pytest.param(name, "DEFAULT_SEED", id=name)
                  for name in ("racc", "tacc_highp", "flow")]
                 + [pytest.param(name, "HELDOUT_SEED", id=name + "-heldout")
                    for name in ("racc", "tacc_highp")])


@pytest.mark.parametrize("name, seed", TRACED_PASSES)
def test_traced_pass_matches_the_reference(tracer, name, seed, monkeypatch, tmp_path):
    # a pass run through the tracer's wrappers, as the benchmark's per-layer
    # runs make it, must pass the benchmark's own check of its outputs
    # against the stored reference of its seed, the default seed's giving
    # the structure, as perfbench/run.py checks it
    monkeypatch.chdir(os.path.dirname(PERFBENCH))   # the flow scene is named from the root
    W = importlib.import_module("workloads")
    workload, seed = W.WORKLOADS[name], getattr(W, seed)
    t = tracer.Tracer()
    t.install()
    try:
        *_, output = W.run_pass(workload, seed, str(tmp_path), tracer=t)
    finally:
        t.remove()
    structure, reference = (W.load_reference(workload, s) for s in (W.DEFAULT_SEED, seed))
    assert reference is not None
    assert W.check(workload, output, structure, reference)[0] == []
    assert t.record.spans and t.record.nesting_errors() == 0
    assert t.installed_sites() == []
