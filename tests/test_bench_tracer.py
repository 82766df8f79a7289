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


@pytest.mark.parametrize("name", ["racc", "tacc_highp", "flow"])
def test_traced_pass_matches_the_reference(tracer, name, monkeypatch, tmp_path):
    # a pass run through the tracer's wrappers, as the benchmark's per-layer
    # runs make it, must pass the benchmark's own check of its outputs
    monkeypatch.chdir(os.path.dirname(PERFBENCH))   # the flow scene is named from the root
    W = importlib.import_module("workloads")
    workload = W.WORKLOADS[name]
    t = tracer.Tracer()
    t.install()
    try:
        *_, output = W.run_pass(workload, W.DEFAULT_SEED, str(tmp_path), tracer=t)
    finally:
        t.remove()
    reference = W.load_reference(workload, W.DEFAULT_SEED)
    assert W.check(workload, output, reference, reference)[0] == []
    assert t.record.spans and t.record.nesting_errors() == 0
    assert t.installed_sites() == []
