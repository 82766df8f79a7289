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
