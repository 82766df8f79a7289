"""Smoke test: every demo script README documents runs and prints."""
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert [d.name for d in DEMOS] == ["polytensor_bridge.py", "potential_flow.py",
                                       "radial_accuracy.py", "translation_accuracy.py"]


@pytest.mark.parametrize("script", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
