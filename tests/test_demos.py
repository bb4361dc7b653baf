"""Smoke test: the demos run to completion against the current public API.

Demo 03 is left out: it runs 32 lattice solves.
"""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", ["01_compliance_cantilever.py",
                                  "02_preconditioner_comparison.py",
                                  "04_buckling_column.py"])
def test_demo_runs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
