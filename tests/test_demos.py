"""Every demo script runs to completion against the package in src/."""

from pathlib import Path

import pytest

from conftest import REPO, run_python

DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = run_python(str(demo), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
