"""Every script in demos/ runs to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dnls3

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run from an empty directory, against the package the tests import
    src = Path(dnls3.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
