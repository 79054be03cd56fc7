"""Every demo script runs to completion, from a copy so demos/out stays untouched."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import screencurve

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(tmp_path, demo):
    script = tmp_path / "demos" / demo.name
    script.parent.mkdir()
    shutil.copy(demo, script)
    package_root = str(Path(screencurve.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, encoding="utf-8", env=env, cwd=tmp_path, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
