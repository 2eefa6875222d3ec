"""Every script in demos/ runs to completion in a fresh interpreter.

The demos drive the public API end to end (nets, gadgets, placement with
re-verification and the Monte Carlo estimate, the classifier), so a change
that breaks one of them fails here.  Each runs in an empty working
directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import netembed

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_present():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_completes(script, tmp_path):
    # the child imports the same netembed as this process, installed or not
    src = str(Path(netembed.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
