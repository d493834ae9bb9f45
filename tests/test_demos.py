"""Smoke test: every demo script runs to completion with its default options,
in Python's development mode with every warning an error (pytest's own
warning filters do not reach a subprocess)."""
import subprocess
import sys

import pytest

from conftest import ROOT, child_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_present():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(demo)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300, env=child_env())
    assert proc.returncode == 0, proc.stderr
