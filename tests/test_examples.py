"""Smoke test: every script under ``examples/`` runs to completion.

Each example is the documented entry point for one use case (quickstart,
queue, leader failover, SDN load balancer, SCFS metadata), so each runs
in its own interpreter exactly as a reader would start it, and must exit
0. The whole set takes a few seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES, "no examples/*.py to run"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_exits_cleanly(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (
        f"{script.name} exited {proc.returncode}\n{proc.stderr[-2000:]}")
