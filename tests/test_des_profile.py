"""Smoke test of ``tools/des_profile.py``, the DES CPU-time sampler."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.timeout(60)
def test_des_profile_samples_a_tiny_exp2c_run(tmp_path):
    out = tmp_path / "profile.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "des_profile.py"),
         "--scale", "0.02", "--runs", "1", "--top", "8",
         "--group", "loop=Simulator.run,Simulator.step",
         "--json", str(out)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "exp2c x1 at scale 0.02: 12 rows" in proc.stdout
    report = json.loads(out.read_text())
    assert report["rows"] == 12 and report["samples"] > 0
    table = report["table"]
    assert table
    for row in table:
        assert 0.0 <= row["self"] <= row["incl"] <= 1.0
    # Every sample is taken inside main(), so it is on every stack.
    by_name = {row["function"]: row for row in table}
    assert by_name["des_profile.py:main"]["incl"] == 1.0
    assert any(name.startswith("repro/") for name in by_name)
    # The event loop is on nearly every stack, never on more than all.
    assert 0.5 < report["groups"]["loop"] <= 1.0
