"""The benchmark's outside view still installs: perfbench/child.py traces the
shipped config of every workload in perfbench/workloads.json.

perfbench/tracer.py rebinds the library's entry points by name and its hooks
call helpers such as Window.n_cubes, so a change under src/ that breaks one
of them fails here, not only in a benchmark run.  No workload reaches the
hook that calls Window.n_cubes (a C211 constant), so the T29 config runs too, and
no workload runs JN, so its config runs as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]


@pytest.mark.parametrize("config", [
    *(pytest.param(w["config"], id=name) for name, w in WORKLOADS.items()),
    "t29_vector_weight.cfg",
    "jn_oscillation.cfg",
])
def test_child_traces_shipped_config(tmp_path, config):
    stamp = tmp_path / "stamp.json"
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                           str(ROOT / "configs" / config), str(tmp_path / "report"), str(stamp),
                           "trace"],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(stamp.read_text())["layers"]
    assert isinstance(layers, dict) and layers
