"""The benchmark under bench/ reads the package from outside: it calls
named functions and wraps others for its per-layer trace. A short traced
worker run per workload keeps those names working; bench/ is only read."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
             # a ratio of traced to untraced runs, which bench/run.py computes
             if m["name"] != "trace.overhead_ratio"]


@pytest.mark.parametrize("workload, extra", [
    ("theta-6750", ()),                   # 4 ops
    ("t2-scan", ("--part", "3")),         # 25 ops
    ("certify-cli", ("--part", "3")),     # 33 ops
])
def test_traced_worker_reports_every_layer(workload, extra):
    # the worker removes its own work directory under the git-ignored bench/out
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONHASHSEED="0", SOURCE_DATE_EPOCH="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), "--workload",
                           workload, "--seed", "9", "--seconds", "1", "--trace", *extra],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0 and result["failed"] == 0, result["failures"]
    missing = [name for name in PER_LAYER if name not in result["layers"]]
    assert not missing, f"{workload} trace lacks {missing}"
