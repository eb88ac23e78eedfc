"""Every workload through the full metric plumbing at tiny sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: the layers each workload's decomposition sums, in the entry point's
#: order; with ``unattributed.s`` they add up to the traced call wall
SUMMED = {
    "mesh-ooc": ["planner.s", "partition.s", "executor.s", "simulate.s",
                 "assemble.s"],
    "graph-hybrid": ["planner.s", "chunk_flops.s", "partition.s",
                     "executor.s", "simulate.s", "assemble.s"],
    "shard-socket": ["shard.plan_s", "partition.s", "shard.wall_max_s"],
    "serve-mixed": ["serve.upload_s", "serve.server_s", "serve.http_s"],
}


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        layers = sum(values[k] for k in SUMMED[workload])
        assert layers + values["unattributed.s"] == pytest.approx(
            values["trace.call_s"], rel=1e-9)
        assert all(values[k] > 0 for k in SUMMED[workload]
                   if k != "serve.upload_s")
        moved = values["transport.bytes_sent"] > 0
        assert moved == (workload == "shard-socket")
    else:
        assert all(v > 0 for v in values.values())
    assert "# stamp " in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
