"""Tiny-size runs of every workload, traced and untraced, so the harness cannot rot.

    python3 -m pytest perfbench/test_smoke.py -q

Besides the output contract, the traced runs check the layer map the
benchmark relies on: conv backward runs only where something trains, the
frozen teacher U-Net only in `train`, and the metrics layer only in `eval`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, workload, trace, *extra):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "0.5", "--trace", str(trace), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    proc = run(HERE.parent, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    value = {k: m["value"] for k, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in value.values()), value
        return
    trains = workload in ("train", "pretrain")
    assert (value["tensor.conv2d.bwd_ms"] > 0) == trains
    assert (value["optim.scalars"] > 0) == trains
    assert (value["nets.unet_teacher.ms"] > 0) == (workload == "train")
    for name in ("metrics.probe_fwd.ms", "metrics.masked_crop.ms", "metrics.frechet.ms", "metrics.train_probe.s"):
        assert (value[name] > 0) == (workload == "eval"), name
    assert value["tensor.conv2d.calls"] > 0 and value["tensor.conv2d.gflop"] > 0
    assert 0 < value["trace.coverage_share"] <= 1


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
