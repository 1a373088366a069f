"""Self-test of the benchmark harness: a seconds-scale (``--scale tiny``)
untraced and traced run of every workload, checking that the result
line, the metric names and units of ``BENCHMARK.json``, the manifest,
the layer accounting and the zero predictions stay wired.  Run from the
repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MANIFEST_KEYS = {
    "git_sha", "git_dirty", "source_sha256", "python", "numpy", "cpu_count",
    "workload", "seed", "config_sha256", "trace",
}

sys.path.insert(0, str(HERE))
from layers import PER_LAYER  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_untraced_and_traced(workload: str) -> None:
    digests = []
    for trace in (0, 1):
        out = run_bench(ROOT, workload, trace)
        assert out.returncode == 0, out.stderr
        *_, artifact_line, result_line = out.stdout.splitlines()
        artifact = json.loads(artifact_line)["artifact"]
        result = json.loads(result_line)

        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert 0 <= result["failed"] <= result["attempted"]
        expected = SPEC["per_layer" if trace else "end_to_end"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in expected
        }
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

        manifest = artifact["manifest"]
        assert MANIFEST_KEYS <= set(manifest)
        assert (manifest["workload"], manifest["seed"], manifest["trace"]) == (
            workload, 3, bool(trace))
        assert artifact["harness_failures"] == []
        assert artifact["check_failures"] == []
        assert result["correct"] is True
        if trace:
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            assert artifact["layer_sum_error"] <= 0.05
            zero = [name for name, p in PREDICTIONS["metrics"].items()
                    if workload in p.get("zero_on", ())]
            assert {name: metrics[name] for name in zero} == dict.fromkeys(zero, 0)
        digests.append(artifact["rows_sha256"])
    # separate processes, tracing off and on: the same rows
    assert digests[0] == digests[1]


def test_benchmark_json_matches_the_layer_table() -> None:
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert set(PREDICTIONS["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, prediction in PREDICTIONS["metrics"].items():
        assert set(prediction["on"]) | set(prediction.get("zero_on", [])) <= set(WORKLOADS), name


def test_fails_without_the_program(tmp_path: Path) -> None:
    """With only BENCHMARK.json and the benchmark's own files present,
    the run exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = run_bench(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_reference_seconds_scale_by_nearby_probes() -> None:
    """Stretches between probes are scaled by the probe times around
    them; the probes' own time is left out."""
    from hostspeed import REF_UNIT_S, HostSpeedProbe

    probe = HostSpeedProbe()
    # probes at 1 s, 2 s, ... each taking 2 units: the host runs at half speed
    probe.starts = [float(i) for i in range(1, 10)]
    probe.ends = [s + 2 * REF_UNIT_S for s in probe.starts]
    measured = (9.5 - 0.5) - 9 * 2 * REF_UNIT_S
    assert probe.reference_s(0.5, 9.5) == pytest.approx(measured / 2)
