"""The benchmark's own tests, at tiny input sizes.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
sys.path.insert(0, str(ROOT / "perfbench"))

from assessbench.common import (  # noqa: E402
    GAUGE_REF_S, HostGauge, UnknownMetric, emit_metrics, load_spec, timing_metrics,
)
from assessbench.trace import TIME_METRICS  # noqa: E402

SPEC = load_spec(ROOT / "BENCHMARK.json")
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
TINY = ["--scale", "0.02", "--seconds", "1", "--min-samples", "3"]


def run(*arguments, cwd=ROOT):
    process = subprocess.run(
        [sys.executable, str(RUN), *arguments], cwd=str(cwd),
        capture_output=True, text=True, timeout=300,
    )
    return process


def result_line(process) -> dict:
    assert process.returncode == 0, process.stderr[-3000:]
    return json.loads(process.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_line(run("--workload", workload, "--seed", "3", "--trace", str(trace), *TINY))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in section
    }
    assert all(math.isfinite(entry["value"]) for entry in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    if trace:
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        split = sum(metrics[name] for name in TIME_METRICS)
        assert split == pytest.approx(metrics["op_wall_ms_per_op"], rel=1e-9, abs=1e-9)
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", ["paper-cold", "server-mixed"])
def test_an_injected_wrong_result_is_counted(workload):
    result = result_line(run("--workload", workload, "--seed", "3", "--trace", "0",
                             "--inject-every", "2", *TINY))
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_an_unknown_metric_name_fails():
    values = {entry["name"]: 1.0 for entry in SPEC["end_to_end"]}
    assert set(emit_metrics(values, SPEC, trace=False)) == set(values)
    with pytest.raises(UnknownMetric):
        emit_metrics({**values, "made_up_ms": 1.0}, SPEC, trace=False)
    values.pop("setup_s")
    with pytest.raises(UnknownMetric):
        emit_metrics(values, SPEC, trace=False)


def test_scaling_cancels_host_speed_but_not_program_speed():
    gauge = HostGauge()
    gauge.readings[:] = [GAUGE_REF_S] * 3 + [2 * GAUGE_REF_S] * 3
    ops = [("assess", 0.010, 0), ("assess", 0.020, 4)]  # the host ran twice as slow
    spans = [(latency, segment) for _, latency, segment in ops]
    scaled = timing_metrics(ops, spans, gauge.scale)
    assert scaled["assess_p50_ms"] == pytest.approx(10.0)
    assert scaled["ops_per_s"] == pytest.approx(100.0)
    slower = [(kind, 2 * latency, segment) for kind, latency, segment in ops]
    halved = timing_metrics(slower, [(2 * s, seg) for s, seg in spans], gauge.scale)
    assert halved["ops_per_s"] == pytest.approx(50.0)
    assert timing_metrics(ops, spans)["ops_per_s"] == pytest.approx(2 / 0.030)


def test_a_checkout_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170,
    )
    assert process.returncode != 0
    assert '"metrics"' not in process.stdout
