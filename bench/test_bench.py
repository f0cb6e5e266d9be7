"""Tests of the benchmark itself, run from the repository root with

    python3 -m pytest bench/test_bench.py

Each test runs bench/run.py for one second of measuring (plus its check
calls), so the whole file takes a couple of minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import compare_rows  # noqa: E402
from tracer import COUNT_METRICS, PER_LAYER  # noqa: E402

WORKLOADS = ["rates-1d", "stability-2d", "lin-det"]


def bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_outputs_pass_the_check(workload):
    first, second = (result(bench(workload, trace=1)) for _ in range(2))
    for res in (first, second):
        # the traced check call matches the golden rows, and traced calls
        # write the bytes of untraced ones
        assert res["correct"] and res["failed"] == 0
        assert [(k, m["unit"]) for k, m in res["metrics"].items()] == PER_LAYER
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["stepper.steps"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_overhead_is_reported(workload):
    metrics = result(bench(workload, trace=1, seed=6))["metrics"]
    overhead = metrics["trace.overhead_s"]["value"]
    traced, untraced = metrics["trace.run_s"]["value"], metrics["trace.untraced_run_s"]["value"]
    assert traced > 0 and untraced > 0
    assert overhead == pytest.approx(traced - untraced)


def test_untraced_run_reports_the_end_to_end_metrics():
    res = result(bench("stability-2d", trace=0))
    assert res["correct"] and res["attempted"] >= 1
    declared = [(m["name"], m["unit"]) for m in benchmark_json()["end_to_end"]]
    assert [(k, m["unit"]) for k, m in res["metrics"].items()] == declared
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_rates_1d_checks_the_process_pool():
    assert result(bench("rates-1d", trace=0, seed=7))["correct"]
    report = json.loads((ROOT / ".bench_work" / "rates-1d-seed7-trace0" / "report.json").read_text())
    calls = report["check_calls"]
    assert len(calls) == 2 and all("20240901" in c["args"] for c in calls)
    assert "--threads" not in calls[0]["args"] and "--threads" in calls[1]["args"]
    pooled = [c for c in report["checks"] if c["name"].startswith("2-worker check call writes")]
    assert len(pooled) == 1 and pooled[0]["ok"]


def test_benchmark_json_lists_the_workloads_and_per_layer_metrics():
    assert [w["name"] for w in benchmark_json()["workloads"]] == WORKLOADS
    declared = [(m["name"], m["unit"]) for m in benchmark_json()["per_layer"]]
    assert declared == PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("rates-1d", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_golden_comparison_tolerance():
    header = "param,l2,l2_order"
    want = [header, "1.000000000000e-01,2.000000000000e-03,1.0000"]
    assert compare_rows(want, want) is None
    close = [header, "1.000000000000e-01,2.000100000000e-03,1.0002"]
    assert compare_rows(close, want) is None
    assert compare_rows([header, "1.000000000000e-01,2.001000000000e-03,1.0000"], want)
    assert compare_rows([header, "1.000000000000e-01,2.000000000000e-03,1.0100"], want)
    assert compare_rows([header, "1.000000000000e-01,2.000000000000e-03,"], want)
    assert compare_rows(want[:1], want)
