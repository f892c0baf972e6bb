"""Self-tests of the benchmark: python3 -m pytest perfbench

They check that a short run emits every metric named in BENCHMARK.json
with its unit, that a corrupted detector output shows up as a nonzero
error_rate, that a bypassed boundary reads as missing rather than 0, and
that a directory without the package makes the benchmark fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import sisodet.simcli  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sisodet import DetectionResult, brute_force_maxlog  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(stdout: str) -> dict:
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_spec():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == spec.WORKLOADS[w["name"]].why
    for key, table in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in BENCHMARK[key]] == [
            (name, unit) for name, unit, _ in table
        ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True,
    )
    result = result_line(done.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], float | int), f"{m['name']} is missing"
    assert "error_rate" in done.stdout


def corrupt_every(n: int, change):
    """A detect that alters one LLR of every n-th tone it returns."""
    calls = [0]
    original = workloads.detect

    def corrupted(obs, const, llrs):
        result = original(obs, const, llrs)
        calls[0] += 1
        if calls[0] % n == 0:
            result.llrs[0, 0] = change(result.llrs[0, 0])
        return result

    return corrupted


def test_corrupted_llr_gives_nonzero_error_rate(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "detect", corrupt_every(5, lambda v: v + 1e-3))
    status = run.main(["--workload", "receiver-m16", "--seed", "3", "--seconds", "0.5"])
    out = capsys.readouterr().out
    assert status == 0
    result = result_line(out)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    error_line = next(line for line in out.splitlines() if "error_rate" in line)
    assert float(error_line.split()[1]) > 0
    assert "vs brute_force_maxlog" in out


def test_non_finite_llr_fails_unsampled_tones(monkeypatch):
    """On receiver-m256 the oracle checks a sample; the finite check runs on all."""
    monkeypatch.setattr(workloads, "detect", corrupt_every(1, lambda v: np.nan))
    w = spec.WORKLOADS["receiver-m256"]
    m = workloads.Measurement()
    workloads.ReceiverRunner(w, 1, workloads.build_constellation(w.M)).block(m)
    assert m.failed == m.attempted == workloads.RECEIVER_BLOCK
    assert "non-finite LLR" in m.failures[0]


def test_simulate_gate_failure_is_counted(monkeypatch, tmp_path):
    monkeypatch.setattr(sisodet.simcli, "detect", corrupt_every(3, lambda v: v + 1e-3))
    m = workloads.Measurement()
    workloads.SimulateRunner(spec.WORKLOADS["simulate-m64"], 1, tmp_path).block(m)
    assert m.failed == m.attempted == workloads.SIMULATE_BLOCK
    assert "exit status 1" in m.failures[0]


def test_bypassed_boundary_reads_missing_not_zero(monkeypatch):
    """A detector that skips the slicer leaves slicer.* missing."""

    def oracle_detect(obs, const, llrs):
        return DetectionResult(
            llrs=brute_force_maxlog(obs, const, llrs),
            candidate_metric_count=2 * const.M,
            boundary_count=0,
            total_metric_count=2 * const.M,
        )

    monkeypatch.setattr(workloads, "detect", oracle_detect)
    w = spec.WORKLOADS["receiver-m16"]
    m = workloads.Measurement()
    runner = workloads.ReceiverRunner(w, 1, workloads.build_constellation(w.M))
    with tracing.Tracer() as tr:
        runner.block(m, tr)
    metrics = tracing.per_layer_metrics(tr, tr, w.M, 1.0)
    assert m.failed == 0
    for name in ("slicer.build_regions_us", "slicer.boundary_count_mean", "detector.llrs_from_metrics_us"):
        assert metrics[name] is None
    assert metrics["detector.detect_us"] > 0
    assert metrics["simcli.tone_gen_us"] is None  # no sweep ran


def test_detect_self_time_accounts_for_detect():
    w = spec.WORKLOADS["receiver-m16"]
    runner = workloads.ReceiverRunner(w, 2, workloads.build_constellation(w.M))
    with tracing.Tracer() as tr:
        runner.block(workloads.Measurement(), tr)
    metrics = tracing.per_layer_metrics(tr, tr, w.M, 1.0)
    parts = ("detector.self_us", "priors.axis_log_priors_us", "slicer.build_regions_us",
             "slicer.slice_statistic_us", "detector.llrs_from_metrics_us")
    assert sum(metrics[p] for p in parts) == pytest.approx(metrics["detector.detect_us"], rel=1e-9)
    assert metrics["numerics.cholesky_calls_per_tone"] == 2.0
    # the wrappers are gone once the tracer exits
    assert workloads.detect.__module__ == "sisodet.detector"
    assert not hasattr(workloads.detect, "__wrapped__")


def test_checkout_without_package_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "receiver-m16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
