"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_fold_subtracts_child_time():
    spans = [["job", 0.0, 10.0, -1, 0],
             ["blocks.landmarks", 1.0, 5.0, 0, 0],
             ["linalg.hermitian_eig", 2.0, 3.0, 1, 4],
             ["linalg.hermitian_eig", 6.0, 8.0, 0, 200]]
    totals = tracing.fold(spans)
    assert totals["blocks.landmarks.self_s"] == 3.0
    assert totals["linalg.hermitian_eig.self_s"] == 3.0
    assert totals["linalg.hermitian_eig.calls"] == 2
    assert totals["linalg.hermitian_eig.calls.small"] == 1
    assert totals["linalg.hermitian_eig.calls.large"] == 1
    assert totals["linalg.hermitian_eig.dim3"] == 4 ** 3 + 200 ** 3
    assert totals["trace.coverage"] == 0.6


def test_benchmark_file_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.BUILDERS)
    assert run.MARK == worker.MARK.encode()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.layer_metrics()


def test_workload_at_another_seed_passes_the_gate():
    done = _run(ROOT, "--workload", "block-sweep", "--seed", "7",
                "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert result["correct"], record
    assert result["failed"] == 0 and result["attempted"] >= 4
    assert record["oracle"] == "ok" and record["seed"] == 7
    assert set(result["metrics"]) == {"job_s.p50", "setup_s", "peak_rss_mb"}


def test_traced_run_changes_no_report_byte(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from specblock import blocks, cli, linalg

    job = workloads.make_job("mhd-profile", 3, tmp_path)
    original = linalg.hermitian_eig
    plain = worker.run_job(cli, job)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert blocks.hermitian_eig.__wrapped__ is original
        traced = worker.run_job(cli, job, tracer)
    finally:
        tracer.uninstall()
    assert blocks.hermitian_eig is linalg.hermitian_eig is original
    assert traced.totals["linalg.hermitian_eig.calls"] > 0
    assert traced.totals["trace.coverage"] > 0.9
    assert plain.codes == traced.codes == [0]
    assert plain.reports == traced.reports


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "selftest", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
