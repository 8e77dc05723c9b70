"""Smoke test of the benchmark itself, at the smallest input sizes.

Each workload runs untraced and traced; the test checks that the result
line names every metric of ``BENCHMARK.json`` with its unit, that the
detail line carries the workload's own figures with units, that the
correctness checks ran and passed, and that a directory without the
program's source fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: the figures each workload reports on its detail line under its own names
FIGURES = {
    "batch": {"cold_match_s", "warm_match_s", "restart_match_s", "snapshot_save_ms"},
    "stream": {"fresh_p50_ms", "fresh_p95_ms", "burst_publish_s", "burst_accept_ms", "recovery_s"},
    "serve": {"match_p50_ms", "match_p95_ms", "match_rps", "ingest_req_p50_ms", "recovery_s"},
}
SHARED_FIGURES = {"setup_s", "error_ratio", "peak_rss_mb"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(tmp_path, workload, trace):
    out = run_bench(
        ROOT,
        "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", trace, "--tiny", "--workdir", str(tmp_path),
    )
    assert out.returncode == 0, out.stderr
    *_, detail_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads(detail_line)
    figures = detail["figures"]
    assert set(figures) == FIGURES[workload] | SHARED_FIGURES
    for figure in figures.values():
        assert isinstance(figure["value"], float) and figure["unit"]
    assert figures["error_ratio"]["value"] == 0.0
    checks = detail["checks"]
    assert checks and all(count >= 1 for count in checks.values())


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    out = run_bench(tmp_path, "--workload", "batch", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
