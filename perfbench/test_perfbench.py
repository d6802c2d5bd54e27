"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``.

Each workload runs once untraced and once traced at ``--smoke`` size
(a few seconds each) and must print every metric BENCHMARK.json names,
with its unit, and pass its output checks.  A corrupted record must
lower ``ok_share`` (the complement of the failed share) and fail the
run, a traced run whose wrappers miss a layer must fail, and the
benchmark must refuse to run without the package.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = run.load_spec()


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["exact_grid", "sim_grid"])
def test_corrupted_record_lowers_ok_share(workload, monkeypatch):
    import grids
    from repro.analysis.experiment import ExperimentGrid

    honest = ExperimentGrid.run

    def corrupted(self):
        records = honest(self)
        if records:
            records[0] = dataclasses.replace(records[0], makespan=records[0].makespan * 1.5)
        return records

    monkeypatch.setattr(ExperimentGrid, "run", corrupted)
    work = ROOT / ".perfbench" / f"test-corrupt-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = grids.run_grid_workload(
            workload, 3, 0.5, traced=False, smoke=True, work=work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert result["failed"] >= 1
    assert result["e2e"]["ok_share"] < 1.0
    assert not all(result["checks"].values())


def test_unseen_layer_fails_the_traced_run(monkeypatch):
    """A wrapper that no longer sees its layer must fail the run."""
    import grids
    from spans import SpanRecorder

    honest = SpanRecorder.patch

    def patch_all_but_sweep(self, owner, attr, name, observe=None):
        if name != "sweep":
            honest(self, owner, attr, name, observe)

    monkeypatch.setattr(SpanRecorder, "patch", patch_all_but_sweep)
    work = ROOT / ".perfbench" / "test-unseen-layer"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = grids.run_grid_workload(
            "sim_grid", 3, 0.5, traced=True, smoke=True, work=work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert result["checks"]["sweep spans recorded"] is False
    assert result["checks"]["layer self times sum to the traced wall time"] is True


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sim_grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
