"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_selftest.py

Every workload runs once untraced and once traced for one second (the first
pass over a run's inputs always completes, so every input runs).  Each run must print every metric
that BENCHMARK.json names, with its unit, and must fail no operation, which
includes every digest and oracle check.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def test_spec_matches_the_workloads_and_the_metric_notes():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}
    notes = (HERE / "METRICS.md").read_text(encoding="utf-8")
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"`{metric['name']}`" in notes, metric["name"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_and_fails_nothing(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["fail_ratio"] == 0
        assert values["trace.overhead_ratio"] > 0
    else:
        assert all(v > 0 for v in values.values()), values


def test_tracer_records_spans_and_restores_every_binding():
    from tracer import CLASSES, MODULES, Tracer
    from workloads import ComputeMix, import_package

    import_package()
    owners = [importlib.import_module("ceviangeo")]
    owners += [importlib.import_module(f"ceviangeo.{m}") for m in MODULES]
    owners += [getattr(importlib.import_module(f"ceviangeo.{m}"), c) for m, c in CLASSES]
    # dispatch tables such as verify.SUITES are patched in place: copy them too
    before = [{k: dict(v) if isinstance(v, dict) else v for k, v in vars(owner).items()}
              for owner in owners]
    tracer = Tracer(seed=0)
    tracer.install()
    try:
        ComputeMix.run("[6,3,2]")
    finally:
        tracer.uninstall()
    assert len(tracer.columns["id"]) > 1000
    for owner, snapshot in zip(owners, before):
        now = vars(owner)
        for k, v in snapshot.items():
            if isinstance(v, dict):
                assert all(now[k][key] is value for key, value in v.items()), (owner, k)
            else:
                assert now[k] is v, (owner, k)
    metrics = tracer.layer_metrics(1)
    assert metrics["maps.derive_configuration.calls"] == 1
    assert metrics["cli.parse_s"] > 0 and metrics["cli.format_s"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(tmp_path, "compute-mix", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
