"""Seconds-long checks of the benchmark itself.

    python3 -m pytest benchmarks

Runs every workload at tiny sizes, traced and untraced, and checks that
the output names exactly the metrics and units ``BENCHMARK.json`` declares.
Also checks that a suboptimal solver fails the traced run, that a vanished
layer name fails it loudly, and that a directory without the package fails
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_declared_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["ot.solve_assignment.suboptimal"]["value"] == 0


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def bench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))


@pytest.mark.usefixtures("bench_path")
def test_suboptimal_solver_fails_the_traced_run(monkeypatch):
    import numpy as np
    import otmap.mappers
    import harness
    import otmap.ot
    import workloads

    solve = otmap.ot.solve_assignment

    def worse(costs):
        best = solve(costs)
        perm = np.roll(best.perm, 1)  # still a permutation, no longer optimal
        return otmap.ot.Assignment(perm, float(costs.values[np.arange(len(perm)), perm].sum()))

    monkeypatch.setattr(otmap.ot, "solve_assignment", worse)
    monkeypatch.setattr(otmap.mappers, "solve_assignment", worse)
    iterations, tracer, _ = harness.measure(workloads.OtgenMoons, 0, 0.1, True, True)
    assert tracer.suboptimal > 0
    assert any(it.problems for it in iterations if it.traced)


@pytest.mark.usefixtures("bench_path")
def test_missing_layer_name_fails_the_traced_run(monkeypatch):
    import otmap.mappers
    from tracing import GuardError, Tracer

    monkeypatch.delattr(otmap.mappers, "_forward_cached")
    tracer = Tracer()
    with pytest.raises(GuardError, match="_forward_cached"):
        tracer.install()
