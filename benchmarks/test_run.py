"""Tests of the benchmark itself.

    python3 -m pytest benchmarks

They run each workload for about a second, so the whole file takes a
minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, trace: int, cwd=run.ROOT) -> subprocess.CompletedProcess:
    """Run the command BENCHMARK.json names from the root of a checkout."""
    return subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_names_workloads_run_py_knows():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    out = _run(workload, 1, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "failed_ratio" in out.stdout


def test_wrong_expected_verdict_counts_as_failed(tmp_path):
    workload = run.make_workload("verify-fleet", 3, tmp_path)
    workload.setup()
    first = workload.inputs[0]
    wrong = next(v for v in run.VERDICTS if v != first.expected)
    workload.inputs[0] = first._replace(expected=wrong)
    stats = run.closed_loop(workload, 0.2, run.NumpyProbe())
    assert stats.attempted >= 1
    assert stats.failed >= 1
    assert stats.failed / stats.attempted > 0


def test_fleet_corpus_holds_every_verdict(tmp_path):
    workload = run.make_workload("verify-fleet", 3, tmp_path)
    workload.setup()
    assert {e.expected for e in workload.inputs} == set(run.VERDICTS)
    assert all(workload.check(i, workload.work(i)) for i in range(len(workload.inputs)))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_output_digest(workload, tmp_path):
    digests = []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        (tmp_path / sub).mkdir()
        w = run.make_workload(workload, seed, tmp_path / sub)
        w.setup()
        w.warm()
        digests.append(w.digest)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("capture-desk", 1, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
