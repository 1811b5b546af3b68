"""Smoke test of the perf ledger (collected by the tier-1 run).

Runs all five workloads at ``--smoke`` size, traced and untraced, and
pins what the driver and later PRs rely on: the emitted metric names
are exactly those of ``BENCHMARK.json``, the exact counters repeat for
a seed and move with it, every output check passes, nothing is left
running, and the command refuses to run without the program.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
EXACT = ("bit_flips_per_512b", "lines_per_write", "wear_cv")
SECONDS = 0.1


@pytest.fixture(scope="module")
def ledger_run():
    spec = importlib.util.spec_from_file_location("ledger_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def runs(ledger_run):
    """(workload, seed, trace) -> result, each measured once."""
    from ledger_measure import run_workload

    cache: dict = {}

    def get(workload: str, seed: int, trace: bool, fresh: bool = False):
        key = (workload, seed, trace)
        if fresh or key not in cache:
            cache[key] = run_workload(
                workload, seed, SECONDS, trace=trace, smoke=True
            )
        return cache[key]

    return get


def names(kind: str) -> set[str]:
    return {metric["name"] for metric in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_the_end_to_end_metrics(runs, workload):
    result = runs(workload, 1, False)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == names("end_to_end")
    # The driver divides by the parent's median: no metric may be 0.
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_the_per_layer_metrics(runs, workload):
    result = runs(workload, 1, True)
    assert result["problems"] == []
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == names("per_layer")
    assert metrics["check.fail_share"] == 0
    assert metrics["check.lost_acked_ops"] == 0
    assert metrics["engine.calls"] > 0 and metrics["nvm.rows_written"] > 0
    # A layer the workload does not use reports nothing.
    assert (metrics["tier.self_us_per_op"] > 0) == (workload == "tier_zipf_rw")
    assert (metrics["shard.self_us_per_op"] > 0) == workload.startswith("ingest")
    assert (metrics["ingest.submit_us_per_op"] > 0) == workload.startswith("ingest")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat_for_a_seed_and_move_with_it(runs, workload):
    first = runs(workload, 1, False)["metrics"]
    again = runs(workload, 1, False, fresh=True)["metrics"]
    other = runs(workload, 2, False)["metrics"]
    assert [first[name] for name in EXACT] == [again[name] for name in EXACT]
    assert [first[name] for name in EXACT] != [other[name] for name in EXACT]


def test_coalescing_contrast_between_the_ingest_workloads(runs):
    runs_metrics = runs("ingest_runs", 1, True)["metrics"]
    mixed_metrics = runs("ingest_mixed", 1, True)["metrics"]
    assert runs_metrics["ingest.ops_per_run"] > 4 * mixed_metrics["ingest.ops_per_run"]


def test_driver_mode_prints_the_contract_object_last(ledger_run, capsys,
                                                     monkeypatch):
    # main() pins BLAS/hugepage settings with setdefault; pre-set them
    # so the pytest process's environment is restored afterwards.
    for name in ("NUMPY_MADVISE_HUGEPAGE", "OPENBLAS_NUM_THREADS",
                 "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    code = ledger_run.main([
        "--workload", "steer_batch", "--seed", "3", "--seconds", str(SECONDS),
        "--trace", "0", "--smoke",
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == names("end_to_end")
    units = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert all(
        set(entry) == {"value", "unit"} and entry["unit"] == units[name]
        for name, entry in result["metrics"].items()
    )


def test_repeat_summary_and_compare_apply_the_bounds(ledger_run, tmp_path,
                                                     capsys):
    def document(ops_per_s: float, flips: float) -> dict:
        def metric(value, bound, better):
            return {"value": value, "unit": "x", "better": better,
                    "bound": bound}
        return {"workloads": {"steer_batch": {"metrics": {
            "ops_per_s": metric(ops_per_s, 0.1, "higher"),
            "bit_flips_per_512b": metric(flips, 0.1, "lower"),
        }}}}

    parent = [document(100.0 + i, 20.0) for i in range(4)]
    summary = ledger_run.summarize(parent)["steer_batch"]
    assert summary["bit_flips_per_512b"]["spread"] == 0
    assert summary["ops_per_s"]["inside_bound"]

    def write(name: str, documents: list[dict]) -> str:
        path = tmp_path / name
        path.write_text("".join(json.dumps(d) + "\n" for d in documents))
        return str(path)

    same = write("same.jsonl", parent)
    slower = write("slower.jsonl", [document(80.0 + i, 20.0) for i in range(4)])
    assert ledger_run.compare(same, same) == 0
    assert ledger_run.compare(same, slower) == 1
    assert "ops_per_s -19.7%" in capsys.readouterr().out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "steer_batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
