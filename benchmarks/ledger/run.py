#!/usr/bin/env python3
"""Perf ledger: the one benchmark every perf or simplicity PR is judged by.

Driver contract (one run, last stdout line is the result object)::

    python3 benchmarks/ledger/run.py --workload steer_batch --seed 1 \
        --seconds 10 --trace 0

Without ``--workload`` it runs the whole ledger — every workload, once
untraced (end-to-end metrics) and once traced (per-layer metrics) — and
prints one JSON document with every metric's value, unit, direction and
regression bound::

    python3 benchmarks/ledger/run.py [--seed N] [--smoke] [--repeat N]
                                     [--out results.jsonl]
    python3 benchmarks/ledger/run.py --compare parent.jsonl change.jsonl

Metric names, units, directions and bounds are read from
``BENCHMARK.json`` at the root of the checkout; see README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def pin_environment() -> None:
    """Measurement hygiene; must run before numpy loads.  On this
    2-vCPU class of box, transparent-hugepage compaction in numpy's
    large allocations and OpenBLAS's spinning second thread made
    *identical* K-Means fits take anywhere from 0.4 s to 4.5 s; with
    both off they repeat within ~10%."""
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` (no subprocess); the driver's
    checkout is not a repository, so this may be ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


# ---------------------------------------------------------------------- #
# one run (driver contract)                                               #
# ---------------------------------------------------------------------- #

def result_line(result: dict, spec: dict) -> str:
    """The contract's result object: exactly four keys, and exactly the
    end-to-end (untraced) or per-layer (traced) metrics of the spec."""
    kind = "per_layer" if result["trace"] else "end_to_end"
    metrics = {
        metric["name"]: {
            "value": result["metrics"][metric["name"]],
            "unit": metric["unit"],
        }
        for metric in spec[kind]
    }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def run_one(args, spec: dict) -> int:
    from ledger_measure import run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds,
        trace=bool(args.trace), smoke=args.smoke,
    )
    for problem in result["problems"]:
        print(f"ledger: {problem}", file=sys.stderr)
    print(result_line(result, spec))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------- #
# the whole ledger, --repeat, --compare                                   #
# ---------------------------------------------------------------------- #

def run_set(args, spec: dict) -> dict:
    """Every workload, untraced then traced, as one result document."""
    from ledger_measure import run_workload

    described = {
        metric["name"]: metric
        for metric in spec["end_to_end"] + spec["per_layer"]
    }
    document = dict(provenance(args), correct=True, workloads={})
    for workload in (w["name"] for w in spec["workloads"]):
        entry = {"attempted": 0, "failed": 0, "metrics": {}}
        for trace in (False, True):
            result = run_workload(
                workload, args.seed, args.seconds,
                trace=trace, smoke=args.smoke,
            )
            for problem in result["problems"]:
                print(f"ledger: {workload}: {problem}", file=sys.stderr)
            document["correct"] &= result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                entry["metrics"][name] = dict(described[name], value=value)
                del entry["metrics"][name]["name"]
        document["workloads"][workload] = entry
    return document


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_row(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = quartiles(values)
    spread = (q3 - q1) / abs(median) if median else 0.0
    row = {"median": median, "q1": q1, "q3": q3, "spread": spread,
           "runs": len(values)}
    if bound is not None:
        row["bound"] = bound
        row["inside_bound"] = spread <= bound
    return row


def collect(documents: list[dict]) -> dict:
    """``{workload: {metric: [values]}}`` plus each metric's spec."""
    values: dict = {}
    described: dict = {}
    for document in documents:
        for workload, entry in document["workloads"].items():
            for name, metric in entry["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"])
                described[name] = metric
    return {"values": values, "described": described}


def summarize(documents: list[dict]) -> dict:
    collected = collect(documents)
    return {
        workload: {
            name: spread_row(vals, collected["described"][name].get("bound"))
            for name, vals in metrics.items()
        }
        for workload, metrics in collected["values"].items()
    }


def read_lines(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def compare(path_a: str, path_b: str) -> int:
    """Apply the end-to-end bounds to two result files (parent, change):
    one row per workload listing regressions and unresolved metrics."""
    a, b = collect(read_lines(path_a)), collect(read_lines(path_b))
    regressed_anywhere = False
    for workload, metrics in a["values"].items():
        regressions, unresolved = [], []
        for name, parent in metrics.items():
            spec = a["described"][name]
            change = b["values"].get(workload, {}).get(name)
            if "bound" not in spec or not change:
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            _, parent_median, _ = quartiles(parent)
            _, change_median, _ = quartiles(change)
            moved = (change_median - parent_median) / abs(parent_median)
            row = spread_row(parent, spec["bound"])
            if not row["inside_bound"]:
                # Noisier than the bound: only "every change run beats
                # every parent run" still counts as resolved.
                if not all(sign * (c - p) < 0 for c in change for p in parent):
                    unresolved.append(name)
                continue
            if sign * moved > spec["bound"]:
                regressions.append(f"{name} {moved:+.1%}")
        regressed_anywhere |= bool(regressions)
        print(f"{workload}: regressions=[{', '.join(regressions)}] "
              f"unresolved=[{', '.join(unresolved)}]")
    return 1 if regressed_anywhere else 0


def run_ledger(args, spec: dict) -> int:
    documents = []
    for _ in range(args.repeat):
        document = run_set(args, spec)
        documents.append(document)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(document) + "\n")
    output = documents[0] if args.repeat == 1 else {
        "runs": documents, "summary": summarize(documents),
    }
    print(json.dumps(output, indent=1))
    return 0 if all(document["correct"] for document in documents) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for tests")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full sets to run and summarise")
    parser.add_argument("--out", help="append each set as one JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    pin_environment()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(spec["run_seconds"])
    try:
        import repro  # noqa: F401 - the system under test
    except ImportError as exc:
        print(f"ledger: cannot import repro from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from ledger_measure import LeakGuard
    from ledger_workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    guard = LeakGuard()
    code = run_one(args, spec) if args.workload else run_ledger(args, spec)
    # The process must end alone: main thread only, no child, no
    # resource_tracker (each run already checked itself against its own
    # start; this is the absolute form on a process we own).
    leaks = guard.leaks()
    for leak in leaks:
        print(f"ledger: left behind: {leak}", file=sys.stderr)
    return code or (3 if leaks else 0)


if __name__ == "__main__":
    sys.exit(main())
