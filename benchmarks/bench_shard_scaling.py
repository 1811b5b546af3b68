#!/usr/bin/env python
"""Aggregate PUT throughput vs shard count for the sharded PNW store.

The sharded store hash-partitions the key space into N independent
zones and runs their batch write pipelines concurrently on a thread
pool.  Sharding wins twice on the PUT hot path: each shard's
minimum-Hamming probe (§IV) scans a free list 1/N the size, and the
per-shard work overlaps via GIL-releasing NumPy stages.  This benchmark
measures what sharding buys over the single-store batch pipeline, on
the paper's synthetic workload, feeding every store the identical
key/value stream in identical `put_many` batches.

It also checks wear parity: the sharded store must perform exactly the
same number of data-zone writes as the single store, with the mean
programmed cells per write within a small tolerance (placement differs
across partitions, so bit-flips agree statistically, not bit for bit —
each shard steers with its own model over the same data distribution).

Results record the detected host core count of every run, so
``results/*.txt`` trajectories are comparable across runners.  The
``--min-speedup`` gate is skipped (with a note) on hosts with fewer
than 4 cores — there is no parallel speedup to measure there.

Run:

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py [--smoke]
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py \
        --shards 1,2,4 --min-speedup 1.8

``--smoke`` runs CI-sized inputs and checks wear parity only (thread
speedups on shared runners are too noisy to gate); pass
``--min-speedup`` to enforce a throughput gate at the largest shard
count.  The default probe configuration scores the whole free list
(``probe_limit=-1``), the content-probing mode where the single store's
per-op cost is highest — the regime sharding exists for.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from repro.bench import key_for, make_pnw_store, parse_int_list, results_path
from repro.workloads import make_workload

shard_list = functools.partial(parse_int_list, minimum=1)


def host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_store(old_values, n_clusters, seed, probe_limit, shards):
    store = make_pnw_store(
        old_values.shape[0],
        old_values.shape[1],
        n_clusters,
        seed=seed,
        probe_limit=probe_limit,
        shards=shards,
    )
    store.warm_up(old_values)
    return store


def run_batched(store, keys, values, batch_size: int) -> float:
    started = time.perf_counter()
    for start in range(0, len(keys), batch_size):
        store.put_many(
            list(zip(keys[start : start + batch_size],
                     values[start : start + batch_size]))
        )
    return time.perf_counter() - started


def wear_of(store) -> dict[str, float]:
    """Data-zone wear summary for either store flavor."""
    if hasattr(store, "wear_summary"):
        return store.wear_summary()
    return store.nvm.stats.summary()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small CI-smoke sizes; wear parity checked, no speed gate",
    )
    parser.add_argument(
        "--workload", default="normal",
        help="registered workload name (default: the paper's synthetic "
             "normal-integer stream)",
    )
    parser.add_argument(
        "--shards", default=[1, 2, 4], type=shard_list,
        help="comma-separated shard counts to sweep (1 = baseline)",
    )
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--n-clusters", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--probe-limit", type=int, default=-1,
        help="free-list candidates scored per PUT (-1: whole list)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero unless the largest shard count reaches this "
             "aggregate-throughput speedup over the single store "
             "(skipped with a note below 4 host cores)",
    )
    parser.add_argument(
        "--flip-tolerance", type=float, default=0.10,
        help="allowed relative difference in mean programmed cells per "
             "write between sharded and single-store runs",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timed runs per configuration, best-of (default: 3 full, "
             "1 smoke) — wall-clock throughput on shared hosts is noisy",
    )
    args = parser.parse_args(argv)

    # Full size puts the single store in its probe-bound regime (free
    # lists tens of thousands deep), which is the load sharding targets;
    # smoke size just proves the machinery end to end.
    num_buckets = 2048 if args.smoke else 32768
    n_ops = num_buckets // 2 if args.smoke else num_buckets // 4
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 3)
    shard_counts = sorted(set(args.shards) | {1})
    cores = host_cores()

    workload = make_workload(args.workload, seed=args.seed)
    old_values = workload.generate(num_buckets)
    new_values = np.vstack(list(workload.batches(n_ops, args.batch_size)))
    keys = [key_for(i) for i in range(n_ops)]

    lines = [
        f"workload={args.workload}  zone={num_buckets} buckets x "
        f"{old_values.shape[1]}B values  ops={n_ops}  "
        f"batch={args.batch_size}  K={args.n_clusters}  "
        f"probe_limit={args.probe_limit}  cores={cores}"
    ]
    print(lines[0])

    failures: list[str] = []

    def timed_run(shards: int) -> tuple[float, dict[str, float]]:
        """Best-of-N wall clock + (deterministic) wear for one config."""
        seconds = None
        wear = None
        for attempt in range(max(1, repeats)):
            store = build_store(
                old_values, args.n_clusters, args.seed, args.probe_limit,
                shards,
            )
            elapsed = run_batched(store, keys, new_values, args.batch_size)
            if seconds is None or elapsed < seconds:
                seconds = elapsed
            wear = wear_of(store)
            if hasattr(store, "close"):
                store.close()
        return seconds, wear

    # shards=1 is a plain single store — the one shared baseline.
    baseline_seconds, baseline_wear = timed_run(1)
    line = (f"  single store: {n_ops / baseline_seconds:10.0f} ops/s   "
            f" 1.00x   writes={baseline_wear['writes']:.0f}  "
            f"cells/write={baseline_wear['mean_bit_updates_per_write']:.1f}  "
            f"cores={cores}")
    lines.append(line)
    print(line)

    speedups: dict[int, float] = {}
    for shards in shard_counts:
        if shards == 1:
            continue
        seconds, wear = timed_run(shards)
        speedups[shards] = baseline_seconds / seconds
        label = f"thread x{shards}"
        line = (f"{label:>14}: {n_ops / seconds:10.0f} ops/s   "
                f"{speedups[shards]:5.2f}x   "
                f"writes={wear['writes']:.0f}  "
                f"cells/write={wear['mean_bit_updates_per_write']:.1f}  "
                f"cores={cores}  shards={shards}")
        if wear["writes"] != baseline_wear["writes"]:
            failures.append(
                f"shards={shards}: {wear['writes']:.0f} "
                f"data-zone writes vs single-store "
                f"{baseline_wear['writes']:.0f}"
            )
        flip_rel = abs(
            wear["mean_bit_updates_per_write"]
            - baseline_wear["mean_bit_updates_per_write"]
        ) / baseline_wear["mean_bit_updates_per_write"]
        line += f"   flip-delta={flip_rel * 100:.1f}%"
        if flip_rel > args.flip_tolerance:
            failures.append(
                f"shards={shards}: mean cells/write off by "
                f"{flip_rel * 100:.1f}% (> {args.flip_tolerance * 100:.0f}%)"
            )
        lines.append(line)
        print(line)

    saved = results_path("bench-shard-scaling")
    saved.write_text("\n".join(lines) + "\n")
    print(f"saved {saved}")

    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.min_speedup is not None:
        if cores < 4:
            print(f"speedup gate skipped: host has {cores} core(s) < 4 — "
                  f"no parallel speedup to measure")
        else:
            gated = max(shard_counts)
            speedup = speedups.get(gated)
            if speedup is not None and speedup < args.min_speedup:
                print(
                    f"ERROR: speedup at {gated} shards is {speedup:.2f}x, "
                    f"below the required {args.min_speedup:.2f}x",
                    file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
