#!/usr/bin/env python
"""Batched vs sequential PUT throughput through the PNW store.

The paper's Algorithm 2 is executed one K/V pair at a time; the batch
write pipeline featurizes, predicts, and commits whole batches through
vectorized paths while staying state-identical to the sequential loop.
This benchmark measures what that buys: ops/sec of ``put_many`` at
several batch sizes against the plain ``put`` loop, on the paper's
synthetic workload (§VI-D normal-integer stream), and verifies at the
end that both stores hold byte-identical NVM state.

Run:

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py [--quick]

Unlike the ``bench_fig*.py`` figure reproductions (which run under
pytest-benchmark), this is a plain script so CI can smoke it with
``--quick`` and operators can sweep batch sizes directly.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from repro.bench import key_for, make_pnw_store, parse_int_list, results_path
from repro.workloads import make_workload

batch_size_list = functools.partial(parse_int_list, minimum=1)


def build_store(
    old_values: np.ndarray, n_clusters: int, seed: int, probe_limit: int,
    shards: int = 1,
):
    store = make_pnw_store(
        old_values.shape[0], old_values.shape[1], n_clusters, seed=seed,
        probe_limit=probe_limit, shards=shards,
    )
    store.warm_up(old_values)
    return store


def snapshots(store) -> list[np.ndarray]:
    """Data-zone snapshot(s) — one per shard for sharded stores."""
    if hasattr(store, "stores"):
        return [shard.nvm.snapshot() for shard in store.stores]
    return [store.nvm.snapshot()]


def close_store(store) -> None:
    if hasattr(store, "close"):
        store.close()


def run_sequential(store, keys, values) -> float:
    started = time.perf_counter()
    for key, value in zip(keys, values):
        store.put(key, value)
    return time.perf_counter() - started


def run_batched(store, keys, values, batch_size: int) -> float:
    started = time.perf_counter()
    for start in range(0, len(keys), batch_size):
        store.put_many(
            list(zip(keys[start : start + batch_size],
                     values[start : start + batch_size]))
        )
    return time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small CI-smoke sizes (a few thousand ops)",
    )
    parser.add_argument(
        "--workload", default="normal",
        help="registered workload name (default: the paper's synthetic "
             "normal-integer stream)",
    )
    parser.add_argument(
        "--batch-sizes", default=[16, 64, 256], type=batch_size_list,
        help="comma-separated put_many batch sizes to sweep",
    )
    parser.add_argument("--n-clusters", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--shards", type=int, default=1,
        help="hash-partition the zone into N shards (1: plain store)",
    )
    parser.add_argument(
        "--probe-limit", type=int, default=64,
        help="free-list candidates scored per PUT (0: FIFO, -1: whole "
             "list via the probe engine's content cache)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero unless the largest swept batch size reaches "
             "this speedup over the sequential loop",
    )
    args = parser.parse_args(argv)

    num_buckets = 4096 if args.quick else 16384
    n_ops = 2048 if args.quick else 8192
    batch_sizes = args.batch_sizes

    workload = make_workload(args.workload, seed=args.seed)
    old_values = workload.generate(num_buckets)
    # Pull the measurement stream in batch-shaped chunks (how a batching
    # front-end consumes a workload), materialised once so the sequential
    # and batched stores see the exact same items.
    new_values = np.vstack(list(workload.batches(n_ops, max(batch_sizes))))
    keys = [key_for(i) for i in range(n_ops)]

    lines = [f"workload={args.workload}  zone={num_buckets} buckets x "
             f"{old_values.shape[1]}B values  ops={n_ops}  "
             f"K={args.n_clusters}  probe_limit={args.probe_limit}  "
             f"shards={args.shards}"]
    print(lines[0])

    seq_store = build_store(old_values, args.n_clusters, args.seed,
                            args.probe_limit, args.shards)
    seq_seconds = run_sequential(seq_store, keys, new_values)
    seq_ops = n_ops / seq_seconds
    lines.append(f"{'sequential put':>18}: {seq_ops:10.0f} ops/s   (baseline)")
    print(lines[-1])

    reference = snapshots(seq_store)
    close_store(seq_store)
    speedups: dict[int, float] = {}
    for batch_size in batch_sizes:
        store = build_store(old_values, args.n_clusters, args.seed,
                            args.probe_limit, args.shards)
        seconds = run_batched(store, keys, new_values, batch_size)
        ops = n_ops / seconds
        speedups[batch_size] = seq_seconds / seconds
        identical = all(
            bool(np.array_equal(snap, ref))
            for snap, ref in zip(snapshots(store), reference)
        )
        close_store(store)
        lines.append(f"{'put_many b=' + str(batch_size):>18}: {ops:10.0f} ops/s   "
                     f"{speedups[batch_size]:5.2f}x   state-identical={identical}")
        print(lines[-1])
        if not identical:
            print("ERROR: batched NVM state diverged from sequential",
                  file=sys.stderr)
            return 1

    saved = results_path("bench-batch-throughput")
    saved.write_text("\n".join(lines) + "\n")
    print(f"saved {saved}")

    gated = max(batch_sizes)
    if args.min_speedup is not None and speedups[gated] < args.min_speedup:
        print(f"ERROR: speedup at batch size {gated} is "
              f"{speedups[gated]:.2f}x, below the required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
