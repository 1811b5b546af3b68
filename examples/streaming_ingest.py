#!/usr/bin/env python
"""Streaming ingestion: single ops, batched throughput.

A streaming driver (sensor gateway, log shipper, CDC feed) produces one
K/V op at a time, but the PNW engine is fastest when fed whole batches.
This example drives a sharded store through :class:`repro.IngestQueue`:
ops are submitted singly and resolve through futures, while the queue
coalesces them into per-shard batches — under a size / latency-deadline
policy — and drains them through the store's concurrent shard pipelines.

Run:  python examples/streaming_ingest.py [--events 2000] [--shards 4]
"""

import argparse
import time

import numpy as np

from repro import IngestQueue, PNWConfig, make_store


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--events", type=int, default=2000)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--buckets", type=int, default=4096)
    parser.add_argument("--max-batch", type=int, default=128)
    parser.add_argument("--max-delay-ms", type=float, default=5.0)
    args = parser.parse_args()

    rng = np.random.default_rng(7)
    config = PNWConfig(
        num_buckets=args.buckets, value_bytes=56, key_bytes=8,
        n_clusters=8, seed=7, shards=args.shards,
    )
    store = make_store(config)

    # Warm with clusterable "old data" (the paper's bootstrap, §VI-A).
    profiles = rng.integers(0, 256, size=(8, 56), dtype=np.uint8)
    old = profiles[rng.integers(0, 8, args.buckets)] ^ np.packbits(
        (rng.random((args.buckets, 56 * 8)) < 0.02).astype(np.uint8), axis=1
    )
    store.warm_up(old)
    print(f"warmed {args.buckets} buckets across {args.shards} shard(s)")

    # The event stream: mostly fresh readings, some overwrites, a few
    # expiries — exactly the single-op shape a gateway produces.
    futures = []
    started = time.perf_counter()
    with IngestQueue(
        store,
        max_batch=args.max_batch,
        max_delay=args.max_delay_ms / 1000.0,
    ) as queue:
        live = []
        for i in range(args.events):
            value = profiles[i % 8] ^ np.packbits(
                (rng.random(56 * 8) < 0.01).astype(np.uint8)
            )
            roll = rng.random()
            if live and roll < 0.15:
                futures.append(queue.update(live[int(rng.integers(len(live)))], value))
            elif live and roll < 0.25:
                futures.append(queue.delete(live.pop(0)))
            else:
                key = f"ev-{i}".encode()
                futures.append(queue.put(key, value))
                live.append(key)
        queue.flush()
        reports = [future.result() for future in futures]
        elapsed = time.perf_counter() - started
        print(f"streamed {len(reports)} single ops in {elapsed:.2f}s "
              f"({len(reports) / elapsed:.0f} ops/s) via "
              f"{queue.batches_dispatched} coalesced batches "
              f"(~{queue.ops_submitted / max(1, queue.batches_dispatched):.0f} "
              f"ops/batch)")

    puts = [r for r in reports if r.op == "put"]
    print(f"steered writes: mean {np.mean([r.bit_updates for r in puts]):.1f} "
          f"cells programmed per PUT "
          f"(of {config.bucket_bytes * 8} in the bucket)")
    print(f"live keys: {len(store)}; free addresses: {store.total_free}")

    # Every future resolved to the same OperationReport a direct batch
    # call would have returned — the queue is invisible to accounting.
    merged = store.wear_summary()
    print(f"zone totals: {merged['writes']:.0f} writes, "
          f"{merged['bit_updates']:.0f} cells programmed")
    store.close()


if __name__ == "__main__":
    main()
