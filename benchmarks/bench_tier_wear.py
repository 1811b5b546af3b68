#!/usr/bin/env python
"""NVM wear with and without the DRAM tier, on hot-key traffic.

Three stores with identical configuration, warm-up, and op stream —
``tier_mode`` off / ``write_through`` / ``write_back`` — driven by a
Zipfian hot-key rewrite stream (or the TTL key-churn stream with
``--workload churn``).  The measurement is the data zone's
wear delta over the measured ops: bucket writes and NVM cells
programmed (``WearStats.total_bit_updates``).  The tier's claim, which
this benchmark gates:

* ``write_back`` cuts cells programmed by at least ``--min-saving``
  (default 30%) — rewrites of hot keys coalesce in DRAM, so the device
  never sees the intermediate versions;
* ``write_through`` leaves the durable state **byte-identical** to the
  bare store (checked against the NVM snapshot);
* every mode answers reads correctly during the run (read-your-write
  against a replay oracle) and after ``close()`` (which flushes);
* a crash loses exactly the counted unflushed entries — the
  ``crash``/``recover`` scenario asserts durable keys + counted loss
  add up to everything admitted.

Run:

    PYTHONPATH=src python benchmarks/bench_tier_wear.py [--smoke]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import PNWConfig, make_store
from repro.bench import ExperimentResult, report
from repro.workloads import make_workload

MODES = ("off", "write_through", "write_back")


def build_ops(args) -> tuple[np.ndarray, list[tuple[str, bytes, bytes | None]]]:
    """Materialise warm-up values and the op stream once, so every mode
    replays byte-identical traffic."""
    workload = make_workload(args.workload, seed=args.seed)
    warm_source = make_workload(args.workload, seed=args.seed + 1)
    warm = warm_source.generate(args.buckets)[:, workload.key_bytes :]
    if args.workload == "churn":
        ops = list(workload.ops(args.ops))
    else:
        items = workload.generate(args.ops)
        ops = [("put", key, value) for key, value in workload.pairs(items)]
    return warm, ops


def build_tiered(args, mode: str):
    config = PNWConfig(
        num_buckets=args.buckets,
        value_bytes=args.value_bytes,
        key_bytes=8,
        n_clusters=8,
        seed=args.seed,
        shards=args.shards,
        tier_mode=mode,
        tier_cache_entries=args.cache_entries,
        tier_writeback_entries=args.writeback_entries,
        tier_flush_ops=args.flush_ops,
    )
    return make_store(config)


def drive(store, ops, batch: int) -> dict[bytes, bytes]:
    """Replay the op stream through the batch API in order, returning
    the final key -> value oracle."""
    oracle: dict[bytes, bytes] = {}
    kind_pending: str | None = None
    pending: list = []

    def flush_pending() -> None:
        nonlocal pending
        if not pending:
            return
        if kind_pending == "put":
            store.put_many(pending)
        else:
            store.delete_many(pending)
        pending = []

    for kind, key, value in ops:
        if kind != kind_pending or len(pending) >= batch:
            flush_pending()
            kind_pending = kind
        if kind == "put":
            pending.append((key, value))
            oracle[key] = value
        else:
            pending.append(key)
            oracle.pop(key, None)
    flush_pending()
    return oracle


def check_reads(store, oracle, value_bytes: int, rng, samples: int) -> int:
    """Read-your-write: sampled oracle keys must round-trip."""
    keys = sorted(oracle)
    mismatches = 0
    for idx in rng.integers(0, len(keys), size=min(samples, len(keys))):
        key = keys[int(idx)]
        expected = oracle[key].ljust(value_bytes, b"\x00")
        if store.get(key) != expected:
            mismatches += 1
    return mismatches


def wear_cells(store) -> tuple[int, int]:
    stats = store.wear_stats() if hasattr(store, "wear_stats") else store.nvm.stats
    return stats.total_writes, stats.total_bit_updates


def nvm_snapshot(store):
    inner = getattr(store, "store", store)  # unwrap a TieredStore
    if hasattr(inner, "stores"):  # sharded
        return [shard.nvm.snapshot() for shard in inner.stores]
    return [inner.nvm.snapshot()]


def crash_scenario(args, ops) -> tuple[int, int, bool]:
    """Drive half the stream, crash, recover: durable keys + counted
    loss must account for every admitted key."""
    store = build_tiered(args, "write_back")
    warm, _ = build_ops(args)
    store.warm_up(warm)
    oracle = drive(store, ops[: max(1, len(ops) // 2)], args.batch)
    dirty = store.dirty_entries
    durable_creates = len(store.store)
    store.crash()
    lost = store.tier_stats.unflushed_lost
    store.recover()
    survived = len(store)
    # The tier promises: loss == what was dirty, survivors == what the
    # store had durably (staged creates are the only keys that can go
    # missing entirely; staged updates fall back to their last flushed
    # version).
    consistent = lost == dirty and survived == durable_creates
    store.close()
    return lost, len(oracle), consistent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small CI sizes, same gates")
    parser.add_argument("--workload", default="zipfian",
                        choices=["zipfian", "churn"])
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--buckets", type=int, default=None)
    parser.add_argument("--value-bytes", type=int, default=24)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cache-entries", type=int, default=512)
    parser.add_argument("--writeback-entries", type=int, default=256)
    parser.add_argument("--flush-ops", type=int, default=2048)
    parser.add_argument("--samples", type=int, default=128,
                        help="read-your-write spot checks per mode")
    parser.add_argument("--min-saving", type=float, default=0.30,
                        help="required fractional reduction in cells "
                             "programmed for write_back")
    args = parser.parse_args(argv)
    if args.ops is None:
        args.ops = 2500 if args.smoke else 10000
    if args.buckets is None:
        args.buckets = 2048 if args.smoke else 4096

    warm, ops = build_ops(args)
    rng = np.random.default_rng(args.seed)
    result = ExperimentResult(
        exp_id="bench-tier-wear",
        title="DRAM tier: NVM wear by placement policy",
        columns=["mode", "nvm_writes", "cells_programmed", "saving",
                 "flushes", "coalesced", "mismatches"],
        params={
            "workload": args.workload, "ops": args.ops,
            "buckets": args.buckets, "value_bytes": args.value_bytes,
            "shards": args.shards,
            "writeback_entries": args.writeback_entries,
            "flush_ops": args.flush_ops, "seed": args.seed,
        },
    )

    baseline_cells = None
    reference_snapshot = None
    failures: list[str] = []
    for mode in MODES:
        store = build_tiered(args, mode)
        store.warm_up(warm)
        writes0, cells0 = wear_cells(store)
        oracle = drive(store, ops, args.batch)
        mismatches = check_reads(
            store, oracle, args.value_bytes, rng, args.samples
        )
        if hasattr(store, "close"):  # flush: wear includes tier drains
            store.close()
        mismatches += check_reads(
            store, oracle, args.value_bytes, rng, args.samples
        )
        writes, cells = wear_cells(store)
        writes, cells = writes - writes0, cells - cells0
        if mode == "off":
            baseline_cells = cells
            reference_snapshot = nvm_snapshot(store)
            saving = 0.0
        else:
            saving = 1.0 - cells / baseline_cells
        tier = store.tier_stats if hasattr(store, "tier_stats") else None
        result.add_row(
            mode, writes, cells, f"{saving:.1%}",
            tier.flush_events if tier else 0,
            tier.coalesced if tier else 0, mismatches,
        )
        if mismatches:
            failures.append(f"{mode}: {mismatches} read-your-write "
                            f"mismatches")
        if mode == "write_through":
            identical = all(
                np.array_equal(snap, ref) for snap, ref in
                zip(nvm_snapshot(store), reference_snapshot)
            )
            result.notes.append(
                f"write_through durable state byte-identical to bare "
                f"store: {identical}"
            )
            if not identical:
                failures.append("write_through durable state diverged")
        if mode == "write_back" and saving < args.min_saving:
            failures.append(
                f"{mode}: saved {saving:.1%} of cells, below the "
                f"required {args.min_saving:.0%}"
            )

    lost, admitted, consistent = crash_scenario(args, ops)
    result.notes.append(
        f"crash scenario: lost exactly the {lost} counted unflushed "
        f"entries of {admitted} admitted keys; accounting consistent: "
        f"{consistent}"
    )
    if not consistent:
        failures.append("crash-loss accounting inconsistent")

    report(result)
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
