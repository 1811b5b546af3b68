#!/usr/bin/env python
"""Sustained PUT goodput under skew: static FNV routing vs. live
rebalancing.

Two sharded stores with identical configuration, warm-up, and op
stream — ``rebalance_mode`` off / ``watermark`` — driven by a skewed
churn stream: ``--hot-fraction`` of inserts (default 75%, roughly the
mass a Zipfian(θ≈0.99) popularity curve concentrates at 4 shards) mint
keys that the *default* FNV layout routes to shard 0, spread across
all of that shard's virtual buckets; deletes sample uniformly over the
acked live set.  The producer is closed-loop: a put refused with
``PoolExhaustedError`` joins a bounded retry backlog and is re-offered
ahead of fresh inserts until it lands or the backlog sheds it — on the
static layout the hot shard's refusals burn round after round of
retries, on the rebalanced layout they land first try.  An unmeasured
fill phase saturates the static arm's hot shard first, then a measured
churn window counts **acked** PUTs against wall-clock time.

The claim this benchmark gates (full mode): the
rebalanced store sustains at least ``--min-speedup`` (default 1.5x)
the static store's PUT goodput, because migrating hot virtual buckets
off the starved shard converts refused puts back into acked ones —
while a replayed oracle stays byte-correct in both arms.  ``--smoke``
runs small CI sizes and reports the ratio without gating it (timing at
smoke size is noise-dominated); correctness is gated in every mode.

Run:

    PYTHONPATH=src python benchmarks/bench_shard_rebalance.py [--smoke]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro import PNWConfig, ShardedPNWStore
from repro.bench import ExperimentResult, report
from repro.errors import DegradedModeError, PoolExhaustedError
from repro.shard import shard_of

MODES = ("off", "watermark")


def build_store(args, mode: str) -> ShardedPNWStore:
    config = PNWConfig(
        num_buckets=args.buckets,
        value_bytes=args.value_bytes,
        key_bytes=8,
        n_clusters=8,
        seed=args.seed,
        shards=args.shards,
        rebalance_mode=mode,
        rebalance_check_interval=args.check_interval,
    )
    return ShardedPNWStore(config)


def build_stream(args) -> tuple[list[list[bytes]], list[list[int]]]:
    """Materialise the whole stream once — per-round insert keys and
    per-round delete picks (indices into the live set at delete time) —
    so both arms replay byte-identical traffic.

    The fill prefix (no deletes) drives the static arm straight to its
    churn equilibrium: the hot shard is overfilled past capacity and
    the cold shards are pre-loaded to the occupancy the window's
    put/delete mix would converge them to anyway, so the measured
    window starts at steady state instead of spending rounds drifting
    there."""
    rng = np.random.default_rng(args.seed)
    hot_keys: list[bytes] = []
    cold_keys: list[bytes] = []
    serial = 0
    needed = args.fill_hot + args.fill_cold + args.rounds * args.puts_per_round
    while len(hot_keys) < needed or len(cold_keys) < needed:
        key = b"k%07d" % serial
        serial += 1
        if shard_of(key, args.shards, 8) == 0:
            hot_keys.append(key)
        else:
            cold_keys.append(key)
    hot_iter = iter(hot_keys)
    cold_iter = iter(cold_keys)
    fill = [next(hot_iter) for _ in range(args.fill_hot)] + [
        next(cold_iter) for _ in range(args.fill_cold)
    ]
    rng.shuffle(fill)
    rounds = [
        fill[start : start + args.puts_per_round]
        for start in range(0, len(fill), args.puts_per_round)
    ]
    picks: list[list[int]] = [[] for _ in rounds]  # no deletes in fill
    for _ in range(args.rounds):
        rounds.append([
            next(hot_iter) if rng.random() < args.hot_fraction
            else next(cold_iter)
            for _ in range(args.puts_per_round)
        ])
        picks.append(
            rng.integers(0, 2**31, size=args.deletes_per_round).tolist()
        )
    return rounds, picks


def value_of(key: bytes, value_bytes: int) -> bytes:
    return (b"v:" + key).ljust(value_bytes, b"\x00")


def submit_puts(store, pairs) -> set[bytes]:
    """Acked keys of one put batch: prefix-committed reports survive a
    pool-exhausted/degraded refusal."""
    try:
        reports = store.put_many(pairs)
    except (PoolExhaustedError, DegradedModeError) as exc:
        reports = list(getattr(exc, "committed_reports", []))
    return {r.key for r in reports}


def drive(store, args, rounds, picks):
    """Replay the stream closed-loop: every put must land, so a refused
    put joins a bounded FIFO backlog and is re-offered (oldest first)
    ahead of the next round's fresh inserts; backlog overflow beyond
    ``backlog_cap`` sheds the oldest entries.  An unmeasured fill
    prefix runs first, then the measured churn window.  Returns
    (acked_puts, dropped_puts, elapsed_s, live_oracle)."""
    live: list[bytes] = []
    oracle: dict[bytes, bytes] = {}
    backlog: list[tuple[bytes, bytes]] = []

    def one_round(keys, pick_row) -> tuple[int, int]:
        offers = backlog + [
            (key, value_of(key, args.value_bytes)) for key in keys
        ]
        backlog.clear()
        acked = 0
        for start in range(0, len(offers), args.puts_per_round):
            chunk = offers[start : start + args.puts_per_round]
            landed = submit_puts(store, chunk)
            for key, value in chunk:
                if key in landed:
                    acked += 1
                    live.append(key)
                    oracle[key] = value
                else:
                    backlog.append((key, value))
        dropped = max(0, len(backlog) - args.backlog_cap)
        if dropped:
            del backlog[:dropped]
        victims = []
        for pick in pick_row:
            if not live:
                break
            idx = pick % len(live)
            victims.append(live.pop(idx))
        if victims:
            store.delete_many(victims)
            for key in victims:
                del oracle[key]
        return acked, dropped

    fill_rounds = len(rounds) - args.rounds
    for round_id in range(fill_rounds):
        one_round(rounds[round_id], picks[round_id])
    acked_total = dropped_total = 0
    start = time.perf_counter()
    for round_id in range(fill_rounds, len(rounds)):
        acked, dropped = one_round(rounds[round_id], picks[round_id])
        acked_total += acked
        dropped_total += dropped
    elapsed = time.perf_counter() - start
    return acked_total, dropped_total, elapsed, oracle


def check_oracle(store, oracle, rng, samples: int) -> int:
    """Sampled read-your-write over the surviving live set."""
    if len(store) != len(oracle):
        return abs(len(store) - len(oracle))
    keys = sorted(oracle)
    mismatches = 0
    for idx in rng.integers(0, len(keys), size=min(samples, len(keys))):
        key = keys[int(idx)]
        if store.get(key) != oracle[key]:
            mismatches += 1
    return mismatches


def run_pair(args, result, failures, gate: bool) -> None:
    rng = np.random.default_rng(args.seed + 1)
    warm = rng.integers(
        0, 256, size=(args.buckets, args.value_bytes), dtype=np.uint8
    )
    rounds, picks = build_stream(args)
    goodput = {}
    for mode in MODES:
        store = build_store(args, mode)
        try:
            store.warm_up(warm)
            acked, dropped, elapsed, oracle = drive(
                store, args, rounds, picks
            )
            mismatches = check_oracle(
                store, oracle, np.random.default_rng(args.seed + 2),
                args.samples,
            )
            stats = store.router_stats()
            goodput[mode] = acked / elapsed
            measured_puts = args.rounds * args.puts_per_round
            result.add_row(
                mode, acked, measured_puts, dropped,
                f"{goodput[mode]:,.0f}",
                stats.rebalances, stats.bucket_moves, stats.keys_migrated,
                mismatches,
            )
            if mismatches:
                failures.append(
                    f"{mode}: {mismatches} oracle mismatches"
                )
            if mode == "watermark" and stats.bucket_moves == 0:
                failures.append(
                    f"watermark: the skewed stream never "
                    f"triggered a rebalance"
                )
        finally:
            store.close()
    speedup = goodput["watermark"] / goodput["off"]
    result.notes.append(
        f"rebalanced PUT goodput {speedup:.2f}x static "
        f"routing (gate {'>=' + format(args.min_speedup, '.1f') + 'x' if gate else 'reported only'})"
    )
    if gate and speedup < args.min_speedup:
        failures.append(
            f"speedup {speedup:.2f}x below the required "
            f"{args.min_speedup:.1f}x"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small CI sizes; ratio reported, not gated")
    parser.add_argument("--buckets", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None,
                        help="measured churn rounds")
    parser.add_argument("--fill-hot", type=int, default=None,
                        help="unmeasured hot fill inserts (default: "
                             "1.2x one shard's capacity)")
    parser.add_argument("--fill-cold", type=int, default=None,
                        help="unmeasured cold fill inserts (default: "
                             "one shard's capacity — the cold-side "
                             "churn equilibrium)")
    parser.add_argument("--puts-per-round", type=int, default=16)
    parser.add_argument("--deletes-per-round", type=int, default=8)
    parser.add_argument("--hot-fraction", type=float, default=0.75)
    parser.add_argument("--backlog-cap", type=int, default=256,
                        help="refused puts waiting to retry before the "
                             "producer sheds the oldest")
    parser.add_argument("--value-bytes", type=int, default=24)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--check-interval", type=int, default=32)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--samples", type=int, default=128)
    parser.add_argument("--min-speedup", type=float, default=1.5)
    args = parser.parse_args(argv)
    if args.buckets is None:
        args.buckets = 256 if args.smoke else 768
    if args.rounds is None:
        args.rounds = 8 if args.smoke else 25
    shard_capacity = args.buckets // args.shards
    if args.fill_hot is None:
        args.fill_hot = int(shard_capacity * 1.2)
    if args.fill_cold is None:
        args.fill_cold = shard_capacity

    result = ExperimentResult(
        exp_id="bench-shard-rebalance",
        title="Load-aware routing: PUT goodput under a skewed stream",
        columns=["mode", "acked_puts", "offered_puts",
                 "shed_puts", "goodput_puts_s", "rebalances",
                 "bucket_moves", "keys_migrated", "mismatches"],
        params={
            "buckets": args.buckets, "shards": args.shards,
            "fill_hot": args.fill_hot, "fill_cold": args.fill_cold,
            "rounds": args.rounds,
            "puts_per_round": args.puts_per_round,
            "deletes_per_round": args.deletes_per_round,
            "hot_fraction": args.hot_fraction, "seed": args.seed,
        },
    )
    failures: list[str] = []
    run_pair(args, result, failures, gate=not args.smoke)

    report(result)
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
