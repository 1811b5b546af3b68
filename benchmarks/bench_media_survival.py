#!/usr/bin/env python
"""Acknowledged-op survival under injected NVM wear-out.

Two grids, one claim: **every acknowledged write remains readable with
the exact acknowledged bytes**, no matter how many cells the fault
model depletes.

* **Store grid** — the full stack (steering, write-verify, relocation,
  retirement) per backend (single zone / sharded threads), driven
  with uniform-random payloads over a 1%
  depleted-budget fault injection, measured before and after a
  crash/recover cycle.  Records survival rate, rows retired, and the
  op count at the first retirement.
* **Scheme grid** — the raw device with each RBW write scheme
  (Conventional/DCW/FNW/MinShift/Captopril) plus bench-level
  read-back-verify + relocation, isolating how each scheme's
  programmed-cell pattern collides with weakened cells.  Schemes that
  program fewer cells trip fewer stuck bits and retire later.

Exit status is non-zero if any acknowledged op is unreadable (survival
below 100%) — this is the CI gate for the media fault-injection smoke.

Run:

    PYTHONPATH=src python benchmarks/bench_media_survival.py [--smoke]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import PNWConfig, make_store
from repro.bench import ExperimentResult, report
from repro.errors import DegradedModeError, PoolExhaustedError
from repro.nvm import FaultModel, SimulatedNVM
from repro.writeschemes import default_schemes

BACKENDS = ("single", "threads")


# --------------------------------------------------------------------- #
# store grid                                                            #
# --------------------------------------------------------------------- #

def build_store(args, backend: str):
    config = PNWConfig(
        num_buckets=args.buckets,
        value_bytes=args.value_bytes,
        key_bytes=8,
        n_clusters=4,
        seed=args.seed,
        n_init=1,
        max_iter=25,
        media_fault_rate=args.fault_rate,
        media_fault_budget=args.fault_budget,
        media_retire_watermark=1.0,
        shards=1 if backend == "single" else 3,
    )
    store = make_store(config)
    rng = np.random.default_rng(args.seed)
    store.warm_up(
        rng.integers(0, 256, (args.buckets, args.value_bytes), dtype=np.uint8)
    )
    return store


def drive_store(args, store) -> tuple[dict[bytes, bytes], int, int]:
    """Hostile put/update stream in batches; returns (acked oracle,
    acked op count, op index of the first retirement or -1)."""
    rng = np.random.default_rng(args.seed + 1)
    acked: dict[bytes, bytes] = {}
    ops_acked = 0
    first_retirement = -1
    keys: list[bytes] = []
    for round_no in range(args.rounds):
        fresh = rng.integers(0, 256, (args.batch, args.value_bytes),
                             dtype=np.uint8)
        if round_no % 3 == 2 and len(keys) >= args.batch:
            # every third round rewrites existing keys
            picks = rng.choice(len(keys), size=args.batch, replace=False)
            batch = [(keys[int(i)], fresh[j].tobytes())
                     for j, i in enumerate(picks)]
            submit = store.update_many
        else:
            batch = [(f"r{round_no}-{i}".encode(), fresh[i].tobytes())
                     for i in range(args.batch)]
            submit = store.put_many
        try:
            submit(batch)
        except (DegradedModeError, PoolExhaustedError) as exc:
            for rep in getattr(exc, "committed_reports", []) or []:
                lookup = {k.ljust(len(rep.key), b"\x00"): v for k, v in batch}
                acked[rep.key] = lookup[rep.key]
                ops_acked += 1
            break
        if submit is store.put_many:
            keys.extend(key for key, _ in batch)
        acked.update(batch)
        ops_acked += len(batch)
        if first_retirement < 0 and store.media_stats.rows_retired > 0:
            first_retirement = ops_acked
    return acked, ops_acked, first_retirement


def check_survival(store, acked: dict[bytes, bytes]) -> int:
    unreadable = 0
    for key, value in acked.items():
        try:
            if store.get(key) != value:
                unreadable += 1
        except Exception:
            unreadable += 1
    return unreadable


def store_grid(args, result: ExperimentResult) -> list[str]:
    failures: list[str] = []
    for backend in BACKENDS:
        store = build_store(args, backend)
        try:
            acked, ops_acked, first_retirement = drive_store(args, store)
            unreadable = check_survival(store, acked)
            store.crash()
            store.recover()
            unreadable_after = check_survival(store, acked)
            stats = store.media_stats
            survival = 1.0 - (unreadable + unreadable_after) / max(1, 2 * len(acked))
            result.add_row(
                f"store/{backend}", ops_acked, f"{survival:.1%}",
                stats.verify_failures, stats.relocations, stats.rows_retired,
                first_retirement,
            )
            if unreadable or unreadable_after:
                failures.append(
                    f"store/{backend}: {unreadable} acked ops unreadable "
                    f"(+{unreadable_after} after crash/recover) of {len(acked)}"
                )
        finally:
            store.close()
    return failures


# --------------------------------------------------------------------- #
# scheme grid                                                           #
# --------------------------------------------------------------------- #

def scheme_grid(args, result: ExperimentResult) -> list[str]:
    """Raw device + per-scheme write traffic with bench-level verify:
    write, decode-back, relocate on mismatch, retire the bad row."""
    failures: list[str] = []
    rng_master = np.random.default_rng(args.seed + 2)
    payloads = rng_master.integers(
        0, 256, (args.scheme_writes, args.value_bytes), dtype=np.uint8
    )
    for scheme in default_schemes():
        faults = FaultModel(
            args.buckets, args.value_bytes,
            fault_rate=args.fault_rate, fault_budget=args.fault_budget,
            seed=args.seed,
        )
        nvm = SimulatedNVM(args.buckets, args.value_bytes, faults=faults)
        free = list(range(args.buckets))
        placed: list[tuple[int, np.ndarray]] = []
        retired = verify_failures = 0
        first_retirement = -1
        acked_ops = 0
        for op, payload in enumerate(payloads):
            landed = None
            while free:
                address = free.pop(0)
                nvm.write(address, payload, scheme=scheme)
                if np.array_equal(nvm.read_logical(address, scheme), payload):
                    landed = address
                    break
                verify_failures += 1
                retired += 1  # condemned: never returned to the free list
                if first_retirement < 0:
                    first_retirement = op + 1
            if landed is None:
                break
            placed.append((landed, payload))
            acked_ops += 1
        unreadable = sum(
            1 for address, payload in placed
            if not np.array_equal(nvm.read_logical(address, scheme), payload)
        )
        survival = 1.0 - unreadable / max(1, len(placed))
        result.add_row(
            f"scheme/{scheme.name}", acked_ops, f"{survival:.1%}",
            verify_failures, verify_failures, retired, first_retirement,
        )
        if unreadable:
            failures.append(
                f"scheme/{scheme.name}: {unreadable} verified rows "
                f"unreadable of {len(placed)}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small CI sizes, same 100%-survival gate")
    parser.add_argument("--buckets", type=int, default=None)
    parser.add_argument("--value-bytes", type=int, default=24)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--batch", type=int, default=10)
    parser.add_argument("--scheme-writes", type=int, default=None)
    parser.add_argument("--fault-rate", type=float, default=0.01,
                        help="fraction of data bits with depleted budgets")
    parser.add_argument("--fault-budget", type=int, default=0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.buckets is None:
        args.buckets = 258 if args.smoke else 1026
    if args.rounds is None:
        args.rounds = 12 if args.smoke else 60
    if args.scheme_writes is None:
        args.scheme_writes = 120 if args.smoke else 600

    result = ExperimentResult(
        exp_id="bench-media-survival",
        title="Media wear-out: acknowledged-op survival and retirements",
        columns=["case", "acked_ops", "survival", "verify_failures",
                 "relocations", "rows_retired", "first_retirement_op"],
        params={
            "buckets": args.buckets, "value_bytes": args.value_bytes,
            "fault_rate": args.fault_rate, "fault_budget": args.fault_budget,
            "rounds": args.rounds, "batch": args.batch,
            "scheme_writes": args.scheme_writes, "seed": args.seed,
        },
    )
    failures = store_grid(args, result)
    failures += scheme_grid(args, result)
    result.notes.append(
        "store rows measure the full stack (verify + relocate + retire) "
        "with survival checked before AND after crash/recover; scheme "
        "rows isolate the raw device under each RBW write scheme with "
        "bench-level verify.  The gate is 100% survival everywhere."
    )
    report(result)
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
