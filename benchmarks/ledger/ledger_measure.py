"""One ledger run: set-up, timed phases, output checks, metrics.

``run_workload`` is the whole measurement for one (workload, seed):

1. inputs from the seed, one untimed smoke-sized warm-up pass;
2. ``setup_s`` — the median of three identical builds (one at
   ``--smoke`` size);
3. the timed phase — equal-op-count segments until ``--seconds`` are up
   (at least the *counted prefix*); every rate is the median over
   segments, every exact counter a delta over the counted prefix, so it
   repeats exactly for a seed however many segments the clock allowed;
4. the workload's own extra phase (open loop), then five rounds of
   verified GETs, a retrain and a ``crash()``+``recover()``, and a
   read-back of every acknowledged key;
5. with ``trace`` on, the counted prefix and the restart phases run
   under :class:`ledger_trace.Tracer` and the per-layer metrics are
   derived from its spans; the segments after the prefix run untraced,
   and the ratio of the two rates is the tracing overhead.

Everything runs in this process; stores and queues are closed in
``finally`` and :class:`LeakGuard` fails the run if a thread, a child
process or a ``resource_tracker`` outlives it.
"""

from __future__ import annotations

import collections
import contextlib
import multiprocessing
import statistics
import threading
import time
from multiprocessing import resource_tracker

import numpy as np

from repro import KeyNotFoundError

from ledger_trace import LayerTimes, Tracer
from ledger_workloads import WORKLOADS, Workload

#: Untraced segments run after a traced prefix (the overhead's base).
MIN_TAIL_SEGMENTS = 4

_perf = time.perf_counter


class LeakGuard:
    """What was alive before the run; :meth:`leaks` names what is new."""

    def __init__(self) -> None:
        self.threads = set(threading.enumerate())
        self.children = set(multiprocessing.active_children())
        self.tracker = resource_tracker._resource_tracker._pid

    def leaks(self) -> list[str]:
        found = [
            f"thread {thread.name}"
            for thread in threading.enumerate()
            if thread not in self.threads
        ]
        found += [
            f"process {child.name}"
            for child in multiprocessing.active_children()
            if child not in self.children
        ]
        if resource_tracker._resource_tracker._pid != self.tracker:
            found.append("multiprocessing.resource_tracker was started")
        return found


# ---------------------------------------------------------------------- #
# counters                                                                #
# ---------------------------------------------------------------------- #

def leaf_stores(store) -> list:
    """The single-zone ``PNWStore``s under a tier and/or shard router."""
    inner = getattr(store, "store", store)
    return list(getattr(inner, "stores", [inner]))


def snapshot(store) -> dict:
    """Public counters of the stack, copied at a quiescent point."""
    wear = store.wear_stats() if hasattr(store, "wear_stats") else store.nvm.stats
    metrics = store.metrics
    snap = {
        "bits": wear.total_bit_updates,
        "lines": wear.total_lines_touched,
        "writes": wear.total_writes,
        "reads": wear.total_reads,
        "per_address": wear.writes_per_address.copy(),
        "flag_words": sum(
            leaf.flags_nvm.stats.total_writes for leaf in leaf_stores(store)
        ),
        "fallbacks": metrics.fallbacks,
        "nvm_puts": metrics.puts,
    }
    tier = getattr(store, "tier_stats", None)
    snap["tier"] = tier.as_dict() if tier is not None else {}
    router = store.router_stats() if hasattr(store, "router_stats") else None
    snap["routed"] = list(router.routed_ops) if router is not None else []
    return snap


def delta(after: dict, before: dict) -> dict:
    out = {}
    for name, value in after.items():
        if isinstance(value, dict):
            out[name] = {k: v - before[name].get(k, 0) for k, v in value.items()}
        elif isinstance(value, list):
            out[name] = [a - b for a, b in zip(value, before[name])]
        else:
            out[name] = value - before[name]
    return out


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def dcw_flips(w: Workload, first: int, last: int) -> int:
    """Cells an unsteered data-comparison-write store would program for
    ops ``[first, last)`` of the workload's stream: a new key takes the
    oldest free bucket, a rewrite lands in place, no tier, no model."""
    bucket = 8 + w.value_bytes
    zone = np.zeros((w.sizes.zone, bucket), dtype=np.uint8)
    old = getattr(w, "old", None)
    if old is not None:
        zone[:, 8:] = old
    free = collections.deque(range(w.sizes.zone))
    where: dict[bytes, int] = {}
    flips = 0
    for position, (kind, key, value) in enumerate(w.oplog[:last]):
        if kind == "delete":
            free.append(where.pop(key))
            continue
        address = where.get(key)
        if address is None:
            address = where[key] = free.popleft()
        row = np.frombuffer(key.ljust(8, b"\x00") + value, dtype=np.uint8)
        if position >= first:
            flips += int(np.unpackbits(zone[address] ^ row).sum())
        zone[address] = row
    return flips


# ---------------------------------------------------------------------- #
# phases                                                                  #
# ---------------------------------------------------------------------- #

def _phase(tracer: Tracer | None, name: str, store):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.phase(
        name, [leaf.flags_nvm for leaf in leaf_stores(store)]
    )


def _timed_segment(w: Workload, index: int, tracer: Tracer | None):
    w.prepare(index)
    root = (tracer.span("bench:segment") if tracer is not None
            else contextlib.nullcontext())
    started = _perf()
    with root:
        ops = w.segment(index)
    return ops, _perf() - started


def _warm_up_pass(name: str, seed: int) -> None:
    """Imports, lazy numpy paths and thread start-up, before any timing."""
    warm = WORKLOADS[name](seed, smoke=True)
    warm.make_inputs()
    try:
        warm.build()
        for index in range(2):
            warm.prepare(index)
            warm.segment(index)
    finally:
        warm.close()


def _read_back(w: Workload, get) -> int:
    """GET every acknowledged live key; recently deleted keys must
    raise.  Returns the number of acknowledged keys lost or wrong."""
    lost = 0
    for key, expected in w.model.items():
        try:
            lost += get(key) != expected
        except KeyNotFoundError:
            lost += 1
    ghosts = 0
    for key in w.deleted:
        try:
            get(key)
        except KeyNotFoundError:
            continue
        ghosts += 1
    w.attempted += len(w.model) + len(w.deleted)
    w.failed += lost + ghosts
    return lost


def run_workload(name: str, seed: int, seconds: float, *,
                 trace: bool = False, smoke: bool = False) -> dict:
    """Measure one workload; see the module docstring."""
    guard = LeakGuard()
    if not smoke:
        _warm_up_pass(name, seed)
    w = WORKLOADS[name](seed, smoke=smoke, log_ops=trace)
    w.make_inputs()
    tracer = Tracer() if trace else None
    setups: list[float] = []
    try:
        for repeat in range(w.sizes.setups):
            if repeat:
                w.close()
            started = _perf()
            w.build()
            setups.append(_perf() - started)
        values, problems = _measure(w, seconds, tracer, setups)
    finally:
        w.close()
    problems += guard.leaks()
    failed = w.failed + len(problems)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": w.attempted,
        "failed": failed,
        "correct": failed == 0,
        "problems": problems,
        "metrics": values,
    }


def _measure(w: Workload, seconds: float, tracer: Tracer | None,
             setups: list[float]):
    sizes, store = w.sizes, w.store
    problems: list[str] = []
    get = w.reader()
    main_seconds = seconds * w.main_share

    # -- timed phase: counted prefix, then segments until time is up ---- #
    log_first = len(w.oplog)
    writes_before = w.payload_writes
    before = snapshot(store)
    started = _perf()
    with _phase(tracer, "main", store):
        prefix = [_timed_segment(w, i, tracer) for i in range(sizes.prefix)]
    counted = delta(snapshot(store), before)
    counted_writes = w.payload_writes - writes_before
    log_last = len(w.oplog)
    min_cluster_free = min(
        min(leaf.pool.cluster_sizes()) for leaf in leaf_stores(store)
    )
    tail = []
    index = sizes.prefix
    while _perf() - started < main_seconds or (
        tracer is not None and len(tail) < MIN_TAIL_SEGMENTS
    ):
        tail.append(_timed_segment(w, index, None))
        index += 1
    stalls = list(w.stalls)

    with _phase(tracer, "open", store):
        extra = w.after_main(seconds - main_seconds)

    # -- conservation checks -------------------------------------------- #
    totals = snapshot(store)
    if w.reports_carry_bits and w.report_bits != totals["bits"]:
        problems.append(
            f"reports carry {w.report_bits} bit updates, the data zone "
            f"counted {totals['bits']}"
        )
    tier = totals["tier"]
    if tier and totals["writes"] != tier["flushed"] + tier["write_through"]:
        problems.append(
            f"data zone wrote {totals['writes']} rows, the tier accounts "
            f"for {tier['flushed'] + tier['write_through']}"
        )
    if len(store) != len(w.model):
        problems.append(f"len(store)={len(store)}, model={len(w.model)}")

    # -- rounds of verified GETs, retrain, crash + recover --------------- #
    # Interleaved, so each metric's samples are spread over the whole
    # tail: a disturbance of a few seconds then hits a minority of the
    # samples of each, not all the samples of one.
    in_situ = bool(stalls)
    get_rates, recovers = [], []
    for _ in range(sizes.restarts):
        slice_started, first = _perf(), len(get_rates)
        while len(get_rates) - first < sizes.get_segments or (
            _perf() - slice_started < sizes.get_seconds
        ):
            keys = w.read_segment(len(get_rates))
            wrong = 0
            began = _perf()
            for key in keys:
                try:
                    wrong += get(key) != w.model[key]
                except KeyNotFoundError:
                    wrong += 1
            get_rates.append(len(keys) / (_perf() - began))
            w.attempted += len(keys)
            w.failed += wrong
        with _phase(tracer, "restart", store):
            if not in_situ:
                # Retraining is off in the timed phase (load_factor=1.0):
                # measure the stall of a forced retrain of the final zone.
                began = _perf()
                store.retrain()
                stalls.append(_perf() - began)
            began = _perf()
            store.crash()
            store.recover()
            recovers.append(_perf() - began)
    lost = _read_back(w, get)
    if lost:
        problems.append(f"{lost} acknowledged keys unreadable after recover")
    if len(store) != len(w.model):
        problems.append(
            f"after recover len(store)={len(store)}, model={len(w.model)}"
        )

    if tracer is None:
        rates = [ops / took for ops, took in prefix + tail]
        per_address = counted["per_address"]
        bucket_bits = 8 * (8 + w.value_bytes)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(rates),
            "get_ops_per_s": statistics.median(get_rates),
            "latency_p50_ms": extra.get(
                "open_p50_ms", float(np.median(w.latencies)) * 1e3
            ),
            "retrain_stall_s": statistics.median(stalls),
            "recover_s": statistics.median(recovers),
            "bit_flips_per_512b": ratio(
                counted["bits"] * 512, counted_writes * bucket_bits
            ),
            "lines_per_write": ratio(counted["lines"], counted_writes),
            "wear_cv": ratio(per_address.std(), per_address.mean()),
        }
    else:
        values = _layer_metrics(
            w, tracer, prefix, tail, counted, counted_writes, extra,
            min_cluster_free, dcw_flips(w, log_first, log_last), lost,
        )
    return values, problems


# ---------------------------------------------------------------------- #
# per-layer metrics                                                       #
# ---------------------------------------------------------------------- #

def _layer_metrics(w, tracer, prefix, tail, counted, counted_writes, extra,
                   min_cluster_free, dcw, lost) -> dict:
    main = LayerTimes(tracer.phases["main"])
    restart = LayerTimes(tracer.phases["restart"])
    every = (main, LayerTimes(tracer.phases["open"]), restart)
    ops = sum(n for n, _ in prefix)
    traced_rate = statistics.median(n / took for n, took in prefix)
    untraced_rate = statistics.median(n / took for n, took in tail)

    def us_per_op(*names: str) -> float:
        return 1e6 * sum(main.self_s[name] for name in names) / ops

    def layer_us_per_op(layer: str) -> float:
        return 1e6 * main.layer_self(layer) / ops

    def calls(name: str) -> int:
        return sum(times.calls[name] for times in every)

    def mean_s(name: str) -> float:
        """Mean duration of ``name`` spans over every traced phase."""
        return ratio(sum(times.total[name] for times in every), calls(name))

    def percentile_us(name: str, q: float) -> float:
        durations = main.durations.get(name)
        return float(np.percentile(durations, q)) * 1e6 if durations else 0.0

    tier = counted["tier"]
    tier_gets = sum(
        tier.get(k, 0) for k in ("cache_hits", "cache_misses", "writeback_hits")
    )
    routed = counted["routed"]
    engine_calls = main.outer_calls["engine:call"]
    waits = tracer.waits.get("open") or tracer.waits.get("main") or [0.0]
    queue = w.queue
    all_self = sum(main.self_s.values())

    return {
        # ingest
        "ingest.submit_us_per_op": us_per_op("ingest:submit"),
        "ingest.dispatch_self_us_per_op": us_per_op("ingest:dispatch"),
        "ingest.runs_per_dispatch": ratio(
            main.calls["store:many"] if queue is not None else 0,
            main.nonempty["ingest:dispatch"],
        ),
        "ingest.ops_per_run": ratio(
            main.items["store:many"], main.calls["store:many"]
        ),
        "ingest.wait_ms_p50": float(np.median(waits)) * 1e3,
        "ingest.open_p95_ms": extra.get("open_p95_ms", 0.0),
        "ingest.open_p99_ms": extra.get("open_p99_ms", 0.0),
        "ingest.generator_late_ms_p99": extra.get("generator_late_ms_p99", 0.0),
        "ingest.rejected": float(queue.ops_rejected) if queue else 0.0,
        "ingest.retried": float(queue.ops_retried) if queue else 0.0,
        # tier
        "tier.self_us_per_op": layer_us_per_op("tier"),
        "tier.cache_hit_rate": ratio(
            tier.get("cache_hits", 0),
            tier.get("cache_hits", 0) + tier.get("cache_misses", 0),
        ),
        "tier.writeback_hit_rate": ratio(tier.get("writeback_hits", 0), tier_gets),
        "tier.get_p50_us": percentile_us("tier:get", 50),
        "tier.get_p99_us": percentile_us("tier:get", 99),
        "tier.coalesce_rate": ratio(
            tier.get("coalesced", 0),
            tier.get("coalesced", 0) + tier.get("staged", 0),
        ),
        "tier.nvm_writes_per_user_write": (
            ratio(counted["writes"], counted_writes) if tier else 0.0
        ),
        "tier.flush_events": float(tier.get("flush_events", 0)),
        "tier.rows_per_flush": ratio(
            tier.get("flushed", 0), tier.get("flush_events", 0)
        ),
        "tier.flush_s_total": (
            main.under[("tier", "store:many")]
            + main.under[("tier", "shard:fanout")]
        ),
        "tier.put_p99_us": percentile_us("tier:put", 99),
        # shard
        "shard.route_us_per_op": us_per_op("shard:route"),
        "shard.self_us_per_op": us_per_op("shard:fanout", "shard:single"),
        "shard.imbalance": ratio(max(routed, default=0),
                                 sum(routed) / len(routed) if routed else 0),
        "shard.overlap": ratio(
            main.under[("shard", "store:many")], main.total["shard:fanout"]
        ),
        # engine
        "engine.calls": float(engine_calls),
        "engine.rows_per_call": ratio(
            main.outer_items["engine:call"], engine_calls
        ),
        "engine.chunks_per_call": ratio(
            main.calls["engine:chunk"], engine_calls
        ),
        "engine.driver_self_us_per_call": 1e6 * ratio(
            main.self_s["engine:call"] + main.self_s["engine:driver"]
            + main.self_s["engine:chunk"],
            engine_calls,
        ),
        "engine.plan_us_per_op": us_per_op("engine:plan"),
        "engine.steer_us_per_op": us_per_op("engine:steer"),
        "engine.commit_self_us_per_op": us_per_op("engine:commit"),
        "engine.account_us_per_op": us_per_op("engine:account"),
        # model
        "model.predict_us_per_op": us_per_op("model:predict"),
        "model.fallback_rate": ratio(counted["fallbacks"], counted["nvm_puts"]),
        "model.trains": float(calls("model:train")),
        "model.train_s_mean": mean_s("model:train"),
        # pool
        "pool.probe_us_per_op": us_per_op("pool:probe"),
        "pool.rebuild_s_mean": mean_s("pool:rebuild"),
        "pool.min_cluster_free": float(min_cluster_free),
        "pool.flip_ratio_vs_dcw": ratio(counted["bits"], dcw),
        "pool.dcw_flips": float(dcw),
        # device
        "nvm.write_us_per_row": 1e6 * ratio(
            main.self_s["nvm:write"], counted["writes"]
        ),
        "nvm.rows_written": float(counted["writes"]),
        "nvm.bits_per_row": ratio(counted["bits"], counted["writes"]),
        "nvm.lines_per_row": ratio(counted["lines"], counted["writes"]),
        "nvm.flag_words_written": float(counted["flag_words"]),
        "nvm.reads": float(counted["reads"]),
        "nvm.wear_max_over_mean": ratio(
            counted["per_address"].max(), counted["per_address"].mean()
        ),
        # index, store, the benchmark's own loop
        "index.us_per_op": layer_us_per_op("index"),
        "store.self_us_per_op": layer_us_per_op("store"),
        "store.retrain_s_mean": mean_s("store:retrain"),
        "store.recover_scan_s": ratio(
            restart.self_s["store:recover"], restart.calls["store:recover"]
        ),
        "bench.self_us_per_op": layer_us_per_op("bench"),
        # the trace itself, and the output checks
        "trace.overhead": 1.0 - ratio(traced_rate, untraced_rate),
        "trace.self_sum_over_wall": ratio(all_self * untraced_rate, ops),
        "trace.spans": float(len(tracer.phases["main"])),
        "check.fail_share": ratio(w.failed, w.attempted),
        "check.lost_acked_ops": float(lost),
    }
