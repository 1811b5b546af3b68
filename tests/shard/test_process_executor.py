"""Process-executor shards: byte-identity, worker crashes, quiescing.

``executor="process"`` runs each shard's engine in a long-lived worker
process over a shared-memory zone (:mod:`repro.shard.procpool`).  These
tests pin the three contracts that make the executor a drop-in:

* **Byte identity** — the same op stream leaves a process-mode store
  byte-identical (data zones, flag bitmaps, indexes, wear counters,
  reports) to a thread-mode store.
* **Worker-crash survival** — ``kill -9`` on a worker loses only its
  unflagged in-flight sub-batch; the client respawns the worker over the
  surviving shared zone and the ordinary recovery path rebuilds it.
* **Deterministic lifecycle** — ``crash()`` / ``recover()`` / ``close()``
  quiesce in-flight batch traffic (all shard locks, ascending) before
  acting, in either executor mode.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import IngestQueue, PNWConfig, ShardedPNWStore
from repro.errors import ConfigError, ReproError, WorkerCrashedError
from repro.shard import ShardProcessClient, make_store
from tests.conftest import clustered_values


def make_config(num_buckets: int = 130, shards: int = 3, **overrides) -> PNWConfig:
    base = dict(
        num_buckets=num_buckets,
        value_bytes=24,
        key_bytes=8,
        n_clusters=4,
        seed=7,
        n_init=1,
        max_iter=20,
        shards=shards,
    )
    base.update(overrides)
    return PNWConfig(**base)


def warmed(config: PNWConfig, executor: str) -> ShardedPNWStore:
    store = ShardedPNWStore(dataclasses.replace(config, executor=executor))
    rng = np.random.default_rng(42)
    store.warm_up(clustered_values(rng, config.num_buckets, config.value_bytes))
    return store


def batch_of(rng: np.random.Generator, n: int,
             prefix: str = "k") -> list[tuple[bytes, bytes]]:
    values = clustered_values(rng, n, 24, flip_rate=0.05)
    return [(f"{prefix}{i}".encode(), values[i].tobytes()) for i in range(n)]


def strip_timing(report):
    """Reports are deterministic except the measured model wall clock."""
    return dataclasses.replace(report, predict_ns=0.0)


def assert_stores_identical(a: ShardedPNWStore, b: ShardedPNWStore) -> None:
    """Byte-identity across executors, shard by shard."""
    for sa, sb in zip(a.stores, b.stores):
        assert np.array_equal(sa.nvm.snapshot(), sb.nvm.snapshot())
        assert np.array_equal(sa.flags_nvm.snapshot(), sb.flags_nvm.snapshot())
        assert dict(sa.index.items()) == dict(sb.index.items())
        assert sa.nvm.stats.summary() == sb.nvm.stats.summary()
        assert sa.pool.total_free == sb.pool.total_free
    assert len(a) == len(b)


def drive_stream(store: ShardedPNWStore) -> list:
    """A deterministic mixed op stream; returns every report produced."""
    pairs = batch_of(np.random.default_rng(11), 60)
    reports = list(store.put_many(pairs))
    fresh = clustered_values(np.random.default_rng(12), 25, 24, flip_rate=0.4)
    reports += store.update_many(
        [(pairs[i][0], fresh[i].tobytes()) for i in range(25)]
    )
    reports += store.delete_many([key for key, _ in pairs[40:55]])
    singles = batch_of(np.random.default_rng(13), 8, prefix="s")
    for key, value in singles:
        reports.append(store.put(key, value))
    reports.append(store.update(singles[0][0], singles[1][1]))
    reports.append(store.delete(singles[-1][0]))
    return reports


def no_worker_children() -> bool:
    return not [child for child in multiprocessing.active_children()
                if child.name.startswith("pnw-shard")]


def wait_for(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("timed out waiting for condition")
        time.sleep(0.01)


class TestConfigRouting:
    def test_config_knob_selects_process_clients(self):
        store = make_store(make_config(executor="process"))
        try:
            assert store.executor_kind == "process"
            assert all(isinstance(s, ShardProcessClient) for s in store.stores)
        finally:
            store.close()

    def test_thread_is_the_default(self):
        store = make_store(make_config())
        assert store.executor_kind == "thread"
        assert not any(isinstance(s, ShardProcessClient) for s in store.stores)
        store.close()

    def test_invalid_executor_rejected(self):
        with pytest.raises(ConfigError, match="executor"):
            PNWConfig(num_buckets=64, value_bytes=8, executor="fiber")
        with pytest.raises(ConfigError, match="thread"):
            make_config(executor="fiber")


class TestByteIdentity:
    def test_mixed_stream_matches_thread_mode(self):
        config = make_config()
        thread_store = warmed(config, "thread")
        process_store = warmed(config, "process")
        try:
            thread_reports = drive_stream(thread_store)
            process_reports = drive_stream(process_store)
            assert ([strip_timing(r) for r in process_reports]
                    == [strip_timing(r) for r in thread_reports])
            assert_stores_identical(thread_store, process_store)
            assert (thread_store.wear_summary()
                    == process_store.wear_summary())
            tm, pm = thread_store.metrics, process_store.metrics
            assert (tm.puts, tm.updates, tm.deletes, tm.fallbacks) == \
                   (pm.puts, pm.updates, pm.deletes, pm.fallbacks)
        finally:
            thread_store.close()
            process_store.close()

    def test_run_shard_batches_matches_thread_mode(self):
        config = make_config()
        thread_store = warmed(config, "thread")
        process_store = warmed(config, "process")
        try:
            pairs = batch_of(np.random.default_rng(21), 40)
            for store in (thread_store, process_store):
                store.put_many(pairs[:20])
            batches = {}
            for store in (thread_store, process_store):
                routed: dict[int, list] = {}
                for key, value in pairs[20:]:
                    sid = store.shard_of_key(key)
                    routed.setdefault(sid, [("put", [])])[0][1].append(
                        (key, value)
                    )
                for sid in list(routed):
                    routed[sid].append(
                        ("delete", [key for key, _ in pairs[:5]
                                    if store.shard_of_key(key) == sid])
                    )
                batches[id(store)] = {
                    sid: [run for run in runs if run[1]]
                    for sid, runs in routed.items()
                }
            t_out = thread_store.run_shard_batches(batches[id(thread_store)])
            p_out = process_store.run_shard_batches(batches[id(process_store)])
            assert t_out.keys() == p_out.keys()
            for sid in t_out:
                for (tr, te), (pr, pe) in zip(t_out[sid], p_out[sid]):
                    assert te is None and pe is None
                    assert ([strip_timing(r) for r in pr]
                            == [strip_timing(r) for r in tr])
            assert_stores_identical(thread_store, process_store)
        finally:
            thread_store.close()
            process_store.close()

    def test_crash_recover_matches_thread_mode(self):
        config = make_config()
        thread_store = warmed(config, "thread")
        process_store = warmed(config, "process")
        try:
            pairs = batch_of(np.random.default_rng(31), 50)
            for store in (thread_store, process_store):
                store.put_many(pairs)
                store.delete_many([key for key, _ in pairs[35:]])
                store.crash()
                assert len(store) == 0
                store.recover()
                assert len(store) == 35
            assert_stores_identical(thread_store, process_store)
            for key, value in pairs[:35]:
                assert process_store.get(key) == value
        finally:
            thread_store.close()
            process_store.close()

    def test_ingest_queue_drains_through_process_store(self):
        config = make_config()
        thread_store = warmed(config, "thread")
        process_store = warmed(config, "process")
        try:
            pairs = batch_of(np.random.default_rng(41), 48)
            for store in (thread_store, process_store):
                queue = IngestQueue(store, max_batch=16, max_delay=0.002)
                futures = [queue.put(k, v) for k, v in pairs]
                futures += [queue.delete(k) for k, _ in pairs[:10]]
                queue.close()
                for future in futures:
                    assert future.result(timeout=5) is not None
            assert_stores_identical(thread_store, process_store)
        finally:
            thread_store.close()
            process_store.close()


class TestWorkerCrash:
    def test_idle_worker_kill_heals_transparently(self):
        store = warmed(make_config(), "process")
        try:
            pairs = batch_of(np.random.default_rng(51), 40)
            store.put_many(pairs)
            victim = store.stores[1]
            os.kill(victim.pid, signal.SIGKILL)
            wait_for(lambda: not victim.is_alive())
            # Nothing was in flight: the next request revives the worker
            # from the shared zone and every flagged op is still there.
            for key, value in pairs:
                assert store.get(key) == value
            assert len(store) == 40
            store.put_many(batch_of(np.random.default_rng(52), 10, "post"))
            assert len(store) == 50
        finally:
            store.close()

    def test_midbatch_kill_loses_only_unflagged_subbatch(self):
        store = warmed(make_config(), "process")
        try:
            prior = batch_of(np.random.default_rng(61), 30, "prior")
            store.put_many(prior)
            pairs = batch_of(np.random.default_rng(62), 36)
            by_shard: dict[int, list] = {}
            for key, value in pairs:
                by_shard.setdefault(store.shard_of_key(key), []).append(
                    (key, value)
                )
            torn_sid = max(by_shard, key=lambda sid: len(by_shard[sid]))
            assert len(by_shard[torn_sid]) >= 2
            old_pid = store.stores[torn_sid].pid
            store.stores[torn_sid].sabotage_next_flush(
                len(by_shard[torn_sid]) // 2
            )
            with pytest.raises(WorkerCrashedError):
                store.put_many(pairs)
            # The worker was respawned over the surviving zone...
            assert store.stores[torn_sid].is_alive()
            assert store.stores[torn_sid].pid != old_pid
            # ...prior (flagged) data survived everywhere...
            for key, value in prior:
                assert store.get(key) == value
            # ...sibling shards committed their whole sub-batches, and the
            # torn shard lost exactly its unflagged sub-batch (flags are
            # set after write_many, so the partial flush died unflagged).
            for sid, sub in by_shard.items():
                for key, value in sub:
                    if sid == torn_sid:
                        assert key not in store
                    else:
                        assert store.get(key) == value
            # The error is retry-safe: replaying the lost sub-batch lands.
            store.put_many(by_shard[torn_sid])
            for key, value in pairs:
                assert store.get(key) == value
        finally:
            store.close()

    def test_kill_without_persistent_flags_restarts_empty(self):
        # Fig. 2a architecture: no persistent bitmap, so a dead worker has
        # nothing to recover from — same trade-off as the single store.
        store = warmed(make_config(persist_flags=False), "process")
        try:
            pairs = batch_of(np.random.default_rng(71), 20)
            store.put_many(pairs)
            victim_sid = store.shard_of_key(pairs[0][0])
            victim = store.stores[victim_sid]
            os.kill(victim.pid, signal.SIGKILL)
            wait_for(lambda: not victim.is_alive())
            assert pairs[0][0] not in store
        finally:
            store.close()


class TestProcessLifecycle:
    def test_close_is_idempotent_and_leak_free(self):
        store = warmed(make_config(), "process")
        store.put_many(batch_of(np.random.default_rng(81), 20))
        store.close()
        store.close()
        assert no_worker_children()
        with pytest.raises(ReproError, match="shut down"):
            store.put(b"late", b"\x00" * 24)

    def test_aggregation_readable_after_close(self):
        # shutdown() detaches the parent facades to private copies, so
        # post-close wear/state reads (how benches report) still work.
        store = warmed(make_config(), "process")
        store.put_many(batch_of(np.random.default_rng(82), 20))
        wear = store.wear_summary()
        snaps = [shard.nvm.snapshot() for shard in store.stores]
        store.close()
        assert store.wear_summary() == wear
        for shard, snap in zip(store.stores, snaps):
            assert np.array_equal(shard.nvm.snapshot(), snap)

    def test_set_keep_reports_round_trips(self):
        store = warmed(make_config(), "process")
        try:
            store.set_keep_reports(True)
            pairs = batch_of(np.random.default_rng(83), 12)
            reports = store.put_many(pairs)
            kept = store.metrics.reports
            # Kept reports concatenate shard by shard, not in input order.
            assert (sorted((strip_timing(r) for r in kept),
                           key=lambda r: r.key)
                    == sorted((strip_timing(r) for r in reports),
                              key=lambda r: r.key))
            store.set_keep_reports(False)
        finally:
            store.close()


@pytest.mark.parametrize("executor", ["thread", "process"])
class TestMergeAfterRecover:
    def test_no_double_count_across_crash_recover(self, executor):
        # Merged wear and op counters must count each op exactly once,
        # even after every shard is torn down and rebuilt from NVM state:
        # recovery re-reads the zones but never re-records their writes.
        store = warmed(make_config(), executor)
        try:
            pairs = batch_of(np.random.default_rng(91), 40)
            store.put_many(pairs)
            store.delete_many([key for key, _ in pairs[30:]])
            wear_before = store.wear_summary()
            metrics_before = store.metrics
            store.crash()
            store.recover()
            wear_after = store.wear_summary()
            assert wear_after["writes"] == wear_before["writes"]
            assert wear_after["bit_updates"] == wear_before["bit_updates"]
            metrics_after = store.metrics
            assert metrics_after.puts == metrics_before.puts
            assert metrics_after.deletes == metrics_before.deletes
        finally:
            store.close()


@pytest.mark.parametrize("executor", ["thread", "process"])
class TestLifecycleQuiesce:
    """Satellite: lifecycle calls wait out in-flight batch traffic."""

    def test_crash_waits_for_inflight_batch(self, executor):
        config = make_config()
        store = warmed(config, executor)
        try:
            pairs = batch_of(np.random.default_rng(101), 24)
            busy_sid = store.shard_of_key(pairs[0][0])
            started = threading.Event()
            release = threading.Event()

            # Stall the shard by holding its lock, exactly as an in-flight
            # K/V sub-batch does (works identically for both executors).
            def inflight():
                with store._shard_locks[busy_sid]:
                    started.set()
                    assert release.wait(timeout=10)

            worker = threading.Thread(target=inflight)
            worker.start()
            assert started.wait(timeout=5)
            crash_done = threading.Event()

            def crasher():
                store.crash()
                crash_done.set()

            crash_thread = threading.Thread(target=crasher)
            crash_thread.start()
            time.sleep(0.05)
            # crash() is quiesced: it cannot land while shard traffic is
            # in flight.
            assert not crash_done.is_set()
            release.set()
            worker.join(timeout=5)
            crash_thread.join(timeout=5)
            assert crash_done.is_set()
            store.recover()
            store.put_many(pairs)
            assert len(store) == len(pairs)
        finally:
            store.close()

    def test_close_drains_queued_batches_first(self, executor):
        store = warmed(make_config(), executor)
        pairs = batch_of(np.random.default_rng(102), 30)
        results: list = []

        def producer():
            results.append(store.put_many(pairs))

        producer_thread = threading.Thread(target=producer)
        producer_thread.start()
        producer_thread.join(timeout=10)
        store.close()
        assert len(results) == 1 and len(results[0]) == len(pairs)
        if executor == "process":
            assert no_worker_children()
