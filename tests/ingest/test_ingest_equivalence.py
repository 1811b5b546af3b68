"""Coalesced ingestion equivalence: the IngestQueue must be invisible.

Single ops submitted through :class:`~repro.ingest.IngestQueue` are
coalesced into per-shard ``put_many`` / ``update_many`` / ``delete_many``
batches; these tests pin that the coalesced execution leaves the store
byte-identical — device state, flag bitmap, index, pool order, wear
accounting — to direct hand-batched calls over the same per-shard op
sequences, and that every future resolves to a report matching the
direct call's (modulo the measured ``predict_ns`` timing).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import IngestQueue, PNWConfig, PNWStore, ShardedPNWStore
from repro.errors import KeyNotFoundError, PoolExhaustedError
from tests.conftest import clustered_values


def make_config(shards: int = 1, **overrides) -> PNWConfig:
    base = dict(
        num_buckets=256,
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


def build_store(config: PNWConfig) -> PNWStore | ShardedPNWStore:
    store = (
        PNWStore(config) if config.shards == 1 else ShardedPNWStore(config)
    )
    rng = np.random.default_rng(42)
    store.warm_up(clustered_values(rng, config.num_buckets, config.value_bytes))
    return store


def store_pair(shards: int = 1, **overrides):
    return (
        build_store(make_config(shards, **overrides)),
        build_store(make_config(shards, **overrides)),
    )


def zone_snapshots(store) -> list[np.ndarray]:
    if isinstance(store, ShardedPNWStore):
        return [shard.nvm.snapshot() for shard in store.stores]
    return [store.nvm.snapshot()]


def assert_stores_equal(direct, coalesced) -> None:
    """Byte-identical data zones, flags, indexes, pools, and wear."""
    direct_shards = (
        direct.stores if isinstance(direct, ShardedPNWStore) else [direct]
    )
    coalesced_shards = (
        coalesced.stores
        if isinstance(coalesced, ShardedPNWStore)
        else [coalesced]
    )
    for a, b in zip(direct_shards, coalesced_shards):
        assert np.array_equal(a.nvm.snapshot(), b.nvm.snapshot())
        assert np.array_equal(a.flags_nvm.snapshot(), b.flags_nvm.snapshot())
        assert dict(a.index.items()) == dict(b.index.items())
        assert np.array_equal(
            a.nvm.stats.writes_per_address, b.nvm.stats.writes_per_address
        )
        assert a.pool._free_lists == b.pool._free_lists
        assert len(a) == len(b)


REPORT_FIELDS = (
    "op",
    "key",
    "address",
    "cluster",
    "fallback_used",
    "bit_updates",
    "words_touched",
    "lines_touched",
    "retrained",
)


def assert_reports_match(direct_reports, futures) -> None:
    """Futures resolve to the direct call's reports (timing excluded)."""
    assert len(direct_reports) == len(futures)
    for expected, future in zip(direct_reports, futures):
        actual = future.result(timeout=10)
        for field in REPORT_FIELDS:
            assert getattr(actual, field) == getattr(expected, field), field


def random_ops(rng: np.random.Generator, n: int, value_bytes: int):
    """A mixed op stream: fresh puts, updates/deletes of live keys."""
    ops = []
    live: list[int] = []
    fresh = 0
    values = clustered_values(rng, n, value_bytes, flip_rate=0.05)
    for i in range(n):
        value = values[i].tobytes()
        choice = rng.random()
        if not live or choice < 0.55:
            ops.append(("put", f"k{fresh}".encode(), value))
            live.append(fresh)
            fresh += 1
        elif choice < 0.8:
            victim = live[int(rng.integers(len(live)))]
            ops.append(("update", f"k{victim}".encode(), value))
        else:
            victim = live.pop(int(rng.integers(len(live))))
            ops.append(("delete", f"k{victim}".encode(), None))
    return ops


def submit(queue: IngestQueue, op):
    kind, key, value = op
    if kind == "put":
        return queue.put(key, value)
    if kind == "update":
        return queue.update(key, value)
    return queue.delete(key)


def run_direct(store, ops) -> list:
    """Hand-batched reference: one ``*_many`` per consecutive kind run."""
    reports = []
    i = 0
    while i < len(ops):
        kind = ops[i][0]
        j = i
        while j < len(ops) and ops[j][0] == kind:
            j += 1
        chunk = ops[i:j]
        if kind == "put":
            reports.extend(
                store.put_many([(key, value) for _, key, value in chunk])
            )
        elif kind == "update":
            reports.extend(
                store.update_many([(key, value) for _, key, value in chunk])
            )
        else:
            reports.extend(store.delete_many([key for _, key, _ in chunk]))
        i = j
    return reports


class TestPutEquivalence:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_coalesced_puts_byte_identical(self, shards):
        direct, coalesced = store_pair(shards)
        rng = np.random.default_rng(3)
        values = clustered_values(rng, 150, 24, flip_rate=0.05)
        pairs = [(f"k{i}".encode(), values[i].tobytes()) for i in range(150)]
        direct_reports = direct.put_many(pairs)
        with IngestQueue(coalesced, max_batch=64, max_delay=60.0) as queue:
            futures = [queue.put(key, value) for key, value in pairs]
            queue.flush()
            assert_reports_match(direct_reports, futures)
        assert_stores_equal(direct, coalesced)

    def test_size_trigger_flushes_without_explicit_flush(self):
        direct, coalesced = store_pair()
        pairs = [(f"k{i}".encode(), b"v%d" % i) for i in range(8)]
        direct.put_many(pairs)
        with IngestQueue(coalesced, max_batch=8, max_delay=600.0) as queue:
            futures = [queue.put(key, value) for key, value in pairs]
            for future in futures:
                future.result(timeout=10)  # resolved by the size trigger
        assert_stores_equal(direct, coalesced)

    def test_deadline_trigger_flushes(self):
        direct, coalesced = store_pair()
        direct.put(b"solo", b"value")
        with IngestQueue(
            coalesced, max_batch=4096, max_delay=0.02
        ) as queue:
            future = queue.put(b"solo", b"value")
            report = future.result(timeout=10)
            assert report.op == "put"
        assert_stores_equal(direct, coalesced)


class TestMixedStreamEquivalence:
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_randomized_mixed_ops(self, shards, seed):
        direct, coalesced = store_pair(shards)
        ops = random_ops(np.random.default_rng(seed), 180, 24)
        direct_reports = run_direct(direct, ops)
        with IngestQueue(coalesced, max_batch=4096, max_delay=60.0) as queue:
            futures = [submit(queue, op) for op in ops]
            queue.flush()
            assert_reports_match(direct_reports, futures)
        assert_stores_equal(direct, coalesced)

    def test_mixed_ops_with_mid_stream_retrains(self):
        overrides = dict(load_factor=0.3, retrain_check_interval=16)
        direct, coalesced = store_pair(**overrides)
        ops = random_ops(np.random.default_rng(7), 250, 24)
        direct_reports = run_direct(direct, ops)
        assert direct.metrics.retrains > 1  # policy fired past warm-up
        with IngestQueue(coalesced, max_batch=4096, max_delay=60.0) as queue:
            futures = [submit(queue, op) for op in ops]
            queue.flush()
            assert_reports_match(direct_reports, futures)
        assert_stores_equal(direct, coalesced)


class TestFailureRouting:
    def test_missing_key_fails_only_its_run_suffix(self):
        store = build_store(make_config())
        with IngestQueue(store, max_batch=4096, max_delay=60.0) as queue:
            ok = queue.put(b"a", b"1")
            doomed_prefix = queue.delete(b"a")
            doomed = queue.delete(b"missing")
            also_doomed = queue.delete(b"gone2")
            ok2 = queue.put(b"b", b"2")
            queue.flush()
            assert ok.result(timeout=10).op == "put"
            # The delete run's committed prefix resolves from
            # committed_reports; the miss and everything after it in the
            # run fail with the batch call's exception.
            assert doomed_prefix.result(timeout=10).op == "delete"
            with pytest.raises(KeyNotFoundError):
                doomed.result(timeout=10)
            with pytest.raises(KeyNotFoundError):
                also_doomed.result(timeout=10)
            # A later run on the same shard still executes.
            assert ok2.result(timeout=10).op == "put"
        assert b"b" in store

    def test_pool_exhaustion_resolves_committed_prefix(self):
        config = make_config(num_buckets=8, n_clusters=2, probe_limit=-1)
        store = build_store(config)
        with IngestQueue(store, max_batch=4096, max_delay=60.0) as queue:
            futures = [
                queue.put(f"k{i}".encode(), b"v%d" % i) for i in range(12)
            ]
            queue.flush()
            for future in futures[:8]:
                assert future.result(timeout=10).op == "put"
            for future in futures[8:]:
                with pytest.raises(PoolExhaustedError):
                    future.result(timeout=10)

    def test_submit_after_close_raises(self):
        store = build_store(make_config())
        queue = IngestQueue(store, max_batch=16, max_delay=60.0)
        queue.close()
        with pytest.raises(RuntimeError, match="closed"):
            queue.put(b"k", b"v")

    def test_close_flushes_pending(self):
        direct, coalesced = store_pair()
        direct.put(b"k", b"v")
        queue = IngestQueue(coalesced, max_batch=4096, max_delay=600.0)
        future = queue.put(b"k", b"v")
        queue.close()
        assert future.result(timeout=10).op == "put"
        assert_stores_equal(direct, coalesced)


class TestPausedQueue:
    def test_autostart_false_defers_until_flush(self):
        direct, coalesced = store_pair()
        direct.put(b"k", b"v")
        queue = IngestQueue(coalesced, autostart=False, max_batch=4096)
        future = queue.put(b"k", b"v")
        assert not future.done()
        assert queue.pending_ops == 1
        queue.flush()
        assert future.result(timeout=10).op == "put"
        assert queue.pending_ops == 0
        assert_stores_equal(direct, coalesced)
        queue.close()

    def test_paused_queue_size_trigger_drains_inline(self):
        store = build_store(make_config())
        queue = IngestQueue(store, autostart=False, max_batch=4)
        futures = [queue.put(f"k{i}".encode(), b"v") for i in range(4)]
        # The 4th submission hit max_batch with no flusher: it drained
        # inline so a paused queue still bounds its backlog.
        assert all(future.done() for future in futures)
        queue.close()
