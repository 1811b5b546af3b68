"""TieredStore semantics: modes, equivalence, errors, composition.

The equivalence tests run against both store backends (single zone,
sharded threads) because the tier promises the same logical contents
no matter what it wraps.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import IngestQueue, PNWConfig, TieredStore, make_store
from repro.errors import ConfigError, DuplicateKeyError, KeyNotFoundError
from repro.shard import ShardedPNWStore
from repro.workloads import ZipfianKVWorkload
from tests.conftest import clustered_values

BACKENDS = ["single", "threads"]


def make_config(**overrides) -> PNWConfig:
    base = dict(
        num_buckets=192,
        value_bytes=24,
        key_bytes=8,
        n_clusters=4,
        seed=7,
        n_init=1,
        max_iter=20,
        tier_mode="write_back",
        tier_cache_entries=32,
        tier_writeback_entries=24,
        tier_flush_ops=512,
    )
    base.update(overrides)
    return PNWConfig(**base)


def make_tiered(backend: str, **overrides) -> TieredStore:
    if backend == "single":
        config = make_config(**overrides)
    else:
        config = make_config(shards=3, **overrides)
    store = make_store(config)
    assert isinstance(store, TieredStore)
    return store


def warmed(backend: str, **overrides) -> TieredStore:
    store = make_tiered(backend, **overrides)
    rng = np.random.default_rng(42)
    store.warm_up(
        clustered_values(rng, store.config.num_buckets, store.config.value_bytes)
    )
    return store


def drive_zipfian(store, n_ops: int, seed: int = 3) -> dict[bytes, bytes]:
    workload = ZipfianKVWorkload(seed=seed, n_keys=48)
    oracle: dict[bytes, bytes] = {}
    for chunk in workload.batches(n_ops, 16):
        pairs = workload.pairs(chunk)
        store.put_many(pairs)
        oracle.update(pairs)
    return oracle


@pytest.mark.parametrize("backend", BACKENDS)
class TestEquivalenceAcrossBackends:
    def test_write_back_round_trips_and_drains(self, backend):
        store = warmed(backend)
        try:
            oracle = drive_zipfian(store, 200)
            # Read-your-write while entries are still dirty...
            for key, value in list(oracle.items())[:10]:
                assert store.get(key) == value.ljust(24, b"\x00")
            assert len(store) == len(oracle)
            store.flush()
            assert store.dirty_entries == 0
            # ...and after the drain, now from the durable store.
            for key, value in oracle.items():
                assert store.get(key) == value.ljust(24, b"\x00")
                assert key in store
            assert len(store.store) == len(oracle)
        finally:
            store.close()

    def test_coalescing_saves_nvm_writes(self, backend):
        store = warmed(backend)
        try:
            drive_zipfian(store, 200)
            store.flush()
            stats = store.tier_stats
            assert stats.coalesced > 0
            # NVM saw strictly fewer bucket writes than ops issued.
            assert stats.flushed + stats.write_through < 200
            assert stats.flushed == stats.staged  # all drained
        finally:
            store.close()

    def test_close_flushes_everything(self, backend):
        store = warmed(backend)
        store.put(b"durable", b"payload")
        assert store.dirty_entries == 1
        store.close()
        assert store.dirty_entries == 0
        assert store.tier_stats.flushed == 1


class TestModes:
    def test_write_through_state_is_byte_identical(self):
        bare = make_store(make_config(tier_mode="off"))
        tiered = warmed("single", tier_mode="write_through")
        rng = np.random.default_rng(42)
        bare.warm_up(clustered_values(rng, 192, 24))
        oracle_bare = drive_zipfian(bare, 150)
        oracle_tier = drive_zipfian(tiered, 150)
        assert oracle_bare == oracle_tier
        assert np.array_equal(
            bare.nvm.snapshot(), tiered.store.nvm.snapshot()
        )
        assert tiered.dirty_entries == 0
        assert tiered.tier_stats.staged == 0

    def test_write_through_reports_match_bare_store(self):
        bare = make_store(make_config(tier_mode="off"))
        tiered = warmed("single", tier_mode="write_through")
        rng = np.random.default_rng(42)
        bare.warm_up(clustered_values(rng, 192, 24))
        bare_reports = bare.put_many([(b"a", b"1"), (b"b", b"2")])
        tier_reports = tiered.put_many([(b"a", b"1"), (b"b", b"2")])
        # predict_ns is measured wall time; everything else must match.
        assert [
            dataclasses.replace(r, predict_ns=0.0) for r in tier_reports
        ] == [dataclasses.replace(r, predict_ns=0.0) for r in bare_reports]
        assert not any(r.buffered for r in tier_reports)

    def test_write_back_reports_are_buffered_sentinels(self):
        store = warmed("single")
        try:
            report = store.put(b"k", b"v")
            assert report.buffered
            assert report.bit_updates == 0
            assert report.op == "put"
            assert report.key == b"k".ljust(8, b"\x00")
        finally:
            store.close()

    def test_write_back_passes_only_durable_deletes_through(self):
        store = warmed("single")
        try:
            deletes = store.metrics.deletes
            store.put_many([(b"a", b"1"), (b"b", b"2")])
            store.update(b"a", b"1'")
            store.delete(b"b")  # staged create: cancelled in DRAM
            assert store.tier_stats.write_through == 0
            assert store.flush() == 1
            store.delete(b"a")  # durable key: deleted through
            assert store.tier_stats.write_through == 1
            assert store.metrics.deletes == deletes + 1
        finally:
            store.close()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError, match="tier_mode"):
            make_config(tier_mode="sideways")
        # A config with the tier off still wraps as write-back.
        assert TieredStore(make_store(make_config(tier_mode="off"))).mode == (
            "write_back"
        )


class TestErrorSemantics:
    def test_update_missing_key_raises_with_prefix(self):
        store = warmed("single")
        try:
            store.put(b"have", b"v")
            with pytest.raises(KeyNotFoundError, match="not found") as info:
                store.update_many([(b"have", b"v2"), (b"nope", b"x")])
            committed = info.value.committed_reports
            assert len(committed) == 1
            assert committed[0].key == b"have".ljust(8, b"\x00")
            # The prefix applied: the rewrite coalesced into the entry.
            assert store.get(b"have") == b"v2".ljust(24, b"\x00")
        finally:
            store.close()

    def test_update_of_staged_create_succeeds(self):
        store = warmed("single")
        try:
            store.put(b"fresh", b"v1")  # staged create, not yet durable
            report = store.update(b"fresh", b"v2")
            assert report.buffered
            assert store.get(b"fresh") == b"v2".ljust(24, b"\x00")
        finally:
            store.close()

    def test_put_unique_sees_staged_creates(self):
        store = warmed("single")
        try:
            store.put(b"dup", b"v")
            assert store.dirty_entries == 1  # never flushed
            with pytest.raises(DuplicateKeyError, match="already exists"):
                store.put_unique(b"dup", b"v2")
        finally:
            store.close()

    def test_delete_of_staged_create_never_touches_store(self):
        store = warmed("single")
        try:
            before = store.metrics.deletes
            store.put(b"ghost", b"v")
            report = store.delete(b"ghost")
            assert report.buffered
            assert b"ghost" not in store
            assert b"ghost".ljust(8, b"\x00") not in store.store
            assert store.metrics.deletes == before  # absorbed in DRAM
            with pytest.raises(KeyNotFoundError):
                store.get(b"ghost")
        finally:
            store.close()

    @pytest.mark.parametrize(
        "rewrites",
        [
            [(b"k", b"v2")],
            # The same durable key twice in one batch: the second write
            # coalesces into the staged update, which must stay an
            # update (is_create=False) or the DELETE would cancel only
            # the DRAM entry and resurrect the durable value.
            [(b"k", b"v2"), (b"k", b"v3")],
        ],
        ids=["one_put", "duplicate_in_one_batch"],
    )
    def test_delete_of_staged_update_reaches_store(self, rewrites):
        store = warmed("single")
        try:
            store.put(b"k", b"v1")
            store.flush()  # durable now
            reports = store.put_many(rewrites)  # staged update
            assert all(report.buffered for report in reports)
            assert store.dirty_entries == 1
            assert len(store) == len(store.store)  # no phantom create
            assert store.get(b"k") == rewrites[-1][1].ljust(24, b"\x00")
            report = store.delete(b"k")
            assert not report.buffered  # the durable version was deleted
            assert b"k" not in store
            assert b"k".ljust(8, b"\x00") not in store.store
            assert len(store) == len(store.store)
            with pytest.raises(KeyNotFoundError):
                store.get(b"k")
        finally:
            store.close()

    def test_delete_missing_key_raises(self):
        store = warmed("single")
        try:
            with pytest.raises(KeyNotFoundError, match="not found"):
                store.delete(b"never")
        finally:
            store.close()

    def test_mid_batch_flush_failure_reports_applied_prefix(self):
        # A flush trigger firing mid-batch must not swallow the reports
        # of ops already applied in this call: committed_reports keeps
        # the call's partial-commit contract, flush_committed_reports
        # carries the store-level flush view.
        store = warmed("single", tier_writeback_entries=4)
        original = store.store.put_many
        try:

            def boom(batch):
                raise RuntimeError("pool exhausted")

            store.store.put_many = boom
            with pytest.raises(RuntimeError, match="pool exhausted") as info:
                store.put_many([(b"k%d" % i, b"v") for i in range(5)])
            committed = info.value.committed_reports
            assert len(committed) == 4  # the staged prefix of this call
            assert all(report.buffered for report in committed)
            assert store.dirty_entries == 4  # failed flush restaged all
        finally:
            store.store.put_many = original
            store.close()

    def test_oversized_value_rejected_before_any_mutation(self):
        store = warmed("single")
        try:
            with pytest.raises(ValueError, match="exceeds bucket size"):
                store.put_many([(b"ok", b"v"), (b"big", b"x" * 25)])
            assert store.dirty_entries == 0
            assert b"ok" not in store
        finally:
            store.close()


class TestFlushTriggers:
    def test_size_trigger_fires_at_buffer_capacity(self):
        store = warmed("single", tier_writeback_entries=8)
        try:
            for i in range(7):
                store.put(f"k{i}".encode(), b"v")
            assert store.tier_stats.flush_events == 0
            store.put(b"k7", b"v")  # 8th distinct dirty key
            assert store.tier_stats.flush_events >= 1
            assert store.dirty_entries == 0
        finally:
            store.close()

    def test_interval_trigger_flushes_aged_entries(self):
        store = warmed("single", tier_writeback_entries=64,
                       tier_flush_ops=10)
        try:
            store.put(b"old", b"v")
            # Age it with rewrites of other keys.
            for i in range(12):
                store.put(f"other{i % 3}".encode(), b"v")
            assert b"old".ljust(8, b"\x00") in store.store
        finally:
            store.close()

    def test_flush_returns_entry_count(self):
        store = warmed("single", tier_writeback_entries=64)
        try:
            store.put(b"a", b"1")
            store.put(b"b", b"2")
            assert store.flush() == 2
            assert store.flush() == 0
        finally:
            store.close()


class TestReadCache:
    def test_repeat_gets_hit_dram(self):
        store = warmed("single")
        try:
            store.put(b"k", b"v")
            store.flush()
            store.get(b"k")  # miss -> fill
            store.get(b"k")  # hit
            stats = store.tier_stats
            assert stats.cache_hits == 1
            assert stats.cache_misses == 1
        finally:
            store.close()

    def test_mutation_invalidates_cached_value(self):
        store = warmed("single")
        try:
            store.put(b"k", b"v1")
            store.flush()
            store.get(b"k")
            store.put(b"k", b"v2")
            assert store.get(b"k") == b"v2".ljust(24, b"\x00")
        finally:
            store.close()


@pytest.mark.parametrize("backend", BACKENDS)
class TestIngestComposition:
    def test_queue_drains_through_the_tier(self, backend):
        store = warmed(backend)
        assert store.n_shards == (1 if backend == "single" else 3)
        with IngestQueue(store, max_batch=16, max_delay=60.0) as queue:
            futures = [
                queue.put(f"q{i}".encode(), f"v{i}".encode())
                for i in range(40)
            ]
            queue.flush()
            reports = [f.result() for f in futures]
            assert all(r.op == "put" for r in reports)
            # Read-your-write through the queue's GET path sees staged
            # values without any tier flush.
            assert queue.get(b"q0") == b"v0".ljust(24, b"\x00")
        store.flush()
        assert len(store.store) >= 40  # drained before shutdown
        store.close()
