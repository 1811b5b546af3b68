"""ShardedPNWStore: routing, batch API, aggregation, and the
shard-by-shard equivalence to manually driven single stores."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import PNWConfig, PNWStore
from repro.errors import (
    ConfigError,
    DuplicateKeyError,
    KeyNotFoundError,
    PoolExhaustedError,
)
from repro.shard import ShardedPNWStore, make_store, shard_configs, shard_of
from tests.conftest import clustered_values


def make_config(num_buckets: int = 192, shards: int = 3, **overrides) -> PNWConfig:
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


def warmed(config: PNWConfig) -> ShardedPNWStore:
    store = ShardedPNWStore(config)
    rng = np.random.default_rng(42)
    store.warm_up(clustered_values(rng, config.num_buckets, config.value_bytes))
    return store


def batch_of(rng: np.random.Generator, n: int, width: int = 24,
             prefix: str = "k") -> list[tuple[bytes, bytes]]:
    values = clustered_values(rng, n, width, flip_rate=0.05)
    return [(f"{prefix}{i}".encode(), values[i].tobytes()) for i in range(n)]


def routed(store: ShardedPNWStore, items, key_of=lambda item: item[0]):
    """Per-shard sub-sequences in original order (what each shard runs)."""
    groups = [[] for _ in range(store.n_shards)]
    for item in items:
        groups[store.shard_of_key(key_of(item))].append(item)
    return groups


class TestShardConfigs:
    def test_sizes_split_with_remainder_up_front(self):
        configs = shard_configs(make_config(num_buckets=130, shards=3))
        assert [c.num_buckets for c in configs] == [44, 43, 43]
        assert all(c.shards == 1 for c in configs)

    def test_seeds_are_offset_per_shard(self):
        configs = shard_configs(make_config(shards=3))
        assert [c.seed for c in configs] == [7, 8, 9]
        configs = shard_configs(make_config(shards=2, seed=None))
        assert [c.seed for c in configs] == [None, None]

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ConfigError, match=">= 1"):
            make_config(shards=0)
        with pytest.raises(ConfigError, match="exceeds num_buckets"):
            make_config(num_buckets=4, shards=5)
        with pytest.raises(ConfigError, match="exceeds num_buckets"):
            make_config(num_buckets=4, shards=8)

    def test_shards_are_in_process_leaf_stores(self):
        config = make_config()
        assert config.executor == "thread"
        store = ShardedPNWStore(config)
        assert [type(shard) for shard in store.stores] == [PNWStore] * 3
        assert [shard.config for shard in store.stores] == shard_configs(config)
        store.close()

    def test_factory_dispatches_on_config(self):
        assert isinstance(make_store(make_config(shards=1)), PNWStore)
        sharded = make_store(make_config(shards=3))
        assert isinstance(sharded, ShardedPNWStore)
        assert sharded.n_shards == 3
        sharded.close()


class TestWarmUp:
    def test_partial_warm_up_trains_every_shard(self):
        """Rows are dealt as contiguous zone slices, so a partial
        warm-up leaves tail shards with empty slices — they must still
        train (on their zeroed zones), like a single store warmed with
        fewer rows than buckets."""
        config = make_config(num_buckets=64, shards=4)
        store = ShardedPNWStore(config)
        rng = np.random.default_rng(8)
        store.warm_up(clustered_values(rng, 20, config.value_bytes))
        assert all(shard.manager.is_trained for shard in store.stores)
        report = store.put(b"steered", b"v" * 24)
        assert report.predict_ns >= 0.0
        assert store.get(b"steered") == b"v" * 24
        store.close()

    def test_oversized_warm_up_rejected(self):
        store = ShardedPNWStore(make_config(num_buckets=32, shards=2))
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="exceed"):
            store.warm_up(clustered_values(rng, 33, 24))
        store.close()


class TestRouting:
    def test_routing_is_stable_and_normalized(self):
        store = ShardedPNWStore(make_config())
        for key in (b"alpha", b"beta", b"x"):
            sid = store.shard_of_key(key)
            assert sid == store.shard_of_key(key)
            # Routing sees the index's normalized (zero-padded) key.
            assert sid == store.shard_of_key(key.ljust(8, b"\x00"))
            assert sid == shard_of(key, store.n_shards, 8)
        store.close()

    def test_all_shards_receive_keys(self):
        store = ShardedPNWStore(make_config(shards=4, num_buckets=200))
        shards_hit = {store.shard_of_key(f"key-{i}".encode()) for i in range(200)}
        assert shards_hit == set(range(4))
        store.close()


class TestShardedOps:
    def test_single_op_roundtrip(self):
        store = warmed(make_config())
        report = store.put(b"alpha", b"v" * 24)
        sid = store.shard_of_key(b"alpha")
        base = int(store.shard_bases[sid])
        assert base <= report.address < base + store.stores[sid].config.num_buckets
        assert b"alpha" in store
        assert store.get(b"alpha") == b"v" * 24
        store.update(b"alpha", b"w" * 24)
        assert store.get(b"alpha") == b"w" * 24
        report = store.delete(b"alpha")
        assert b"alpha" not in store
        assert len(store) == 0
        store.close()

    def test_batch_reports_in_input_order_with_global_addresses(self):
        store = warmed(make_config())
        pairs = batch_of(np.random.default_rng(1), 60)
        reports = store.put_many(pairs)
        assert [r.key.rstrip(b"\x00") for r in reports] == [k for k, _ in pairs]
        for report in reports:
            sid = store.shard_of_key(report.key)
            base = int(store.shard_bases[sid])
            size = store.stores[sid].config.num_buckets
            assert base <= report.address < base + size
        assert len(store) == 60
        store.close()

    def test_put_many_routes_existing_keys_through_update(self):
        store = warmed(make_config())
        pairs = batch_of(np.random.default_rng(2), 30)
        store.put_many(pairs)
        replacement = [(key, bytes(24)) for key, _ in pairs[:10]]
        store.put_many(replacement)
        assert len(store) == 30
        for key, value in replacement:
            assert store.get(key) == value
        assert store.metrics.updates == 10
        store.close()

    def test_put_many_unique_rejects_without_mutating_any_shard(self):
        store = warmed(make_config())
        pairs = batch_of(np.random.default_rng(3), 20)
        store.put_many(pairs[:10])
        writes_before = store.wear_summary()["writes"]
        with pytest.raises(DuplicateKeyError):
            store.put_many(pairs[5:], unique=True)
        with pytest.raises(DuplicateKeyError):
            store.put_many([(b"fresh", b"x"), (b"fresh", b"y")], unique=True)
        assert store.wear_summary()["writes"] == writes_before
        assert len(store) == 10
        store.put_many(pairs[10:], unique=True)
        assert len(store) == 20
        store.close()

    def test_put_unique_routes(self):
        store = warmed(make_config())
        store.put_unique(b"only", b"v" * 24)
        with pytest.raises(DuplicateKeyError):
            store.put_unique(b"only", b"w" * 24)
        store.close()

    def test_delete_many_missing_key_raises(self):
        store = warmed(make_config())
        store.put_many(batch_of(np.random.default_rng(4), 10))
        with pytest.raises(KeyNotFoundError):
            store.delete_many([b"k0", b"missing", b"k1"])
        # The present keys of the batch may or may not have been removed
        # (their shards ran concurrently); the store must stay servable.
        store.put(b"after", b"v" * 24)
        assert store.get(b"after") == b"v" * 24
        store.close()

    def test_update_missing_key_raises(self):
        store = warmed(make_config())
        with pytest.raises(KeyNotFoundError):
            store.update(b"ghost", b"v" * 24)
        with pytest.raises(KeyNotFoundError):
            store.update_many([(b"ghost", b"v" * 24)])
        store.close()

    def test_pool_exhaustion_carries_cross_shard_committed_reports(self):
        config = make_config(num_buckets=24, shards=2, n_clusters=1)
        store = ShardedPNWStore(config)  # cold: every bucket starts free
        pairs = [(f"f{i}".encode(), bytes([i]) * 24) for i in range(40)]
        with pytest.raises(PoolExhaustedError) as excinfo:
            store.put_many(pairs)
        committed = excinfo.value.committed_reports
        assert len(committed) == len(store) == 24
        committed_keys = {r.key.rstrip(b"\x00") for r in committed}
        for key, value in pairs:
            if key in committed_keys:
                assert store.get(key) == value
        store.close()


class TestPerShardProbeEngines:
    """Each shard owns an independent probe engine whose DRAM content
    cache must mirror that shard's own zone (and only it)."""

    def test_shard_caches_mirror_their_zones(self):
        store = warmed(make_config(probe_limit=-1))
        rng = np.random.default_rng(11)
        store.put_many(batch_of(rng, 40))
        store.delete_many([key for key, _ in batch_of(rng, 10)])
        for shard in store.stores:
            contents = np.asarray(shard.nvm.contents)
            assert shard.pool.has_content_cache
            free: list[int] = []
            for cluster in range(shard.pool.n_clusters):
                addresses, rows = shard.pool.cache_rows(cluster)
                assert np.array_equal(rows, contents[addresses])
                free.extend(addresses.tolist())
            assert sorted(free) == shard.pool.free_addresses().tolist()
        store.close()


class TestAggregation:
    def test_wear_and_metrics_merge_across_shards(self):
        store = warmed(make_config())
        pairs = batch_of(np.random.default_rng(5), 50)
        store.put_many(pairs)
        store.update_many(pairs[:10])
        store.delete_many([key for key, _ in pairs[40:]])
        summary = store.wear_summary()
        assert summary["writes"] == sum(
            s.nvm.stats.total_writes for s in store.stores
        )
        assert summary["writes"] == 60  # 50 puts + 10 update re-puts
        metrics = store.metrics
        assert metrics.puts == 60
        assert metrics.updates == 10
        assert metrics.deletes == 20  # 10 batch deletes + 10 update deletes
        values, cum = store.address_write_cdf()
        assert cum[-1] == pytest.approx(1.0)
        assert store.wear_stats().writes_per_address.size == 192
        store.close()

    def test_live_fraction_and_total_free(self):
        store = warmed(make_config(num_buckets=100, shards=2))
        store.put_many(batch_of(np.random.default_rng(6), 25))
        assert len(store) == 25
        assert store.live_fraction == pytest.approx(0.25)
        assert store.total_free == 75
        store.close()

    def test_set_keep_reports_with_global_addresses(self):
        store = warmed(make_config())
        store.set_keep_reports(True)
        returned = store.put_many(batch_of(np.random.default_rng(7), 12))
        kept = store.metrics.reports
        assert len(kept) == 12
        # Kept reports use the same global address space as the
        # returned reports (merged shard by shard, not batch order).
        assert {r.address for r in kept} == {r.address for r in returned}
        store.close()


class TestEquivalenceToManualStores:
    """A sharded store is *exactly* N single stores plus routing: after
    identical routed op streams, every shard's NVM zone, flag bitmap,
    index, and pool must be byte-identical to a manually driven
    standalone PNWStore built from the same derived config."""

    @staticmethod
    def manual_stores(config: PNWConfig) -> list[PNWStore]:
        return [PNWStore(c) for c in shard_configs(config)]

    @staticmethod
    def assert_state_identical(store: ShardedPNWStore, manuals: list[PNWStore]):
        for shard, manual in zip(store.stores, manuals):
            assert np.array_equal(shard.nvm.snapshot(), manual.nvm.snapshot())
            assert np.array_equal(
                shard.flags_nvm.snapshot(), manual.flags_nvm.snapshot()
            )
            assert dict(shard.index.items()) == dict(manual.index.items())
            assert shard.pool._free_lists == manual.pool._free_lists
            assert len(shard) == len(manual)
            assert shard.nvm.stats.summary() == manual.nvm.stats.summary()

    @classmethod
    def warmed_twins(
        cls, config: PNWConfig
    ) -> tuple[ShardedPNWStore, list[PNWStore]]:
        """A sharded store and its manual shards, warmed on one zone's
        worth of old contents split at the shard bases."""
        store = ShardedPNWStore(config)
        manuals = cls.manual_stores(config)
        rng = np.random.default_rng(42)
        old = clustered_values(rng, config.num_buckets, config.value_bytes)
        store.warm_up(old)
        for i, manual in enumerate(manuals):
            manual.warm_up(old[store.shard_bases[i] : store.shard_bases[i + 1]])
        return store, manuals

    @staticmethod
    def drive_stream(store: ShardedPNWStore, manuals: list[PNWStore],
                     rounds: int = 6) -> list[bytes]:
        """Random put/update/delete batches, each applied to the sharded
        store and, routed, to the manual shards; returns the live keys."""
        value_bytes = store.config.value_bytes
        op_rng = np.random.default_rng(1234)
        live: list[bytes] = []
        next_id = 0
        for _ in range(rounds):
            n_put = int(op_rng.integers(5, 25))
            values = clustered_values(op_rng, n_put, value_bytes,
                                      flip_rate=0.05)
            pairs = []
            for j in range(n_put):
                pairs.append((f"k{next_id}".encode(), values[j].tobytes()))
                next_id += 1
            store.put_many(pairs)
            for sid, sub in enumerate(routed(store, pairs)):
                if sub:
                    manuals[sid].put_many(sub)
            live.extend(key for key, _ in pairs)

            if len(live) > 8:
                n_upd = int(op_rng.integers(1, 8))
                picks = op_rng.choice(len(live), size=n_upd, replace=False)
                new_vals = clustered_values(op_rng, n_upd, value_bytes,
                                            flip_rate=0.1)
                updates = [
                    (live[p], new_vals[j].tobytes())
                    for j, p in enumerate(picks)
                ]
                store.update_many(updates)
                for sid, sub in enumerate(routed(store, updates)):
                    if sub:
                        manuals[sid].update_many(sub)

                n_del = int(op_rng.integers(1, min(6, len(live) - 2)))
                doomed = [live.pop(0) for _ in range(n_del)]
                store.delete_many(doomed)
                for sid, sub in enumerate(
                    routed(store, doomed, key_of=lambda k: k)
                ):
                    if sub:
                        manuals[sid].delete_many(sub)
        return live

    @staticmethod
    def assert_reads_identical(store: ShardedPNWStore,
                               manuals: list[PNWStore], keys) -> None:
        for key in keys:
            sid = store.shard_of_key(key)
            assert store.get(key) == manuals[sid].get(key)

    def test_randomized_op_stream_matches(self):
        config = make_config(num_buckets=130, shards=3)
        store, manuals = self.warmed_twins(config)
        live = self.drive_stream(store, manuals)
        self.assert_state_identical(store, manuals)
        self.assert_reads_identical(store, manuals, live)
        store.close()

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("update_mode", ["endurance", "latency"])
    def test_op_stream_matches_in_both_update_modes(self, update_mode, shards):
        config = make_config(num_buckets=256, shards=shards,
                             update_mode=update_mode)
        store, manuals = self.warmed_twins(config)
        live = self.drive_stream(store, manuals)
        self.assert_state_identical(store, manuals)
        self.assert_reads_identical(store, manuals, live)
        store.close()

    @pytest.mark.parametrize("update_mode", ["endurance", "latency"])
    def test_crash_recover_matches(self, update_mode):
        """Every shard recovers from its own zone exactly as a manual
        store does, and the two keep agreeing after recovery."""
        config = make_config(num_buckets=256, shards=3, update_mode=update_mode)
        store, manuals = self.warmed_twins(config)
        live = self.drive_stream(store, manuals)
        store.crash()
        for manual in manuals:
            manual.crash()
        assert len(store) == 0
        store.recover()
        for manual in manuals:
            manual.recover()
        self.assert_state_identical(store, manuals)
        self.assert_reads_identical(store, manuals, live)
        pairs = batch_of(np.random.default_rng(17), 20, prefix="post")
        store.put_many(pairs)
        for sid, sub in enumerate(routed(store, pairs)):
            if sub:
                manuals[sid].put_many(sub)
        self.assert_state_identical(store, manuals)
        store.close()

    def test_run_shard_batches_matches(self):
        """The ingest drain path runs each shard's runs in order on that
        shard's engine: the same state as the manual shards replaying
        the runs through their ``*_many`` calls, and reports that differ
        only by the shard's base address."""
        config = make_config(num_buckets=256, shards=3)
        store, manuals = self.warmed_twins(config)
        pairs = batch_of(np.random.default_rng(19), 45)
        fresh = batch_of(np.random.default_rng(20), 45)
        updates = [(pairs[i][0], fresh[i][1]) for i in range(0, 45, 3)]
        doomed = [key for key, _ in pairs[1::4]]
        batches = {}
        for sid in range(store.n_shards):
            batches[sid] = [
                ("put", routed(store, pairs)[sid]),
                ("update", routed(store, updates)[sid]),
                ("delete", routed(store, doomed, key_of=lambda k: k)[sid]),
            ]
        outcomes = store.run_shard_batches(batches)
        assert sorted(outcomes) == list(range(store.n_shards))
        for sid, runs in batches.items():
            assert len(outcomes[sid]) == len(runs)
            for (kind, items), (reports, error) in zip(runs, outcomes[sid]):
                assert error is None
                manual_reports = getattr(manuals[sid], f"{kind}_many")(items)
                assert [r.address for r in reports] == [
                    r.address + store.shard_bases[sid] for r in manual_reports
                ]
        self.assert_state_identical(store, manuals)
        self.assert_reads_identical(
            store, manuals, [key for key, _ in pairs if key not in doomed]
        )
        store.close()

    def test_sharded_wear_totals_match_manual_sum(self):
        config = make_config(num_buckets=130, shards=3)
        store = ShardedPNWStore(config)
        manuals = self.manual_stores(config)
        rng = np.random.default_rng(42)
        old = clustered_values(rng, config.num_buckets, config.value_bytes)
        store.warm_up(old)
        for i, manual in enumerate(manuals):
            manual.warm_up(old[store.shard_bases[i] : store.shard_bases[i + 1]])
        pairs = batch_of(np.random.default_rng(9), 60)
        store.put_many(pairs)
        for sid, sub in enumerate(routed(store, pairs)):
            if sub:
                manuals[sid].put_many(sub)
        summary = store.wear_summary()
        assert summary["writes"] == sum(
            m.nvm.stats.total_writes for m in manuals
        )
        assert summary["bit_updates"] == sum(
            m.nvm.stats.total_bit_updates for m in manuals
        )
        store.close()


class TestLifecycle:
    """Lifecycle calls count each op once and wait out in-flight
    batch traffic (every shard lock, ascending)."""

    def test_no_double_count_across_crash_recover(self):
        # Merged wear and op counters must count each op exactly once,
        # even after every shard is torn down and rebuilt from NVM state:
        # recovery re-reads the zones but never re-records their writes.
        store = warmed(make_config(num_buckets=130))
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
        store.close()

    def test_crash_waits_for_inflight_batch(self):
        store = warmed(make_config(num_buckets=130))
        pairs = batch_of(np.random.default_rng(101), 24)
        busy_sid = store.shard_of_key(pairs[0][0])
        started = threading.Event()
        release = threading.Event()

        # Stall the shard by holding its lock, exactly as an in-flight
        # K/V sub-batch does.
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
        # crash() is quiesced: it cannot land while shard traffic is in
        # flight.
        assert not crash_done.is_set()
        release.set()
        worker.join(timeout=5)
        crash_thread.join(timeout=5)
        assert crash_done.is_set()
        store.recover()
        store.put_many(pairs)
        assert len(store) == len(pairs)
        store.close()

    def test_close_is_idempotent_and_the_store_stays_usable(self):
        store = warmed(make_config())
        pairs = batch_of(np.random.default_rng(103), 12)
        store.put_many(pairs[:6])
        store.close()
        store.close()
        # After close() calls simply run serially on the caller's thread.
        store.put_many(pairs[6:])
        for key, value in pairs:
            assert store.get(key) == value
        store.close()

    def test_aggregation_readable_after_close(self):
        store = warmed(make_config())
        pairs = batch_of(np.random.default_rng(104), 30)
        store.put_many(pairs)
        store.delete_many([key for key, _ in pairs[:5]])
        wear, metrics = store.wear_summary(), store.metrics
        routed_ops = store.router_stats().routed_ops
        store.close()
        assert store.wear_summary() == wear
        assert store.metrics.puts == metrics.puts == 30
        assert store.metrics.deletes == metrics.deletes == 5
        assert store.router_stats().routed_ops == routed_ops
        assert len(store) == 25
        assert store.live_fraction == pytest.approx(25 / 192)

    def test_close_drains_queued_batches_first(self):
        store = warmed(make_config(num_buckets=130))
        pairs = batch_of(np.random.default_rng(102), 30)
        results: list = []

        def producer():
            results.append(store.put_many(pairs))

        producer_thread = threading.Thread(target=producer)
        producer_thread.start()
        producer_thread.join(timeout=10)
        store.close()
        assert len(results) == 1 and len(results[0]) == len(pairs)
