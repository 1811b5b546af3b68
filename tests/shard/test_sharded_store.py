"""ShardedPNWStore: routing, batch API, aggregation, and the
shard-by-shard equivalence to manually driven single stores."""

from __future__ import annotations

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

    def test_randomized_op_stream_matches(self):
        config = make_config(num_buckets=130, shards=3)
        store = ShardedPNWStore(config)
        manuals = self.manual_stores(config)

        rng = np.random.default_rng(42)
        old = clustered_values(rng, config.num_buckets, config.value_bytes)
        store.warm_up(old)
        for i, manual in enumerate(manuals):
            manual.warm_up(old[store.shard_bases[i] : store.shard_bases[i + 1]])

        op_rng = np.random.default_rng(1234)
        live: list[bytes] = []
        next_id = 0
        for _ in range(6):
            n_put = int(op_rng.integers(5, 25))
            values = clustered_values(op_rng, n_put, config.value_bytes,
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
                new_vals = clustered_values(op_rng, n_upd, config.value_bytes,
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

        self.assert_state_identical(store, manuals)
        for key in live:
            sid = store.shard_of_key(key)
            assert store.get(key) == manuals[sid].get(key)
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
