"""Virtual-bucket routing: vectorized hash equivalence, the indirection
table's default-layout identity, and the mergeable RouterStats
counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PNWConfig
from repro.index.base import KeyIndex, stable_hash64
from repro.shard import ShardedPNWStore, assign_shards, hash_keys, shard_of
from repro.shard.router import ROUTER_SEED, RouterStats, RoutingTable


def normalized_keys(rng: np.random.Generator, n: int, key_bytes: int) -> list[bytes]:
    raw = rng.integers(0, 256, size=(n, key_bytes), dtype=np.uint8)
    return [row.tobytes() for row in raw]


# ---------------------------------------------------------------------- #
# vectorized hash                                                         #
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("key_bytes", [4, 8, 16])
def test_hash_keys_matches_scalar_fnv(key_bytes):
    rng = np.random.default_rng(11)
    keys = normalized_keys(rng, 500, key_bytes)
    vectorized = hash_keys(keys)
    scalar = [stable_hash64(key, seed=ROUTER_SEED) for key in keys]
    assert vectorized.dtype == np.uint64
    assert vectorized.tolist() == scalar


def test_hash_keys_empty_batch():
    assert hash_keys([]).shape == (0,)


@pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
def test_assign_shards_matches_scalar_shard_of(n_shards):
    rng = np.random.default_rng(12)
    keys = normalized_keys(rng, 300, 8)
    assert assign_shards(keys, n_shards) == [
        shard_of(key, n_shards, 8) for key in keys
    ]


# ---------------------------------------------------------------------- #
# routing table                                                           #
# ---------------------------------------------------------------------- #

def test_default_table_composes_to_direct_hash():
    # (h % (V * n)) % n == h % n for any vbuckets-per-shard multiple.
    rng = np.random.default_rng(13)
    keys = normalized_keys(rng, 400, 8)
    hashes = hash_keys(keys)
    for n_shards in (2, 3, 5):
        for per_shard in (1, 16, 64):
            table = RoutingTable(n_shards, per_shard)
            assert table.version == 0
            assert table.is_default
            assert (
                table.assign_hashes(hashes).tolist()
                == assign_shards(keys, n_shards)
            )


def test_move_bumps_version_and_reroutes():
    table = RoutingTable(4, 4)
    bucket = 5  # default owner: 5 % 4 == 1
    assert table.shard_of_bucket(bucket) == 1
    table.move(bucket, 3)
    assert table.shard_of_bucket(bucket) == 3
    assert table.version == 1
    assert not table.is_default
    with pytest.raises(ValueError):
        table.move(bucket, 4)
    with pytest.raises(ValueError):
        table.move(table.n_vbuckets, 0)


def test_buckets_of_shard_and_snapshot_isolation():
    table = RoutingTable(2, 4)
    snapshot = table.snapshot()
    table.move(0, 1)
    assert snapshot[0] == 0  # the snapshot is a private copy
    assert 0 in table.buckets_of_shard(1).tolist()


# ---------------------------------------------------------------------- #
# stats                                                                   #
# ---------------------------------------------------------------------- #

def test_router_stats_merge_and_snapshot():
    a = RouterStats(routed_ops=[1, 2], bucket_moves=1, keys_migrated=10)
    b = RouterStats(routed_ops=[3, 4], migration_batches=2, rebalances=1)
    merged = RouterStats.merge([a, b])
    assert merged.routed_ops == [4, 6]
    assert merged.bucket_moves == 1
    assert merged.keys_migrated == 10
    assert merged.migration_batches == 2
    assert merged.rebalances == 1
    snap = a.snapshot()
    a.routed_ops[0] += 99
    assert snap.routed_ops == [1, 2]
    assert snap.as_dict()["routed_ops"] == [1, 2]
    with pytest.raises(ValueError):
        RouterStats.merge([])


# ---------------------------------------------------------------------- #
# store integration (rebalance off => byte-identical routing)             #
# ---------------------------------------------------------------------- #

def test_store_routing_defaults_to_fnv_layout():
    config = PNWConfig(
        num_buckets=96,
        value_bytes=24,
        key_bytes=8,
        n_clusters=4,
        seed=7,
        n_init=1,
        max_iter=10,
        shards=3,
    )
    store = ShardedPNWStore(config)
    assert store.routing_epoch == 0
    assert not store.rebalance_enabled
    assert store.rebalance_check(10_000) is False
    rng = np.random.default_rng(14)
    keys = normalized_keys(rng, 200, config.key_bytes)
    assert store._assign(keys) == assign_shards(keys, store.n_shards)
    assert [store.shard_of_key(key) for key in keys] == [
        shard_of(key, store.n_shards, config.key_bytes) for key in keys
    ]
    stats = store.router_stats()
    assert stats.routed_ops == [0, 0, 0]


def test_routed_ops_counting():
    config = PNWConfig(
        num_buckets=96,
        value_bytes=24,
        key_bytes=8,
        n_clusters=4,
        seed=7,
        n_init=1,
        max_iter=10,
        shards=3,
    )
    store = ShardedPNWStore(config)
    rng = np.random.default_rng(15)
    store.warm_up(
        rng.integers(
            0, 256, size=(config.num_buckets, config.bucket_bytes),
            dtype=np.uint8,
        )
    )
    pairs = [
        (KeyIndex.normalize_key(b"k%d" % i, 8), b"v%d" % i) for i in range(30)
    ]
    store.put_many(pairs)
    stats = store.router_stats()
    assert sum(stats.routed_ops) == 30
    store.get(pairs[0][0])
    assert sum(store.router_stats().routed_ops) == 31
