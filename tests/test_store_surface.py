"""Surface conformance: every store composition speaks one dialect.

The leaf ``PNWStore`` answers the one-lane form of the store surface;
the shard router and the DRAM tier override or delegate it.  These
tests pin, over the four compositions (leaf; sharded; tier over leaf;
tier over sharded), that

* every surface member exists with the same *kind* (method vs plain
  attribute/property) and the same return type, so no caller ever needs
  a ``hasattr`` / ``callable`` probe;
* ``set_keep_reports`` takes effect through every wrapper;
* one op stream drained by ``IngestQueue`` leaves the same contents;
* ``run_shard_batches`` on the leaf agrees with a 1-shard sharded store,
  outcome for outcome (reports, and errors with ``committed_reports``).
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from repro import (
    IngestQueue,
    MediaStats,
    PNWConfig,
    PNWStore,
    ShardedPNWStore,
    StoreMetrics,
    TieredStore,
    WearStats,
    make_store,
)
from repro.errors import KeyNotFoundError
from repro.shard import shard_configs
from repro.shard.router import RouterStats
from tests.conftest import clustered_values

COMPOSITIONS = ["leaf", "sharded-thread", "tier-leaf", "tier-sharded"]

METHODS = (
    "put", "put_unique", "put_many", "update", "update_many", "delete",
    "delete_many", "get", "warm_up", "retrain", "crash", "recover", "scrub",
    "close", "shard_of_key", "run_shard_batches", "routing_pin",
    "rebalance_check", "router_stats", "wear_stats", "wear_summary",
    "set_keep_reports",
)
ATTRIBUTES = {
    "n_shards": int,
    "routing_epoch": int,
    "metrics": StoreMetrics,
    "media_stats": MediaStats,
    "degraded": bool,
    "live_fraction": float,
    "total_free": int,
    "config": PNWConfig,
}


def make_config(shards: int) -> PNWConfig:
    return PNWConfig(
        num_buckets=120, value_bytes=24, key_bytes=8, n_clusters=4, seed=7,
        n_init=1, max_iter=20, shards=shards,
    )


def build(composition: str):
    """A warmed store of the named composition (2 shards when sharded)."""
    config = make_config(1 if composition.endswith("leaf") else 2)
    if composition.startswith("tier"):
        config = dataclasses.replace(
            config, tier_mode="write_back", tier_writeback_entries=16
        )
    store = PNWStore(config) if config.shards == 1 else ShardedPNWStore(config)
    if composition.startswith("tier"):
        store = TieredStore(store)
    store.warm_up(clustered_values(np.random.default_rng(42), 120, 24))
    return store


def pairs_of(n: int, prefix: str = "k") -> list[tuple[bytes, bytes]]:
    values = clustered_values(np.random.default_rng(11), n, 24, flip_rate=0.05)
    return [(f"{prefix}{i}".encode(), values[i].tobytes()) for i in range(n)]


@pytest.fixture(params=COMPOSITIONS)
def store(request):
    built = build(request.param)
    yield built
    built.close()


def test_every_member_has_one_kind_and_type(store):
    for name in METHODS:
        assert callable(getattr(store, name)), name
    for name, kind in ATTRIBUTES.items():
        value = getattr(store, name)
        assert not callable(value), name
        assert isinstance(value, kind), (name, type(value))
    key = b"probe"
    assert store.shard_of_key(key) in range(store.n_shards)
    with pytest.raises(ValueError):
        store.shard_of_key(b"longer-than-key-bytes")
    assert store.rebalance_check() is False  # rebalance_mode is off
    with store.routing_pin():
        store.put(key, b"v")
    assert store.get(key) == b"v".ljust(24, b"\x00")
    assert isinstance(store.wear_stats(), WearStats)
    assert store.wear_summary() == store.wear_stats().summary()
    assert len(store) == 1 and key in store
    router = store.router_stats()
    if store.n_shards == 1:
        assert router is None
    else:
        assert isinstance(router, RouterStats)
        assert len(router.routed_ops) == store.n_shards


def test_set_keep_reports_works_through_every_wrapper(store):
    assert store.metrics.reports == []
    store.set_keep_reports(True)
    pairs = pairs_of(12)
    store.put_many(pairs)
    store.retrain()  # a tier drains its write buffer first
    kept = store.metrics
    assert kept.keep_reports
    assert sorted(r.key for r in kept.reports) == sorted(
        key.ljust(8, b"\x00") for key, _ in pairs
    )
    store.set_keep_reports(False)
    store.put(b"later", b"x")
    store.retrain()
    assert len(store.metrics.reports) == len(pairs)


def drain_stream(store) -> dict[bytes, bytes]:
    """Drive one mixed single-op stream through an IngestQueue; return
    the store's final contents as ``{key: value}``."""
    pairs = pairs_of(40)
    fresh = pairs_of(40, prefix="f")
    with IngestQueue(store, max_batch=8, autostart=False) as queue:
        futures = [queue.put(key, value) for key, value in pairs]
        futures += [
            queue.update(pairs[i][0], fresh[i][1]) for i in range(0, 40, 3)
        ]
        futures += [queue.delete(pairs[i][0]) for i in range(1, 40, 4)]
        missing = queue.delete(b"absent")
        queue.flush()
        for future in futures:
            future.result(timeout=10)
        with pytest.raises(KeyNotFoundError):
            missing.result(timeout=10)
        contents = {
            key: queue.get(key) for key, _ in pairs if key in store
        }
    assert len(store) == len(contents)
    return contents


def test_ingest_queue_drains_to_the_same_contents_everywhere():
    results = {}
    for composition in COMPOSITIONS:
        built = build(composition)
        try:
            results[composition] = drain_stream(built)
        finally:
            built.close()
    expected = results["leaf"]
    assert len(expected) == 30
    for composition, contents in results.items():
        assert contents == expected, composition


def strip_timing(report):
    """Reports are deterministic except the measured model wall clock."""
    return dataclasses.replace(report, predict_ns=0.0)


def test_run_shard_batches_leaf_agrees_with_one_shard_router():
    pairs = pairs_of(20)
    runs = [
        ("put", pairs),
        ("update", [(pairs[0][0], pairs[1][1]), (b"absent", pairs[2][1]),
                    (pairs[3][0], pairs[4][1])]),
        ("delete", [key for key, _ in pairs[10:15]]),
    ]
    outcomes = []
    for make in (
        lambda: PNWStore(make_config(1)),
        lambda: ShardedPNWStore(make_config(1)),
    ):
        built = make()
        try:
            built.warm_up(clustered_values(np.random.default_rng(42), 120, 24))
            result = built.run_shard_batches({0: runs})
            assert list(result) == [0]
            assert built.run_shard_batches({0: []}) == {}
            outcomes.append(result[0])
        finally:
            built.close()
    leaf, routed = outcomes
    assert len(leaf) == len(routed) == len(runs)
    for (leaf_reports, leaf_error), (reports, error) in zip(leaf, routed):
        assert type(leaf_error) is type(error)
        if leaf_error is not None:
            assert leaf_reports is None and reports is None
            leaf_reports = leaf_error.committed_reports
            reports = error.committed_reports
        assert [strip_timing(r) for r in leaf_reports] == [
            strip_timing(r) for r in reports
        ]
    assert isinstance(leaf[1][1], KeyNotFoundError)
    assert len(leaf[1][1].committed_reports) == 1


def test_constructor_inventory():
    """Each store setting has one home, the config: no constructor takes
    an argument that could shadow a ``PNWConfig`` field."""

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(PNWStore.__init__) == ["self", "config"]
    assert params(ShardedPNWStore.__init__) == ["self", "config"]
    assert params(TieredStore.__init__) == ["self", "store"]
    assert params(make_store) == ["config"]
    assert params(shard_configs) == ["config"]


@pytest.mark.parametrize(
    "tier_mode, executor",
    [("write_back", "thread"), ("write_through", "thread")],
)
def test_store_agrees_with_its_config(tier_mode, executor):
    config = dataclasses.replace(
        make_config(3), tier_mode=tier_mode, executor=executor
    )
    store = make_store(config)
    try:
        assert isinstance(store, TieredStore)
        assert store.config is config
        assert store.n_shards == config.shards
        assert store.mode == config.tier_mode
        assert isinstance(store.store, ShardedPNWStore)
        assert store.store.config is config
    finally:
        store.close()
