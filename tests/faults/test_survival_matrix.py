"""Headline acceptance: acked writes survive wear-out everywhere.

Under a 1% depleted-budget fault injection, **every acknowledged
put/update must remain readable with the exact acknowledged bytes** —
on the single zone and on thread shards, in both update modes, with
and without the DRAM tier (write-through and write-back), and across a
crash/recover cycle.

Also pins the distributed corner: sharded degraded-mode merging.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PNWConfig, make_store
from repro.errors import DegradedModeError
from tests.conftest import clustered_values

#: Single zone or thread shards; ``-latency`` runs every update in the
#: latency update mode (in place through the index, no re-placement).
BACKENDS = ["single", "threads", "single-latency", "threads-latency"]


def media_config(backend: str, **overrides) -> PNWConfig:
    base = dict(
        num_buckets=258,
        value_bytes=24,
        key_bytes=8,
        n_clusters=4,
        seed=7,
        n_init=1,
        max_iter=20,
        media_fault_rate=0.01,
        media_fault_budget=0,
        media_retire_watermark=1.0,
    )
    if backend.startswith("threads"):
        base.update(shards=3)
    if backend.endswith("-latency"):
        base.update(update_mode="latency")
    base.update(overrides)
    return PNWConfig(**base)


def warmed(config: PNWConfig):
    store = make_store(config)
    rng = np.random.default_rng(42)
    store.warm_up(clustered_values(rng, config.num_buckets, config.value_bytes))
    return store


def hostile_pairs(rng: np.random.Generator, n: int,
                  prefix: str = "k") -> list[tuple[bytes, bytes]]:
    values = rng.integers(0, 256, size=(n, 24), dtype=np.uint8)
    return [(f"{prefix}{i}".encode(), values[i].tobytes()) for i in range(n)]


def drive(store) -> dict[bytes, bytes]:
    """Mixed acked op stream; returns the expected final contents."""
    pairs = hostile_pairs(np.random.default_rng(11), 60)
    store.put_many(pairs)
    fresh = np.random.default_rng(12).integers(0, 256, (25, 24), dtype=np.uint8)
    updates = [(pairs[i][0], fresh[i].tobytes()) for i in range(25)]
    store.update_many(updates)
    store.delete_many([key for key, _ in pairs[45:55]])
    singles = hostile_pairs(np.random.default_rng(13), 6, prefix="s")
    for key, value in singles:
        store.put(key, value)
    expected = dict(pairs)
    expected.update(updates)
    for key, _ in pairs[45:55]:
        del expected[key]
    expected.update(singles)
    return expected


def assert_contents(store, expected: dict[bytes, bytes]) -> None:
    for key, value in expected.items():
        assert store.get(key) == value
    assert len(store) == len(expected)


def acked_value(pairs: list[tuple[bytes, bytes]], key: bytes) -> bytes:
    """Look up a report's (zero-padded) key in the submitted pairs."""
    width = len(key)
    return {k.ljust(width, b"\x00"): v for k, v in pairs}[key]


@pytest.mark.parametrize("backend", BACKENDS)
class TestSurvivalAcrossExecutors:
    def test_acked_ops_readable_and_crash_safe(self, backend):
        store = warmed(media_config(backend))
        try:
            expected = drive(store)
            assert_contents(store, expected)
            stats = store.media_stats
            assert stats.verify_failures > 0
            assert stats.rows_retired > 0
            store.crash()
            store.recover()
            assert_contents(store, expected)
            # The store keeps absorbing faults after recovery.
            post = hostile_pairs(np.random.default_rng(14), 10, prefix="post")
            store.put_many(post)
            for key, value in post:
                assert store.get(key) == value
        finally:
            store.close()

    def test_scrub_after_ageing_keeps_contents(self, backend):
        config = media_config(backend, media_fault_budget=100)
        store = warmed(config)
        try:
            expected = drive(store)
            if backend.startswith("single"):
                store.nvm.age_media()
            else:
                for shard in store.stores:
                    shard.nvm.age_media()
            totals = store.scrub()
            assert totals["scanned"] > 0
            assert_contents(store, expected)
        finally:
            store.close()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("tier_mode", ["write_through", "write_back"])
class TestSurvivalUnderTheTier:
    def test_tiered_acked_ops_survive_faults_and_crash(self, backend, tier_mode):
        config = media_config(
            backend,
            tier_mode=tier_mode,
            tier_cache_entries=32,
            tier_writeback_entries=16,
            tier_flush_ops=4096,
        )
        store = warmed(config)
        try:
            expected = drive(store)
            assert_contents(store, expected)
            # Write-back staging is DRAM: only flushed data is durable,
            # so drain the buffer before pulling the plug.
            store.flush()
            stats = store.media_stats
            assert stats.verify_failures > 0
            store.crash()
            store.recover()
            assert_contents(store, expected)
        finally:
            store.close()


class TestShardedDegradedMerge:
    def test_any_degraded_shard_degrades_the_store(self):
        store = warmed(media_config("threads", media_retire_watermark=0.02))
        try:
            rng = np.random.default_rng(15)
            shed = False
            acked: dict[bytes, bytes] = {}
            for round_no in range(300):
                pairs = hostile_pairs(rng, 6, prefix=f"d{round_no}-")
                try:
                    store.put_many(pairs)
                except DegradedModeError as exc:
                    for report in exc.committed_reports:
                        acked[report.key] = acked_value(pairs, report.key)
                    shed = True
                    break
                acked.update(pairs)
            assert shed, "no shard ever degraded"
            assert store.degraded
            assert store.media_stats.writes_shed > 0
            # Reads still serve everything that was acknowledged.
            for key, value in acked.items():
                assert store.get(key) == value
        finally:
            store.close()
