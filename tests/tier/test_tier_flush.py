"""The write-back flush against the engine's grouped upsert path.

A flush hands ``put_many`` the dirty entries in staging order — mostly
rewrites of keys the store already holds, which the plan stage carves
into a few update chunks.  Two things must survive that: the durable
state equals the same ``put_many`` on a bare store, and a flush that
dies *inside* a grouped stretch re-stages exactly the entries the store
did not commit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PNWConfig, PNWStore, TieredStore
from repro.errors import PoolExhaustedError
from tests.conftest import (
    clustered_values,
    crc_order,
    near_values,
    state_digest,
)


def make_config(**overrides) -> PNWConfig:
    base = dict(
        num_buckets=256,
        value_bytes=24,
        key_bytes=8,
        n_clusters=4,
        seed=7,
        n_init=1,
        max_iter=20,
        retrain_check_interval=32,
        tier_mode="write_back",
        tier_cache_entries=16,
        # No trigger fires on its own: the tests decide when to flush.
        tier_writeback_entries=4096,
        tier_flush_ops=1_000_000,
    )
    base.update(overrides)
    return PNWConfig(**base)


def warmed(config: PNWConfig) -> tuple[PNWStore, np.ndarray]:
    store = PNWStore(config)
    old = clustered_values(
        np.random.default_rng(42), config.num_buckets, config.value_bytes
    )
    store.warm_up(old)
    return store, old


@pytest.mark.parametrize("update_mode", ["endurance", "latency"])
def test_flush_of_dirty_existing_keys_equals_put_many_on_a_bare_store(
    update_mode,
):
    config = make_config(update_mode=update_mode)
    bare, old = warmed(config)
    backing, _ = warmed(config)
    tier = TieredStore(backing)
    rng = np.random.default_rng(50)
    base = near_values(rng, old, [f"k{i}".encode() for i in range(120)])
    bare.put_many(base)
    tier.put_many(base)
    assert tier.flush() == 120
    assert state_digest(backing) == state_digest(bare)

    # 100 rewrites of durable keys (some twice: coalesced in DRAM) with
    # a few creates staged in between, one op at a time.
    existing = crc_order([key for key, _ in base])[:100]
    keys = existing[:40] + [b"new0"] + existing[40:90] + [b"new1", b"new2"]
    keys += existing[90:] + existing[:10]
    for key, value in near_values(rng, old, keys):
        tier.put(key, value)
    assert tier.dirty_entries == 103
    assert len(backing) == 120  # nothing reached NVM yet
    batch = [
        (key, entry.value) for key, entry in tier._buffers[0]._entries.items()
    ]
    assert [key.rstrip(b"\x00") for key, _ in batch] == keys[:-10]

    assert tier.flush() == 103
    bare.put_many(batch)
    assert backing.metrics.updates == 100
    assert state_digest(backing) == state_digest(bare)
    tier.close()


def test_failure_inside_a_grouped_stretch_restages_the_uncommitted_tail():
    """Worn media under a full zone: the flush's one update chunk runs
    out of healthy rows while relocating a failed write, part-way
    through.  The committed prefix stays flushed; every other entry —
    and nothing else — goes back into the write buffer."""
    config = make_config(
        num_buckets=32, n_clusters=2, retrain_check_interval=128,
        media_fault_rate=0.004, media_retire_watermark=1.0,
    )
    store, old = warmed(config)
    rng = np.random.default_rng(7)
    keys = [f"k{i}".encode().ljust(8, b"\x00") for i in range(32)]
    with pytest.raises(PoolExhaustedError):  # fill the zone
        for key, value in near_values(rng, old, keys):
            store.put(key, value)
    live = crc_order([key for key in keys if key in store])
    assert store.total_free == 0

    tier = TieredStore(store)
    batch = near_values(rng, old, live)
    tier.put_many(batch)
    assert tier.dirty_entries == len(live)
    with pytest.raises(PoolExhaustedError) as excinfo:
        tier.flush()
    committed = [report.key for report in excinfo.value.committed_reports]
    done = len(committed)
    assert 0 < done < len(live) - 1  # died inside the stretch
    assert committed == live[:done]

    buffer = tier._buffers[0]
    assert list(buffer._entries) == live[done:]
    assert tier.dirty_entries == len(live) - done
    assert tier.tier_stats.flushed == done
    for i, (key, value) in enumerate(batch):
        assert tier.get(key) == value  # store or buffer: newest value
        if i < done:
            assert store.get(key) == value
        else:
            # Its delete half landed with the chunk; the value lives on
            # in DRAM until a flush finds room.
            assert key not in store
    assert len(store) == done
    assert len(tier) == done  # restaged rewrites are not creates

    # The chunk's unverified rows went back to the pool; with the
    # committed keys deleted to make up for the retired row, the next
    # flush re-inserts the whole tail as fresh keys.
    tier.delete_many(committed)
    assert tier.flush() == len(live) - done
    assert tier.dirty_entries == 0
    assert len(store) == len(tier) == len(live) - done
    for key, value in batch[done:]:
        assert store.get(key) == value
    tier.close()
