"""Batch pipeline equivalence: put_many/update_many/delete_many must leave
the store byte-identical to the same operations applied sequentially.

Every test builds two identically seeded, identically warmed stores,
drives one through the single-op API and the other through the batch API,
and asserts full state equality: NVM data zone, validity bitmap contents,
hash-index contents, data-zone wear counters (per-address, per-bit, and
every aggregate including the float latency totals, which the batch path
accumulates in the same order), pool free-list order, live count, and the
operation counters.

The one deliberate difference is the *flag region's* write count: the
batch pipeline coalesces validity-bit updates per 4-byte flag word (the
bitmap bytes still end up identical), so flag-region wear is asserted to
be <= the sequential path's rather than equal.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import PNWConfig, PNWStore
from repro.engine.pipeline import MutationEngine
from repro.errors import DuplicateKeyError, KeyNotFoundError, PoolExhaustedError
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
    )
    base.update(overrides)
    return PNWConfig(**base)


def make_store_pair(**overrides) -> tuple[PNWStore, PNWStore]:
    """Two independent stores with identical config, warm-up, and model."""
    stores = []
    for _ in range(2):
        config = make_config(**overrides)
        rng = np.random.default_rng(42)
        old = clustered_values(rng, config.num_buckets, config.value_bytes)
        store = PNWStore(config)
        store.warm_up(old)
        stores.append(store)
    return stores[0], stores[1]


def assert_stores_equal(sequential: PNWStore, batched: PNWStore) -> None:
    """Full state equality (see module docstring for the flag-wear rule)."""
    assert np.array_equal(sequential.nvm.snapshot(), batched.nvm.snapshot())
    assert np.array_equal(
        sequential.flags_nvm.snapshot(), batched.flags_nvm.snapshot()
    )
    # The validity bits as the store reads them: the NVM bitmap above
    # or, with persist_flags=False, its DRAM mirror.
    assert np.array_equal(sequential._valid_mask(), batched._valid_mask())
    assert dict(sequential.index.items()) == dict(batched.index.items())
    assert np.array_equal(
        sequential.nvm.stats.writes_per_address,
        batched.nvm.stats.writes_per_address,
    )
    assert sequential.nvm.stats.summary() == batched.nvm.stats.summary()
    if sequential.nvm.stats.bit_wear is not None:
        assert np.array_equal(
            sequential.nvm.stats.bit_wear, batched.nvm.stats.bit_wear
        )
    assert sequential.pool._free_lists == batched.pool._free_lists
    assert np.array_equal(
        sequential.pool._available, batched.pool._available
    )
    assert len(sequential) == len(batched)
    for counter in ("puts", "gets", "deletes", "updates", "retrains",
                    "fallbacks"):
        assert getattr(sequential.metrics, counter) == getattr(
            batched.metrics, counter
        ), counter
    assert (
        sequential.manager.model_version == batched.manager.model_version
    )
    if sequential.manager.model is not None:
        assert np.array_equal(
            sequential.manager.model.cluster_centers_,
            batched.manager.model.cluster_centers_,
        )
    # Coalesced flag-word programming may only ever *reduce* flag wear.
    assert (
        batched.flags_nvm.stats.total_writes
        <= sequential.flags_nvm.stats.total_writes
    )


def fresh_pairs(rng: np.random.Generator, n: int, width: int,
                prefix: str = "k") -> list[tuple[bytes, bytes]]:
    values = clustered_values(rng, n, width, flip_rate=0.05)
    return [
        (f"{prefix}{i}".encode(), values[i].tobytes()) for i in range(n)
    ]


class TestPutEquivalence:
    def test_put_many_matches_sequential(self):
        sequential, batched = make_store_pair()
        pairs = fresh_pairs(np.random.default_rng(1), 120, 24)
        seq_reports = [sequential.put(k, v) for k, v in pairs]
        bat_reports = batched.put_many(pairs)
        assert_stores_equal(sequential, batched)
        assert [r.address for r in seq_reports] == [
            r.address for r in bat_reports
        ]
        assert [r.cluster for r in seq_reports] == [
            r.cluster for r in bat_reports
        ]
        assert [r.bit_updates for r in seq_reports] == [
            r.bit_updates for r in bat_reports
        ]

    def test_put_many_with_bit_wear_tracking(self):
        sequential, batched = make_store_pair(track_bit_wear=True)
        pairs = fresh_pairs(np.random.default_rng(2), 80, 24)
        for key, value in pairs:
            sequential.put(key, value)
        batched.put_many(pairs)
        assert_stores_equal(sequential, batched)

    def test_put_many_across_retrains(self):
        """Retrains fire mid-batch exactly where the sequential loop
        retrains, on identical zone contents."""
        sequential, batched = make_store_pair(
            load_factor=0.3, retrain_check_interval=16
        )
        pairs = fresh_pairs(np.random.default_rng(3), 150, 24)
        for key, value in pairs:
            sequential.put(key, value)
        batched.put_many(pairs)
        assert sequential.metrics.retrains > 1
        assert_stores_equal(sequential, batched)

    def test_put_many_on_cold_store_trains_mid_batch(self):
        config = dict(retrain_check_interval=8, load_factor=1.0)
        sequential = PNWStore(make_config(**config))
        batched = PNWStore(make_config(**config))
        pairs = fresh_pairs(np.random.default_rng(4), 100, 24)
        for key, value in pairs:
            sequential.put(key, value)
        batched.put_many(pairs)
        assert batched.manager.is_trained
        assert_stores_equal(sequential, batched)

    def test_duplicate_keys_in_batch_route_through_update(self):
        sequential, batched = make_store_pair()
        rng = np.random.default_rng(5)
        pairs = fresh_pairs(rng, 40, 24) + fresh_pairs(rng, 40, 24)
        for key, value in pairs:
            sequential.put(key, value)
        batched.put_many(pairs)
        assert batched.metrics.updates == 40
        assert_stores_equal(sequential, batched)

    def test_put_many_with_dram_flags(self):
        """With persist_flags=False the batch path sets the DRAM mirror
        bit by bit and charges DRAM for each bit, as the loop does."""
        sequential, batched = make_store_pair(persist_flags=False)
        pairs = fresh_pairs(np.random.default_rng(6), 60, 24)
        for key, value in pairs:
            sequential.put(key, value)
        batched.put_many(pairs)
        assert_stores_equal(sequential, batched)
        assert batched._valid_mask().sum() == len(pairs)
        seq_dram, bat_dram = sequential.memory.dram, batched.memory.dram
        assert (seq_dram.write_ops, seq_dram.bytes_written) == (
            bat_dram.write_ops, bat_dram.bytes_written
        )

    def test_empty_batch(self):
        _, batched = make_store_pair()
        assert batched.put_many([]) == []
        assert batched.delete_many([]) == []
        assert batched.update_many([]) == []

    @pytest.mark.parametrize("method", ["put_many", "update_many"])
    def test_oversized_value_rejects_whole_batch_unmutated(self, method):
        """Validation covers the whole batch, including items past the
        first chunk boundary (regression: chunk-local validation used to
        commit earlier chunks before rejecting)."""
        _, store = make_store_pair()
        store.put(b"a", b"x")
        before = store.nvm.snapshot()
        puts_before = store.metrics.puts
        huge = bytes(store.config.value_bytes + 1)
        # "a" twice forces a chunk break before the bad value is reached.
        batch = [(b"a", b"y"), (b"a", b"z"), (b"fresh", huge)]
        with pytest.raises(ValueError, match="exceeds"):
            getattr(store, method)(batch)
        assert np.array_equal(store.nvm.snapshot(), before)
        assert store.metrics.puts == puts_before
        assert store.get(b"a").startswith(b"x")
        assert b"fresh" not in store

    def test_pool_exhaustion_commits_prefix(self):
        """Both paths die on the same key and leave the same state."""
        seq_cfg = make_config(num_buckets=16, n_clusters=2)
        sequential, batched = PNWStore(seq_cfg), PNWStore(make_config(
            num_buckets=16, n_clusters=2))
        rng = np.random.default_rng(7)
        old = clustered_values(rng, 16, 24)
        sequential.warm_up(old)
        batched.warm_up(old)
        pairs = fresh_pairs(np.random.default_rng(8), 20, 24)
        seq_done = 0
        with pytest.raises(PoolExhaustedError):
            for key, value in pairs:
                sequential.put(key, value)
                seq_done += 1
        with pytest.raises(PoolExhaustedError) as excinfo:
            batched.put_many(pairs)
        assert seq_done == 16
        assert_stores_equal(sequential, batched)
        # The escaping error names exactly the pairs that landed, so a
        # caller can retry the remainder without re-putting.
        committed = excinfo.value.committed_reports
        assert [r.key for r in committed] == [
            key.ljust(8, b"\x00") for key, _ in pairs[:16]
        ]

    def test_exhaustion_committed_reports_span_chunks(self):
        """committed_reports covers earlier chunks, not just the failing
        one (regression: the chunk-local partial_addresses alone would
        hide fully committed chunks)."""
        _, store = make_store_pair(
            num_buckets=32, n_clusters=2, retrain_check_interval=8,
            load_factor=1.0,
        )
        pairs = fresh_pairs(np.random.default_rng(20), 40, 24)
        with pytest.raises(PoolExhaustedError) as excinfo:
            store.put_many(pairs)
        committed = excinfo.value.committed_reports
        assert len(committed) == 32  # 8-op chunks: 4 full chunks landed
        assert len(store) == 32
        for report in committed:
            assert report.key.rstrip(b"\x00").decode().startswith("k")


def upsert_batch(shape: str, rng: np.random.Generator,
                 live: list[bytes]) -> list[tuple[bytes, bytes]]:
    """One ``put_many`` batch over existing (``live``) and fresh keys."""
    existing = crc_order(live)
    fresh = [f"f{i}".encode() for i in range(60)]
    if shape == "long_stretch":
        keys = fresh[:3] + existing + fresh[3:6]
    elif shape == "alternating":
        keys = [k for pair in zip(fresh, existing) for k in pair]
    elif shape == "repeat_inside":
        # existing[2] and existing[40] come back in the middle of a stretch
        keys = (existing[:30] + [existing[2]] + existing[30:70]
                + [existing[40], existing[40]] + existing[70:])
    else:  # "random": short and long stretches, repeats included
        pool = existing + fresh
        keys = [pool[int(i)] for i in rng.integers(0, len(pool), size=160)]
    values = clustered_values(rng, len(keys), 24, flip_rate=0.08)
    return [(key, values[i].tobytes()) for i, key in enumerate(keys)]


def strip_timing(reports):
    return [dataclasses.replace(r, predict_ns=0.0) for r in reports]


def assert_upserts_equal(sequential, batched, seq_reports, bat_reports):
    """Everything ``assert_stores_equal`` compares, plus the returned
    and the recorded reports and ``updates``."""
    assert_stores_equal(sequential, batched)
    assert strip_timing(seq_reports) == strip_timing(bat_reports)
    assert strip_timing(sequential.metrics.reports) == strip_timing(
        batched.metrics.reports
    )
    assert state_digest(sequential, seq_reports) == state_digest(
        batched, bat_reports
    )


class TestUpsertEquivalence:
    """``put_many`` over existing keys plans grouped update chunks; the
    result must still be the sequential ``put`` loop's, byte for byte."""

    @pytest.mark.parametrize("persist_flags", [True, False])
    @pytest.mark.parametrize("update_mode", ["endurance", "latency"])
    @pytest.mark.parametrize(
        "shape", ["long_stretch", "alternating", "repeat_inside", "random"]
    )
    def test_upserts_match_sequential(self, shape, update_mode,
                                      persist_flags):
        """Both validity-bit backings: a chunk programs the NVM bitmap
        once per touched word, the DRAM mirror bit by bit."""
        sequential, batched = make_store_pair(
            update_mode=update_mode, persist_flags=persist_flags
        )
        rng = np.random.default_rng(30)
        base = fresh_pairs(rng, 110, 24)
        for store in (sequential, batched):
            store.put_many(base)
            store.set_keep_reports(True)
        batch = upsert_batch(shape, rng, [key for key, _ in base])
        seq_reports = [sequential.put(key, value) for key, value in batch]
        bat_reports = batched.put_many(batch)
        assert batched.metrics.updates >= 50
        assert_upserts_equal(sequential, batched, seq_reports, bat_reports)

    @pytest.mark.parametrize("persist_flags", [True, False])
    def test_stretch_crossing_the_retrain_cap(self, persist_flags):
        """A stretch longer than the retrain interval is cut where the
        sequential loop runs its check, and retrains there — on the
        validity bits the retrain reads, whichever backing holds them."""
        sequential, batched = make_store_pair(
            load_factor=0.2, retrain_check_interval=16,
            persist_flags=persist_flags,
        )
        rng = np.random.default_rng(31)
        base = fresh_pairs(rng, 100, 24)
        for store in (sequential, batched):
            store.put_many(base)
            store.set_keep_reports(True)
        retrains_before = batched.metrics.retrains
        batch = upsert_batch("long_stretch", rng, [key for key, _ in base])
        seq_reports = [sequential.put(key, value) for key, value in batch]
        bat_reports = batched.put_many(batch)
        assert batched.metrics.retrains > retrains_before + 1
        assert any(r.retrained for r in bat_reports[3:-3])
        assert_upserts_equal(sequential, batched, seq_reports, bat_reports)

    def test_deferred_retrain_groups_past_the_cap(self):
        sequential, batched = make_store_pair(retrain_check_interval=16)
        rng = np.random.default_rng(32)
        base = fresh_pairs(rng, 80, 24)
        for store in (sequential, batched):
            store.put_many(base)
        batch = upsert_batch("long_stretch", rng, [key for key, _ in base])
        with sequential.engine.deferred_retrain():
            seq_reports = [sequential.put(key, value) for key, value in batch]
        with batched.engine.deferred_retrain():
            bat_reports = batched.put_many(batch)
        assert_upserts_equal(sequential, batched, seq_reports, bat_reports)

    def test_pool_exhaustion_between_stretches(self):
        """A tiny zone fills up in the fresh run between two stretches:
        both paths die on the same key, leave the same state, and the
        error names exactly the pairs the sequential loop landed."""
        sequential, batched = make_store_pair(num_buckets=16, n_clusters=2)
        rng = np.random.default_rng(33)
        base = fresh_pairs(rng, 12, 24)
        for store in (sequential, batched):
            store.put_many(base)
            store.set_keep_reports(True)
        existing = crc_order([key for key, _ in base])
        keys = (existing[:8] + [f"f{i}".encode() for i in range(6)]
                + existing[8:])
        values = clustered_values(rng, len(keys), 24, flip_rate=0.08)
        batch = [(key, values[i].tobytes()) for i, key in enumerate(keys)]
        seq_reports = []
        with pytest.raises(PoolExhaustedError):
            for key, value in batch:
                seq_reports.append(sequential.put(key, value))
        with pytest.raises(PoolExhaustedError) as excinfo:
            batched.put_many(batch)
        assert len(seq_reports) == 8 + 4
        assert_upserts_equal(
            sequential, batched, seq_reports, excinfo.value.committed_reports
        )

    def test_flush_sized_upsert_is_a_handful_of_chunks(self, monkeypatch):
        """Regression guard, no tracer needed: 256 existing keys used to
        execute 768 chunks (a SingleUpdate nesting a one-key delete and
        a one-key put, per key)."""
        executed: list[str] = []
        drive = MutationEngine._drive

        def counting_drive(engine, chunks):
            def tap():
                for chunk in chunks:
                    executed.append(type(chunk).__name__)
                    yield chunk
            return drive(engine, tap())

        _, store = make_store_pair(num_buckets=512)
        rng = np.random.default_rng(34)
        base = fresh_pairs(rng, 256, 24)
        store.put_many(base)
        values = clustered_values(rng, 256, 24, flip_rate=0.08)
        batch = [
            (key, values[i].tobytes())
            for i, key in enumerate(crc_order([key for key, _ in base]))
        ]
        monkeypatch.setattr(MutationEngine, "_drive", counting_drive)
        store.put_many(batch)
        assert len(executed) <= 4, executed
        assert set(executed) == {"UpdateEnduranceChunk"}


#: ``state_digest`` of :func:`media_fault_scenario`, generated from the
#: source at dbfdafc (before the index-placement, rebalance-policy and
#: write-verify knobs were removed).  The scenario's state is unchanged
#: since d4fca48, before grouped upserts and the vectorized bitmap.
MEDIA_FAULT_DIGEST = "0d755a8ed4897e3ba321d3e5707a139627612be08ba628286a7e0d9522adaafa"


def worn_store() -> tuple[PNWStore, np.ndarray]:
    """A warmed store with 2% of its cells worn out (budget 0: the
    first flip attempt sticks them), and the rows it was warmed with."""
    store = PNWStore(make_config(
        media_fault_rate=0.02, media_retire_watermark=1.0,
    ))
    old = clustered_values(np.random.default_rng(42), 256, 24)
    store.warm_up(old)
    store.set_keep_reports(True)
    return store, old


def media_fault_scenario() -> PNWStore:
    """Steered PUT chunks, isolated upserts (stretches of one) and a
    batched delete on worn media: every write-verify, relocation and
    retirement path of ``put_many`` / ``delete_many`` fires, through the
    code this suite's subject rewrote (plan carving, ``_flush_puts``,
    the bitmap setters)."""
    store, old = worn_store()
    rng = np.random.default_rng(43)
    base = [f"k{i}".encode() for i in range(90)]
    store.put_many(near_values(rng, old, base))
    fresh = [f"f{i}".encode() for i in range(40)]
    alternating = [k for pair in zip(fresh, crc_order(base)) for k in pair]
    store.put_many(near_values(rng, old, alternating))
    store.delete_many(crc_order(base)[:40])
    return store


class TestMediaFaults:
    def test_put_many_state_is_the_parent_commits(self):
        store = media_fault_scenario()
        assert store.media_stats.verify_failures > 0
        assert store.media_stats.relocations > 0
        assert store.media_stats.rows_retired > 0
        assert state_digest(store) == MEDIA_FAULT_DIGEST

    def test_grouped_stretch_on_worn_media_keeps_every_acked_write(self):
        """A grouped stretch verifies after the chunk's pops — as
        ``update_many`` always has — so under faults it is not the
        sequential loop's state; the media contract is what must hold:
        every acknowledged pair reads back from a healthy, flagged row."""
        store, old = worn_store()
        rng = np.random.default_rng(44)
        base = [f"k{i}".encode() for i in range(90)]
        store.put_many(near_values(rng, old, base))
        relocations_before = store.media_stats.relocations
        batch = near_values(rng, old, crc_order(base))
        reports = store.put_many(batch)
        assert store.media_stats.relocations > relocations_before
        assert store.metrics.updates == 90
        assert len(store) == len(reports) == 90
        for (key, value), report in zip(batch, reports):
            assert store.get(key) == value
            assert store._is_valid(report.address)
            assert not store.bad_rows.is_retired(report.address)


class TestDeleteEquivalence:
    def test_delete_many_matches_sequential(self):
        sequential, batched = make_store_pair()
        pairs = fresh_pairs(np.random.default_rng(9), 100, 24)
        for store in (sequential, batched):
            store.put_many(pairs)
        doomed = [key for key, _ in pairs[10:70]]
        for key in doomed:
            sequential.delete(key)
        batched.delete_many(doomed)
        assert_stores_equal(sequential, batched)

    def test_missing_key_raises_after_prefix(self):
        sequential, batched = make_store_pair()
        pairs = fresh_pairs(np.random.default_rng(10), 10, 24)
        for store in (sequential, batched):
            store.put_many(pairs)
        keys = [pairs[0][0], pairs[1][0], b"ghost", pairs[2][0]]
        with pytest.raises(KeyNotFoundError):
            for key in keys:
                sequential.delete(key)
        with pytest.raises(KeyNotFoundError):
            batched.delete_many(keys)
        assert b"ghost" not in batched
        assert pairs[2][0].ljust(8, b"\x00") in batched.index
        assert_stores_equal(sequential, batched)


class TestUpdateEquivalence:
    @pytest.mark.parametrize("update_mode", ["endurance", "latency"])
    def test_update_many_matches_sequential(self, update_mode):
        sequential, batched = make_store_pair(update_mode=update_mode)
        rng = np.random.default_rng(11)
        pairs = fresh_pairs(rng, 80, 24)
        for store in (sequential, batched):
            store.put_many(pairs)
        new_values = clustered_values(rng, 80, 24, flip_rate=0.1)
        updates = [
            (pairs[i][0], new_values[i].tobytes()) for i in range(80)
        ]
        for key, value in updates:
            sequential.update(key, value)
        batched.update_many(updates)
        assert_stores_equal(sequential, batched)

    def test_update_many_across_retrains(self):
        sequential, batched = make_store_pair(
            load_factor=0.2, retrain_check_interval=16
        )
        rng = np.random.default_rng(12)
        pairs = fresh_pairs(rng, 120, 24)
        for store in (sequential, batched):
            store.put_many(pairs)
        new_values = clustered_values(rng, 120, 24, flip_rate=0.1)
        updates = [
            (pairs[i][0], new_values[i].tobytes()) for i in range(120)
        ]
        for key, value in updates:
            sequential.update(key, value)
        batched.update_many(updates)
        assert sequential.metrics.retrains > 1
        assert_stores_equal(sequential, batched)

    def test_update_many_out_of_insertion_order(self):
        """An endurance chunk removes every old index entry before its
        inserts; with 200 keys updated in an order other than their
        insertion order the index, the reports and every other digested
        byte must still be the sequential run's."""
        sequential, batched = make_store_pair()
        rng = np.random.default_rng(16)
        pairs = fresh_pairs(rng, 200, 24)
        for store in (sequential, batched):
            store.put_many(pairs)
            store.set_keep_reports(True)
        new_values = clustered_values(rng, 200, 24, flip_rate=0.1)
        updates = [
            (key, new_values[i].tobytes())
            for i, key in enumerate(crc_order([key for key, _ in pairs]))
        ]
        for key, value in updates:
            sequential.update(key, value)
        batched.update_many(updates)
        assert_stores_equal(sequential, batched)
        assert state_digest(sequential) == state_digest(batched)

    def test_repeated_key_in_update_batch(self):
        sequential, batched = make_store_pair()
        pairs = fresh_pairs(np.random.default_rng(13), 20, 24)
        for store in (sequential, batched):
            store.put_many(pairs)
        updates = [
            (pairs[3][0], b"first"), (pairs[5][0], b"other"),
            (pairs[3][0], b"second"),
        ]
        for key, value in updates:
            sequential.update(key, value)
        batched.update_many(updates)
        for store in (sequential, batched):
            assert store.get(pairs[3][0]).startswith(b"second")
        assert_stores_equal(sequential, batched)

    def test_missing_key_mid_update_batch(self):
        sequential, batched = make_store_pair()
        pairs = fresh_pairs(np.random.default_rng(14), 10, 24)
        for store in (sequential, batched):
            store.put_many(pairs)
        updates = [
            (pairs[0][0], b"x"), (b"ghost", b"y"), (pairs[1][0], b"z"),
        ]
        with pytest.raises(KeyNotFoundError):
            for key, value in updates:
                sequential.update(key, value)
        with pytest.raises(KeyNotFoundError):
            batched.update_many(updates)
        for store in (sequential, batched):
            assert store.get(pairs[0][0]).startswith(b"x")
        assert_stores_equal(sequential, batched)


class TestRandomizedMixedWorkload:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scripted_mixed_ops(self, seed):
        """Random op scripts, grouped into batches of consecutive
        same-op runs, stay equivalent to sequential execution."""
        sequential, batched = make_store_pair(
            load_factor=0.4, retrain_check_interval=32
        )
        rng = np.random.default_rng(100 + seed)
        live: list[bytes] = []
        next_id = 0
        script: list[tuple[str, list[tuple[bytes, bytes]] | list[bytes]]] = []
        for _ in range(12):
            op = rng.choice(["put", "update", "delete"])
            size = int(rng.integers(1, 25))
            if op == "put":
                batch = []
                for _ in range(size):
                    key = f"m{next_id}".encode()
                    next_id += 1
                    value = clustered_values(rng, 1, 24)[0].tobytes()
                    batch.append((key, value))
                    live.append(key)
                script.append(("put", batch))
            elif op == "update" and live:
                picks = rng.choice(len(live), size=min(size, len(live)),
                                   replace=False)
                script.append((
                    "update",
                    [(live[p], clustered_values(rng, 1, 24)[0].tobytes())
                     for p in picks],
                ))
            elif op == "delete" and live:
                picks = sorted(
                    rng.choice(len(live), size=min(size, len(live)),
                               replace=False),
                    reverse=True,
                )
                doomed = [live.pop(p) for p in picks]
                script.append(("delete", doomed))
        for op, batch in script:
            if op == "put":
                for key, value in batch:
                    sequential.put(key, value)
                batched.put_many(batch)
            elif op == "update":
                for key, value in batch:
                    sequential.update(key, value)
                batched.update_many(batch)
            else:
                for key in batch:
                    sequential.delete(key)
                batched.delete_many(batch)
        assert_stores_equal(sequential, batched)


class TestDuplicateKeyConsistency:
    """Regression: DuplicateKeyError must be raised consistently by the
    single and batch insert-only paths, without partial mutation."""

    def test_put_unique_raises_on_existing_key(self):
        _, store = make_store_pair()
        store.put_unique(b"k1", b"v")
        with pytest.raises(DuplicateKeyError):
            store.put_unique(b"k1", b"w")
        assert store.get(b"k1").startswith(b"v")

    def test_put_many_unique_raises_on_existing_key(self):
        _, store = make_store_pair()
        store.put(b"k1", b"v")
        before = store.nvm.snapshot()
        with pytest.raises(DuplicateKeyError):
            store.put_many([(b"new", b"x"), (b"k1", b"y")], unique=True)
        # Atomic validation: nothing was written, not even the fresh key.
        assert np.array_equal(store.nvm.snapshot(), before)
        assert b"new" not in store

    def test_put_many_unique_rejects_in_batch_duplicates(self):
        _, store = make_store_pair()
        before = store.nvm.snapshot()
        with pytest.raises(DuplicateKeyError):
            store.put_many([(b"dup", b"x"), (b"dup", b"y")], unique=True)
        assert np.array_equal(store.nvm.snapshot(), before)
        assert b"dup" not in store

    def test_normalization_consistency(self):
        """A short key and its zero-padded form are the same key on both
        paths."""
        _, store = make_store_pair()
        store.put_unique(b"k1", b"v")
        with pytest.raises(DuplicateKeyError):
            store.put_many([(b"k1\x00\x00", b"w")], unique=True)

    def test_plain_put_many_still_upserts(self):
        sequential, batched = make_store_pair()
        for store in (sequential, batched):
            store.put(b"k1", b"old")
        sequential.put(b"k1", b"new")
        batched.put_many([(b"k1", b"new")])
        for store in (sequential, batched):
            assert store.get(b"k1").startswith(b"new")
        assert batched.metrics.updates == 1
        assert_stores_equal(sequential, batched)
