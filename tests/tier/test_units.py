"""Unit tests for the tier's components in isolation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.reports import BUFFERED_ADDRESS, OperationReport
from repro.tier import BufferCache, TierStats, WriteBuffer


class TestBufferCache:
    def test_lru_eviction_order(self):
        cache = BufferCache(2)
        cache.fill(b"a", b"1")
        cache.fill(b"b", b"2")
        assert cache.lookup(b"a") == b"1"  # refreshes a
        cache.fill(b"c", b"3")  # evicts b (LRU)
        assert b"b" not in cache
        assert cache.lookup(b"b") is None
        assert cache.lookup(b"a") == b"1"
        assert cache.lookup(b"c") == b"3"
        assert cache.stats.cache_evictions == 1

    def test_hit_miss_accounting(self):
        cache = BufferCache(4)
        assert cache.lookup(b"x") is None
        cache.fill(b"x", b"v")
        assert cache.lookup(b"x") == b"v"
        assert cache.stats.cache_hits == 1
        assert cache.stats.cache_misses == 1
        assert cache.stats.cache_hit_rate == 0.5

    def test_invalidate_counts_only_real_drops(self):
        cache = BufferCache(4)
        cache.fill(b"x", b"v")
        cache.invalidate(b"x")
        cache.invalidate(b"x")  # already gone: not counted
        assert cache.stats.cache_invalidations == 1
        assert cache.lookup(b"x") is None

    def test_zero_capacity_disables(self):
        cache = BufferCache(0)
        cache.fill(b"x", b"v")
        assert len(cache) == 0
        assert cache.lookup(b"x") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            BufferCache(-1)

    def test_refill_refreshes_without_evicting(self):
        cache = BufferCache(2)
        cache.fill(b"a", b"1")
        cache.fill(b"b", b"2")
        cache.fill(b"a", b"1'")  # refresh, not a new entry
        assert len(cache) == 2
        assert cache.stats.cache_evictions == 0
        assert cache.lookup(b"a") == b"1'"


class TestWriteBuffer:
    def test_stage_then_coalesce(self):
        buffer = WriteBuffer(4)
        assert buffer.stage(b"k", b"v1", is_create=True, seq=1) is False
        assert buffer.stage(b"k", b"v2", is_create=True, seq=1) is True
        entry = buffer.entry(b"k")
        assert entry.value == b"v2"
        assert entry.seq == 1  # age anchored at first staging
        assert buffer.stats.staged == 1
        assert buffer.stats.coalesced == 1
        assert len(buffer) == 1

    def test_creates_tracking_through_drop_and_clear(self):
        buffer = WriteBuffer(4)
        buffer.stage(b"a", b"1", is_create=True, seq=1)
        buffer.stage(b"b", b"2", is_create=False, seq=2)
        assert buffer.creates == 1
        buffer.drop(b"a")
        assert buffer.creates == 0
        buffer.stage(b"c", b"3", is_create=True, seq=3)
        assert buffer.clear() == 2
        assert buffer.creates == 0
        assert len(buffer) == 0

    def test_take_all_preserves_staging_order(self):
        buffer = WriteBuffer(8)
        for i in range(4):
            buffer.stage(f"k{i}".encode(), b"v", is_create=True, seq=i)
        taken = buffer.take_all()
        assert [key for key, _ in taken] == [b"k0", b"k1", b"k2", b"k3"]
        assert len(buffer) == 0 and buffer.creates == 0

    def test_restage_keeps_entries_without_recounting(self):
        buffer = WriteBuffer(8)
        buffer.stage(b"a", b"1", is_create=True, seq=1)
        staged_before = buffer.stats.staged
        buffer.restage(buffer.take_all())
        assert b"a" in buffer
        assert buffer.creates == 1
        assert buffer.stats.staged == staged_before

    def test_full_and_oldest_seq(self):
        buffer = WriteBuffer(2)
        assert buffer.oldest_seq() is None
        buffer.stage(b"a", b"1", is_create=True, seq=5)
        buffer.stage(b"b", b"2", is_create=True, seq=9)
        assert buffer.oldest_seq() == 5
        assert buffer.full()
        buffer.drop(b"a")
        assert buffer.oldest_seq() == 9
        assert not buffer.full()

    def test_peek_counts_writeback_hits(self):
        buffer = WriteBuffer(2)
        buffer.stage(b"a", b"1", is_create=True, seq=1)
        assert buffer.peek(b"a").value == b"1"
        assert buffer.peek(b"missing") is None
        assert buffer.stats.writeback_hits == 1

    def test_capacity_floor(self):
        with pytest.raises(ValueError, match="capacity"):
            WriteBuffer(0)


class TestTierStats:
    def test_merge_sums_every_field(self):
        a = TierStats(cache_hits=1, staged=2, flushed=3)
        b = TierStats(cache_hits=4, coalesced=5, unflushed_lost=6)
        merged = TierStats.merge([a, b])
        assert merged.cache_hits == 5
        assert merged.staged == 2
        assert merged.coalesced == 5
        assert merged.flushed == 3
        assert merged.unflushed_lost == 6

    def test_merge_is_field_generic(self):
        # Adding a counter field must not require touching merge():
        # every int field participates.
        ones = TierStats(**{
            f.name: 1 for f in dataclasses.fields(TierStats)
        })
        merged = TierStats.merge([ones, ones, ones])
        for f in dataclasses.fields(TierStats):
            assert getattr(merged, f.name) == 3, f.name

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            TierStats.merge([])

    def test_as_dict_round_trip(self):
        stats = TierStats(cache_hits=2, flush_events=1)
        as_dict = stats.as_dict()
        assert as_dict["cache_hits"] == 2
        assert set(as_dict) == {
            f.name for f in dataclasses.fields(TierStats)
        }

    def test_hit_rate_and_absorbed(self):
        stats = TierStats(cache_hits=3, cache_misses=1,
                          staged=10, coalesced=5, flushed=8)
        assert stats.cache_hit_rate == 0.75
        assert stats.absorbed == 7
        assert TierStats().cache_hit_rate == 0.0


class TestBufferedReports:
    def test_make_buffered_is_zero_cost(self):
        report = OperationReport.make_buffered("put", b"k")
        assert report.buffered
        assert report.address == BUFFERED_ADDRESS
        assert report.bit_updates == 0
        assert report.words_touched == 0
        assert report.nvm_latency_ns == 0.0
        assert report.total_latency_ns == 0.0
        assert not report.retrained

    def test_real_reports_are_not_buffered(self):
        report = OperationReport(
            op="put", key=b"k", address=3, cluster=0, fallback_used=False,
            bit_updates=1, words_touched=1, lines_touched=1,
            nvm_latency_ns=1.0, predict_ns=0.0, retrained=False,
        )
        assert not report.buffered
