"""StoreMetrics.merge: cross-shard operation-counter aggregation."""

from __future__ import annotations

import pytest

from repro import OperationReport, StoreMetrics


def report_for(key: bytes) -> OperationReport:
    return OperationReport(
        op="put", key=key, address=0, cluster=0, fallback_used=False,
        bit_updates=1, words_touched=1, lines_touched=1,
        nvm_latency_ns=1.0, predict_ns=0.0, retrained=False,
    )


class TestStoreMetricsMerge:
    def test_counters_sum(self):
        a = StoreMetrics(puts=3, gets=1, deletes=2, updates=1, retrains=1,
                         fallbacks=4)
        b = StoreMetrics(puts=5, gets=2, deletes=0, updates=3, retrains=0,
                         fallbacks=1)
        merged = StoreMetrics.merge([a, b])
        assert (merged.puts, merged.gets, merged.deletes) == (8, 3, 2)
        assert (merged.updates, merged.retrains, merged.fallbacks) == (4, 1, 5)

    def test_reports_concatenate_in_part_order(self):
        a = StoreMetrics(keep_reports=True)
        b = StoreMetrics(keep_reports=True)
        a.record(report_for(b"a1"))
        b.record(report_for(b"b1"))
        a.record(report_for(b"a2"))
        merged = StoreMetrics.merge([a, b])
        assert [r.key for r in merged.reports] == [b"a1", b"a2", b"b1"]
        assert merged.keep_reports

    def test_keep_reports_any(self):
        assert not StoreMetrics.merge([StoreMetrics(), StoreMetrics()]).keep_reports
        assert StoreMetrics.merge(
            [StoreMetrics(), StoreMetrics(keep_reports=True)]
        ).keep_reports

    def test_empty_part_contributes_nothing(self):
        # A shard with zero traffic merges as the identity element.
        busy = StoreMetrics(puts=4, deletes=1, keep_reports=True)
        busy.record(report_for(b"k"))
        merged = StoreMetrics.merge([busy, StoreMetrics()])
        assert (merged.puts, merged.deletes) == (4, 1)
        assert [r.key for r in merged.reports] == [b"k"]

    def test_single_part_round_trips(self):
        a = StoreMetrics(puts=2, gets=3, keep_reports=True)
        a.record(report_for(b"only"))
        merged = StoreMetrics.merge([a])
        assert (merged.puts, merged.gets) == (2, 3)
        assert [r.key for r in merged.reports] == [b"only"]

    def test_merge_is_a_snapshot(self):
        a = StoreMetrics(puts=1)
        merged = StoreMetrics.merge([a])
        a.puts += 1
        assert merged.puts == 1

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            StoreMetrics.merge([])
