"""Operation reports and counters shared by the store and the engine.

These types used to live inside ``core/store.py``; they sit in their own
module now so the staged mutation pipeline (:mod:`repro.engine`) can
build reports without importing the store (which itself imports the
engine).  ``repro.core.store`` re-exports both names, so existing
imports keep working.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..nvm.stats import _Counters

__all__ = ["OperationReport", "StoreMetrics", "BUFFERED_ADDRESS"]

#: Address stamped on reports of ops absorbed by the DRAM tier: no NVM
#: bucket was written (yet), so there is no address to report.
BUFFERED_ADDRESS = -1


@dataclass(frozen=True)
class OperationReport:
    """Cost breakdown of one mutating store operation."""

    op: str
    key: bytes
    address: int
    cluster: int
    fallback_used: bool
    bit_updates: int
    words_touched: int
    lines_touched: int
    nvm_latency_ns: float
    predict_ns: float
    retrained: bool

    @property
    def total_latency_ns(self) -> float:
        """Modeled NVM time plus measured prediction time — the paper's
        end-to-end write latency decomposition (§VI-E)."""
        return self.nvm_latency_ns + self.predict_ns

    @property
    def buffered(self) -> bool:
        """Whether this op was absorbed in DRAM by the tier (no NVM
        cells programmed; it becomes durable at the next flush)."""
        return self.address == BUFFERED_ADDRESS

    @classmethod
    def make_buffered(cls, op: str, key: bytes) -> "OperationReport":
        """The zero-cost report of a DRAM-absorbed op: every NVM counter
        is zero because nothing touched the device — the whole point of
        the write-back tier.  ``address``/``cluster`` are
        :data:`BUFFERED_ADDRESS` sentinels (no bucket was chosen)."""
        return cls(
            op=op,
            key=key,
            address=BUFFERED_ADDRESS,
            cluster=BUFFERED_ADDRESS,
            fallback_used=False,
            bit_updates=0,
            words_touched=0,
            lines_touched=0,
            nvm_latency_ns=0.0,
            predict_ns=0.0,
            retrained=False,
        )


@dataclass
class StoreMetrics(_Counters):
    """Operation counters for one store instance.

    :meth:`merge` (inherited, field-generic) is the sharded store's
    whole-store view: counters sum, ``keep_reports`` ors, and kept
    reports concatenate part by part (shard order, each shard's own
    chronological order) — a per-shard timeline, not a global one,
    because concurrent shard pipelines have no cross-shard operation
    order.  The result is a snapshot: it does not track the parts.
    """

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    updates: int = 0
    retrains: int = 0
    fallbacks: int = 0
    reports: list[OperationReport] = field(default_factory=list)
    keep_reports: bool = False

    def record(self, report: OperationReport) -> None:
        if self.keep_reports:
            self.reports.append(report)
