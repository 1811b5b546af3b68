"""Counters for the DRAM tier (buffer cache + write-back buffer).

Every tier component (the read cache, each per-shard write buffer, and
the :class:`~repro.tier.store.TieredStore` itself) owns one
:class:`TierStats` and bumps only its own fields;
:meth:`TierStats.merge` sums the parts into the whole-tier snapshot —
the same field-generic merge :class:`~repro.core.reports.StoreMetrics`,
:class:`~repro.nvm.stats.MediaStats` and ``RouterStats`` inherit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nvm.stats import _Counters

__all__ = ["TierStats"]


@dataclass
class TierStats(_Counters):
    """Operation counters for the DRAM tier in front of the NVM store.

    Cache counters (owned by :class:`~repro.tier.cache.BufferCache`):

    * ``cache_hits`` / ``cache_misses`` — GET lookups served from /
      falling through the DRAM read cache.
    * ``cache_evictions`` — LRU entries dropped to admit a new fill.
    * ``cache_invalidations`` — entries dropped because their key was
      mutated (the cache never serves a stale value).

    Write-buffer counters (owned by each per-shard
    :class:`~repro.tier.writebuffer.WriteBuffer`):

    * ``staged`` — mutations absorbed into DRAM as new dirty entries.
    * ``coalesced`` — rewrites of an already-staged key folded into the
      existing dirty entry; each one is an NVM write that never happened.
    * ``writeback_hits`` — GETs served straight from a dirty entry.

    Flush / routing counters (owned by the tiered store):

    * ``flush_events`` — write-buffer drains through the batch path.
    * ``flushed`` — dirty entries written to NVM by those drains.
    * ``write_through`` — ops the store applied directly: every
      mutation in ``write_through`` mode; in ``write_back`` mode, the
      deletes of durable keys (puts and updates always stage).
    * ``unflushed_lost`` — dirty entries dropped by :meth:`crash` before
      any flush made them durable; the tier's precisely-bounded data
      loss (everything else is exactly as durable as the plain store).
    """

    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    staged: int = 0
    coalesced: int = 0
    writeback_hits: int = 0
    flush_events: int = 0
    flushed: int = 0
    write_through: int = 0
    unflushed_lost: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups served from DRAM."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def absorbed(self) -> int:
        """NVM writes the tier absorbed: coalesced rewrites plus staged
        entries that never reached the device (still dirty or lost)."""
        return self.coalesced + self.staged - self.flushed
