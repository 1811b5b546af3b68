"""The DRAM tier: a read cache + coalescing write-back buffer in front
of the NVM store.

The paper's premise is that NVM cells endure a bounded number of
writes, yet without this module every PUT/UPDATE — including a value
that will be rewritten milliseconds later — programs NVM cells
immediately.  :class:`TieredStore` interposes a DRAM tier between the
public K/V API and the store's staged write engine:

* a :class:`~repro.tier.cache.BufferCache` — bounded LRU read cache;
  GET hits never touch the index or the data zone;
* one :class:`~repro.tier.writebuffer.WriteBuffer` per shard — a
  bounded write-back staging area that absorbs mutations in DRAM,
  coalesces rewrites of hot keys (each coalesce is an NVM write that
  never happens), and drains through the store's existing ``put_many``
  batch pipeline on three triggers: **size** (a shard's buffer reaches
  capacity), **interval** (the oldest dirty entry ages past
  ``tier_flush_ops`` tier mutations), and **pressure** (total staged
  entries across shards reach the global ``tier_writeback_entries``
  bound).

Placement policy (``tier_mode`` on :class:`~repro.core.config.PNWConfig`):

=================  =====================================================
``write_through``  Every mutation passes straight to the store — the
                   durable state is *byte-identical* to running without
                   a tier; only GETs are accelerated by the read cache.
``write_back``     Every put/update stages in DRAM first; NVM sees only
                   coalesced flushes.  A delete of a durable key passes
                   through; a delete of a staged create is absorbed.
=================  =====================================================

Crash semantics — precise by construction:

* ``crash()`` loses **exactly** the dirty write-back entries that no
  flush has drained; the count is recorded in
  :attr:`~repro.tier.stats.TierStats.unflushed_lost` before the
  underlying store crashes.  Write-through ops (and flushed write-back
  entries) are exactly as durable as on the bare store.
* ``recover()`` rebuilds the store from NVM as usual; tier caches start
  cold (they are DRAM).
* ``close()`` (and ``flush()``) drain every dirty entry
  deterministically through the batch path, so a clean shutdown loses
  nothing.

Composition: the tier wraps a single :class:`~repro.core.store.PNWStore`
or a :class:`~repro.shard.ShardedPNWStore` — the write buffers are per
shard, so flushes become per-shard sub-batches on the store's own
thread pool.  It also speaks the
``run_shard_batches`` / ``shard_of_key`` / ``n_shards`` surface, so an
:class:`~repro.ingest.IngestQueue` (and the asyncio front door above
it) can drain through the tier unchanged.  Reports of DRAM-absorbed ops
are :meth:`~repro.core.reports.OperationReport.make_buffered` sentinels
(``address == BUFFERED_ADDRESS``, zero NVM cost); read-your-write holds
at every moment because GETs consult the write buffer first.

Thread safety: one reentrant lock serializes every tier entry point.
Under it, flushes still fan out across shards inside the store (its
per-shard locks and thread pool are untouched), so write-back mode
*increases* effective batching rather than fighting the store's
concurrency.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import Iterable

import numpy as np

from ..core.config import PNWConfig
from ..core.reports import OperationReport
from ..core.store import RunOutcome, execute_runs
from ..engine.plan import check_unique, validate_values
from ..errors import DegradedModeError, KeyNotFoundError
from ..index.base import KeyIndex
from .cache import BufferCache
from .stats import TierStats
from .writebuffer import StagedEntry, WriteBuffer

__all__ = ["TieredStore"]


class TieredStore:
    """DRAM buffer cache + write-back buffer wrapping a PNW store.

    Parameters
    ----------
    store:
        A :class:`~repro.core.store.PNWStore` or
        :class:`~repro.shard.ShardedPNWStore`.  The
        tier becomes the store's only mutation driver; don't mutate the
        wrapped store directly while the tier is in use.

    Every setting comes from ``store.config``: ``tier_mode`` (a config
    with ``"off"`` wraps as ``"write_back"``), ``tier_cache_entries``,
    ``tier_writeback_entries`` and ``tier_flush_ops``.
    """

    def __init__(self, store) -> None:
        self.store = store
        self.config: PNWConfig = store.config
        mode = self.config.tier_mode
        #: ``"write_through"`` or ``"write_back"``.
        self.mode = "write_back" if mode == "off" else mode
        #: Lane count for the admission layer (one per shard).
        self.n_shards: int = store.n_shards
        self.writeback_entries = self.config.tier_writeback_entries
        self.flush_ops = self.config.tier_flush_ops
        self.cache = BufferCache(self.config.tier_cache_entries)
        per_shard = max(1, self.writeback_entries // self.n_shards)
        self._buffers = [WriteBuffer(per_shard) for _ in range(self.n_shards)]
        #: Tier-level counters (flush/routing/crash); component counters
        #: live on the cache and buffers.  ``tier_stats`` merges them all.
        self._local = TierStats()
        self._lock = threading.RLock()
        self._seq = 0

    # ------------------------------------------------------------------ #
    # plumbing                                                            #
    # ------------------------------------------------------------------ #

    def _normalize(self, key: bytes) -> bytes:
        return KeyIndex.normalize_key(key, self.config.key_bytes)

    def _pad(self, value: bytes | np.ndarray) -> bytes:
        if isinstance(value, np.ndarray):
            value = value.tobytes()
        return bytes(value).ljust(self.config.value_bytes, b"\x00")

    def shard_of_key(self, key: bytes) -> int:
        """The write-buffer lane (= store shard) owning ``key``."""
        return self.store.shard_of_key(key)

    @property
    def tier_stats(self) -> TierStats:
        """Whole-tier counter snapshot, merged across every component."""
        parts = [self._local, self.cache.stats]
        parts.extend(buffer.stats for buffer in self._buffers)
        return TierStats.merge(parts)

    @property
    def dirty_entries(self) -> int:
        """Write-back entries staged in DRAM but not yet flushed."""
        return sum(len(buffer) for buffer in self._buffers)

    def _shed_if_degraded(self) -> None:
        """Refuse to stage writes a degraded store could never flush.

        Write-back staging would otherwise keep acknowledging
        puts/updates in DRAM while the media underneath has crossed its
        retirement watermark — data that could only ever be lost.  The
        write-through path needs no tier check: the store itself sheds,
        and :meth:`_mutate_many` forwards its error unchanged."""
        if self.mode != "write_through" and self.store.degraded:
            exc = DegradedModeError(
                "tier write shed: the underlying store crossed its media "
                "retirement watermark; retry after deletes or scrubbing "
                "free healthy capacity"
            )
            exc.committed_reports = []
            raise exc

    # ------------------------------------------------------------------ #
    # K/V operations                                                      #
    # ------------------------------------------------------------------ #

    def put(self, key: bytes, value: bytes | np.ndarray) -> OperationReport:
        """PUT through the tier (staged, or passed through in
        ``write_through`` mode)."""
        return self.put_many([(key, value)])[0]

    def put_unique(self, key: bytes, value: bytes | np.ndarray) -> OperationReport:
        """Insert-only PUT; staged creates count as existing."""
        return self.put_many([(key, value)], unique=True)[0]

    def update(self, key: bytes, value: bytes | np.ndarray) -> OperationReport:
        """UPDATE through the tier; missing keys (staged creates count
        as present) raise :class:`KeyNotFoundError`."""
        return self.update_many([(key, value)])[0]

    def delete(self, key: bytes) -> OperationReport:
        """DELETE through the tier.  A staged create is cancelled purely
        in DRAM; anything durable is deleted write-through."""
        return self.delete_many([key])[0]

    def put_many(
        self,
        pairs: Iterable[tuple[bytes, bytes | np.ndarray]],
        *,
        unique: bool = False,
    ) -> list[OperationReport]:
        """Batched PUT.  Values are validated up front (an oversized
        value rejects the batch before any mutation), and with
        ``unique=True`` the whole batch is pre-checked against the tier
        view — staged creates included — with the engine's shared
        :func:`~repro.engine.plan.check_unique`."""
        items = list(pairs)
        keys = [self._normalize(key) for key, _ in items]
        validate_values(self.config, [value for _, value in items])
        with self._lock:
            self._shed_if_degraded()
            if unique:
                check_unique(keys, lambda k: k in self)
            return self._mutate_many(
                "put", list(zip(keys, (value for _, value in items)))
            )

    def update_many(
        self, pairs: Iterable[tuple[bytes, bytes | np.ndarray]]
    ) -> list[OperationReport]:
        """Batched UPDATE; a missing key raises after the prefix is
        applied (``committed_reports`` carried), like the bare store."""
        items = list(pairs)
        keys = [self._normalize(key) for key, _ in items]
        validate_values(self.config, [value for _, value in items])
        with self._lock:
            self._shed_if_degraded()
            return self._mutate_many(
                "update", list(zip(keys, (value for _, value in items)))
            )

    def delete_many(self, keys: Iterable[bytes]) -> list[OperationReport]:
        """Batched DELETE with the same prefix-then-raise miss semantics
        as the bare store."""
        normalized = [self._normalize(key) for key in keys]
        with self._lock:
            return self._mutate_many(
                "delete", [(key, None) for key in normalized]
            )

    def get(self, key: bytes) -> bytes:
        """GET: write buffer first (read-your-write for staged ops),
        then the DRAM read cache, then the store (filling the cache)."""
        key = self._normalize(key)
        with self._lock:
            if self.mode != "write_through":
                entry = self._buffers[self.shard_of_key(key)].peek(key)
                if entry is not None:
                    return entry.value
            cached = self.cache.lookup(key)
            if cached is not None:
                return cached
            value = self.store.get(key)
            self.cache.fill(key, value)
            return value

    # ------------------------------------------------------------------ #
    # the mutation pipeline                                               #
    # ------------------------------------------------------------------ #

    def _mutate_many(
        self, kind: str, items: list[tuple[bytes, bytes | None]]
    ) -> list[OperationReport]:
        if self.mode == "write_through":
            return self._pass_through(kind, items)
        out: list[OperationReport] = []
        #: Consecutive deletes of durable keys awaiting one batched
        #: store call.
        run: list[bytes] = []

        def flush_run() -> None:
            if not run:
                return
            batch, run[:] = list(run), []
            try:
                reports = self.store.delete_many(batch)
            except Exception as exc:
                committed = getattr(exc, "committed_reports", None)
                if committed is not None:
                    exc.committed_reports = out + list(committed)
                raise
            out.extend(reports)
            self._local.write_through += len(reports)

        for key, value in items:
            self._seq += 1
            if kind == "delete":
                self._delete_one(key, run, flush_run, out)
            else:
                self._write_one(kind, key, value, out)
            try:
                self._check_triggers()
            except Exception as exc:
                # A flush trigger fired mid-batch and failed.  The
                # store-level reports on the exception describe the
                # flush batch (staged entries, possibly from earlier
                # calls) — keep them on ``flush_committed_reports`` and
                # make ``committed_reports`` honour this call's
                # partial-commit contract: the ops applied so far.
                flushed = getattr(exc, "committed_reports", None)
                if flushed is not None:
                    exc.flush_committed_reports = list(flushed)
                exc.committed_reports = list(out)
                raise
        flush_run()
        return out

    def _write_one(self, kind, key, value, out) -> None:
        """Stage one put/update.  A rewrite of a dirty key coalesces
        into its entry — that coalesce IS the NVM write the tier
        saves."""
        buffer = self._buffers[self.shard_of_key(key)]
        padded = self._pad(value)
        self.cache.invalidate(key)
        is_create = False
        if buffer.entry(key) is None:
            exists = key in self.store
            if kind == "update" and not exists:
                exc = KeyNotFoundError(f"key {key!r} not found")
                exc.committed_reports = list(out)
                raise exc
            is_create = not exists
        buffer.stage(key, padded, is_create=is_create, seq=self._seq)
        out.append(OperationReport.make_buffered(kind, key))

    def _delete_one(self, key, run, flush_run, out) -> None:
        buffer = self._buffers[self.shard_of_key(key)]
        self.cache.invalidate(key)
        entry = buffer.entry(key)
        if entry is None:
            run.append(key)  # pass through; store raises on a true miss
            return
        flush_run()
        buffer.drop(key)
        if entry.is_create:
            # The store never saw this key: cancelling the staged create
            # is the whole delete.
            out.append(OperationReport.make_buffered("delete", key))
        else:
            # A durable version exists underneath: delete it through.
            run.append(key)

    def _pass_through(
        self, kind: str, items: list[tuple[bytes, bytes | None]]
    ) -> list[OperationReport]:
        """``write_through`` mode: hand the whole batch to the store so
        durable state, reports, and error semantics are byte-identical
        to running without a tier."""
        batch = [key if kind == "delete" else (key, value) for key, value in items]
        for key, _ in items:
            self._seq += 1
            self.cache.invalidate(key)
        try:
            reports = getattr(self.store, f"{kind}_many")(batch)
        except Exception as exc:
            committed = getattr(exc, "committed_reports", None)
            self._local.write_through += len(committed) if committed else 0
            raise
        self._local.write_through += len(reports)
        return reports

    # ------------------------------------------------------------------ #
    # flushing                                                            #
    # ------------------------------------------------------------------ #

    def _check_triggers(self) -> None:
        """Fire the size / pressure / interval flush triggers."""
        full = [
            shard_id
            for shard_id, buffer in enumerate(self._buffers)
            if buffer.full()
        ]
        if full:
            self._flush_buffers(full)
        if self.dirty_entries >= self.writeback_entries:
            self._flush_buffers(range(self.n_shards))
            return
        aged = [
            shard_id
            for shard_id, buffer in enumerate(self._buffers)
            if buffer.oldest_seq() is not None
            and self._seq - buffer.oldest_seq() >= self.flush_ops
        ]
        if aged:
            self._flush_buffers(aged)

    def _flush_buffers(self, shard_ids) -> int:
        """Drain the given shards' dirty entries through ``put_many``.

        One store call covers every shard (the sharded store splits it
        into concurrent per-shard sub-batches).  On a mid-flush failure
        (e.g. pool exhaustion) the entries the store reports committed
        stay flushed and the remainder is re-staged, so nothing is
        silently dropped; the error escapes to the caller that
        triggered the flush.
        """
        groups: list[tuple[int, list[tuple[bytes, StagedEntry]]]] = []
        for shard_id in shard_ids:
            taken = self._buffers[shard_id].take_all()
            if taken:
                groups.append((shard_id, taken))
        batch = [
            (key, entry.value) for _, taken in groups for key, entry in taken
        ]
        if not batch:
            return 0
        self._local.flush_events += 1
        try:
            reports = self.store.put_many(batch)
        except Exception as exc:
            committed = {
                report.key
                for report in getattr(exc, "committed_reports", [])
            }
            for shard_id, taken in groups:
                self._buffers[shard_id].restage(
                    [(k, e) for k, e in taken if k not in committed]
                )
            self._local.flushed += len(committed)
            raise
        self._local.flushed += len(reports)
        return len(reports)

    def flush(self) -> int:
        """Drain every dirty entry to NVM now; returns entries written."""
        with self._lock:
            return self._flush_buffers(range(self.n_shards))

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def warm_up(self, old_data: np.ndarray) -> None:
        """Delegate to the store (the tier has nothing to warm)."""
        with self._lock:
            self.store.warm_up(old_data)

    def retrain(self) -> None:
        """Flush first — so staged values are zone contents the model
        can see — then retrain the store."""
        with self._lock:
            self._flush_buffers(range(self.n_shards))
            self.store.retrain()

    def crash(self) -> None:
        """Power failure: every DRAM structure is lost.

        Loses *exactly* the unflushed write-back entries — counted into
        ``tier_stats.unflushed_lost`` — plus the (rebuildable) read
        cache; then the store's own DRAM structures crash as usual.
        """
        with self._lock:
            lost = sum(buffer.clear() for buffer in self._buffers)
            self._local.unflushed_lost += lost
            self.cache.clear()
            self.store.crash()

    def recover(self) -> None:
        """Rebuild the store from NVM; tier caches start cold."""
        with self._lock:
            self.store.recover()

    def close(self) -> None:
        """Deterministic shutdown: flush every dirty entry, then close
        the store.  Nothing staged is lost on a clean close."""
        with self._lock:
            self._flush_buffers(range(self.n_shards))
            self.store.close()

    def __enter__(self) -> "TieredStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # ingest-queue surface                                                #
    # ------------------------------------------------------------------ #

    def run_shard_batches(
        self, batches: dict[int, list[tuple[str, list]]]
    ) -> dict[int, list[RunOutcome]]:
        """The :class:`~repro.ingest.IngestQueue` drain path, through
        the tier.  Runs execute in shard order under the tier lock (the
        tier's cache and buffers are shared state); the flushes
        they trigger still fan out across the store's shards, so the
        admission layer keeps its multi-lane surface and write-back
        batching stays intact.

        Known tradeoff: the tier lock serializes the admission layer's
        lanes here, so write-through traffic no longer runs
        concurrently across shards (only the fan-out inside each store
        call remains).
        Write-back traffic loses little: its cost is DRAM staging, and
        the coalesced flushes still parallelize.  If write-through
        ingest throughput becomes the bottleneck, per-shard tier locks
        or routing write-through runs around the tier are the
        follow-ups.
        """
        return {
            shard_id: execute_runs(self, batches[shard_id])
            for shard_id in sorted(batches)
        }

    # ------------------------------------------------------------------ #
    # aggregation / introspection                                         #
    # ------------------------------------------------------------------ #

    def scrub(self, limit: int | None = None) -> dict[str, int]:
        """One patrol-scrub pass on the wrapped store (the tier's own
        structures are DRAM — nothing of the tier needs scrubbing)."""
        with self._lock:
            return self.store.scrub(limit)

    def __contains__(self, key: bytes) -> bool:
        key = self._normalize(key)
        with self._lock:
            if self.mode != "write_through":
                if key in self._buffers[self.shard_of_key(key)]:
                    return True
            return key in self.store

    def __len__(self) -> int:
        with self._lock:
            return len(self.store) + sum(
                buffer.creates for buffer in self._buffers
            )


#: Store-surface members the tier adds nothing to, served straight from
#: the wrapped store (a method comes back bound to it).  The tier is
#: transparent to load-aware routing (a migration while entries sit in
#: a write buffer is benign — flushes route fresh through
#: ``store.put_many``), and its own structures are DRAM, so wear, media
#: and operation counters are the store's NVM-side view.  A closed list
#: on purpose: anything that reads or writes *data* must go through the
#: tier's buffers, never around them.  Class-level properties rather
#: than ``__getattr__``, which would take every ``self.x`` of the tier's
#: hot path off the interpreter's fast attribute path.
_DELEGATED = (
    "routing_epoch", "routing_pin", "rebalance_check", "router_stats",
    "metrics", "set_keep_reports", "wear_stats", "wear_summary",
    "media_stats", "degraded", "live_fraction", "total_free",
)
for _name in _DELEGATED:
    setattr(TieredStore, _name, property(attrgetter("store." + _name)))
del _name
