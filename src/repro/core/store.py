"""The PNW key/value store (paper §V, Figures 2 and 5, Algorithms 1-3).

``PNWStore`` wires the four components of the paper's architecture
together: the ML model, dynamic address pool and hash index on DRAM
(Fig. 2a), and the K/V data zone on NVM.

The store's PUT path is Algorithm 2: predict the cluster of the
to-be-written pair, pop the most similar free address from the pool,
data-comparison-write the pair there, and update the index.  DELETE is
Algorithm 3: reset the entry's flag, re-label the freed address by the
data it still holds, and recycle it into the pool.  UPDATE follows the
endurance mode by default (DELETE + steered PUT, §V-B3).

Every mutation executes through the staged write-path engine
(:mod:`repro.engine`): the batch entry points here are thin delegates
to one :class:`~repro.engine.pipeline.MutationEngine` whose
plan → steer → commit → account stages implement the pipeline once for
PUT, UPDATE, and DELETE alike.  The store keeps what the engine drives:
component construction, the validity bitmap, the retrain policy, and
crash recovery.

A per-bucket validity bitmap is kept in a small dedicated NVM region —
the paper's "flag bit ... for deleting a K/V pair from the data zone"
(§V-A3) — which is what makes crash recovery of the DRAM-index
architecture (Fig. 2a) possible: :meth:`recover` rebuilds the index,
model, and pool purely from NVM state.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np

from ..engine.pipeline import MutationEngine
from ..errors import DegradedModeError, MediaError, PoolExhaustedError, ReproError
from ..index.base import KeyIndex
from ..index.dram_hash import DRAMHashIndex
from ..nvm.device import SimulatedNVM
from ..nvm.faults import FaultModel
from ..nvm.hybrid import HybridMemory
from ..nvm.stats import MediaStats, WearStats
from .address_pool import DynamicAddressPool
from .config import PNWConfig
from .media import BadRowDirectory, MediaScrubber
from .model_manager import ModelManager
from .reports import OperationReport, StoreMetrics

__all__ = ["PNWStore", "OperationReport", "StoreMetrics"]

#: Shortest address batch that takes the vectorized bitmap update.
#: Measured on a 4096-bucket store (best of 7): the vector path costs
#: ~65 us however few addresses it carries (``np.unique`` plus one
#: ``peek_many``/``write_many`` round-trip; 74 us at 4 addresses, 285 us
#: at 128 against 1444 us for the per-word loop it replaced), a scalar
#: ``_set_valid`` 15-23 us per address — break-even at 4 to 6.  The low
#: end is taken because the vector path also programs each flag word
#: once, where scalar calls program it once per address.
_VECTOR_FLAGS_MIN = 4

#: One executed run: its reports, or the error that cut it short.
RunOutcome = tuple[list[OperationReport] | None, BaseException | None]


def execute_runs(store, runs: list[tuple[str, list]]) -> list[RunOutcome]:
    """The one ordered-run loop behind every ``run_shard_batches``.

    ``runs`` is an ordered list of ``(kind, items)`` where ``kind`` is
    ``"put"`` / ``"update"`` / ``"delete"`` and ``items`` the matching
    ``*_many`` argument.  Each run executes in order on ``store`` (a
    leaf or the tier) and yields one ``(reports, error)`` outcome; runs
    are independent — a failing run does not stop the later ones.
    """
    ops = {
        "put": store.put_many,
        "update": store.update_many,
        "delete": store.delete_many,
    }
    outcomes: list[RunOutcome] = []
    for kind, items in runs:
        try:
            outcomes.append((ops[kind](items), None))
        except Exception as exc:  # noqa: BLE001 - outcome-encoded for the caller
            outcomes.append((None, exc))
    return outcomes


class PNWStore:
    """Predict-and-Write K/V store on simulated hybrid DRAM-NVM memory.

    The leaf also answers the one-lane form of the store surface the
    shard router, the DRAM tier and the ingest queue speak (one shard,
    routing epoch 0, nothing to pin, rebalance or close), so wrappers
    and drivers call it without asking what they were handed.
    """

    #: One lane: a single zone is shard 0 of 1.
    n_shards = 1
    #: The routing table never changes (there is none).
    routing_epoch = 0

    def __init__(self, config: PNWConfig) -> None:
        self.config = config
        # Media fault machinery first: the fault model plugs into the
        # device, and the retirement directory must exist before the
        # first pool build.
        faults = None
        if config.media_enabled:
            faults = FaultModel(
                config.num_buckets,
                config.bucket_bytes,
                fault_rate=config.media_fault_rate,
                fault_budget=config.media_fault_budget,
                seed=config.seed,
            )
        self.bad_rows = BadRowDirectory(config.num_buckets)
        self.media_stats = MediaStats()
        self.scrubber = MediaScrubber(config.num_buckets) if config.media_enabled else None
        self._retire_limit = max(
            1, int(np.ceil(config.media_retire_watermark * config.num_buckets))
        )
        self.memory = HybridMemory(
            config.num_buckets,
            config.bucket_bytes,
            word_bytes=config.word_bytes,
            track_bit_wear=config.track_bit_wear,
            nvm_faults=faults,
        )
        # Validity bitmap: one bit per bucket, packed into 4-byte NVM words
        # in its own region so data-zone wear numbers stay pure.  With
        # persist_flags=False (the paper's Fig. 2a), flags live in DRAM
        # alongside the index and crash recovery is unavailable.
        bitmap_words = -(-config.num_buckets // 32)
        self.flags_nvm = SimulatedNVM(bitmap_words, 4)
        self._valid_dram = (
            np.zeros(config.num_buckets, dtype=bool)
            if not config.persist_flags
            else None
        )

        self.index: DRAMHashIndex = self._build_index()
        self.manager = ModelManager(config)
        self.pool = self._new_pool(1)
        self.pool.rebuild(
            np.zeros(config.num_buckets, dtype=np.int64),
            np.arange(config.num_buckets),
        )
        self.metrics = StoreMetrics()
        self.engine = MutationEngine(self)
        self._live_count = 0
        self._mutations_since_check = 0

    def _build_index(self) -> DRAMHashIndex:
        return DRAMHashIndex(self.config.key_bytes, self.memory.dram)

    # ------------------------------------------------------------------ #
    # helpers                                                             #
    # ------------------------------------------------------------------ #

    @property
    def nvm(self) -> SimulatedNVM:
        """The data-zone device (where Fig. 6's writes are counted)."""
        return self.memory.nvm

    def _new_pool(self, n_clusters: int) -> DynamicAddressPool:
        """A pool wired to this store's device: its probe engine caches
        free addresses' contents in DRAM (filled through the device's
        unaccounted ``gather_into`` path) so Hamming probes score
        contiguous cache rows instead of gathering buckets per pop."""
        pool = DynamicAddressPool(
            n_clusters,
            self.config.num_buckets,
            content_reader=self.nvm.gather_into,
            row_bytes=self.config.bucket_bytes,
        )
        # Re-condemn retired rows on every pool construction (__init__,
        # retrain, crash, recover): retirement is durable media state,
        # pool blocking is its per-instance projection.
        retired = self.bad_rows.retired_addresses()
        if retired.size:
            pool.block_many(retired)
        return pool

    def _normalize(self, key: bytes) -> bytes:
        return KeyIndex.normalize_key(key, self.config.key_bytes)

    def _set_valid(self, address: int, valid: bool) -> None:
        """Flip the bucket's validity bit (NVM bitmap or DRAM mirror)."""
        if self._valid_dram is not None:
            self._valid_dram[address] = valid
            self.memory.dram.write(1)
            return
        word_id, bit = divmod(address, 32)
        word = self.flags_nvm.peek(word_id)
        byte_id, bit_in_byte = divmod(bit, 8)
        if valid:
            word[byte_id] |= 1 << bit_in_byte
        else:
            word[byte_id] &= ~(1 << bit_in_byte) & 0xFF
        self.flags_nvm.write(word_id, word)

    def _set_valid_many(
        self, addresses: np.ndarray | Sequence[int], valid: bool
    ) -> None:
        """Batch :meth:`_set_valid`: one read-modify-write of the bitmap.

        Every touched 4-byte flag word is fetched, has the bits of all
        its addresses set or cleared under one mask, and is programmed
        once, through one multi-row device write in ascending word
        order.  The bitmap *contents* end up identical to per-address
        flag writes; the flag region is charged one write per touched
        word per call instead of one per address — the bitmap half of
        the batch pipeline's write saving.  (Flag-region write counts
        therefore differ from the sequential path; data-zone accounting
        stays byte-identical.)  Calls shorter than
        :data:`_VECTOR_FLAGS_MIN` — every single-op PUT, UPDATE and
        DELETE — and the DRAM mirror take the scalar setter per address,
        without an array round-trip.  Callers must not mix sets and
        clears of the same address in one call.
        """
        if self._valid_dram is not None or len(addresses) < _VECTOR_FLAGS_MIN:
            for address in addresses:
                self._set_valid(int(address), valid)
            return
        word_ids, bits = np.divmod(np.asarray(addresses, dtype=np.int64), 32)
        touched, inverse = np.unique(word_ids, return_inverse=True)
        masks = np.zeros(touched.size, dtype="<u4")
        np.bitwise_or.at(masks, inverse, np.uint32(1) << bits.astype("<u4"))
        words = self.flags_nvm.peek_many(touched).view("<u4").reshape(-1)
        if valid:
            words |= masks
        else:
            words &= ~masks
        self.flags_nvm.write_many(touched, words.view(np.uint8).reshape(-1, 4))

    def _valid_mask(self) -> np.ndarray:
        """Every bucket's validity bit as one boolean vector.

        Bucket ``a`` lives in flag word ``a // 32``, byte ``a % 32 // 8``,
        bit ``a % 8`` — byte ``a // 8`` of the region, least significant
        bit first — so unpacking the region's bytes in little bit order
        lists the buckets in address order.
        """
        if self._valid_dram is not None:
            return self._valid_dram.copy()
        bits = np.unpackbits(
            np.asarray(self.flags_nvm.contents).reshape(-1), bitorder="little"
        )
        return bits[: self.config.num_buckets].astype(bool)

    def _is_valid(self, address: int) -> bool:
        if self._valid_dram is not None:
            return bool(self._valid_dram[address])
        word_id, bit = divmod(address, 32)
        word = self.flags_nvm.peek(word_id)
        byte_id, bit_in_byte = divmod(bit, 8)
        return bool(word[byte_id] >> bit_in_byte & 1)

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def warm_up(self, old_data: np.ndarray) -> None:
        """Fill the zone with "old data" and train the initial model.

        This is the paper's experimental bootstrap (§VI-A): contents are
        loaded without wear accounting (they predate the measurement), the
        model is trained on them (Algorithm 1), and every address joins the
        pool under its content's cluster — available for replacement.
        """
        old_data = np.atleast_2d(np.ascontiguousarray(old_data, dtype=np.uint8))
        n = old_data.shape[0]
        if n > self.config.num_buckets:
            raise ValueError(
                f"{n} warm-up rows exceed the {self.config.num_buckets}-bucket zone"
            )
        if old_data.shape[1] == self.config.value_bytes:
            rows = np.zeros((n, self.config.bucket_bytes), dtype=np.uint8)
            rows[:, self.config.key_bytes :] = old_data
        elif old_data.shape[1] == self.config.bucket_bytes:
            rows = old_data
        else:
            raise ValueError(
                f"warm-up rows are {old_data.shape[1]} bytes; expected "
                f"value_bytes={self.config.value_bytes} or "
                f"bucket_bytes={self.config.bucket_bytes}"
            )
        self.nvm.load_many(0, rows)
        self.retrain()

    def retrain(self) -> None:
        """Retrain the model on the whole zone and rebuild the pool.

        Live buckets stay out of the pool; free buckets are re-filed under
        their fresh labels.  The hash index is untouched — "we do not need
        to move or change anything in the hash table on NVM" (§V-C).
        A full fit encodes the zone once and files the free addresses
        under the labels that fit already gave their rows.  With
        ``refresh_mode="incremental"`` a trained model is instead
        refreshed in place by mini-batch K-Means (same ``n_clusters``):
        no Lloyd pass, but the zone is encoded for the refresh and its
        free rows again to label them against the moved centroids.
        """
        self._train_and_refile(self.pool.free_addresses())
        self.metrics.retrains += 1

    def _train_and_refile(self, free: np.ndarray) -> None:
        """(Re)train on the zone's contents and build a fresh pool that
        files the ``free`` addresses under their rows' labels."""
        contents = np.asarray(self.nvm.contents)
        self.manager.train(contents)
        assert self.manager.model is not None
        self.pool = self._new_pool(self.manager.model.n_clusters)
        if free.size:
            self.pool.rebuild(self.manager.trained_labels(contents, free), free)

    def _maybe_retrain(self) -> bool:
        if self.engine.defer_retrain:
            # Migration batches don't advance the retrain clock: the
            # load-factor check simply runs on the next regular mutation.
            return False
        self._mutations_since_check += 1
        if self._mutations_since_check < self.config.retrain_check_interval:
            return False
        self._mutations_since_check = 0
        if self.manager.should_retrain(self.live_fraction):
            self.retrain()
            return True
        return False

    # ------------------------------------------------------------------ #
    # K/V operations (thin delegates to the staged engine)                #
    # ------------------------------------------------------------------ #

    def put(self, key: bytes, value: bytes | np.ndarray) -> OperationReport:
        """PUT (Algorithm 2).  Existing keys follow the update mode.

        A thin single-pair wrapper over :meth:`put_many`, so the
        sequential and batched paths are literally the same code.
        """
        return self.put_many([(key, value)])[0]

    def put_many(
        self,
        pairs: Iterable[tuple[bytes, bytes | np.ndarray]],
        *,
        unique: bool = False,
    ) -> list[OperationReport]:
        """Batched PUT: vectorized Algorithm 2 over many K/V pairs.

        The engine featurizes the whole batch as one matrix, predicts
        every cluster in one K-Means call, bulk-pops best-match addresses
        from the pool, and commits the data-comparison writes through the
        device's multi-row path — while leaving the store byte-identical
        (data zone, flag bitmap, index, wear counters, pool order) to
        calling :meth:`put` once per pair in order.  To guarantee that,
        the plan stage chunks the batch so a retrain check can only fire
        where the sequential loop would run it.  Pairs whose key already
        exists follow the update mode, like a sequential PUT of an
        existing key: a run of consecutive distinct existing keys — a
        tier flush is mostly that — executes as one vectorized update
        chunk (:meth:`update_many`'s), a lone one as a single update.
        (The byte-identical guarantee holds for the raw
        bit/byte featurizers — the defaults; with PCA attached, batch and
        single-row features agree only to float tolerance, so a near-tie
        between centroids can steer a pair differently.)

        With ``unique=True`` the whole batch is validated first and a
        :class:`DuplicateKeyError` is raised — before anything is
        written — if any key already exists or appears twice in the
        batch (the batch form of :meth:`put_unique`).

        Value validation happens up front: an oversized value rejects the
        batch before any mutation.  A :class:`PoolExhaustedError`
        mid-batch commits the already-placed prefix (as the sequential
        loop would) before escaping; the escaping exception carries
        ``committed_reports`` — the in-order reports of every pair of
        *this call* that fully committed — so callers can retry exactly
        the remainder.  (On worn media, a write-verify relocation that
        finds the pool empty inside a run of existing keys leaves that
        chunk's uncommitted keys deleted, exactly as
        :meth:`update_many` does: re-put them from the batch.)  Returns
        one report per pair, in order.
        """
        return self.engine.put_many(pairs, unique=unique)

    def get(self, key: bytes) -> bytes:
        """GET (§V-B4): index lookup, then a data-zone read.

        A missing key raises :class:`KeyNotFoundError` (a
        :class:`KeyError` subclass), like every miss on both store
        types.
        """
        key = self._normalize(key)
        address = self.index.get(key)
        bucket = self.nvm.read(address)
        self.metrics.gets += 1
        return bucket[self.config.key_bytes :].tobytes()

    def get_many(self, keys: Iterable[bytes]) -> list[bytes]:
        """Read many keys in order (one padded value per key).

        The bulk read of the shard rebalancer's migration batches.  A
        missing key raises :class:`KeyNotFoundError` like :meth:`get`.
        """
        return [self.get(key) for key in keys]

    def delete(self, key: bytes) -> OperationReport:
        """DELETE (Algorithm 3): flag reset + address recycling.

        A thin single-key wrapper over :meth:`delete_many`.
        """
        return self.delete_many([key])[0]

    def delete_many(self, keys: Iterable[bytes]) -> list[OperationReport]:
        """Batched DELETE: one vectorized re-labeling for many keys.

        Index removals and flag resets run per key in order; the freed
        buckets' contents are then gathered once, re-labeled in a single
        K-Means call (Algorithm 3, line 3, batched — deletes never change
        bucket contents, so the labels match per-key prediction exactly),
        and recycled into the pool in key order.  The result is
        state-identical to calling :meth:`delete` once per key.

        A missing key raises :class:`KeyNotFoundError` after the
        already-deleted prefix is fully recycled — the state a sequential
        loop leaves when it dies on that key.  The escaping exception
        carries ``committed_reports`` (the prefix's reports).
        """
        return self.engine.delete_many(keys)

    def update(self, key: bytes, value: bytes | np.ndarray) -> OperationReport:
        """UPDATE (§V-B3): endurance (delete+put) or latency (in place)."""
        return self.engine.update_single(self._normalize(key), value)

    def update_many(
        self, pairs: Iterable[tuple[bytes, bytes | np.ndarray]]
    ) -> list[OperationReport]:
        """Batched UPDATE, state-identical to :meth:`update` per pair.

        Endurance mode replays the sequential interleaving — delete one,
        steer one — but amortises every model call: the old contents are
        re-labeled and the new payloads' cluster orders predicted in two
        vectorized calls per chunk, and the steered writes are flushed
        through the multi-row device path.  Latency mode batches the
        in-place writes directly.  Chunks end at duplicate keys (a later
        update of the same key must observe the earlier one) and, in
        endurance mode, at retrain-check boundaries.

        A missing key raises :class:`KeyNotFoundError` after the
        already-updated prefix is fully applied, like a sequential loop;
        the exception carries ``committed_reports``.  Value sizes are
        validated up front (an oversized value anywhere rejects the
        batch before any mutation).  A mid-batch
        :class:`PoolExhaustedError` carries ``committed_reports`` like
        :meth:`put_many`.  Returns the per-pair UPDATE reports in order.
        """
        return self.engine.update_many(pairs)

    # ------------------------------------------------------------------ #
    # the one-lane store surface (what wrappers override or delegate)     #
    # ------------------------------------------------------------------ #

    def shard_of_key(self, key: bytes) -> int:
        """Always shard 0 — after validating ``key`` like every router."""
        KeyIndex.normalize_key(key, self.config.key_bytes)
        return 0

    def run_shard_batches(
        self, batches: dict[int, list[tuple[str, list]]]
    ) -> dict[int, list[RunOutcome]]:
        """Execute pre-routed ``{shard: [(kind, items), ...]}`` run
        sequences (the :class:`~repro.ingest.IngestQueue` drain path);
        see :func:`execute_runs` for the per-run outcome contract."""
        return {
            shard_id: execute_runs(self, runs)
            for shard_id, runs in batches.items()
            if runs
        }

    def routing_pin(self):
        """Nothing to pin: a null context."""
        return contextlib.nullcontext()

    def rebalance_check(self, ops: int = 1) -> bool:
        """No siblings to rebalance against."""
        return False

    def router_stats(self) -> None:
        """No router; ``None`` (``/stats`` reports ``"router": null``)."""
        return None

    def wear_stats(self) -> WearStats:
        """The data zone's wear accounting (live counters, not a copy)."""
        return self.nvm.stats

    def wear_summary(self) -> dict[str, float]:
        """Headline counters of the data-zone wear."""
        return self.nvm.stats.summary()

    @property
    def total_free(self) -> int:
        """Free addresses in the pool."""
        return self.pool.total_free

    def set_keep_reports(self, keep: bool) -> None:
        """Toggle per-operation report retention (works through every
        wrapper, unlike assigning to a merged ``metrics`` snapshot)."""
        self.metrics.keep_reports = keep

    def set_defer_retrain(self, defer: bool) -> None:
        """Toggle the engine's retrain deferral (the shard rebalancer
        wraps migration batches in this so a K-Means refit can't stall
        the quiesced migration window)."""
        self.engine.defer_retrain = defer

    def close(self) -> None:
        """Nothing to release; the store stays usable."""

    # ------------------------------------------------------------------ #
    # recovery                                                            #
    # ------------------------------------------------------------------ #

    def crash(self) -> None:
        """Drop every DRAM structure, simulating a power failure.

        The media layer splits across the line: scrub checksums and the
        patrol cursor are DRAM (they reset), while the retirement bitmap
        and the fault model's stuck cells are media facts that survive.
        """
        self.manager = ModelManager(self.config)
        self.pool = self._new_pool(1)
        self.pool.rebuild(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        self.index = self._build_index()
        self._live_count = 0
        if self.scrubber is not None:
            self.scrubber.reset()

    def recover(self) -> None:
        """Rebuild all DRAM state from NVM (§V-A1: the model "can be
        reconstructed after a crash").

        Scans the validity bitmap, re-inserts live keys into the DRAM
        index when it is empty (after :meth:`crash`; a live index is
        kept as is), retrains the model on the zone, and refiles free
        addresses into the pool.
        """
        if self._valid_dram is not None:
            raise ReproError(
                "recover() needs the persistent validity bitmap; this store "
                "was built with persist_flags=False (the paper's Fig. 2a "
                "architecture, which cannot rebuild liveness after a crash)"
            )
        valid = self._valid_mask()
        live = np.flatnonzero(valid)
        if len(self.index) == 0:
            keys = np.asarray(self.nvm.contents)[live, : self.config.key_bytes]
            self.index.put_many(keys, live.tolist())
        self._live_count = int(live.size)
        self._train_and_refile(np.flatnonzero(~valid))
        if self.scrubber is not None:
            # Checksums died with DRAM; re-trust the media for live rows
            # (every one of them passed write-verify before the crash).
            self.scrubber.rebuild(self.nvm, live)

    # ------------------------------------------------------------------ #
    # media health (write-verify support, retirement, patrol scrubbing)   #
    # ------------------------------------------------------------------ #

    @property
    def degraded(self) -> bool:
        """True once media retirement crossed the capacity watermark.

        A degraded store sheds ``put``/``update`` batches with
        :class:`~repro.errors.DegradedModeError` (reads and deletes are
        still served) so a worn-out zone fails loudly instead of
        thrashing its last healthy rows.
        """
        return self.config.media_enabled and self.bad_rows.count >= self._retire_limit

    def _retire_address(self, address: int) -> None:
        """Condemn a row: record it, block it in the pool, and drop its
        patrol checksum.  Idempotent."""
        if self.bad_rows.retire(address):
            self.media_stats.rows_retired += 1
        self.pool.block(address)
        if self.scrubber is not None:
            self.scrubber.forget(address)

    def _media_place(
        self,
        payload: np.ndarray,
        cluster: int | None = None,
        order: np.ndarray | None = None,
    ) -> tuple[int, object]:
        """Write ``payload`` to a *verified* fresh address.

        Pops best-match candidates through the ordinary Hamming probe
        path (§IV) and read-back-verifies each landing; candidates whose
        rows turn out stuck are retired and the probe continues.  Raises
        :class:`~repro.errors.PoolExhaustedError` when no healthy row is
        left.  Returns ``(address, write_report)``.
        """
        if cluster is None:
            if self.manager.is_trained:
                cluster = int(self.manager.predict(payload))
                order = self.manager.fallback_order(payload)
            else:
                cluster, order = 0, None
        while True:
            address = self.pool.get_best(
                cluster, payload, self.config.probe_limit, order
            )
            report = self.nvm.write(address, payload)
            if np.array_equal(self.nvm.peek(address), payload):
                return address, report
            self.media_stats.verify_failures += 1
            self._retire_address(address)

    def _relocate_live_row(self, address: int, row: np.ndarray) -> int:
        """Move an occupied row off failing media (scrub path).

        Ordering is crash-safe: the copy is written and flagged valid
        before the index repoints and the old flag clears, so a crash
        mid-move leaves at least one valid, correct copy (recovery's
        index rebuild picks one; the loser is merely leaked until the
        next full rebuild).
        """
        key = row[: self.config.key_bytes].tobytes()
        new_address, _report = self._media_place(row)
        self._set_valid(new_address, True)
        self.index.put(key, new_address)
        self._set_valid(address, False)
        self._retire_address(address)
        if self.scrubber is not None:
            self.scrubber.note(new_address, row)
        self.media_stats.relocations += 1
        return new_address

    def scrub(self, limit: int | None = None) -> dict[str, int]:
        """One patrol pass: read up to ``limit`` occupied rows (all, when
        ``None``), compare each against its stored checksum, and
        proactively relocate rows sitting on latent stuck cells.

        Raises :class:`~repro.errors.MediaError` if any row contradicts
        its checksum (acknowledged-data corruption — write-verify is
        designed to make this impossible), and
        :class:`~repro.errors.DegradedModeError` if this pass's
        retirements pushed the store over the capacity watermark.  A
        relocation that finds the pool exhausted is *deferred* — the row
        stays where it is, still readable — and reported in the summary.
        """
        if self.scrubber is None:
            return {"scanned": 0, "relocated": 0, "deferred": 0, "mismatches": 0}
        n = self.config.num_buckets
        budget = n if limit is None else max(0, min(int(limit), n))
        was_degraded = self.degraded
        scanned = relocated = deferred = 0
        mismatches: list[int] = []
        cursor = self.scrubber.cursor
        for step in range(n):
            if scanned >= budget:
                break
            address = (cursor + step) % n
            self.scrubber.cursor = (address + 1) % n
            if not self._is_valid(address):
                continue
            scanned += 1
            row = self.nvm.read(address)  # accounted patrol read
            if not self.scrubber.check(address, row):
                self.media_stats.checksum_mismatches += 1
                mismatches.append(address)
                continue
            if self.nvm.media_probe(address) > 0:
                self.media_stats.latent_faults_found += 1
                try:
                    self._relocate_live_row(address, row)
                    relocated += 1
                except PoolExhaustedError:
                    deferred += 1
        self.media_stats.rows_scrubbed += scanned
        self.media_stats.scrub_passes += 1
        if mismatches:
            raise MediaError(
                f"scrub found {len(mismatches)} row(s) contradicting their "
                f"checksums (addresses {mismatches[:8]}): acknowledged data "
                "was corrupted in place"
            )
        if not was_degraded and self.degraded:
            exc = DegradedModeError(
                f"scrub retirements crossed the capacity watermark: "
                f"{self.bad_rows.count}/{self.config.num_buckets} rows retired "
                f"(limit {self._retire_limit}); store is shedding writes"
            )
            exc.committed_reports = []
            raise exc
        return {
            "scanned": scanned,
            "relocated": relocated,
            "deferred": deferred,
            "mismatches": 0,
        }

    # ------------------------------------------------------------------ #
    # introspection                                                       #
    # ------------------------------------------------------------------ #

    def __contains__(self, key: bytes) -> bool:
        return self._normalize(key) in self.index

    def __len__(self) -> int:
        return self._live_count

    @property
    def live_fraction(self) -> float:
        """Occupied fraction of the data zone (checked against the load
        factor)."""
        return self._live_count / self.config.num_buckets

    def put_unique(self, key: bytes, value: bytes | np.ndarray) -> OperationReport:
        """PUT that refuses to overwrite (for insert-only workloads).

        Shares :meth:`put_many`'s ``unique`` path — the engine plan
        stage's :func:`~repro.engine.plan.check_unique` — so the single
        and batched insert-only paths raise the same
        :class:`DuplicateKeyError` on the same (normalized) key, and a
        rejected insert never mutates the store.
        """
        return self.put_many([(key, value)], unique=True)[0]
