"""The staged mutation pipeline shared by the single and sharded stores.

Every mutating store operation is one configuration of the same four
stages (paper §IV-§V):

* **plan** (:mod:`repro.engine.plan`) — normalize keys, validate and
  encode values, run the insert-only uniqueness pre-check, and carve the
  batch into chunks at duplicate-key and retrain-check boundaries;
* **steer** (:mod:`repro.engine.steer`) — the vectorized K-Means calls:
  nearest-first cluster orders for PUTs, re-labels for freed addresses;
* **commit** (:mod:`repro.engine.commit`) — pool pops, multi-row device
  writes, coalesced flag bits, index updates, retrain checks;
* **account** (:mod:`repro.engine.account`) — per-op reports and
  counters.

PUT, UPDATE, and DELETE differ only in their planner and in which stage
functions their chunks bind — there is exactly one driver loop
(:meth:`MutationEngine._drive`) and one implementation of each stage.
:class:`~repro.core.store.PNWStore` owns one engine;
:class:`~repro.shard.ShardedPNWStore` routes sub-batches to its shards'
engines and reuses the plan stage's uniqueness check directly.

Everything here is a code-motion refactor of the store's former
hand-copied batch loops: execution order — and therefore every byte of
device, index, flag, pool, and accounting state — is unchanged (pinned
by the batch-equivalence and probe-oracle suites).
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..core.reports import OperationReport
from ..errors import DegradedModeError, KeyNotFoundError, PoolExhaustedError
from . import account, commit, plan, steer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.store import PNWStore

__all__ = [
    "MutationEngine",
    "Chunk",
    "PutChunk",
    "SingleUpdate",
    "UpdateEnduranceChunk",
    "UpdateLatencyChunk",
    "DeleteBatch",
]


class Chunk:
    """One unit of pipeline work: a steer→commit→account configuration.

    Planners yield chunks; the driver executes them in order.  A chunk
    that dies mid-commit stamps the escaping exception with
    ``chunk_reports`` (its committed prefix) so the driver can aggregate
    ``committed_reports`` across the whole batch call.
    """

    __slots__ = ()

    def execute(self, engine: "MutationEngine") -> list[OperationReport]:
        raise NotImplementedError


class PutChunk(Chunk):
    """Steered PUT of fresh, distinct keys as one vectorized batch.

    The planner guarantees: no key is in the index, keys are distinct,
    and the chunk is short enough that a retrain check can only fire at
    its last operation.
    """

    __slots__ = ("keys", "values")

    def __init__(self, keys: list[bytes], values: list) -> None:
        self.keys = keys
        self.values = values

    def execute(self, engine: "MutationEngine") -> list[OperationReport]:
        payloads = plan.encode_pairs(engine.store.config, self.keys, self.values)
        steering = steer.steer_puts(engine, payloads)
        committed = commit.commit_puts(engine, self.keys, payloads, steering)
        return account.account_puts(
            engine, self.keys, steering.clusters, steering.predict_ns, committed
        )


class SingleUpdate(Chunk):
    """A PUT of one existing key with no existing neighbour to group
    with, routed through the update mode exactly like a sequential PUT
    of an existing key.  (Two or more in a row are an update chunk.)"""

    __slots__ = ("key", "value")

    def __init__(self, key: bytes, value) -> None:
        self.key = key
        self.value = value

    def execute(self, engine: "MutationEngine") -> list[OperationReport]:
        return [engine.update_single(self.key, self.value)]


class UpdateEnduranceChunk(Chunk):
    """Endurance-mode UPDATE chunk: delete + steered PUT per pair, with
    the pool-visible interleaving preserved inside one bulk pop.  Planned
    for UPDATE batches and for runs of existing keys in a PUT batch."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: list[tuple[bytes, object]]) -> None:
        self.pairs = pairs

    def execute(self, engine: "MutationEngine") -> list[OperationReport]:
        keys = [key for key, _ in self.pairs]
        payloads = plan.encode_pairs(
            engine.store.config, keys, [value for _, value in self.pairs]
        )
        steering = steer.steer_endurance_updates(engine, keys, payloads)
        put_commit, delete_reports, committed = commit.commit_endurance_updates(
            engine, keys, payloads, steering
        )
        return account.account_endurance_updates(
            engine, keys, steering, put_commit, delete_reports, committed
        )


class UpdateLatencyChunk(Chunk):
    """Latency-mode UPDATE chunk: in-place multi-row write, no steering.
    Planned for UPDATE batches and for runs of existing keys in a PUT
    batch."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: list[tuple[bytes, object]]) -> None:
        self.pairs = pairs

    def execute(self, engine: "MutationEngine") -> list[OperationReport]:
        keys = [key for key, _ in self.pairs]
        payloads = plan.encode_pairs(
            engine.store.config, keys, [value for _, value in self.pairs]
        )
        addresses, write_reports = commit.commit_latency_updates(
            engine, keys, payloads
        )
        return account.account_latency_updates(
            engine, keys, addresses, write_reports
        )


class DeleteBatch(Chunk):
    """Batched DELETE: per-key unindexing, one vectorized re-labeling,
    recycling in key order (Algorithm 3, batched)."""

    __slots__ = ("keys",)

    def __init__(self, keys: list[bytes]) -> None:
        self.keys = keys

    def execute(self, engine: "MutationEngine") -> list[OperationReport]:
        done, error = commit.unindex_deletes(engine, self.keys)
        if done:
            addresses = np.array([address for _, address in done],
                                 dtype=np.int64)
            steering = steer.steer_deletes(engine, addresses)
            clusters = commit.release_deletes(engine, done, steering)
            reports = account.account_deletes(engine, done, clusters, steering)
        else:
            reports = []
        if error is not None:
            error.chunk_reports = reports
            raise error
        return reports


class MutationEngine:
    """One store's staged write path: plan → steer → commit → account.

    The engine owns no state of its own — it drives the store's
    components (index, model manager, pool, device, flag bitmap,
    metrics) through the four stages, so ``engine.put_many`` on a store
    is *the* mutation path, not a parallel one.
    """

    def __init__(self, store: "PNWStore") -> None:
        self.store = store
        #: While True, retrain checks are suppressed: planners cap chunks
        #: at the batch (not the retrain interval) and the store's
        #: ``_maybe_retrain`` is a no-op.  The shard rebalancer sets this
        #: around migration batches — a full K-Means refit inside the
        #: migration window (which holds every shard lock) would stall
        #: all producers; the check simply runs on the next regular
        #: mutation instead.
        self.defer_retrain = False

    @contextlib.contextmanager
    def deferred_retrain(self):
        """Suppress retrain checks for the block (reentrancy-safe)."""
        previous = self.defer_retrain
        self.defer_retrain = True
        try:
            yield
        finally:
            self.defer_retrain = previous

    # ------------------------------------------------------------------ #
    # driver                                                              #
    # ------------------------------------------------------------------ #

    def _drive(self, chunks: Iterator[Chunk]) -> list[OperationReport]:
        """Execute planned chunks in order, aggregating reports.

        A :class:`PoolExhaustedError` or :class:`KeyNotFoundError`
        escaping a chunk (or the planner itself) is stamped with
        ``committed_reports`` — the in-order reports of every operation
        of *this call* that fully committed (earlier chunks plus the
        failing chunk's flushed prefix) — so callers can see exactly
        which operations landed, and retry the remainder.
        """
        reports: list[OperationReport] = []
        try:
            for chunk in chunks:
                reports.extend(chunk.execute(self))
        except (PoolExhaustedError, KeyNotFoundError, DegradedModeError) as exc:
            exc.committed_reports = list(reports) + list(
                exc.__dict__.pop("chunk_reports", [])
            )
            raise
        return reports

    def _normalize(self, key: bytes) -> bytes:
        return self.store._normalize(key)

    def _shed_if_degraded(self, count: int) -> None:
        """Degraded-mode write shedding: a store past the media
        retirement watermark refuses new writes outright (reads and
        deletes still run — they free capacity rather than consume it).
        The error carries empty ``committed_reports``: nothing in the
        shed batch touched the store, so the whole batch is safe to
        retry elsewhere or after scrubbing/deletes recover headroom."""
        store = self.store
        if store.config.media_enabled and store.degraded:
            store.media_stats.writes_shed += count
            exc = DegradedModeError(
                f"write shed: {store.bad_rows.count} rows retired, at or "
                f"past the watermark of {store._retire_limit} "
                f"(media_retire_watermark="
                f"{store.config.media_retire_watermark} over "
                f"{store.config.num_buckets} buckets)"
            )
            exc.committed_reports = []
            raise exc

    # ------------------------------------------------------------------ #
    # entry points (one stage configuration per operation)                #
    # ------------------------------------------------------------------ #

    def put_many(
        self,
        pairs: Iterable[tuple[bytes, object]],
        *,
        unique: bool = False,
    ) -> list[OperationReport]:
        """Batched PUT: vectorized Algorithm 2 over many K/V pairs."""
        items = [(self._normalize(key), value) for key, value in pairs]
        plan.validate_values(self.store.config, [value for _, value in items])
        self._shed_if_degraded(len(items))
        if unique:
            plan.check_unique(
                (key for key, _ in items),
                lambda key: key in self.store.index,
            )
        return self._drive(plan.plan_puts(self, items))

    def update_many(
        self, pairs: Iterable[tuple[bytes, object]]
    ) -> list[OperationReport]:
        """Batched UPDATE, state-identical to per-pair updates."""
        items = [(self._normalize(key), value) for key, value in pairs]
        plan.validate_values(self.store.config, [value for _, value in items])
        self._shed_if_degraded(len(items))
        return self._drive(plan.plan_updates(self, items))

    def delete_many(self, keys: Iterable[bytes]) -> list[OperationReport]:
        """Batched DELETE: one vectorized re-labeling for many keys."""
        normalized = [self._normalize(key) for key in keys]
        return self._drive(plan.plan_deletes(self, normalized))

    def update_single(self, key: bytes, value) -> OperationReport:
        """UPDATE of one (normalized) key — §V-B3's two modes.

        Endurance mode runs the sequential composition — DELETE, then a
        steered PUT — through the same pipeline entry points, so single
        and batched updates share every stage implementation.
        """
        store = self.store
        self._shed_if_degraded(1)
        if key not in store.index:
            raise KeyNotFoundError(f"key {key!r} not found")
        store.metrics.updates += 1
        if store.config.update_mode == "endurance":
            self.delete_many([key])
            return self.put_many([(key, value)])[0]
        # Latency mode: straight through the index, in place, no steering.
        address = store.index.get(key)
        payload = plan.encode_pairs(store.config, [key], [value])[0]
        report = store.nvm.write(address, payload)
        if store.config.media_enabled:
            try:
                address, report = commit.verify_latency_update(
                    self, key, int(address), payload, report
                )
            except PoolExhaustedError as exc:
                exc.committed_reports = []
                raise
        op = OperationReport(
            op="update",
            key=key,
            address=address,
            cluster=-1,
            fallback_used=False,
            bit_updates=report.bit_updates,
            words_touched=report.words_touched,
            lines_touched=report.lines_touched,
            nvm_latency_ns=report.latency_ns,
            predict_ns=0.0,
            retrained=False,
        )
        store.metrics.record(op)
        return op
