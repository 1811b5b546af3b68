"""Hash-partitioned PNW store: N independent zones, one pipeline each.

``ShardedPNWStore`` splits the key space across ``N`` shards by a
stable hash of the key through a virtual-bucket indirection table
(:class:`~repro.shard.router.RoutingTable` — with the default table
this is exactly ``hash % n_shards``).  Each shard is a complete,
unmodified :class:`~repro.core.store.PNWStore` — its own NVM zone,
validity bitmap, hash index, k-means model, and dynamic address pool —
so everything proved about the single store (batch/sequential
equivalence, crash recovery from NVM state, wear accounting) holds
per shard by construction.  Every sub-batch therefore executes through
the same staged write-path engine (:mod:`repro.engine`) as the single
store; this module only routes and reassembles.

The sharded layer adds exactly two things:

* **Routing** — batch mutations (``put_many`` / ``update_many`` /
  ``delete_many``) are split into per-shard sub-batches that preserve
  batch order, executed concurrently on a thread pool, and their
  reports reassembled into input order.  The NumPy-heavy stages of the
  per-shard pipeline (featurize, predict, Hamming probing, multi-row
  commit) release the GIL, and each shard's pool probe scans a free
  list ``1/N`` the size, so sharding wins twice: less probe work per
  op and real thread parallelism over it.  Each shard runs its own
  probe engine — array-backed free lists plus a DRAM content cache of
  its zone's free buckets, scored with cluster-grouped popcount
  kernels — which shrinks the GIL-held Python fraction of a pop and
  lets shard threads overlap almost all of the probe cost.
* **Aggregation** — cross-shard :class:`WearStats` / ``StoreMetrics``
  merges and whole-store CDFs, with shard-local bucket addresses
  remapped into one global address space (shard ``s`` owns the
  contiguous range ``[base(s), base(s) + buckets(s))``).

Consistency across shards: each sub-batch keeps the single store's
sequential semantics *within its shard*.  Because shards execute
concurrently, a mid-batch error in one shard (pool exhaustion, missing
key) cannot stop the others part-way — sibling sub-batches run to
completion, then the lowest-shard error is re-raised (with
``committed_reports`` aggregated across shards for pool exhaustion).
Whole-store ``crash()`` / ``recover()`` delegate per shard; a torn
shard loses only its own unflagged operations.

Reentrancy and lock ordering: each shard's engine is guarded by its own
lock, so K/V calls (single ops, ``*_many`` batches,
``run_shard_batches``, ``get``) may be issued from several threads
concurrently — the ingestion layer's multi-producer front door relies
on this.  Concurrent calls interleave at sub-batch granularity per
shard with no cross-call ordering promise; callers that need a global
order (like :class:`~repro.ingest.IngestQueue`'s drain) must serialize
themselves.  Lifecycle calls (``warm_up`` / ``retrain`` / ``crash`` /
``recover`` / ``close``) quiesce the store deterministically instead of
requiring the caller to: they acquire **every** shard lock in ascending
shard order before acting, so they wait for all in-flight K/V work and
exclude new K/V work for their duration.  The ordering discipline that
makes this deadlock-free: K/V paths take exactly **one** shard lock and
never nest, lifecycle paths take **all** locks in ascending order, and
lifecycle work never runs on the shared K/V thread pool (it uses a
transient pool), so a queued K/V task blocked on a shard lock can never
sit in front of the lifecycle work that would release it.

Load-aware routing (``rebalance_mode != "off"``) adds one more layer to
that discipline: a writer-preferring **routing latch**
(:class:`~repro.shard.rebalance.RoutingLatch`).  Every K/V path pins
the routing epoch with a read hold around route-and-execute, and the
:class:`~repro.shard.rebalance.Rebalancer` takes the write side (then
quiesces) before editing the :class:`~repro.shard.router.RoutingTable`.
The lock order is always latch → shard locks, so the existing
cycle-freedom argument carries over unchanged.  With the default
``rebalance_mode="off"`` the table keeps its FNV-equivalent layout and
the store's on-device state is byte-identical to the pre-table code.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from operator import methodcaller
from typing import Any, Callable, Iterable

import numpy as np

from ..core.config import PNWConfig
from ..core.store import (
    OperationReport,
    PNWStore,
    RunOutcome,
    StoreMetrics,
    execute_runs,
)
from ..engine.plan import check_unique
from ..errors import DegradedModeError, KeyNotFoundError, PoolExhaustedError
from ..index.base import KeyIndex, stable_hash64
from ..nvm.stats import MediaStats, WearStats
from .rebalance import Rebalancer, RoutingLatch
from .router import ROUTER_SEED, RouterStats, RoutingTable, hash_keys

__all__ = ["ShardedPNWStore", "make_store", "shard_configs"]


def shard_configs(config: PNWConfig) -> list[PNWConfig]:
    """Derive the per-shard configs a sharded store builds its zones from.

    ``num_buckets`` is split over ``config.shards`` as evenly as possible
    (the first ``num_buckets % shards`` shards get one extra bucket);
    each shard's seed is offset by its shard id so the k-means restarts
    are independent streams, and ``shards`` is reset to 1 — a shard is a
    plain single-zone store.  Exposed so tests and ablations can build
    the *identical* standalone stores a sharded store runs internally.
    """
    base, extra = divmod(config.num_buckets, config.shards)
    return [
        dataclasses.replace(
            config,
            num_buckets=base + (1 if i < extra else 0),
            seed=None if config.seed is None else config.seed + i,
            shards=1,
        )
        for i in range(config.shards)
    ]


def make_store(config: PNWConfig) -> "PNWStore | ShardedPNWStore | TieredStore":
    """Store factory: single-zone for ``shards=1``, sharded otherwise,
    wrapped in a :class:`~repro.tier.TieredStore` when ``tier_mode`` is
    not ``"off"``.

    The drop-in entry point for drivers that take ``shards=N`` /
    ``tier_mode=...`` knobs — every setting comes from ``config``, and
    all return types expose the same ``OperationReport``-based API.
    """
    store: "PNWStore | ShardedPNWStore"
    if config.shards == 1:
        store = PNWStore(config)
    else:
        store = ShardedPNWStore(config)
    if config.tier_mode != "off":
        # Imported here: repro.tier imports engine helpers that import
        # core modules — a module-level import would be circular.
        from ..tier import TieredStore

        return TieredStore(store)
    return store


class ShardedPNWStore:
    """N hash-partitioned :class:`PNWStore` zones behind one batch API.

    Every setting comes from ``config``: ``shards`` zones (see
    :func:`shard_configs`), run on a thread pool, routed through a
    :data:`~repro.shard.router.ROUTER_VBUCKETS`-per-shard table, so
    ``store.config`` always describes the store.
    """

    def __init__(self, config: PNWConfig) -> None:
        self.config = config
        configs = shard_configs(config)
        self.n_shards = len(configs)
        self.stores = [PNWStore(shard_config) for shard_config in configs]
        sizes = [shard_config.num_buckets for shard_config in configs]
        #: Global base address of each shard's zone (plus a total sentinel).
        self.shard_bases = np.concatenate(([0], np.cumsum(sizes)))
        #: One lock per shard engine: concurrent K/V calls from several
        #: threads serialize per shard, never against the whole store.
        self._shard_locks = [threading.Lock() for _ in self.stores]
        #: Whether the live rebalancer is armed (``rebalance_mode``).
        self.rebalance_enabled = config.rebalance_mode != "off"
        self._stats_lock = threading.Lock()
        self._router_stats = RouterStats.for_shards(self.n_shards)
        self._router = RoutingTable(self.n_shards)
        #: The routing latch: K/V paths read-pin the epoch, the
        #: rebalancer write-locks it before editing the table.
        self._epoch = RoutingLatch()
        self._rebalancer = (
            Rebalancer(self) if self.rebalance_enabled else None
        )
        # Size the pool to the CPUs this process can actually run on: on
        # a single-CPU host threads only add GIL churn, so sub-batches
        # run serially there (the per-shard probe-set reduction is the
        # win that survives).
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            cpus = os.cpu_count() or 1
        workers = min(self.n_shards, cpus)
        self._executor = (
            ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="pnw-shard"
            )
            if workers > 1
            else None
        )

    # ------------------------------------------------------------------ #
    # plumbing                                                            #
    # ------------------------------------------------------------------ #

    @contextlib.contextmanager
    def _quiesced(self):
        """Hold every shard lock (ascending shard order) for the block.

        This is the lifecycle half of the store's lock ordering: K/V
        paths take exactly one shard lock and never nest, so acquiring
        all of them in a fixed ascending order (a) waits for every
        in-flight sub-batch to finish, (b) excludes new K/V work for the
        duration, and (c) cannot deadlock — there is no lock cycle.
        Lifecycle bodies must not dispatch onto the shared K/V thread
        pool while quiesced (queued K/V tasks blocked on these locks
        would sit in front of them); :meth:`_lifecycle` maps on a
        transient pool instead.
        """
        for lock in self._shard_locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(self._shard_locks):
                lock.release()

    def close(self) -> None:
        """Drain in-flight batches, then shut the thread pool down.

        The pool is drained *without* holding any shard lock (queued
        sub-batches still need to acquire them), then the store
        quiesces and closes every shard.  The store stays usable after
        ``close()`` (calls simply run serially).  Idempotent.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        with self._quiesced():
            for store in self.stores:
                store.close()

    def __enter__(self) -> "ShardedPNWStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def shard_of_key(self, key: bytes) -> int:
        """The shard that owns ``key`` under the *current* routing table
        (identical to the historical ``hash % n_shards`` until a bucket
        migration edits the table).  Callers that must act on a stable
        answer should hold :meth:`routing_pin` across use."""
        normalized = KeyIndex.normalize_key(key, self.config.key_bytes)
        return self._router.shard_of_hash(
            stable_hash64(normalized, seed=ROUTER_SEED)
        )

    def _assign(self, normalized_keys: list[bytes]) -> list[int]:
        """Owning shard per normalized key, through the routing table
        (one vectorized hash + one fancy-index op)."""
        return self._router.assign_hashes(
            hash_keys(normalized_keys)
        ).tolist()

    @property
    def routing_epoch(self) -> int:
        """The routing table's version; ``0`` means the FNV default.
        The ingestion layer compares epochs at dispatch to re-route
        batches laned under an older table."""
        return self._router.version

    def routing_pin(self):
        """Read-hold on the routing epoch for the block (reentrant per
        thread).  While held, no bucket migration can run, so routing
        answers and shard-addressed batches stay mutually consistent."""
        return self._epoch.read_locked()

    def rebalance_check(self, ops: int = 1) -> bool:
        """Account ``ops`` toward the rebalance check interval and run a
        watermark-triggered rebalance pass when due.  No-op (False) when
        ``rebalance_mode="off"``.  Must not be called while holding a
        routing pin issued to the same thread's caller — the store's own
        entry points call this *before* pinning."""
        if self._rebalancer is None:
            return False
        return self._rebalancer.maybe_rebalance(ops)

    def router_stats(self) -> RouterStats:
        """Routing/rebalancing counters (a consistent snapshot)."""
        with self._stats_lock:
            return self._router_stats.snapshot()

    def _count_routed(self, shard_id: int, ops: int = 1) -> None:
        with self._stats_lock:
            self._router_stats.routed_ops[shard_id] += ops

    def global_address(self, shard_id: int, local_address: int) -> int:
        """Map a shard-local bucket address into the global address space."""
        return int(self.shard_bases[shard_id]) + local_address

    def _globalize(self, shard_id: int, report: OperationReport) -> OperationReport:
        """Re-key a shard-local report's address to the global space.

        Clusters stay shard-local (each shard has its own model, so a
        cluster id only means something next to its shard's centroids).
        """
        return dataclasses.replace(
            report, address=self.global_address(shard_id, report.address)
        )

    def _map_shards(
        self,
        tasks: dict[int, Callable[[], Any]],
        pool: ThreadPoolExecutor | None = None,
    ) -> tuple[dict[int, Any], dict[int, BaseException]]:
        """Run one thunk per shard, concurrently when it pays.

        Every task runs to completion (a failing shard never interrupts
        its siblings mid-sub-batch); exceptions are collected, not
        raised.  Single-task maps and closed stores run inline.
        ``pool`` replaces the shared K/V pool (see :meth:`_lifecycle`).
        """
        results: dict[int, Any] = {}
        errors: dict[int, BaseException] = {}

        def settle(shard_id: int, thunk: Callable[[], Any]) -> None:
            try:
                results[shard_id] = thunk()
            except Exception as exc:  # noqa: BLE001 - re-raised by caller
                errors[shard_id] = exc

        if self._executor is None or len(tasks) <= 1:
            for shard_id in sorted(tasks):
                settle(shard_id, tasks[shard_id])
            return results, errors
        futures = {
            shard_id: (pool or self._executor).submit(task)
            for shard_id, task in tasks.items()
        }
        for shard_id, future in futures.items():
            settle(shard_id, future.result)
        return results, errors

    def _lifecycle(
        self,
        call: Callable[[int, Any], Any],
        then: Callable[[], None] | None = None,
    ) -> dict[int, Any]:
        """The one lifecycle body: quiesce (every shard lock, ascending,
        so in-flight batches finish and new ones wait), run
        ``call(shard_id, shard_store)`` on every shard concurrently,
        run ``then()`` — still quiesced — if every shard succeeded,
        then re-raise the lowest shard's error, if any.  The map runs
        on a transient pool so it never queues behind K/V tasks that
        are blocked on the very shard locks held here."""
        tasks = {
            shard_id: (lambda shard_id=shard_id, store=store:
                       call(shard_id, store))
            for shard_id, store in enumerate(self.stores)
        }
        with self._quiesced(), ThreadPoolExecutor(
            max_workers=self.n_shards, thread_name_prefix="pnw-lifecycle"
        ) as pool:
            results, errors = self._map_shards(tasks, pool)
            if then is not None and not errors:
                then()
        if errors:
            raise errors[min(errors)]
        return results

    def _raise_merged(
        self,
        errors: dict[int, BaseException],
        results: dict[int, list[OperationReport]],
    ) -> None:
        """Re-raise the lowest shard's error after all shards settled.

        For pool exhaustion and mid-batch missing keys the engine stamps
        the exception with ``committed_reports``; the sharded form
        aggregates them across shards — every sibling shard's full
        sub-batch plus the failing shards' committed prefixes, grouped
        shard by shard (concurrent shards have no global commit order)
        with global addresses.
        """
        first = errors[min(errors)]
        if isinstance(
            first, (PoolExhaustedError, KeyNotFoundError, DegradedModeError)
        ):
            committed: list[OperationReport] = []
            for shard_id in sorted(set(results) | set(errors)):
                reports = (
                    results[shard_id]
                    if shard_id in results
                    else getattr(errors[shard_id], "committed_reports", [])
                )
                committed.extend(
                    self._globalize(shard_id, report) for report in reports
                )
            first.committed_reports = committed
        raise first

    def _run_batch(
        self,
        items: list,
        shard_ids: list[int],
        op: Callable[[PNWStore, list], list[OperationReport]],
    ) -> list[OperationReport]:
        """Split a batch by shard, run sub-batches concurrently, and
        reassemble per-shard reports into input order."""
        groups: list[list[int]] = [[] for _ in range(self.n_shards)]
        for position, shard_id in enumerate(shard_ids):
            groups[shard_id].append(position)
        with self._stats_lock:
            for shard_id, positions in enumerate(groups):
                self._router_stats.routed_ops[shard_id] += len(positions)
        tasks: dict[int, Callable[[], list[OperationReport]]] = {}
        for shard_id, positions in enumerate(groups):
            if positions:
                sub = [items[position] for position in positions]

                def task(
                    store=self.stores[shard_id],
                    sub=sub,
                    lock=self._shard_locks[shard_id],
                ):
                    with lock:
                        return op(store, sub)

                tasks[shard_id] = task
        results, errors = self._map_shards(tasks)
        if errors:
            self._raise_merged(errors, results)
        out: list[OperationReport | None] = [None] * len(items)
        for shard_id, reports in results.items():
            for position, report in zip(groups[shard_id], reports):
                out[position] = self._globalize(shard_id, report)
        return out  # type: ignore[return-value]

    def run_shard_batches(
        self, batches: dict[int, list[tuple[str, list]]]
    ) -> dict[int, list[RunOutcome]]:
        """Execute pre-routed per-shard batch sequences concurrently.

        The drain path of :class:`repro.ingest.IngestQueue`: ``batches``
        maps a shard id to an ordered list of ``(kind, items)`` runs,
        where ``kind`` is ``"put"`` / ``"update"`` / ``"delete"`` and
        ``items`` the corresponding ``*_many`` argument.  Each shard's
        runs execute in order on that shard's engine; shards run
        concurrently on the store's thread pool.  Runs are independent:
        a failing run does not stop the shard's later runs.

        Returns, per shard, one ``(reports, error)`` pair per run —
        reports (and any ``committed_reports`` stamped on an error) are
        remapped to global addresses.  Reentrant: each shard's run
        sequence executes under that shard's lock, so concurrent calls
        (and concurrent single-op/``get`` traffic) are safe, though a
        shard's runs from different calls interleave in lock-acquisition
        order — callers needing a strict global order must serialize.
        """
        def globalize_outcome(shard_id, reports, exc):
            if exc is not None:
                committed = getattr(exc, "committed_reports", None)
                if committed is not None:
                    exc.committed_reports = [
                        self._globalize(shard_id, report)
                        for report in committed
                    ]
                return (None, exc)
            return (
                [self._globalize(shard_id, report) for report in reports],
                None,
            )

        def run_shard(shard_id: int, runs: list[tuple[str, list]]):
            # The shard executes the ordered runs and returns the
            # per-run outcomes with shard-local addresses.
            with self._shard_locks[shard_id]:
                raw = execute_runs(self.stores[shard_id], runs)
            return [
                globalize_outcome(shard_id, reports, exc)
                for reports, exc in raw
            ]

        tasks = {
            shard_id: (lambda shard_id=shard_id, runs=runs:
                       run_shard(shard_id, runs))
            for shard_id, runs in batches.items()
            if runs
        }
        # Pinned: the batches were routed under the caller's view of the
        # table, so no migration may slide between routing and execution.
        # Reentrant for the ingest drain, which pins around the whole
        # route-and-dispatch sequence.
        with self._epoch.read_locked():
            with self._stats_lock:
                for shard_id, runs in batches.items():
                    self._router_stats.routed_ops[shard_id] += sum(
                        len(items) for _, items in runs
                    )
            results, errors = self._map_shards(tasks)
        if errors:  # pragma: no cover - run_shard captures its exceptions
            raise errors[min(errors)]
        return results

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def warm_up(self, old_data: np.ndarray) -> None:
        """Fill the zones with "old data" and train every shard's model.

        Rows are dealt to shards as contiguous slices of the global
        address space (shard ``s`` gets rows ``[base(s), base(s+1))``),
        so a full-zone warm-up leaves the concatenated shard zones
        byte-identical to a single store warmed with the same matrix.
        Every shard warms up — a shard whose slice is empty (partial
        warm-up) trains on its zeroed zone, exactly as a single store
        given fewer rows than buckets does.  Shard training runs
        concurrently.  Quiesces the store first (all shard locks,
        ascending) so in-flight batches finish before zones are loaded.
        """
        old_data = np.atleast_2d(np.ascontiguousarray(old_data, dtype=np.uint8))
        if old_data.shape[0] > self.config.num_buckets:
            raise ValueError(
                f"{old_data.shape[0]} warm-up rows exceed the "
                f"{self.config.num_buckets}-bucket zone"
            )
        bases = self.shard_bases
        self._lifecycle(
            lambda shard_id, store: store.warm_up(
                old_data[bases[shard_id] : bases[shard_id + 1]]
            )
        )

    def retrain(self) -> None:
        """Retrain every shard's model on its own zone, concurrently
        (quiesced: waits out in-flight batches, excludes new ones)."""
        self._lifecycle(lambda _, store: store.retrain())

    def crash(self) -> None:
        """Power-fail every shard: all DRAM state is dropped.

        Quiesced like every lifecycle call: a ``crash()`` issued while
        ``run_shard_batches`` traffic is in flight waits for the running
        sub-batches to finish, so the "power failure" lands at a
        deterministic batch boundary on every shard.
        """
        self._lifecycle(lambda _, store: store.crash())

    def recover(self) -> None:
        """Rebuild every shard from its own NVM state, concurrently.

        Shards recover independently — a shard torn mid-flush loses only
        its own unflagged operations; sibling shards come back whole.
        Quiesced (all shard locks, ascending) like ``crash()``.

        When the routing table has ever been edited (``version > 0``), a
        post-recovery sweep reconciles migration orphans: a crash
        between a bucket migration's copy and its donor delete leaves
        keys resident off their routed shard.  The table is
        authoritative — the routed owner's copy wins (it always carries
        the key's latest committed value), strays are deleted, and a
        stray whose owner lost its copy to the crash is moved home.  A
        key is therefore never lost and never double-owned after
        ``recover()`` returns.
        """
        # Sweep whenever a migration *could* have run: a crash before
        # the first-ever table flip leaves orphans at version 0, so the
        # version alone can't gate it.
        sweep = self.rebalance_enabled or self._router.version > 0
        self._lifecycle(
            lambda _, store: store.recover(),
            self._sweep_misplaced_quiesced if sweep else None,
        )

    def _sweep_misplaced_quiesced(self) -> None:
        """Delete (or re-home) every key resident off its routed shard.
        Caller holds all shard locks."""
        swept = 0
        for shard_id, shard_store in enumerate(self.stores):
            keys = [key for key, _ in list(shard_store.index.items())]
            if not keys:
                continue
            owners = self._router.assign_hashes(hash_keys(keys)).tolist()
            strays = [
                key
                for key, owner in zip(keys, owners)
                if owner != shard_id
            ]
            if not strays:
                continue
            for key, owner in zip(keys, owners):
                if owner == shard_id:
                    continue
                owner_store = self.stores[owner]
                if key not in owner_store:
                    # The owner lost its copy to the crash; this stray
                    # holds the only committed value — move it home.
                    owner_store.put_many([(key, shard_store.get(key))])
            shard_store.delete_many(strays)
            swept += len(strays)
        if swept:
            with self._stats_lock:
                self._router_stats.orphans_swept += swept

    # ------------------------------------------------------------------ #
    # K/V operations                                                      #
    # ------------------------------------------------------------------ #

    def _mutate_one(
        self, key: bytes, call: Callable[[Any], OperationReport]
    ) -> OperationReport:
        """The one single-op body: give the rebalancer its shot, pin the
        routing epoch, run ``call(shard_store)`` under the owning
        shard's lock, and globalize the report's address."""
        self.rebalance_check()
        with self._epoch.read_locked():
            shard_id = self.shard_of_key(key)
            self._count_routed(shard_id)
            with self._shard_locks[shard_id]:
                return self._globalize(shard_id, call(self.stores[shard_id]))

    def put(self, key: bytes, value: bytes | np.ndarray) -> OperationReport:
        """Route one PUT to its shard (Algorithm 2 there)."""
        return self._mutate_one(key, methodcaller("put", key, value))

    def put_unique(self, key: bytes, value: bytes | np.ndarray) -> OperationReport:
        """PUT that refuses to overwrite, routed to the owning shard."""
        return self._mutate_one(key, methodcaller("put_unique", key, value))

    def put_many(
        self,
        pairs: Iterable[tuple[bytes, bytes | np.ndarray]],
        *,
        unique: bool = False,
    ) -> list[OperationReport]:
        """Batched PUT across shards; reports come back in input order.

        With ``unique=True`` the whole batch is validated against every
        shard's index *before* anything is dispatched, so a duplicate
        anywhere rejects the batch with no shard mutated — the same
        :func:`repro.engine.plan.check_unique` implementation (and error
        text) as the single store's ``unique`` path, with per-shard
        routing as the membership test.
        """
        items = list(pairs)
        self.rebalance_check(len(items))
        with self._epoch.read_locked():
            keys = [
                KeyIndex.normalize_key(key, self.config.key_bytes)
                for key, _ in items
            ]
            shard_ids = self._assign(keys)
            if unique:
                owner = dict(zip(keys, shard_ids))
                check_unique(
                    keys, lambda key: key in self.stores[owner[key]]
                )
            return self._run_batch(
                items, shard_ids, lambda store, sub: store.put_many(sub)
            )

    def update_many(
        self, pairs: Iterable[tuple[bytes, bytes | np.ndarray]]
    ) -> list[OperationReport]:
        """Batched UPDATE across shards; reports in input order."""
        items = list(pairs)
        self.rebalance_check(len(items))
        with self._epoch.read_locked():
            keys = [
                KeyIndex.normalize_key(key, self.config.key_bytes)
                for key, _ in items
            ]
            return self._run_batch(
                items,
                self._assign(keys),
                lambda store, sub: store.update_many(sub),
            )

    def delete_many(self, keys: Iterable[bytes]) -> list[OperationReport]:
        """Batched DELETE across shards; reports in input order."""
        normalized = [
            KeyIndex.normalize_key(key, self.config.key_bytes) for key in keys
        ]
        self.rebalance_check(len(normalized))
        with self._epoch.read_locked():
            return self._run_batch(
                normalized,
                self._assign(normalized),
                lambda store, sub: store.delete_many(sub),
            )

    def update(self, key: bytes, value: bytes | np.ndarray) -> OperationReport:
        """Route one UPDATE to its shard."""
        return self._mutate_one(key, methodcaller("update", key, value))

    def delete(self, key: bytes) -> OperationReport:
        """Route one DELETE to its shard (Algorithm 3 there)."""
        return self._mutate_one(key, methodcaller("delete", key))

    def get(self, key: bytes) -> bytes:
        """Route a GET to its shard: index lookup + data-zone read.

        Takes only the owning shard's lock (under a routing pin), so
        reads proceed concurrently with other shards' writes.
        """
        with self._epoch.read_locked():
            shard_id = self.shard_of_key(key)
            self._count_routed(shard_id)
            with self._shard_locks[shard_id]:
                return self.stores[shard_id].get(key)

    # ------------------------------------------------------------------ #
    # aggregation / introspection                                         #
    # ------------------------------------------------------------------ #

    @property
    def metrics(self) -> StoreMetrics:
        """Merged operation counters (a fresh snapshot on every access).

        Kept reports carry *global* addresses, consistent with the
        reports the mutation calls return and with
        :meth:`wear_stats`'s per-address arrays.  Because this is a
        snapshot, assigning to it (e.g. the single-store idiom
        ``store.metrics.keep_reports = True``) has no effect — use
        :meth:`set_keep_reports`.
        """
        parts = [store.metrics for store in self.stores]
        merged = StoreMetrics.merge(parts)
        merged.reports = [
            self._globalize(shard_id, report)
            for shard_id, part in enumerate(parts)
            for report in part.reports
        ]
        return merged

    def set_keep_reports(self, keep: bool) -> None:
        """Toggle per-operation report retention on every shard."""
        for store in self.stores:
            store.set_keep_reports(keep)

    @property
    def media_stats(self) -> MediaStats:
        """Merged media-health counters across shards (a snapshot)."""
        return MediaStats.merge([store.media_stats for store in self.stores])

    @property
    def degraded(self) -> bool:
        """True when any shard is past its media retirement watermark —
        a batch touching that shard will be shed with
        :class:`~repro.errors.DegradedModeError`."""
        return any(store.degraded for store in self.stores)

    def scrub(self, limit: int | None = None) -> dict[str, int]:
        """One patrol-scrub pass on every shard, quiesced like the other
        lifecycle calls (all shard locks, ascending).  ``limit`` caps the
        rows scanned *per shard*.  Returns the summed pass counters; a
        media alarm from the lowest shard re-raises after every shard's
        pass settles."""
        results = self._lifecycle(lambda _, store: store.scrub(limit))
        totals: dict[str, int] = {}
        for counters in results.values():
            for name, value in counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def wear_stats(self) -> WearStats:
        """Merged data-zone wear accounting across shards.

        Per-address counters are laid out in the global address space
        (shard order), so :meth:`WearStats.address_write_cdf` /
        :meth:`WearStats.bit_wear_cdf` on the result are the whole-store
        Figures 12/13 curves.  A snapshot — re-merge after more ops.
        """
        return WearStats.merge([store.nvm.stats for store in self.stores])

    def wear_summary(self) -> dict[str, float]:
        """Headline counters of the merged data-zone wear."""
        return self.wear_stats().summary()

    def address_write_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Whole-store per-address write CDF (paper Fig. 12, all shards)."""
        return self.wear_stats().address_write_cdf()

    def bit_wear_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Whole-store per-bit wear CDF (paper Fig. 13, all shards)."""
        return self.wear_stats().bit_wear_cdf()

    @property
    def total_free(self) -> int:
        """Free addresses across every shard's pool."""
        return sum(store.total_free for store in self.stores)

    @property
    def live_fraction(self) -> float:
        """Occupied fraction of the combined data zones."""
        return len(self) / self.config.num_buckets

    def __contains__(self, key: bytes) -> bool:
        with self._epoch.read_locked():
            return key in self.stores[self.shard_of_key(key)]

    def __len__(self) -> int:
        return sum(len(store) for store in self.stores)
