"""Live shard rebalancing: watermark triggers + virtual-bucket migration.

FNV routing assumes every zone's pool drains evenly; skewed streams
empty one shard while siblings idle.  This module treats key→shard
assignment as a balanced-partition problem over the router's virtual
buckets (:class:`~repro.shard.router.RoutingTable`): a
:class:`Rebalancer` watches per-shard pool-occupancy watermarks and,
when a shard is starved while a meaningfully freer sibling exists,
migrates whole virtual buckets of keys between zones, planned by
:func:`greedy_moves` (repeated best-single-move local search
minimizing the maximum fractional shard load, warm-started from the
current table — the balanced-districting flavour).

**Migrations are engine-stage batches.**  A bucket moves as ordinary
``get_many`` (donor) → ``put_many`` (recipient) → ``delete_many``
(donor) calls straight into the per-shard stores, so prefix-commit,
write-verify, media relocation, and crash/recovery semantics all carry
over unchanged — there is no second write path.  The ordering is
crash-safe the same way the scrubber's live-row relocation is:

1. copy the bucket's keys to the recipient (in :data:`REBALANCE_MAX_KEYS`
   chunks);
2. flip the routing-table entry (bumping the routing epoch);
3. delete the copies from the donor.

A crash before the flip leaves the donor authoritative (the recipient
holds unreferenced duplicates); a crash after it leaves the recipient
authoritative (the donor holds the duplicates).  Either way every key
is readable at its routed home with its latest value, and a key is
never lost or double-owned — ``ShardedPNWStore.recover`` sweeps the
losing copies.  A recipient that runs out of healthy rows mid-copy
aborts the bucket (the partial copy is deleted, the table never
flips).

Locking: the rebalancer runs under the store's **routing latch** (a
writer-preferring read/write lock).  K/V paths pin the routing epoch
with a read hold around route-and-execute; the rebalancer takes the
write side and then quiesces the store (every shard lock, ascending),
so a migration observes no concurrent mutations and routing never
changes under a pinned reader.  Lock order is always latch → shard
locks, so the discipline stays cycle-free.  Retrain checks are
deferred during migration batches (``MutationEngine.defer_retrain``):
a full K-Means refit inside the all-locks migration window would stall
every producer.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from ..errors import DegradedModeError, KeyNotFoundError, PoolExhaustedError
from .router import hash_keys

__all__ = [
    "Rebalancer",
    "RoutingLatch",
    "SimulatedRebalanceCrash",
    "greedy_moves",
]

#: Free-pool fraction under which a shard is starved: a pass triggers
#: when the minimum per-shard free fraction drops below this while the
#: max-min spread exceeds it too (i.e. a move can actually help).
REBALANCE_LOW_WATERMARK = 0.2

#: Keys per migration batch: a bucket's keys are copied (and later
#: deleted from the donor) in engine-stage batches of at most this many,
#: bounding what one mid-migration crash can leave behind.
REBALANCE_MAX_KEYS = 256


class SimulatedRebalanceCrash(RuntimeError):
    """Test seam: a crash injected at a migration crash point."""


class RoutingLatch:
    """Writer-preferring read/write lock over the routing epoch.

    Readers (K/V paths) pin the current routing table around
    route-and-execute; the single writer (the rebalancer) excludes them
    while it edits the table.  Reads are reentrant per thread (the
    ingest dispatch path pins once and then calls store entry points
    that pin again); a thread holding a read pin must not take the
    write side — that raises instead of deadlocking.  Waiting writers
    block *new* readers (writer preference) so a steady K/V stream
    cannot starve a rebalance forever.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._local = threading.local()

    def read_depth(self) -> int:
        """This thread's reentrant read-hold depth."""
        return getattr(self._local, "depth", 0)

    @contextlib.contextmanager
    def read_locked(self):
        depth = self.read_depth()
        if depth:
            self._local.depth = depth + 1
            try:
                yield
            finally:
                self._local.depth = depth
            return
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        self._local.depth = 1
        try:
            yield
        finally:
            self._local.depth = 0
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write_locked(self):
        if self.read_depth():
            raise RuntimeError(
                "cannot take the routing write latch while holding a "
                "read pin (would self-deadlock)"
            )
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


# ---------------------------------------------------------------------- #
# move planner                                                            #
# ---------------------------------------------------------------------- #

def _improves(load, capacities, donor, recipient, count) -> bool:
    """Whether moving ``count`` keys donor→recipient lowers the pair's
    maximum fractional load (the local-search acceptance test)."""
    before = max(load[donor] / capacities[donor],
                 load[recipient] / capacities[recipient])
    after = max((load[donor] - count) / capacities[donor],
                (load[recipient] + count) / capacities[recipient])
    return after < before


def greedy_moves(
    bucket_counts: np.ndarray,
    table: np.ndarray,
    capacities: np.ndarray,
) -> list[tuple[int, int]]:
    """Repeated best-single-move local search, warm-started from
    ``table``: move the heaviest improving bucket from the most loaded
    shard (fractionally) to the least loaded, until no single move
    lowers the pair's maximum load.  Recipients are tried in ascending
    fractional load, equal loads by ascending shard id.  Returns
    ``(bucket, recipient)`` moves in application order.
    """
    table = table.copy()
    capacities = np.asarray(capacities, dtype=np.float64)
    n_shards = len(capacities)
    load = np.zeros(n_shards, dtype=np.int64)
    for shard in range(n_shards):
        load[shard] = int(bucket_counts[table == shard].sum())
    moves: list[tuple[int, int]] = []
    for _ in range(len(table)):
        frac = load / capacities
        donor = int(np.argmax(frac))
        best: tuple[int, int] | None = None
        for candidate in np.argsort(frac, kind="stable"):
            recipient = int(candidate)
            if recipient == donor:
                continue
            owned = np.flatnonzero(table == donor)
            counts = bucket_counts[owned]
            order = np.argsort(counts, kind="stable")[::-1]
            for slot in order:
                count = int(counts[slot])
                if count <= 0:
                    break
                if _improves(load, capacities, donor, recipient, count):
                    best = (int(owned[slot]), recipient)
                    break
            if best is not None:
                break
        if best is None:
            break
        bucket, recipient = best
        count = int(bucket_counts[bucket])
        table[bucket] = recipient
        load[donor] -= count
        load[recipient] += count
        moves.append((bucket, recipient))
    return moves


# ---------------------------------------------------------------------- #
# the rebalancer                                                          #
# ---------------------------------------------------------------------- #

class Rebalancer:
    """Watermark-triggered bucket migration for one sharded store.

    Cheap by default: :meth:`maybe_rebalance` bumps a counter and
    returns until ``rebalance_check_interval`` mutations have passed;
    the watermark probe reads per-shard pool occupancy only then, and a
    full pass (routing write latch + quiesce + enumerate + migrate)
    runs only when the trigger actually fires.  Exactly one pass runs
    at a time; concurrent callers skip rather than queue.
    """

    def __init__(self, store) -> None:
        self.store = store
        self.config = store.config
        self._capacities = np.diff(store.shard_bases).astype(np.int64)
        self._ops_since_check = 0
        self._counter_lock = threading.Lock()
        self._rebalance_lock = threading.Lock()
        #: Test seam: ``"copy"`` raises after the first copied chunk,
        #: ``"flip"`` after the table flip but before the donor delete.
        self._crash_point: str | None = None

    # -------------------------------------------------------------- #
    # triggers                                                        #
    # -------------------------------------------------------------- #

    def maybe_rebalance(self, ops: int = 1) -> bool:
        """Account ``ops`` mutations; run a pass when due + triggered.

        Callers must hold no shard lock and no routing read pin (the
        store's entry points call this before pinning).  Returns True
        when a pass moved at least one bucket.
        """
        if self.config.rebalance_mode == "off":
            return False
        with self._counter_lock:
            self._ops_since_check += max(1, int(ops))
            if self._ops_since_check < self.config.rebalance_check_interval:
                return False
            self._ops_since_check = 0
        if self.store._epoch.read_depth():
            return False  # this thread holds a pin; check again later
        if not self._rebalance_lock.acquire(blocking=False):
            return False  # a pass is already running
        try:
            if not self._should_rebalance(self._free_fractions()):
                return False
            return self._rebalance()
        finally:
            self._rebalance_lock.release()

    def _free_fractions(self) -> np.ndarray:
        free = np.array(
            [store.pool.total_free for store in self.store.stores],
            dtype=np.float64,
        )
        return free / self._capacities

    def _should_rebalance(self, free_frac: np.ndarray) -> bool:
        spread = float(free_frac.max() - free_frac.min())
        return (
            float(free_frac.min()) < REBALANCE_LOW_WATERMARK
            and spread > REBALANCE_LOW_WATERMARK
        )

    # -------------------------------------------------------------- #
    # one pass                                                        #
    # -------------------------------------------------------------- #

    def _rebalance(self) -> bool:
        store = self.store
        with store._epoch.write_locked():
            with store._quiesced():
                # Re-measure under the latch: the pre-check raced with
                # in-flight batches.
                if not self._should_rebalance(self._free_fractions()):
                    return False
                return self._rebalance_quiesced() > 0

    def _rebalance_quiesced(self) -> int:
        """Enumerate, plan, and migrate — all locks held by the caller."""
        store = self.store
        table = store._router
        n_vbuckets = table.n_vbuckets
        bucket_counts = np.zeros(n_vbuckets, dtype=np.int64)
        resident: dict[tuple[int, int], list[bytes]] = {}
        for shard_id, shard_store in enumerate(store.stores):
            keys = [key for key, _ in list(shard_store.index.items())]
            if not keys:
                continue
            buckets = (
                hash_keys(keys) % np.uint64(n_vbuckets)
            ).astype(np.int64)
            np.add.at(bucket_counts, buckets, 1)
            for key, bucket in zip(keys, buckets.tolist()):
                resident.setdefault((shard_id, bucket), []).append(key)
        moves = greedy_moves(bucket_counts, table.snapshot(), self._capacities)
        applied = 0
        for bucket, recipient in moves:
            donor = table.shard_of_bucket(bucket)
            if donor == recipient:
                continue
            keys = resident.get((donor, bucket), [])
            if self._migrate_bucket(bucket, donor, recipient, keys):
                applied += 1
        if applied:
            self._bump(rebalances=1)
        return applied

    # -------------------------------------------------------------- #
    # bucket migration                                                #
    # -------------------------------------------------------------- #

    def _migrate_bucket(
        self, bucket: int, donor: int, recipient: int, keys: list[bytes]
    ) -> bool:
        """Copy → flip → delete for one bucket; False aborts cleanly."""
        store = self.store
        donor_store = store.stores[donor]
        recipient_store = store.stores[recipient]
        copied: list[bytes] = []
        with donor_store.engine.deferred_retrain(), \
                recipient_store.engine.deferred_retrain():
            for start in range(0, len(keys), REBALANCE_MAX_KEYS):
                chunk = keys[start : start + REBALANCE_MAX_KEYS]
                pairs = list(zip(chunk, donor_store.get_many(chunk)))
                if not self._copy_chunk(recipient_store, pairs):
                    self._delete_copies(recipient_store, copied)
                    return False
                copied.extend(chunk)
                if self._crash_point == "copy":
                    raise SimulatedRebalanceCrash(
                        f"injected crash after copying bucket {bucket}"
                    )
            store._router.move(bucket, recipient)
            self._bump(bucket_moves=1)
            if self._crash_point == "flip":
                raise SimulatedRebalanceCrash(
                    f"injected crash after flipping bucket {bucket}"
                )
            self._delete_from_donor(donor_store, copied)
        self._bump(keys_migrated=len(copied))
        return True

    def _copy_chunk(self, recipient_store, pairs) -> bool:
        """Upsert one migration chunk; False means the recipient cannot
        take the bucket (exhausted/degraded) and the committed prefix
        has been rolled back."""
        self._bump(migration_batches=1)
        try:
            recipient_store.put_many(pairs)
        except (PoolExhaustedError, DegradedModeError) as exc:
            committed = [
                report.key
                for report in getattr(exc, "committed_reports", [])
            ]
            if committed:
                self._delete_copies(recipient_store, committed)
            return False
        return True

    def _delete_from_donor(self, donor_store, keys: list[bytes]) -> None:
        """Retire the donor's copies after the flip."""
        if not keys:
            return
        self._bump(migration_batches=1)
        self._delete_copies(donor_store, keys)

    @staticmethod
    def _delete_copies(shard_store, keys: list[bytes]) -> None:
        """Delete a migration's copies of ``keys`` from one shard (the
        donor's after the flip, or an aborted bucket's off the
        recipient), stepping over keys a crash replay already deleted:
        each ``KeyNotFoundError`` drops the committed prefix and the
        missing key, then the rest is deleted again.  A copy left
        behind is an unreferenced duplicate the recovery sweep
        reconciles."""
        remaining = list(keys)
        while remaining:
            try:
                shard_store.delete_many(remaining)
                return
            except KeyNotFoundError as exc:
                committed = {
                    report.key
                    for report in getattr(exc, "committed_reports", [])
                }
                rest = [key for key in remaining if key not in committed]
                remaining = rest[1:]  # the failing key is already gone

    # -------------------------------------------------------------- #
    # helpers                                                         #
    # -------------------------------------------------------------- #

    def _bump(self, **counts: int) -> None:
        store = self.store
        with store._stats_lock:
            for name, delta in counts.items():
                setattr(
                    store._router_stats,
                    name,
                    getattr(store._router_stats, name) + delta,
                )
