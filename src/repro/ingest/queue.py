"""Multi-producer admission layer over the staged write path.

Streaming drivers produce one operation at a time; the store's engine is
fastest when fed whole batches (one featurize, one K-Means call, one
bulk pop, one multi-row commit per chunk).  :class:`IngestQueue` closes
that gap: callers submit single PUT/UPDATE/DELETE ops and immediately
get a :class:`~concurrent.futures.Future`; the queue coalesces pending
ops into per-shard ``put_many`` / ``update_many`` / ``delete_many``
batches under a size/latency-deadline policy and drains them through
the store's existing batch pipelines — the sharded store's per-shard
engines included (dispatch goes through ``run_shard_batches``) —
resolving each future with its op's
:class:`~repro.core.reports.OperationReport`.

Admission control
-----------------

The queue is the store's front door, so it is built for *many*
producers and *uncontrolled* arrival rates:

* **Lock-striped lanes.**  Pending ops live in one lane per shard, each
  with its own lock; producers contend only on the lane their key hashes
  to (plus one counting window), never on a global submission lock.
* **Bounded window.**  At most ``max_pending`` ops may be admitted but
  not yet dispatched.  What happens at the bound is the ``overload``
  policy:

  ========== =========================================================
  ``block``   the producer waits for a free slot (default); a producer
              blocked in ``submit`` is woken by the next dispatch, or
              fails with :class:`~repro.errors.QueueClosedError` if the
              queue closes first.
  ``shed``    submission fails immediately with
              :class:`~repro.errors.QueueFullError`; the store never
              sees the op.
  ``deadline`` every op carries an admission deadline
              (``admission_timeout`` from submission).  A producer
              waits for a slot only until the deadline; an admitted op
              whose deadline passes before its batch is dispatched is
              rejected at dispatch time.  Either way the future fails
              with :class:`~repro.errors.DeadlineExceededError` and the
              op is never applied.
  ========== =========================================================

  Rejected ops (``shed`` and ``deadline``) are never partially applied:
  shedding happens before the op enters a lane, and expired ops are
  dropped from their batch before the batch reaches the store.

Ordering and equivalence
------------------------

Ops are grouped *per shard* (one logical shard for a plain
``PNWStore``), and each shard's ops keep their admission order: a run
of consecutive same-kind ops becomes one ``*_many`` call, and a kind
change (or the ``max_batch`` cap) cuts the run.  Two ops on different
shards own disjoint key spaces, so cross-shard regrouping cannot
reorder conflicting ops, and per-shard batch boundaries don't change
state at all — the engine's batch pipeline is state-identical to
sequential execution.  Coalesced ingestion is therefore byte-identical
(data zone, index, pool, wear accounting) to hand-batched ``*_many``
calls over the same per-shard admission sequences (pinned by
``tests/ingest/``).  With several producers the admission order *is*
the serialization: ops racing on one key resolve to exactly the state
a sequential oracle fed the admitted order produces.

Failure semantics follow the batch calls they coalesce into: when a run
dies mid-batch (missing key, pool exhaustion), the committed prefix's
futures resolve normally from the exception's ``committed_reports``,
and the remaining futures of that run receive the exception.  Later
runs — including the same shard's — still execute.

Lifecycle: :meth:`close` stops admission, drains everything already
admitted (waiting out a dispatch in flight), and *deterministically*
rejects — never hangs — any future the drain could not resolve, e.g.
when the dispatch machinery itself dies.  Producers blocked in a full
window are woken with :class:`~repro.errors.QueueClosedError`.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import TYPE_CHECKING

import numpy as np

from ..core.reports import OperationReport
from ..core.store import PNWStore
from ..errors import DeadlineExceededError, QueueClosedError, QueueFullError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..shard.store import ShardedPNWStore

__all__ = ["IngestQueue"]

OVERLOAD_POLICIES = ("block", "shed", "deadline")


class _Run:
    """One shard's run of consecutive same-kind ops (one ``*_many``)."""

    __slots__ = ("kind", "items", "futures", "deadlines", "seqs", "epoch")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.items: list = []
        self.futures: list[Future] = []
        #: Admission deadlines (monotonic), only under the ``deadline``
        #: overload policy; ``None`` otherwise.
        self.deadlines: list[float] | None = None
        #: Global admission sequence number per op: dispatch restores
        #: the cross-lane admission order when re-routing stale-laned
        #: runs after a routing-table change.
        self.seqs: list[int] = []
        #: The oldest routing epoch observed by any op laned into this
        #: run (each producer reads the epoch *before* routing, so a
        #: run whose epoch matches the table at dispatch is guaranteed
        #: to be laned correctly).
        self.epoch: int = 0


class _Lane:
    """One shard's pending ops: its own lock, runs, and deadline clock."""

    __slots__ = ("lock", "runs", "count", "oldest", "submitted")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.runs: list[_Run] = []
        self.count = 0
        #: Enqueue time (monotonic) of the oldest pending op, or None.
        self.oldest: float | None = None
        self.submitted = 0


class _Window:
    """Counting admission window with timed waits and close wakeup.

    A semaphore whose blocked acquirers can also be released by
    :meth:`close` — the piece ``threading.Semaphore`` is missing — so a
    producer stuck waiting for a slot fails fast when the queue shuts
    down instead of hanging forever.
    """

    __slots__ = ("limit", "_free", "_cond", "_closed")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._free = limit
        self._cond = threading.Condition()
        self._closed = False

    def acquire(self, timeout: float | None = None) -> bool:
        """Take one slot.  ``timeout=None`` waits forever, ``0`` never.

        Returns ``False`` on timeout; raises
        :class:`~repro.errors.QueueClosedError` if the window closes
        while (or before) waiting.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    raise QueueClosedError(
                        "cannot submit to a closed IngestQueue"
                    )
                if self._free > 0:
                    self._free -= 1
                    return True
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        return False
                    self._cond.wait(remaining)

    def release(self, n: int = 1) -> None:
        if n <= 0:
            return
        with self._cond:
            self._free += n
            self._cond.notify(n)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class IngestQueue:
    """Coalesce single ops into per-shard batches behind futures.

    Parameters
    ----------
    store:
        A :class:`~repro.core.store.PNWStore` or
        :class:`~repro.shard.ShardedPNWStore`.  The queue becomes the
        store's mutation driver; don't mutate the store directly while
        the queue is open (reads go through :meth:`get`, which is
        serialized against dispatch).
    max_batch:
        Flush a shard as soon as it has this many pending ops; also the
        cap on one coalesced ``*_many`` call (the dispatch batch size).
    max_delay:
        Latency deadline in seconds: no accepted op waits longer than
        this for its batch to be dispatched (plus the batch's own
        execution time).
    max_pending:
        The admission window: at most this many ops admitted but not
        yet dispatched, across all lanes.  Defaults to
        ``4 * max_batch``.
    overload:
        What happens to a submission when the window is full —
        ``"block"`` (default), ``"shed"``, or ``"deadline"``; see the
        module docstring's policy matrix.
    admission_timeout:
        ``deadline`` policy only: seconds from submission to the op's
        admission deadline.  Defaults to ``2 * max_delay`` (one full
        flush cycle of headroom).
    autostart:
        Start the background flusher thread immediately.  With
        ``False`` nothing is dispatched until :meth:`flush` — handy for
        deterministic tests and crash simulations.

    The producer API (:meth:`put` / :meth:`update` / :meth:`delete` /
    :meth:`get`) is thread-safe; any number of producers may drive one
    queue concurrently.
    """

    def __init__(
        self,
        store: "PNWStore | ShardedPNWStore",
        *,
        max_batch: int = 256,
        max_delay: float = 0.005,
        max_pending: int | None = None,
        overload: str = "block",
        admission_timeout: float | None = None,
        autostart: bool = True,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay <= 0.0:
            raise ValueError(f"max_delay must be positive, got {max_delay}")
        if max_pending is None:
            max_pending = 4 * max_batch
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if overload not in OVERLOAD_POLICIES:
            raise ValueError(
                f"overload must be one of {OVERLOAD_POLICIES}, got {overload!r}"
            )
        if admission_timeout is None:
            admission_timeout = 2.0 * max_delay
        if admission_timeout <= 0.0:
            raise ValueError(
                f"admission_timeout must be positive, got {admission_timeout}"
            )
        self.store = store
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.max_pending = max_pending
        self.overload = overload
        self.admission_timeout = admission_timeout
        #: One pending lane per shard; producers stripe across them.
        self._lanes = [_Lane() for _ in range(store.n_shards)]
        self._window = _Window(max_pending)
        #: Producers poke this when a lane becomes non-empty (the
        #: flusher must learn its deadline) or hits the size trigger.
        self._wake = threading.Event()
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        #: Serializes dispatch (flusher thread, explicit flush calls,
        #: inline size-trigger drains) so batches reach the store in
        #: take-order.
        self._drain_lock = threading.Lock()
        #: What :meth:`get` holds: a bare ``PNWStore`` has no lock of
        #: its own, so reads serialize with dispatch; every wrapper
        #: locks for itself (per shard, or the tier lock).
        self._read_lock = (
            self._drain_lock
            if isinstance(store, PNWStore)
            else contextlib.nullcontext()
        )
        self.batches_dispatched = 0
        self.ops_rejected = 0
        #: Always 0: dispatch never re-submits a run.  Kept because the
        #: perf ledger reads it as ``ingest.retried``.
        self.ops_retried = 0
        #: Guards ops_rejected: shed/deadline producers and _expire
        #: (under the drain lock) all bump it concurrently.
        self._rejected_lock = threading.Lock()
        #: Global admission order: dispatch re-lanes pending runs by
        #: these when the store's routing table changed under them.
        self._seq = itertools.count()
        self._flusher: threading.Thread | None = None
        if autostart:
            self.start()

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start the background flusher (idempotent)."""
        with self._lifecycle_lock:
            if self._closed:
                raise RuntimeError("queue is closed")
            if self._flusher is not None:
                return
            self._flusher = threading.Thread(
                target=self._flush_loop, name="pnw-ingest", daemon=True
            )
            self._flusher.start()

    def close(self) -> None:
        """Stop admission, drain everything admitted, resolve every future.

        Graceful under load: producers blocked in a full window are
        woken with :class:`~repro.errors.QueueClosedError`, a dispatch
        already in flight is waited out, and every op admitted before
        the close is dispatched.  Deterministic even when dispatch
        breaks: any future the drain could not resolve is rejected with
        :class:`~repro.errors.QueueClosedError` rather than left to
        hang.  Idempotent; concurrent closers wait for the first.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            # Wake blocked producers (they raise QueueClosedError) and
            # the flusher (it runs a final full sweep and exits).
            self._window.close()
            self._wake.set()
            flusher = self._flusher
            if flusher is not None:
                flusher.join()
                self._flusher = None
            # Anything still pending (no flusher, or admitted after the
            # flusher's final sweep began).
            with self._drain_lock:
                self._dispatch(self._take(due_only=False))
            # The drain above resolves everything a working store can
            # resolve; sweep up stragglers so close() never leaks a
            # pending future (e.g. dispatch machinery died mid-run).
            self._reject_stragglers()

    def _reject_stragglers(self) -> None:
        exc = QueueClosedError("IngestQueue closed before the op was applied")
        for lane in self._lanes:
            with lane.lock:
                runs, lane.runs = lane.runs, []
                lane.count = 0
                lane.oldest = None
            for run in runs:
                for future in run.futures:
                    if not future.done():
                        _set_exception(future, exc)

    def __enter__(self) -> "IngestQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # producer API                                                        #
    # ------------------------------------------------------------------ #

    def put(self, key: bytes, value: bytes | np.ndarray) -> Future:
        """Enqueue a PUT; the future resolves to its OperationReport."""
        return self._submit("put", key, (key, value))

    def update(self, key: bytes, value: bytes | np.ndarray) -> Future:
        """Enqueue an UPDATE; missing keys fail the future with
        :class:`~repro.errors.KeyNotFoundError`."""
        return self._submit("update", key, (key, value))

    def delete(self, key: bytes) -> Future:
        """Enqueue a DELETE; missing keys fail the future with
        :class:`~repro.errors.KeyNotFoundError`."""
        return self._submit("delete", key, key)

    def get(self, key: bytes) -> bytes:
        """Read ``key`` from the store, serialized against dispatch.

        Reads bypass the pending lanes — an op is visible once its
        future resolves, not at submission — so a producer that awaits
        its PUT before GETting reads its own write.  On a sharded store
        the read takes only the owning shard's lock (concurrent with
        other shards' flushes); on a single store it serializes with
        dispatch.  Safe from any thread; allowed on a closed queue.
        """
        with self._read_lock:
            return self.store.get(key)

    def _admit(self) -> float | None:
        """Take a window slot per the overload policy.

        Returns the op's admission deadline (``deadline`` policy) or
        ``None``; raises :class:`QueueFullError` /
        :class:`DeadlineExceededError` / :class:`QueueClosedError` when
        the op cannot be admitted.
        """
        if self.overload == "shed":
            if not self._window.acquire(timeout=0.0):
                self._count_rejected()
                raise QueueFullError(
                    f"admission window full ({self.max_pending} ops pending)"
                )
            return None
        if self.overload == "deadline":
            deadline = time.monotonic() + self.admission_timeout
            if not self._window.acquire(timeout=self.admission_timeout):
                self._count_rejected()
                raise DeadlineExceededError(
                    f"no admission slot within {self.admission_timeout}s "
                    f"({self.max_pending} ops pending)"
                )
            return deadline
        self._window.acquire()
        return None

    def _count_rejected(self, n: int = 1) -> None:
        with self._rejected_lock:
            self.ops_rejected += n

    def _submit(self, kind: str, key: bytes, item) -> Future:
        if self._closed:
            raise QueueClosedError("cannot submit to a closed IngestQueue")
        # Read the routing epoch *before* routing: if the table changes
        # after this read, the dispatch-time epoch check catches it and
        # re-lanes the op, so a stale lane choice is never executed.
        epoch = self.store.routing_epoch
        # Resolve the shard *before* taking a window slot: this
        # validates the key (shard_of_key raises on bad type/length),
        # and a rejected key must never consume a slot.
        lane = self._lanes[self.store.shard_of_key(key)]
        deadline = self._admit()
        future: Future = Future()
        try:
            with lane.lock:
                if self._closed:
                    # Lost the race with close(): the final sweep may
                    # have already run, so don't enqueue into a dead
                    # lane.
                    raise QueueClosedError(
                        "cannot submit to a closed IngestQueue"
                    )
                run = self._run_for(lane.runs, kind, epoch)
                run.epoch = min(run.epoch, epoch)
                run.items.append(item)
                run.futures.append(future)
                run.seqs.append(next(self._seq))
                if run.deadlines is not None:
                    run.deadlines.append(deadline)
                lane.count += 1
                if lane.oldest is None:
                    lane.oldest = time.monotonic()
                lane.submitted += 1
                count = lane.count
        except BaseException:
            # The slot was acquired but the op never entered a lane;
            # hand the slot back so nothing leaks.
            self._window.release()
            raise
        size_triggered = count >= self.max_batch
        if size_triggered or count == 1:
            # Size trigger, or a lane just became non-empty (the
            # flusher must learn its deadline).
            self._wake.set()
        if size_triggered and self._flusher is None:
            # No background flusher: size-triggered batches drain inline
            # so a paused queue still makes progress under load.
            self.flush()
        return future

    def _run_for(self, runs: list[_Run], kind: str, epoch: int) -> _Run:
        """The run the next ``kind`` op joins — the one run-cutting
        rule: a new run when ``runs`` is empty, the kind changes, or the
        last run reached ``max_batch``."""
        if (
            not runs
            or runs[-1].kind != kind
            or len(runs[-1].items) >= self.max_batch
        ):
            run = _Run(kind)
            run.epoch = epoch
            if self.overload == "deadline":
                run.deadlines = []
            runs.append(run)
        return runs[-1]

    def flush(self) -> None:
        """Dispatch everything pending and wait for it to execute.

        Returns once every op admitted before the call has its future
        resolved (the futures of failing runs carry their exception).
        Also waits out any dispatch already in flight.  Safe from any
        thread.
        """
        with self._drain_lock:
            self._dispatch(self._take(due_only=False))

    # ------------------------------------------------------------------ #
    # flusher                                                             #
    # ------------------------------------------------------------------ #

    def _take(
        self, *, due_only: bool, now: float | None = None
    ) -> dict[int, list[_Run]]:
        """Detach pending runs (all lanes, or only size/deadline-due
        ones), release their window slots, and — under the ``deadline``
        policy — reject ops whose admission deadline already passed."""
        taken: dict[int, list[_Run]] = {}
        released = 0
        if now is None:
            now = time.monotonic()
        for shard_id, lane in enumerate(self._lanes):
            with lane.lock:
                if not lane.runs:
                    continue
                if due_only:
                    due = (
                        lane.count >= self.max_batch
                        or now - lane.oldest >= self.max_delay
                    )
                    if not due:
                        continue
                runs = lane.runs
                lane.runs = []
                released += lane.count
                lane.count = 0
                lane.oldest = None
            taken[shard_id] = runs
        # Free the slots before dispatch: the window bounds *pending*
        # (admitted-but-undispatched) ops, so producers refill the lanes
        # while the store chews on the detached batches.
        self._window.release(released)
        if self.overload == "deadline":
            self._expire(taken, now)
        return taken

    def _expire(self, taken: dict[int, list[_Run]], now: float) -> None:
        """Drop ops whose admission deadline passed before this flush;
        their futures are rejected, their items never reach the store."""
        for shard_id, runs in taken.items():
            kept_runs: list[_Run] = []
            for run in runs:
                assert run.deadlines is not None
                live = [i for i, dl in enumerate(run.deadlines) if dl > now]
                if len(live) < len(run.items):
                    exc = DeadlineExceededError(
                        "admission deadline passed before dispatch"
                    )
                    expired = len(run.items) - len(live)
                    self._count_rejected(expired)
                    for i, future in enumerate(run.futures):
                        if run.deadlines[i] <= now:
                            _set_exception(future, exc)
                    run.items = [run.items[i] for i in live]
                    run.futures = [run.futures[i] for i in live]
                    run.deadlines = [run.deadlines[i] for i in live]
                if run.items:
                    kept_runs.append(run)
            taken[shard_id] = kept_runs

    def _next_deadline(self) -> float | None:
        """Earliest pending flush deadline (monotonic) across lanes."""
        oldest: float | None = None
        for lane in self._lanes:
            with lane.lock:
                if lane.oldest is not None and (
                    oldest is None or lane.oldest < oldest
                ):
                    oldest = lane.oldest
        return None if oldest is None else oldest + self.max_delay

    def _something_due(self, now: float) -> bool:
        """Whether any lane hit its size or deadline trigger."""
        for lane in self._lanes:
            with lane.lock:
                if lane.count >= self.max_batch:
                    return True
                if (
                    lane.oldest is not None
                    and now - lane.oldest >= self.max_delay
                ):
                    return True
        return False

    def _flush_loop(self) -> None:
        while True:
            while True:
                self._wake.clear()
                now = time.monotonic()
                if self._closed or self._something_due(now):
                    break
                deadline = self._next_deadline()
                self._wake.wait(
                    None if deadline is None else max(0.0, deadline - now)
                )
            stop = self._closed
            # Take-and-dispatch runs under _drain_lock so concurrent
            # flush() calls and the flusher hand batches to the store
            # strictly in take order.
            with self._drain_lock:
                self._dispatch(self._take(due_only=not stop))
            if stop:
                return

    # ------------------------------------------------------------------ #
    # dispatch                                                            #
    # ------------------------------------------------------------------ #

    def _dispatch(self, batches: dict[int, list[_Run]]) -> None:
        """Drain detached runs through the store's batch pipelines.

        Every future of ``batches`` is resolved by the time this
        returns: normally from the batch results, and — should the
        dispatch machinery itself die — with the escaping exception, so
        a broken store can never strand a producer on an unresolved
        future.
        """
        if not batches:
            return
        try:
            self._dispatch_inner(batches)
        except BaseException as exc:
            for runs in batches.values():
                for run in runs:
                    for future in run.futures:
                        if not future.done():
                            _set_exception(future, exc)
            if not isinstance(exc, Exception):
                raise  # KeyboardInterrupt and friends still escape
            # Ordinary failures live on the futures; swallowing here
            # keeps the flusher thread alive and close() non-raising.

    def _dispatch_inner(self, batches: dict[int, list[_Run]]) -> None:
        # Give the store's rebalancer its shot *before* pinning the
        # routing epoch — a rebalance pass takes the epoch's write side,
        # which a pin held by this same thread would deadlock against.
        self.store.rebalance_check(sum(
            len(run.items)
            for runs in batches.values()
            for run in runs
        ))
        pending = {shard_id: list(runs) for shard_id, runs in batches.items()}
        with self.store.routing_pin():
            # Runs were laned under the routing epoch their producers
            # observed; if a bucket migration slid in since, re-lane
            # them (in global admission order) under the pinned table.
            epoch = self.store.routing_epoch
            if any(
                run.epoch != epoch
                for runs in pending.values()
                for run in runs
            ):
                pending = self._reroute(pending, epoch)
            results = self.store.run_shard_batches(
                {
                    shard_id: [(run.kind, run.items) for run in runs]
                    for shard_id, runs in pending.items()
                }
            )
            for shard_id, outcomes in results.items():
                for run, (reports, error) in zip(pending[shard_id], outcomes):
                    self._resolve(run, reports, error)
                    self.batches_dispatched += 1

    def _reroute(
        self, pending: dict[int, list[_Run]], epoch: int
    ) -> dict[int, list[_Run]]:
        """Re-lane detached runs under the current routing table.

        A bucket migration between submission (where lanes were chosen)
        and dispatch may have re-homed keys; executing stale-laned runs
        would hand ops to shards that no longer own them.  Flatten every
        op, restore the global admission order via the per-op sequence
        numbers, and regroup into fresh runs under the pinned table with
        the same run-cutting rules as submission — so the re-laned
        batches are exactly what submission would have produced had the
        new table been live all along.
        """
        flat: list[tuple] = []
        for runs in pending.values():
            for run in runs:
                deadlines = run.deadlines or [None] * len(run.items)
                for seq, item, future, deadline in zip(
                    run.seqs, run.items, run.futures, deadlines
                ):
                    flat.append((seq, run.kind, item, future, deadline))
        flat.sort(key=lambda entry: entry[0])
        out: dict[int, list[_Run]] = {}
        for seq, kind, item, future, deadline in flat:
            key = item if kind == "delete" else item[0]
            run = self._run_for(
                out.setdefault(self.store.shard_of_key(key), []), kind, epoch
            )
            run.seqs.append(seq)
            run.items.append(item)
            run.futures.append(future)
            if run.deadlines is not None:
                run.deadlines.append(deadline)
        return out

    @staticmethod
    def _resolve(
        run: _Run,
        reports: list[OperationReport] | None,
        error: BaseException | None,
    ) -> None:
        """Map one executed run back onto its futures.

        On error, the batch call's ``committed_reports`` (an in-order
        prefix) resolve the ops that did land; every later future of the
        run gets the exception — the ``*_many`` contract the run
        coalesced into.  Futures cancelled while pending (an async
        caller gave up) are skipped: the op still executed, the result
        just has nobody to go to.
        """
        if error is None:
            assert reports is not None
            for future, report in zip(run.futures, reports):
                _set_result(future, report)
            return
        committed = list(getattr(error, "committed_reports", []))
        for i, future in enumerate(run.futures):
            if i < len(committed):
                _set_result(future, committed[i])
            else:
                _set_exception(future, error)

    # ------------------------------------------------------------------ #
    # introspection                                                       #
    # ------------------------------------------------------------------ #

    @property
    def pending_ops(self) -> int:
        """Ops admitted but not yet dispatched (never > ``max_pending``)."""
        total = 0
        for lane in self._lanes:
            with lane.lock:
                total += lane.count
        return total

    @property
    def ops_submitted(self) -> int:
        """Ops admitted over the queue's lifetime (rejections excluded)."""
        total = 0
        for lane in self._lanes:
            with lane.lock:
                total += lane.submitted
        return total


def _set_result(future: Future, result) -> None:
    """Resolve a future, tolerating a concurrent cancellation."""
    if future.cancelled():
        return
    try:
        future.set_result(result)
    except InvalidStateError:  # pragma: no cover - cancel race window
        pass


def _set_exception(future: Future, exc: BaseException) -> None:
    """Reject a future, tolerating a concurrent cancellation."""
    if future.cancelled():
        return
    try:
        future.set_exception(exc)
    except InvalidStateError:  # pragma: no cover - cancel race window
        pass
