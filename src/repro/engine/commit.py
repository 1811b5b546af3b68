"""Commit stage: pool pops, device writes, and index/flag updates.

The commit stage is the only place a planned-and-steered chunk mutates
the store: it pops best-match addresses from the dynamic pool, flushes
payloads through the device's multi-row write path, coalesces the
validity-bitmap updates, and applies the per-op index inserts and
retrain checks in the exact order the sequential loop would.

Mid-chunk :class:`PoolExhaustedError` handling lives here too: the
already-placed prefix is committed (the state a sequential loop leaves
behind when it dies on that PUT) and the escaping exception is stamped
with the prefix's reports before it reaches the pipeline driver.

**Write-verify.**  On a media-enabled store
(:attr:`PNWConfig.media_enabled`) every chunk's
device writes are read back and compared before any flag or index entry
is set: an op whose row came back wrong (stuck cells) is *relocated* —
its faulty row retired, a fresh candidate popped through the same
Hamming probe path, re-written, re-verified — so nothing is ever
acknowledged unless its bytes are actually on the media.  A relocation
that exhausts the pool finalizes the verified prefix and escapes as an
ordinary mid-chunk :class:`PoolExhaustedError` (the unverified tail's
rows are released back to the pool, unflagged and unindexed — the same
unapplied suffix a sequential loop leaves).  With the fault model
disabled, none of this code runs and the commit stage is byte-identical
to the pre-media implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.reports import OperationReport
from ..errors import KeyNotFoundError, PoolExhaustedError
from . import account
from .steer import DeleteSteering, PutSteering, UpdateSteering

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pipeline import MutationEngine

__all__ = [
    "PutCommit",
    "commit_puts",
    "unindex_deletes",
    "release_deletes",
    "commit_endurance_updates",
    "commit_latency_updates",
    "replay_update_deletes",
    "verify_latency_update",
]


@dataclass
class PutCommit:
    """What one flushed chunk of steered PUTs did to the store."""

    addresses: np.ndarray
    fallbacks: np.ndarray
    write_reports: list
    retrained: list[bool]


def _verify_chunk(
    engine: "MutationEngine",
    payloads: np.ndarray,
    addresses: np.ndarray,
    write_reports: list,
    clusters: np.ndarray | None,
    orders,
) -> tuple[int, PoolExhaustedError | None]:
    """Read back every just-written row and relocate the ones that
    landed on stuck cells (mutating ``addresses`` / ``write_reports`` in
    place).

    Returns ``(good, exc)``: with healthy media or successful
    relocations ``good == len(addresses)`` and ``exc is None``.  When a
    relocation exhausts the pool at op ``i``, ops ``[0, i)`` are
    verified, the tail's already-written rows are released back into the
    pool (they were never flagged or indexed — the unapplied suffix of a
    sequential loop), and the caller finalizes only the prefix.
    """
    store = engine.store
    m = len(addresses)
    readback = store.nvm.peek_many(addresses)
    bad = np.flatnonzero((readback != payloads[:m]).any(axis=1))
    for i in bad:
        i = int(i)
        store.media_stats.verify_failures += 1
        store._retire_address(int(addresses[i]))
        cluster = int(clusters[i]) if clusters is not None else None
        order = orders[i] if (cluster is not None and orders is not None) else None
        try:
            new_address, report = store._media_place(payloads[i], cluster, order)
        except PoolExhaustedError as exc:
            for j in range(i + 1, m):
                release_cluster = int(clusters[j]) if clusters is not None else 0
                if release_cluster >= store.pool.n_clusters:
                    release_cluster = 0
                store.pool.release(int(addresses[j]), release_cluster)
            return i, exc
        addresses[i] = new_address
        write_reports[i] = report
        store.media_stats.relocations += 1
    return m, None


def _flush_puts(
    engine: "MutationEngine",
    keys: list[bytes],
    payloads: np.ndarray,
    addresses: np.ndarray,
    fallbacks: np.ndarray,
    clusters: np.ndarray | None = None,
    orders=None,
) -> PutCommit:
    """Flush a chunk of placed PUTs: multi-row write, write-verify (on
    media-enabled stores), coalesced flag bits, then per-op index
    inserts and retrain checks, in order.

    Deferring the data writes to one multi-row commit is safe because
    chunk writes only land on just-popped addresses, which are no longer
    candidates for later pops — so every Hamming probe sees exactly the
    bytes the sequential loop would have seen.

    ``clusters`` / ``orders`` are the chunk's steering outputs, consumed
    only by the verify/relocate path.  On relocation pool-exhaustion the
    verified prefix is finalized and the escaping
    :class:`PoolExhaustedError` carries it as ``flushed_commit`` for the
    caller's accounting.
    """
    store = engine.store
    m = len(keys)
    store.metrics.fallbacks += int(np.count_nonzero(fallbacks[:m]))
    addresses = addresses[:m]
    fallbacks = fallbacks[:m]
    write_reports = store.nvm.write_many(addresses, payloads[:m])
    good, pool_exc = m, None
    if m and store.config.media_enabled:
        addresses = addresses.copy()
        good, pool_exc = _verify_chunk(
            engine, payloads, addresses, write_reports, clusters, orders
        )
    if good:
        store._set_valid_many(addresses[:good], True)
        if store.scrubber is not None:
            store.scrubber.note_many(addresses[:good], payloads[:good])
    retrained: list[bool] = []
    for i in range(good):
        store.index.put(keys[i], int(addresses[i]))
        store._live_count += 1
        store.metrics.puts += 1
        retrained.append(store._maybe_retrain())
    committed = PutCommit(addresses[:good], fallbacks[:good], write_reports[:good],
                          retrained)
    if pool_exc is not None:
        pool_exc.flushed_commit = committed
        raise pool_exc
    return committed


def _flush_puts_accounted(
    engine: "MutationEngine",
    keys: list[bytes],
    payloads: np.ndarray,
    addresses: np.ndarray,
    fallbacks: np.ndarray,
    steering: PutSteering,
) -> PutCommit:
    """:func:`_flush_puts` with steering wired through, stamping
    ``chunk_reports`` for the verified prefix if a mid-verify relocation
    exhausts the pool."""
    try:
        return _flush_puts(engine, keys, payloads, addresses, fallbacks,
                           steering.clusters, steering.orders)
    except PoolExhaustedError as exc:
        flushed = exc.__dict__.pop("flushed_commit", None)
        if flushed is None:
            raise
        good = len(flushed.write_reports)
        exc.chunk_reports = account.account_puts(
            engine, keys[:good], steering.clusters, steering.predict_ns,
            flushed,
        )
        raise


def commit_puts(
    engine: "MutationEngine",
    keys: list[bytes],
    payloads: np.ndarray,
    steering: PutSteering,
) -> PutCommit:
    """Bulk-pop best-match addresses and flush the chunk.

    The payload matrix goes straight to the probe engine, which scores
    each row against its cluster's DRAM content cache — no per-request
    scorer closures, no device gathers per pop.  On pool exhaustion the
    prefix the pool did serve is committed and accounted, and the
    exception escapes carrying those ``chunk_reports``.
    """
    store = engine.store
    try:
        addresses, fallbacks = store.pool.get_best_many(
            steering.clusters, payloads, store.config.probe_limit,
            steering.orders,
        )
    except PoolExhaustedError as exc:
        done = int(exc.partial_addresses.size)
        if done:
            committed = _flush_puts_accounted(
                engine, keys[:done], payloads, exc.partial_addresses,
                exc.partial_fallbacks, steering,
            )
            exc.chunk_reports = account.account_puts(
                engine, keys[:done], steering.clusters,
                steering.predict_ns, committed,
            )
        else:
            exc.chunk_reports = []
        raise
    return _flush_puts_accounted(engine, keys, payloads, addresses,
                                 fallbacks, steering)


# ---------------------------------------------------------------------- #
# deletes                                                                 #
# ---------------------------------------------------------------------- #

def unindex_deletes(
    engine: "MutationEngine", keys: list[bytes]
) -> tuple[list[tuple[bytes, int]], KeyNotFoundError | None]:
    """Index removals per key in order, then one flag reset for the
    whole chunk (Algorithm 3).

    Stops at the first missing key; the caller finishes recycling the
    already-deleted prefix before the error escapes — the state a
    sequential loop leaves when it dies on that key.
    """
    store = engine.store
    done: list[tuple[bytes, int]] = []
    error: KeyNotFoundError | None = None
    for key in keys:
        try:
            done.append((key, store.index.delete(key)))
        except KeyNotFoundError as exc:
            error = exc
            break
    store._set_valid_many([address for _, address in done], False)
    return done, error


def release_deletes(
    engine: "MutationEngine",
    done: list[tuple[bytes, int]],
    steering: DeleteSteering,
) -> list[int]:
    """Recycle already-unindexed addresses into the pool, in key order.

    Returns the clamped cluster each address was filed under (a stale
    label past the current pool's range files under cluster 0).
    """
    store = engine.store
    clusters: list[int] = []
    for i, (_, address) in enumerate(done):
        cluster = int(steering.clusters[i])
        if cluster >= store.pool.n_clusters:
            cluster = 0
        store.pool.release(address, cluster)
        store._live_count -= 1
        store.metrics.deletes += 1
        clusters.append(cluster)
    return clusters


# ---------------------------------------------------------------------- #
# updates                                                                 #
# ---------------------------------------------------------------------- #

def replay_update_deletes(
    engine: "MutationEngine",
    keys: list[bytes],
    releases: list[tuple[int, int]],
    count: int,
    predict_ns: float,
) -> list[OperationReport]:
    """Store-side half of the first ``count`` endurance-update deletes,
    whose pool-side releases the probe engine already interleaved with
    the pops: index removal and counters per key and one flag reset for
    all ``count`` old rows — before the put half sets its flags, so a
    row released and re-popped inside the chunk ends up set.  Removing
    every old entry before the inserts leaves the DRAM index with the
    same entries in the same order as the sequential delete, insert,
    delete, insert.  Builds (but does not record) the delete reports —
    the account stage interleaves them with the put reports."""
    store = engine.store
    reports: list[OperationReport] = []
    for i in range(count):
        store.index.delete(keys[i])
        store.metrics.updates += 1
        store._live_count -= 1
        store.metrics.deletes += 1
        reports.append(
            OperationReport(
                op="delete",
                key=keys[i],
                address=releases[i][0],
                cluster=releases[i][1],
                fallback_used=False,
                bit_updates=0,
                words_touched=0,
                lines_touched=0,
                nvm_latency_ns=0.0,
                predict_ns=predict_ns,
                retrained=False,
            )
        )
    store._set_valid_many(
        [address for address, _ in releases[:count]], False
    )
    return reports


def commit_endurance_updates(
    engine: "MutationEngine",
    keys: list[bytes],
    payloads: np.ndarray,
    steering: UpdateSteering,
) -> tuple[PutCommit, list[OperationReport], int]:
    """Delete-plus-steered-PUT over a chunk of distinct, present keys.

    The whole pool-visible event sequence — release ``i`` before pop
    ``i``, pops in key order — runs inside one
    :meth:`DynamicAddressPool.get_best_many` call with interleaved
    ``releases``, preserving the sequential interleaving exactly (a
    freed address is eligible for its own key's steered PUT and every
    later one).  The store-side half of each delete touches neither the
    pool nor the data zone, so replaying it after the bulk pop leaves
    identical state and identical accounting: counters and one flag
    reset up front, and every old index entry removed before the
    inserts.

    Returns ``(put_commit, delete_reports, committed)``.  A trailing
    delete whose steered PUT found the pool empty is still returned
    (its delete *did* happen); the account stage records it before the
    error escapes.
    """
    store = engine.store
    m = len(keys)
    pool_exc: PoolExhaustedError | None = None
    committed = applied = m
    try:
        new_addresses, fallbacks = store.pool.get_best_many(
            steering.put_clusters, payloads, store.config.probe_limit,
            steering.orders, releases=steering.releases,
        )
    except PoolExhaustedError as exc:
        pool_exc = exc
        new_addresses, fallbacks = exc.partial_addresses, exc.partial_fallbacks
        committed = int(new_addresses.size)
        # The failing request's release landed before its pop died, so
        # its delete half is replayed (and recorded) too.
        applied = int(getattr(exc, "releases_applied", committed))
    delete_reports = replay_update_deletes(
        engine, keys, steering.releases, applied, steering.predict_ns
    )
    try:
        put_commit = _flush_puts(
            engine, keys[:committed], payloads, new_addresses, fallbacks,
            steering.put_clusters, steering.orders,
        )
    except PoolExhaustedError as exc:
        _account_update_flush_failure(engine, exc, keys, steering,
                                      delete_reports)
        raise
    if pool_exc is not None:
        pool_exc.chunk_reports = account.account_endurance_updates(
            engine, keys, steering, put_commit, delete_reports, committed
        )
        raise pool_exc
    return put_commit, delete_reports, m


def _account_update_flush_failure(
    engine: "MutationEngine",
    exc: PoolExhaustedError,
    keys: list[bytes],
    steering: UpdateSteering,
    delete_reports: list[OperationReport],
) -> None:
    """Stamp ``chunk_reports`` on a verify-relocation pool-exhaustion
    that fired inside an endurance-update flush.

    The verified put prefix is accounted as usual; delete halves past
    the prefix *did* land (their keys are gone, their rows unflagged,
    their put rows released back to the pool), so their reports are
    recorded in the metrics just like the single trailing delete the
    account stage already handles."""
    flushed = exc.__dict__.pop("flushed_commit", None)
    if flushed is None:
        raise exc
    good = len(flushed.write_reports)
    exc.chunk_reports = account.account_endurance_updates(
        engine, keys, steering, flushed, delete_reports, good
    )
    for report in delete_reports[good + 1:]:
        engine.store.metrics.record(report)


def verify_latency_update(
    engine: "MutationEngine",
    key: bytes,
    address: int,
    payload: np.ndarray,
    write_report,
):
    """Read-back verify of one in-place (latency-mode) update.

    Latency mode rewrites the key's existing row, so there is no popped
    address to fall back to: on stuck cells the key is *moved* — fresh
    verified row via the media-placement probe, index repointed, old row
    unflagged and retired.  Returns the (possibly new)
    ``(address, write_report)``; raises :class:`PoolExhaustedError` when
    no healthy row is available for the move.
    """
    store = engine.store
    if np.array_equal(store.nvm.peek(address), payload):
        if store.scrubber is not None:
            store.scrubber.note(address, payload)
        return address, write_report
    store.media_stats.verify_failures += 1
    new_address, report = store._media_place(payload)
    store._set_valid(new_address, True)
    store.index.put(key, new_address)
    store._set_valid(address, False)
    store._retire_address(address)
    if store.scrubber is not None:
        store.scrubber.note(new_address, payload)
    store.media_stats.relocations += 1
    return new_address, report


def commit_latency_updates(
    engine: "MutationEngine", keys: list[bytes], payloads: np.ndarray
) -> tuple[np.ndarray, list]:
    """In-place batch update: one multi-row write, no steering.

    On media-enabled stores every row is read back; an op that landed on
    stuck cells is moved to a healthy row (see
    :func:`verify_latency_update`).  A move that exhausts the pool
    escapes with the verified prefix's reports as ``chunk_reports`` —
    unverified ops past it are not acknowledged.
    """
    store = engine.store
    store.metrics.updates += len(keys)
    addresses = np.array([store.index.get(key) for key in keys],
                         dtype=np.int64)
    write_reports = store.nvm.write_many(addresses, payloads)
    if store.config.media_enabled:
        for i, key in enumerate(keys):
            try:
                addresses[i], write_reports[i] = verify_latency_update(
                    engine, key, int(addresses[i]), payloads[i],
                    write_reports[i],
                )
            except PoolExhaustedError as exc:
                exc.chunk_reports = account.account_latency_updates(
                    engine, keys[:i], addresses[:i], write_reports[:i]
                )
                raise
    return addresses, write_reports
