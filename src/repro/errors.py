"""Exception hierarchy for the PNW reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the common cases.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CapacityError",
    "KeyNotFoundError",
    "DuplicateKeyError",
    "PoolExhaustedError",
    "NotFittedError",
    "ConfigError",
    "QueueFullError",
    "QueueClosedError",
    "DeadlineExceededError",
    "MediaError",
    "DegradedModeError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class CapacityError(ReproError):
    """A storage component (NVM zone, index, tree node) ran out of space."""


class KeyNotFoundError(ReproError, KeyError):
    """A GET/DELETE referenced a key that is not present."""

    def __str__(self) -> str:  # KeyError quotes its repr; keep messages readable
        return Exception.__str__(self)


class DuplicateKeyError(ReproError):
    """An insert-only structure received a key that already exists."""


class PoolExhaustedError(CapacityError):
    """The dynamic address pool has no free address left in any cluster.

    Raised mid-batch by the mutation engine once the zone (minus any
    rows retired by the media layer) cannot place the next value.  Like
    every retryable engine error it carries a ``committed_reports``
    attribute: the :class:`~repro.core.reports.OperationReport` list for
    the input-order prefix of the batch that *was* durably applied
    before the pool ran dry.  Callers resume by replaying only the ops
    after ``len(exc.committed_reports)`` — after freeing space
    (deletes), growing capacity, or scrubbing/retraining — instead of
    re-applying the whole batch.

    The same partial-commit contract is shared by
    :class:`KeyNotFoundError` (batched update/delete stops at the first
    missing key) and :class:`DegradedModeError` (writes shed before any
    op is applied, so ``committed_reports`` is empty)."""


class NotFittedError(ReproError):
    """A model was used before ``fit`` was called."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class QueueFullError(ReproError):
    """The ingestion queue's admission window is full (``shed`` policy)."""


class QueueClosedError(ReproError, RuntimeError):
    """An operation was submitted to (or blocked in) a closed queue.

    Also a :class:`RuntimeError` so pre-backpressure callers that caught
    ``RuntimeError`` on submit-after-close keep working.
    """


class DeadlineExceededError(ReproError):
    """An op's admission deadline passed before its batch was dispatched
    (``deadline`` policy): the op was never applied to the store."""


class MediaError(ReproError):
    """The simulated NVM media failed in a way the store cannot hide.

    Raised by the scrubber when a patrol read finds an occupied row
    whose bytes no longer match its stored checksum — i.e. acknowledged
    data was corrupted in place, which the write-verify path is designed
    to make impossible.  Treat it as a data-integrity alarm, not a
    retryable condition."""


class DegradedModeError(MediaError):
    """The store is shedding writes because media retirement crossed the
    capacity watermark (``media_retire_watermark``).

    Carries ``committed_reports = []``: degraded sheds happen before any
    op of the batch is applied, so the whole batch is retryable once
    capacity returns (deletes still execute and free rows).  See
    :class:`PoolExhaustedError` for the shared partial-commit retry
    contract."""
