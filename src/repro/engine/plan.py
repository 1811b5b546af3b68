"""Plan stage: encode, validate, dedupe, and carve batches into chunks.

The plan stage owns everything that happens *before* the model is
consulted: key normalization, value validation, payload encoding, the
insert-only uniqueness pre-check (shared verbatim by the single and the
sharded store), and the chunk planners that slice a batch so a retrain
check can only fire where the sequential loop would run it.

Planners are generators consumed lazily by the pipeline driver: a chunk's
cap depends on the store's live mutation counter, so the next chunk must
not be planned until the previous one has committed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from ..errors import DuplicateKeyError, KeyNotFoundError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import PNWConfig
    from .pipeline import Chunk, MutationEngine

__all__ = [
    "validate_values",
    "encode_pairs",
    "check_unique",
    "plan_puts",
    "plan_updates",
    "plan_deletes",
]


def validate_values(
    config: "PNWConfig", values: list[bytes | np.ndarray]
) -> None:
    """Reject oversized values without materialising anything.

    Batch entry points run this over the *whole* batch before the first
    mutation, so a bad value anywhere — even past a chunk boundary —
    rejects the batch with the store untouched.
    """
    value_bytes = config.value_bytes
    for value in values:
        size = value.nbytes if isinstance(value, np.ndarray) else len(value)
        if size > value_bytes:
            raise ValueError(
                f"value of {size} bytes exceeds bucket size {value_bytes}"
            )


def encode_pairs(
    config: "PNWConfig",
    keys: list[bytes],
    values: list[bytes | np.ndarray],
) -> np.ndarray:
    """Pack normalized keys and their values into an ``(n, bucket_bytes)``
    payload matrix — the single-matrix featurizer input of the batch
    pipeline.  Values are validated up front, so an oversized value
    rejects the batch before anything is written."""
    value_bytes = config.value_bytes
    validate_values(config, values)
    parts: list[bytes] = []
    for key, value in zip(keys, values):
        if isinstance(value, np.ndarray):
            value = value.tobytes()
        parts.append(key)
        parts.append(value.ljust(value_bytes, b"\x00"))
    return (
        np.frombuffer(b"".join(parts), dtype=np.uint8)
        .reshape(len(keys), config.bucket_bytes)
        .copy()
    )


def check_unique(
    keys: Iterable[bytes], exists: Callable[[bytes], bool]
) -> None:
    """Insert-only pre-check: the single implementation behind
    ``put_many(unique=True)`` / ``put_unique`` on *both* store types.

    ``exists`` is the store's own membership test (the single store's
    index, or the sharded store's per-shard routing).  Raises
    :class:`DuplicateKeyError` — with one shared message — if any
    (normalized) key already exists or appears twice in the batch,
    before anything is written.
    """
    seen: set[bytes] = set()
    for key in keys:
        if exists(key) or key in seen:
            raise DuplicateKeyError(f"key {key!r} already exists")
        seen.add(key)


def _retrain_cap(engine: "MutationEngine", n: int) -> int:
    """Longest chunk of retrain-clock-ticking operations whose retrain
    check can only fire at its last one (``n``: no limit)."""
    if engine.defer_retrain:
        return n
    store = engine.store
    return store.config.retrain_check_interval - store._mutations_since_check


def _update_chunking(engine: "MutationEngine", n: int) -> tuple[type, int]:
    """The update mode's chunk type and the longest chunk it may run:
    an endurance update ticks the retrain clock once per pair, an
    in-place latency update never does."""
    from .pipeline import UpdateEnduranceChunk, UpdateLatencyChunk

    if engine.store.config.update_mode == "endurance":
        return UpdateEnduranceChunk, _retrain_cap(engine, n)
    return UpdateLatencyChunk, n


def plan_puts(
    engine: "MutationEngine", items: list[tuple[bytes, bytes | np.ndarray]]
) -> Iterator["Chunk"]:
    """Carve a PUT batch into steered-PUT chunks and update chunks.

    A :class:`PutChunk` holds fresh, distinct keys; it stops at the
    first existing or repeated key and is capped so the next retrain
    check can only fire at its last operation — after every deferred
    write has landed — which is exactly where the sequential loop would
    retrain.  A stretch of two or more consecutive, distinct, existing
    keys is one update-mode chunk, carved exactly as
    :func:`plan_updates` carves an UPDATE batch (cut at a repeated key
    and, in endurance mode, at the retrain cap), so a flush of N dirty
    existing keys costs a handful of chunks, not N; a stretch of one is
    a :class:`SingleUpdate`, the sequential PUT of an existing key.
    """
    from .pipeline import PutChunk, SingleUpdate

    index = engine.store.index
    i, n = 0, len(items)
    while i < n:
        key, value = items[i]
        if key in index:
            chunk_type, cap = _update_chunking(engine, n)
            taken = {key}
            end = i + 1
            while end < n and end - i < cap:
                next_key = items[end][0]
                if next_key in taken or next_key not in index:
                    break
                taken.add(next_key)
                end += 1
            stretch, i = items[i:end], end
            if len(stretch) == 1:
                yield SingleUpdate(key, value)
                continue
            yield chunk_type(stretch)
            continue
        cap = _retrain_cap(engine, n)
        chunk_keys, chunk_values, taken = [key], [value], {key}
        i += 1
        while i < n and len(chunk_keys) < cap:
            next_key, next_value = items[i]
            if next_key in taken or next_key in index:
                break
            chunk_keys.append(next_key)
            chunk_values.append(next_value)
            taken.add(next_key)
            i += 1
        yield PutChunk(chunk_keys, chunk_values)


def plan_updates(
    engine: "MutationEngine", items: list[tuple[bytes, bytes | np.ndarray]]
) -> Iterator["Chunk"]:
    """Carve an UPDATE batch into chunks of distinct, present keys.

    Chunks end at duplicate keys (a later update of the same key must
    observe the earlier one) and, in endurance mode, at retrain-check
    boundaries.  A missing key raises :class:`KeyNotFoundError` from the
    planner — after the pipeline has executed every chunk planned before
    it, like a sequential loop that dies on that key.
    """
    index = engine.store.index
    i, n = 0, len(items)
    while i < n:
        key, value = items[i]
        if key not in index:
            raise KeyNotFoundError(f"key {key!r} not found")
        chunk_type, cap = _update_chunking(engine, n)
        chunk: list[tuple[bytes, bytes | np.ndarray]] = [(key, value)]
        taken = {key}
        i += 1
        missing_key: bytes | None = None
        while i < n and len(chunk) < cap:
            next_key, next_value = items[i]
            if next_key in taken:
                break
            if next_key not in index:
                missing_key = next_key
                i += 1
                break
            chunk.append((next_key, next_value))
            taken.add(next_key)
            i += 1
        yield chunk_type(chunk)
        if missing_key is not None:
            raise KeyNotFoundError(f"key {missing_key!r} not found")


def plan_deletes(
    engine: "MutationEngine", keys: list[bytes]
) -> Iterator["Chunk"]:
    """A DELETE batch is one chunk: unindexing runs per key in order and
    the freed contents are re-labeled in a single vectorized call."""
    from .pipeline import DeleteBatch

    yield DeleteBatch(keys)
