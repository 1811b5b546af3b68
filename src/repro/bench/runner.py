"""Stream drivers shared by every reproduced experiment.

The paper's evaluation methodology (§VI-A): warm the data zone with "old
data", train the model on it, then stream new items that replace the old
ones, with inserts and deletes interleaved so addresses recycle through
the dynamic address pool.  Baselines replace in place (no steering);
PNW places each write through the model.

``live_window`` controls how many of the most recent keys stay live:
the paper's "insert n followed by deleting 0.5n" corresponds to a window
of half the zone, so at steady state half the addresses are free for
steering.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from .._bitops import bytes_to_array
from ..core.config import PNWConfig
from ..core.store import PNWStore
from ..shard import ShardedPNWStore, make_store
from ..stores.base import BaselineKVStore
from ..writeschemes.base import WriteScheme
from ..nvm.device import SimulatedNVM
from .metrics import StreamMetrics

__all__ = [
    "key_for",
    "build_bucket_rows",
    "run_scheme_stream",
    "make_pnw_store",
    "PNWStreamSession",
    "run_pnw_stream",
    "run_kv_store_stream",
    "run_pnw_kv_stream",
    "time_training",
]

KEY_BYTES = 8


def key_for(i: int) -> bytes:
    """The i-th stream key (8-byte big-endian counter)."""
    return int(i).to_bytes(KEY_BYTES, "big")


def build_bucket_rows(values: np.ndarray, keys: list[bytes] | None = None) -> np.ndarray:
    """Pack values into full bucket payloads ``[key | value]``.

    With ``keys=None`` the key prefix is zero — matching how
    ``PNWStore.warm_up`` stores old data, so baselines and PNW write
    byte-identical buckets.
    """
    values = np.atleast_2d(np.ascontiguousarray(values, dtype=np.uint8))
    n = values.shape[0]
    rows = np.zeros((n, KEY_BYTES + values.shape[1]), dtype=np.uint8)
    rows[:, KEY_BYTES:] = values
    if keys is not None:
        if len(keys) != n:
            raise ValueError(f"{len(keys)} keys for {n} values")
        for i, key in enumerate(keys):
            rows[i, :KEY_BYTES] = bytes_to_array(key, KEY_BYTES)
    return rows


def run_scheme_stream(
    scheme: WriteScheme | None,
    old_values: np.ndarray,
    new_values: np.ndarray,
    *,
    word_bytes: int = 4,
) -> StreamMetrics:
    """In-place replacement baseline: item ``i`` overwrites the oldest
    bucket (round-robin), through ``scheme``.

    ``scheme=None`` measures the device's native data-comparison write.
    Buckets hold the same ``[key | value]`` payloads PNW writes, so the
    bit-update comparison is apples to apples.
    """
    old_rows = build_bucket_rows(old_values)
    new_rows = build_bucket_rows(
        new_values, [key_for(i) for i in range(len(new_values))]
    )
    nvm = SimulatedNVM(old_rows.shape[0], old_rows.shape[1], word_bytes=word_bytes)
    nvm.load_many(0, old_rows)

    metrics = StreamMetrics(item_bits=old_rows.shape[1] * 8)
    for i, row in enumerate(new_rows):
        report = nvm.write(i % nvm.num_buckets, row, scheme)
        metrics.items += 1
        metrics.bit_updates += report.bit_updates
        metrics.aux_bit_updates += report.aux_bit_updates
        metrics.words_touched += report.words_touched
        metrics.lines_touched += report.lines_touched
        metrics.nvm_latency_ns += report.latency_ns
    return metrics


def make_pnw_store(
    num_buckets: int,
    value_bytes: int,
    n_clusters: int,
    *,
    seed: int | None = 0,
    featurizer: str = "auto",
    pca_components: int | None = None,
    track_bit_wear: bool = False,
    allow_retrain: bool = False,
    update_mode: str = "endurance",
    probe_limit: int = 64,
    shards: int = 1,
) -> PNWStore | ShardedPNWStore:
    """A store configured for the paper's measurement streams.

    By default retraining is disabled mid-stream (the Fig. 6 runs train
    once on the old data); pass ``allow_retrain=True`` for the lifecycle
    experiments (Fig. 10).  ``probe_limit=0`` selects Algorithm 2's plain
    free-list pop instead of §IV's minimum-Hamming probing.
    ``shards=N`` hash-partitions the zone into N per-shard batch
    pipelines run on a thread pool (see :mod:`repro.shard`);
    ``num_buckets`` stays the *total* capacity.
    """
    config = PNWConfig(
        num_buckets=num_buckets,
        value_bytes=value_bytes,
        key_bytes=KEY_BYTES,
        n_clusters=n_clusters,
        seed=seed,
        featurizer=featurizer,
        pca_components=pca_components,
        track_bit_wear=track_bit_wear,
        update_mode=update_mode,
        probe_limit=probe_limit,
        shards=shards,
        load_factor=0.9 if allow_retrain else 1.0,
        retrain_check_interval=128 if allow_retrain else 2**62,
    )
    return make_store(config)


class PNWStreamSession:
    """A running PNW replacement stream (steered writes + FIFO deletes).

    Warms the zone with ``old_values``, trains once, then each
    :meth:`run` call PUTs new items and DELETEs the oldest live key once
    more than ``live_window`` keys are live (default: half the zone — the
    paper's insert:delete = 2:1 steady state).  Sessions are reusable
    across calls, which is how the Fig. 10 phases share one store.
    ``shards=N`` runs the same schedule against a hash-partitioned
    :class:`~repro.shard.ShardedPNWStore` of the same total capacity.
    """

    def __init__(
        self,
        old_values: np.ndarray,
        n_clusters: int,
        *,
        seed: int | None = 0,
        live_window: int | None = None,
        featurizer: str = "auto",
        pca_components: int | None = None,
        track_bit_wear: bool = False,
        allow_retrain: bool = False,
        probe_limit: int = 64,
        shards: int = 1,
    ) -> None:
        old_values = np.atleast_2d(old_values)
        self.store = make_pnw_store(
            old_values.shape[0],
            old_values.shape[1],
            n_clusters,
            seed=seed,
            featurizer=featurizer,
            pca_components=pca_components,
            track_bit_wear=track_bit_wear,
            allow_retrain=allow_retrain,
            probe_limit=probe_limit,
            shards=shards,
        )
        self.store.warm_up(old_values)
        self.live_window = (
            live_window
            if live_window is not None
            else self.store.config.num_buckets // 2
        )
        self._live: deque[bytes] = deque()
        self._next_key = 0

    def run(
        self,
        new_values: np.ndarray,
        per_item: list[int] | None = None,
        *,
        batch_size: int = 1,
    ) -> StreamMetrics:
        """Stream ``new_values`` through the store; aggregate the costs.

        When ``per_item`` is given, each item's bit updates are appended
        to it (the Fig. 10 time series needs the trajectory, not just the
        mean).

        ``batch_size`` feeds the store through the batch pipeline: each
        group of up to ``batch_size`` items goes in as one
        :meth:`~repro.core.store.PNWStore.put_many` call, followed by the
        :meth:`~repro.core.store.PNWStore.delete_many` that restores the
        live window.  ``batch_size=1`` reproduces the classic
        one-PUT-one-eviction schedule of the paper's figures exactly;
        larger batches change the PUT/DELETE interleaving (a whole batch
        lands before its evictions), which is the schedule a batching
        front-end would produce.
        """
        store = self.store
        metrics = StreamMetrics(item_bits=store.config.bucket_bytes * 8)
        values = np.atleast_2d(new_values)
        batch_size = max(1, int(batch_size))
        for start in range(0, values.shape[0], batch_size):
            chunk = values[start : start + batch_size]
            keys = [key_for(self._next_key + j) for j in range(chunk.shape[0])]
            self._next_key += chunk.shape[0]
            reports = store.put_many(list(zip(keys, chunk)))
            self._live.extend(keys)
            for report in reports:
                metrics.items += 1
                metrics.bit_updates += report.bit_updates
                metrics.lines_touched += report.lines_touched
                metrics.words_touched += report.words_touched
                metrics.nvm_latency_ns += report.nvm_latency_ns
                metrics.predict_ns += report.predict_ns
                if per_item is not None:
                    per_item.append(report.bit_updates)
            overflow = len(self._live) - self.live_window
            if overflow > 0:
                store.delete_many(
                    [self._live.popleft() for _ in range(overflow)]
                )
        return metrics


def run_pnw_stream(
    old_values: np.ndarray,
    new_values: np.ndarray,
    n_clusters: int,
    *,
    seed: int | None = 0,
    live_window: int | None = None,
    featurizer: str = "auto",
    pca_components: int | None = None,
    track_bit_wear: bool = False,
    probe_limit: int = 64,
    batch_size: int = 1,
    shards: int = 1,
) -> tuple[StreamMetrics, PNWStore | ShardedPNWStore]:
    """One-shot PNW replacement stream (see :class:`PNWStreamSession`)."""
    session = PNWStreamSession(
        old_values,
        n_clusters,
        seed=seed,
        live_window=live_window,
        featurizer=featurizer,
        pca_components=pca_components,
        track_bit_wear=track_bit_wear,
        probe_limit=probe_limit,
        shards=shards,
    )
    metrics = session.run(new_values, batch_size=batch_size)
    return metrics, session.store


def run_kv_store_stream(
    store: BaselineKVStore,
    values: np.ndarray,
    *,
    delete_fraction: float = 0.5,
) -> float:
    """Fig. 9 protocol on a baseline store: insert n, delete n/2.

    Returns written cache lines per mutating request.
    """
    values = np.atleast_2d(values)
    n = values.shape[0]
    for i, value in enumerate(values):
        store.put(key_for(i), value.tobytes())
    for i in range(int(n * delete_fraction)):
        store.delete(key_for(i))
    return store.lines_per_request


def run_pnw_kv_stream(
    values: np.ndarray,
    n_clusters: int,
    *,
    seed: int | None = 0,
    delete_fraction: float = 0.5,
    capacity_slack: float = 1.5,
) -> float:
    """Fig. 9 protocol on PNW with the paper's Fig. 2a architecture:
    DRAM index, flags with the index, so the only NVM traffic is the
    data zone itself.
    """
    values = np.atleast_2d(values)
    n = values.shape[0]
    config = PNWConfig(
        num_buckets=int(n * capacity_slack),
        value_bytes=values.shape[1],
        key_bytes=KEY_BYTES,
        n_clusters=n_clusters,
        seed=seed,
        persist_flags=False,
        load_factor=0.9,
        retrain_check_interval=128,
    )
    store = PNWStore(config)
    for i, value in enumerate(values):
        store.put(key_for(i), value)
    for i in range(int(n * delete_fraction)):
        store.delete(key_for(i))
    requests = store.metrics.puts + store.metrics.deletes
    return store.nvm.stats.total_lines_touched / requests


def time_training(
    features: np.ndarray,
    n_clusters: int,
    n_jobs: int,
    *,
    seed: int | None = 0,
    max_iter: int = 20,
    n_init: int = 4,
) -> float:
    """Wall-clock seconds of one k-means training (Fig. 11).

    Four k-means++ restarts (the unit ``n_jobs`` parallelises, matching
    the paper's single-core vs all-cores comparison).
    """
    from ..ml.kmeans import KMeans

    model = KMeans(
        n_clusters, n_init=n_init, max_iter=max_iter, seed=seed, n_jobs=n_jobs
    )
    started = time.perf_counter()
    model.fit(features)
    return time.perf_counter() - started
