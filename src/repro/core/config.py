"""Configuration for the PNW key/value store."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["PNWConfig"]


@dataclass(frozen=True)
class PNWConfig:
    """All tunables of a :class:`~repro.core.store.PNWStore`.

    The defaults mirror the paper's evaluation setup where it states one
    (k from the Fig. 6 sweeps, 4-byte words, 64-byte cache lines, load
    factor-driven retraining) and sensible engineering choices elsewhere.
    The key index is always the DRAM hash of Fig. 2a; the paper's Fig.
    2b NVM path hashing is the standalone
    :class:`~repro.stores.pathhash_store.PathHashKVStore` baseline.
    Engineering defaults that no caller varies are module constants next
    to the one module that reads them, not fields; the store classes and
    :func:`repro.shard.make_store` take every setting from this config
    and nothing else.

    Parameters
    ----------
    num_buckets:
        Capacity of the NVM data zone, in values.
    value_bytes:
        Fixed size of stored values.
    key_bytes:
        Fixed key width; keys are zero-padded.  Each bucket stores
        ``key_bytes + value_bytes`` (the K/V pair, §V-A).
    n_clusters:
        K for the k-means model.
    featurizer:
        ``"bit"`` — one feature per bit (exact Hamming geometry, right for
        small values); ``"byte"`` — one feature per byte (cheap for large
        values); ``"auto"`` — bit up to 128-byte buckets, byte above.
    pca_components:
        Project features with PCA before clustering (``None`` disables).
        The paper applies PCA for large values such as 4 KB pages.
    update_mode:
        ``"endurance"`` — UPDATE = DELETE + steered PUT (paper's choice);
        ``"latency"`` — UPDATE writes in place through the index.
    load_factor:
        When the live fraction of the zone exceeds this, the model manager
        schedules a retrain (§V-C).  A store that started empty trains
        first at ``model_manager.AUTO_TRAIN_FRACTION`` (0.1); a store
        warmed with ``warm_up`` trains immediately.
    retrain_check_interval:
        How many mutations between load-factor checks.
    refresh_mode:
        How a retrain triggered on an already-trained store refreshes
        the model.  ``"full"`` (the paper's Algorithm 1) refits the
        featurizer and K-Means from scratch; ``"incremental"`` keeps the
        fitted featurizer and nudges the existing centroids with
        mini-batch K-Means (``MiniBatchKMeans.partial_fit``, §V-C's
        retraining made incremental), which never changes ``n_clusters``
        — so the pool rebuild stays consistent — and avoids stalling the
        write path on a full refit.  The *first* training (and crash
        recovery) is always full.
    probe_limit:
        Free-list candidates scored per PUT to find the minimum-Hamming
        target within the predicted cluster (§IV).  ``0`` degrades to a
        plain FIFO pop (Algorithm 2's simplified pseudocode); ``-1``
        scores the whole free list.
    n_init, max_iter:
        K-means restart count and Lloyd iteration cap.
    seed:
        Seed for every stochastic component.
    word_bytes:
        Word granularity of the simulated device's accounting (the cache
        line is the device's fixed 64 bytes).
    track_bit_wear:
        Enable per-bit wear counters (Fig. 13).
    persist_flags:
        Keep the per-bucket validity bitmap on NVM so a DRAM-index store
        can :meth:`recover` after a crash.  The paper's Fig. 2a
        architecture keeps flags with the DRAM index (no NVM cost, no
        crash recovery); set ``False`` to reproduce that exactly.
    shards:
        Hash-partition the key space over this many independent zones,
        each with its own model, pool, index, and flag bitmap.  ``1``
        (the default) is the paper's single-zone store.  The field is
        consumed by :func:`repro.shard.make_store` /
        :class:`repro.shard.ShardedPNWStore`, which split ``num_buckets``
        across the shards; a plain :class:`PNWStore` ignores it.
    executor:
        How :class:`repro.shard.ShardedPNWStore` runs its shards.  The
        one legal value is ``"thread"``: per-shard stores in-process,
        batched through a thread pool.
    tier_mode:
        DRAM tier policy, consumed by :func:`repro.shard.make_store`:
        ``"off"`` (no tier — the bare store), ``"write_through"`` (read
        cache only; durable state byte-identical to no tier), or
        ``"write_back"`` (every put and update staged in DRAM and
        flushed in coalesced batches).  The store classes themselves
        ignore it; the wrapping lives in :class:`repro.tier.TieredStore`.
    tier_cache_entries:
        Capacity of the tier's DRAM read cache, in entries (0 disables
        the read cache).
    tier_writeback_entries:
        Global bound on dirty write-back entries across all shards —
        both the per-shard buffer sizing and the pressure flush
        trigger, and therefore the maximum data lost to a crash.
    tier_flush_ops:
        Interval flush trigger: a dirty entry older than this many tier
        mutations is flushed even if no size/pressure trigger fired.
    media_fault_rate:
        Fraction of the zone's data-cell *bits* that are wear-weakened
        (``0.0`` — the default — disables the media fault model
        entirely; the store is byte-identical to one without it).  Each
        weakened cell draws an endurance budget of remaining successful
        flips from the seeded :class:`~repro.nvm.faults.FaultModel`; a
        flip attempted past the budget fails and the cell becomes
        stuck-at its current value.  With the model on, every
        commit-stage write is read-back-verified and an op that landed
        on stuck bits is relocated (its row retired).  Requires ``seed``
        so the faulty cell set is deterministic.
    media_fault_budget:
        Upper bound of the per-cell endurance budget draw
        (``rng.integers(0, budget + 1)``).  ``0`` means every weakened
        cell starts depleted — the first flip attempt sticks it — which
        is the acceptance-test configuration.
    media_retire_watermark:
        Fraction of ``num_buckets`` whose retirement flips the store
        into degraded mode: further ``put``/``update`` batches are shed
        with :class:`~repro.errors.DegradedModeError` (reads and
        deletes still served) so a worn zone fails loudly instead of
        thrashing the last few healthy rows.
    rebalance_mode:
        Load-aware routing on the sharded store.  ``"off"`` (default)
        pins the virtual-bucket table to its FNV-default layout — the
        store is bit-identical to pure ``hash % n_shards`` routing.
        ``"watermark"`` arms the
        :class:`~repro.shard.rebalance.Rebalancer`: when any shard's
        free pool fraction falls under ``REBALANCE_LOW_WATERMARK`` (0.2)
        while a meaningfully freer sibling exists, whole virtual
        buckets of keys (``ROUTER_VBUCKETS`` = 64 per shard) are
        migrated between zones through the ordinary engine batch
        pipeline, ``REBALANCE_MAX_KEYS`` (256) keys per batch; the
        constants live in :mod:`repro.shard.rebalance` and
        :mod:`repro.shard.router`.  A plain :class:`PNWStore` ignores it.
    rebalance_check_interval:
        Mutations between watermark checks (checked batch-wise at the
        sharded store's entry points and the ingest dispatch path).
    """

    num_buckets: int
    value_bytes: int
    key_bytes: int = 8
    n_clusters: int = 8
    featurizer: str = "auto"
    pca_components: int | None = None
    update_mode: str = "endurance"
    load_factor: float = 0.9
    retrain_check_interval: int = 128
    refresh_mode: str = "full"
    probe_limit: int = 64
    n_init: int = 2
    max_iter: int = 50
    seed: int | None = None
    word_bytes: int = 4
    track_bit_wear: bool = False
    persist_flags: bool = True
    shards: int = 1
    executor: str = "thread"
    tier_mode: str = "off"
    tier_cache_entries: int = 1024
    tier_writeback_entries: int = 256
    tier_flush_ops: int = 1024
    media_fault_rate: float = 0.0
    media_fault_budget: int = 0
    media_retire_watermark: float = 0.05
    rebalance_mode: str = "off"
    rebalance_check_interval: int = 32

    def __post_init__(self) -> None:
        if self.num_buckets <= 0:
            raise ConfigError(f"num_buckets must be positive, got {self.num_buckets}")
        if self.value_bytes <= 0:
            raise ConfigError(f"value_bytes must be positive, got {self.value_bytes}")
        if self.key_bytes <= 0:
            raise ConfigError(f"key_bytes must be positive, got {self.key_bytes}")
        if self.n_clusters < 1:
            raise ConfigError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if self.featurizer not in ("auto", "bit", "byte"):
            raise ConfigError(
                f"featurizer must be 'auto', 'bit' or 'byte', got {self.featurizer!r}"
            )
        if self.update_mode not in ("endurance", "latency"):
            raise ConfigError(
                f"update_mode must be 'endurance' or 'latency', got {self.update_mode!r}"
            )
        if not 0.0 < self.load_factor <= 1.0:
            raise ConfigError(f"load_factor must be in (0, 1], got {self.load_factor}")
        if self.refresh_mode not in ("full", "incremental"):
            raise ConfigError(
                f"refresh_mode must be 'full' or 'incremental', "
                f"got {self.refresh_mode!r}"
            )
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.shards > self.num_buckets:
            raise ConfigError(
                f"shards={self.shards} exceeds num_buckets={self.num_buckets}; "
                "every shard needs at least one bucket"
            )
        if self.executor == "process":
            raise ConfigError(
                "executor='process' was removed; 'thread' is the only "
                "shard executor"
            )
        if self.executor != "thread":
            raise ConfigError(
                f"executor must be 'thread', got {self.executor!r}"
            )
        if self.tier_mode == "predictive":
            raise ConfigError(
                "tier_mode='predictive' was removed; 'write_back' programs "
                "fewer NVM cells"
            )
        if self.tier_mode not in ("off", "write_through", "write_back"):
            raise ConfigError(
                f"tier_mode must be 'off', 'write_through' or 'write_back', "
                f"got {self.tier_mode!r}"
            )
        if self.tier_cache_entries < 0:
            raise ConfigError(
                f"tier_cache_entries must be >= 0, got {self.tier_cache_entries}"
            )
        if self.tier_writeback_entries < 1:
            raise ConfigError(
                f"tier_writeback_entries must be >= 1, "
                f"got {self.tier_writeback_entries}"
            )
        if self.tier_flush_ops < 1:
            raise ConfigError(
                f"tier_flush_ops must be >= 1, got {self.tier_flush_ops}"
            )
        if not 0.0 <= self.media_fault_rate < 1.0:
            raise ConfigError(
                f"media_fault_rate must be in [0, 1), got {self.media_fault_rate}"
            )
        if self.media_fault_budget < 0:
            raise ConfigError(
                f"media_fault_budget must be >= 0, got {self.media_fault_budget}"
            )
        if not 0.0 < self.media_retire_watermark <= 1.0:
            raise ConfigError(
                f"media_retire_watermark must be in (0, 1], "
                f"got {self.media_retire_watermark}"
            )
        if self.rebalance_mode not in ("off", "watermark"):
            raise ConfigError(
                f"rebalance_mode must be 'off' or 'watermark', "
                f"got {self.rebalance_mode!r}"
            )
        if self.rebalance_check_interval < 1:
            raise ConfigError(
                f"rebalance_check_interval must be >= 1, "
                f"got {self.rebalance_check_interval}"
            )
        if self.media_fault_rate > 0.0 and self.seed is None:
            raise ConfigError(
                "media_fault_rate > 0 requires a seed: the faulty-cell map "
                "must be deterministic so every run rebuilds the same media"
            )
        if self.bucket_bytes % self.word_bytes != 0:
            raise ConfigError(
                f"bucket size {self.bucket_bytes} (key_bytes + value_bytes) must "
                f"be a multiple of word_bytes={self.word_bytes}"
            )

    @property
    def bucket_bytes(self) -> int:
        """Bytes per data-zone bucket: the stored K/V pair."""
        return self.key_bytes + self.value_bytes

    @property
    def media_enabled(self) -> bool:
        """Whether the wear-out fault model is active for this store."""
        return self.media_fault_rate > 0.0

    @property
    def resolved_featurizer(self) -> str:
        """The concrete featurizer after resolving ``"auto"``."""
        if self.featurizer != "auto":
            return self.featurizer
        return "bit" if self.bucket_bytes <= 128 else "byte"
