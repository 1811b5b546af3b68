"""Predict and Write (PNW) — ICDE 2021 reproduction.

A key/value store for hybrid DRAM-NVM systems that extends NVM lifetime
by steering each write to the free memory location whose current content
minimises the Hamming distance to the new value, using k-means clustering
over bucket contents (Kargar, Litz & Nawab, ICDE 2021).

Quick start::

    import numpy as np
    from repro import PNWConfig, PNWStore

    config = PNWConfig(num_buckets=1024, value_bytes=56, n_clusters=8, seed=7)
    store = PNWStore(config)
    store.warm_up(np.random.default_rng(7).integers(0, 256, (1024, 56), dtype=np.uint8))
    report = store.put(b"sensor-1", b"reading-payload")
    print(report.bit_updates, "cells programmed")

See README.md ("Layout", "Store surface") for the system inventory;
``python -m repro.bench list`` names every table and figure, and each
run saves its paper-vs-measured table under ``results/``.
"""

from .core import (
    BackgroundScrubber,
    BadRowDirectory,
    DynamicAddressPool,
    MediaScrubber,
    ModelManager,
    OperationReport,
    PNWConfig,
    PNWStore,
    StoreMetrics,
)
from .errors import (
    CapacityError,
    ConfigError,
    DeadlineExceededError,
    DegradedModeError,
    DuplicateKeyError,
    KeyNotFoundError,
    MediaError,
    NotFittedError,
    PoolExhaustedError,
    QueueClosedError,
    QueueFullError,
    ReproError,
)
from .engine import MutationEngine
from .ingest import AsyncIngestQueue, IngestQueue
from .ml import PCA, KMeans, MiniBatchKMeans, choose_k
from .nvm import (
    FaultModel,
    HybridMemory,
    LatencyModel,
    MediaStats,
    SimulatedNVM,
    WearStats,
)
from .shard import ShardedPNWStore, make_store
from .tier import (
    BufferCache,
    TieredStore,
    TierStats,
    WriteBuffer,
)
from .writeschemes import (
    Captopril,
    ConventionalWrite,
    DataComparisonWrite,
    FlipNWrite,
    MinShift,
    default_schemes,
)

__version__ = "1.0.0"

__all__ = [
    "PNWConfig",
    "PNWStore",
    "ShardedPNWStore",
    "make_store",
    "OperationReport",
    "StoreMetrics",
    "DynamicAddressPool",
    "ModelManager",
    "MutationEngine",
    "IngestQueue",
    "AsyncIngestQueue",
    "TieredStore",
    "TierStats",
    "BufferCache",
    "WriteBuffer",
    "KMeans",
    "MiniBatchKMeans",
    "PCA",
    "choose_k",
    "SimulatedNVM",
    "HybridMemory",
    "LatencyModel",
    "WearStats",
    "FaultModel",
    "MediaStats",
    "BadRowDirectory",
    "MediaScrubber",
    "BackgroundScrubber",
    "ConventionalWrite",
    "DataComparisonWrite",
    "FlipNWrite",
    "MinShift",
    "Captopril",
    "default_schemes",
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
    "__version__",
]
