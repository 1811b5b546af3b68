"""DRAM tier: buffer cache + longevity-aware write-back buffer.

See :mod:`repro.tier.store` for the subsystem overview.
"""

from .cache import BufferCache
from .classify import LongevityClassifier
from .stats import TierStats
from .store import TieredStore
from .writebuffer import StagedEntry, WriteBuffer

__all__ = [
    "BufferCache",
    "LongevityClassifier",
    "StagedEntry",
    "TieredStore",
    "TierStats",
    "WriteBuffer",
]
