"""DRAM tier: buffer cache + coalescing write-back buffer.

See :mod:`repro.tier.store` for the subsystem overview.
"""

from .cache import BufferCache
from .stats import TierStats
from .store import TieredStore
from .writebuffer import StagedEntry, WriteBuffer

__all__ = [
    "BufferCache",
    "StagedEntry",
    "TieredStore",
    "TierStats",
    "WriteBuffer",
]
