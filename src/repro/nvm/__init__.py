"""Simulated NVM substrate: device, wear statistics, latency, hybrid layout."""

from .device import SimulatedNVM, WriteReport
from .faults import FaultModel
from .hybrid import DRAMRegion, HybridMemory
from .latency import TECHNOLOGIES, LatencyModel, MemoryTechnology
from .stats import MediaStats, WearStats, cdf_of_counts

__all__ = [
    "SimulatedNVM",
    "WriteReport",
    "FaultModel",
    "DRAMRegion",
    "HybridMemory",
    "TECHNOLOGIES",
    "LatencyModel",
    "MemoryTechnology",
    "WearStats",
    "MediaStats",
    "cdf_of_counts",
]
