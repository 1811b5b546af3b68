"""Hybrid DRAM–NVM memory layout (paper §II-A, Fig. 2).

The paper assumes DRAM and PCM side by side on the memory bus under one
physical address space.  ``HybridMemory`` models that split: volatile
structures (the ML model, the dynamic address pool, optionally the hash
index) live in the DRAM region, while the data zone (and optionally the
index) live on the NVM region.  DRAM traffic is counted — so experiments
can report how much wear the design *avoided* by placing hot metadata in
DRAM — but DRAM has effectively unlimited endurance (Table I) so no wear
CDF is kept for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import SimulatedNVM
from .latency import TECHNOLOGIES, LatencyModel

__all__ = ["DRAMRegion", "HybridMemory"]


@dataclass
class DRAMRegion:
    """Volatile region: byte-accounted but wear-free.

    Tracks aggregate read/write byte counts and modeled latency so that the
    DRAM-vs-NVM placement trade-off of §V-A3 can be quantified.
    """

    latency: LatencyModel = field(
        default_factory=lambda: LatencyModel.for_technology("DRAM")
    )
    bytes_written: int = 0
    bytes_read: int = 0
    write_ops: int = 0
    read_ops: int = 0
    latency_ns: float = 0.0

    def write(self, nbytes: int, cacheline_bytes: int = 64) -> None:
        """Account a DRAM write of ``nbytes`` bytes."""
        lines = -(-nbytes // cacheline_bytes)
        self.bytes_written += nbytes
        self.write_ops += 1
        self.latency_ns += self.latency.write_ns(lines)

    def read(self, nbytes: int, cacheline_bytes: int = 64) -> None:
        """Account a DRAM read of ``nbytes`` bytes."""
        lines = -(-nbytes // cacheline_bytes)
        self.bytes_read += nbytes
        self.read_ops += 1
        self.latency_ns += self.latency.read_ns(lines)

    def reset(self) -> None:
        """Zero all counters."""
        self.bytes_written = 0
        self.bytes_read = 0
        self.write_ops = 0
        self.read_ops = 0
        self.latency_ns = 0.0


class HybridMemory:
    """A DRAM region plus an NVM data zone under one roof.

    This is a thin composition: components grab ``hybrid.nvm`` or
    ``hybrid.dram`` according to their placement, mirroring Figure 2's two
    architectures (index on DRAM for small keys, index on PCM for large
    keys).
    """

    def __init__(
        self,
        num_buckets: int,
        bucket_bytes: int,
        *,
        word_bytes: int = 4,
        track_bit_wear: bool = False,
        nvm_latency: LatencyModel | None = None,
        nvm_faults=None,
    ) -> None:
        self.nvm = SimulatedNVM(
            num_buckets,
            bucket_bytes,
            word_bytes=word_bytes,
            track_bit_wear=track_bit_wear,
            latency=nvm_latency,
            faults=nvm_faults,
        )
        self.dram = DRAMRegion()

    @property
    def endurance_ratio(self) -> float:
        """DRAM-to-PCM endurance gap from Table I (how much wear the DRAM
        placement of metadata avoids, per write)."""
        return (
            TECHNOLOGIES["DRAM"].endurance_cycles
            / TECHNOLOGIES["PCM"].endurance_cycles
        )

    def reset_stats(self) -> None:
        """Zero both regions' counters (between warm-up and measurement)."""
        self.nvm.stats.reset()
        self.dram.reset()
