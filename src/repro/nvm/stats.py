"""Wear and traffic accounting for the simulated NVM device.

``WearStats`` accumulates, per write operation:

* the per-address write count (Fig. 12's CDF),
* optionally the per-bit update count (Fig. 13's CDF),
* totals for bit updates, auxiliary-bit updates, words and cache lines
  touched, and modeled latency.

The CDF helpers return the empirical distribution in the exact form the
paper plots: P(X <= x) over the observed counts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np

__all__ = ["WearStats", "MediaStats", "cdf_of_counts"]


def cdf_of_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of a non-negative integer count array.

    Returns ``(values, cumulative_probability)`` where
    ``cumulative_probability[i]`` is P(count <= values[i]).  Values run from
    0 to the maximum observed count so the CDF starts at the fraction of
    untouched elements, matching the paper's Figures 12 and 13.
    """
    counts = np.asarray(counts).ravel()
    if counts.size == 0:
        return np.array([0]), np.array([1.0])
    max_count = int(counts.max())
    values = np.arange(max_count + 1)
    hist = np.bincount(counts.astype(np.int64), minlength=max_count + 1)
    cum = np.cumsum(hist) / counts.size
    return values, cum


class _Counters:
    """Field-generic ``merge`` / ``as_dict`` inherited by the counter
    dataclasses (:class:`MediaStats`, ``StoreMetrics``, ``TierStats``,
    ``RouterStats``): a new counter can never be silently under-reported.
    Per field: ints add, bools ``or``, lists concatenate in part order —
    or add elementwise when declared ``metadata={"elementwise": True}``."""

    @classmethod
    def merge(cls, parts: Iterable):
        """Fold several snapshots into one independent snapshot."""
        parts = list(parts)
        if not parts:
            raise ValueError(f"merge() needs at least one {cls.__name__}")
        merged = cls()
        for spec in fields(cls):
            values = [getattr(part, spec.name) for part in parts]
            if isinstance(values[0], bool):
                folded = any(values)
            elif not isinstance(values[0], list):
                folded = sum(values)
            elif spec.metadata.get("elementwise"):
                folded = [sum(col) for col in zip_longest(*values, fillvalue=0)]
            else:
                folded = [item for value in values for item in value]
            setattr(merged, spec.name, folded)
        return merged

    def as_dict(self) -> dict:
        """Flat counter dictionary (for ``/stats`` endpoints and tests)."""
        return asdict(self)


@dataclass
class MediaStats(_Counters):
    """Counters for the media fault-tolerance layer, one per store.

    Mergeable across shards like :class:`WearStats` /
    :class:`~repro.tier.stats.TierStats` (field-generic sum, so new
    counters can never be silently under-reported).

    * ``verify_failures`` — read-back compares that caught stuck bits
      (initial batch verify plus failed relocation candidates).
    * ``relocations`` — ops or live rows moved to a fresh address after
      their first target failed verify (write path + scrub path).
    * ``rows_retired`` — rows pulled out of circulation into the
      :class:`~repro.core.media.BadRowDirectory`.
    * ``writes_shed`` — put/update ops rejected with
      :class:`~repro.errors.DegradedModeError` past the watermark.
    * ``scrub_passes`` / ``rows_scrubbed`` — patrol progress.
    * ``latent_faults_found`` — occupied rows the scrubber found sitting
      on stuck cells and proactively relocated.
    * ``checksum_mismatches`` — patrol reads whose bytes contradicted
      the stored row checksum (acknowledged-data corruption; raises
      :class:`~repro.errors.MediaError`).
    """

    verify_failures: int = 0
    relocations: int = 0
    rows_retired: int = 0
    writes_shed: int = 0
    scrub_passes: int = 0
    rows_scrubbed: int = 0
    latent_faults_found: int = 0
    checksum_mismatches: int = 0


class WearStats:
    """Mutable accounting state owned by a :class:`~repro.nvm.SimulatedNVM`.

    ``bit_wear`` is allocated lazily only when bit-level tracking is
    enabled, because it costs ``num_buckets * bucket_bits`` counters.
    """

    #: Integer scalar counters (zeroed, reset and summed by ``merge``).
    INT_TOTALS = (
        "total_writes",
        "total_reads",
        "total_bit_updates",
        "total_aux_bit_updates",
        "total_words_touched",
        "total_lines_touched",
    )
    #: Scalar latency accumulators (floats).
    FLOAT_TOTALS = ("total_write_latency_ns", "total_read_latency_ns")

    def __init__(self, num_buckets: int, bucket_bytes: int,
                 track_bit_wear: bool = False) -> None:
        self.num_buckets = num_buckets
        self.bucket_bytes = bucket_bytes
        self.track_bit_wear = track_bit_wear
        self.writes_per_address = np.zeros(num_buckets, dtype=np.int64)
        self.bit_wear: np.ndarray | None = None
        if track_bit_wear:
            self.bit_wear = np.zeros(
                (num_buckets, bucket_bytes * 8), dtype=np.uint32
            )
        for name in self.INT_TOTALS:
            setattr(self, name, 0)
        for name in self.FLOAT_TOTALS:
            setattr(self, name, 0.0)

    # ------------------------------------------------------------------ #
    # accumulation (called by the device)                                 #
    # ------------------------------------------------------------------ #

    def record_write(
        self,
        address: int,
        bit_updates: int,
        aux_bit_updates: int,
        words_touched: int,
        lines_touched: int,
        latency_ns: float,
        updated_bits: np.ndarray | None = None,
    ) -> None:
        """Account one write operation against ``address``.

        ``updated_bits`` is the unpacked 0/1 vector of programmed cells and
        is only required when bit-level wear tracking is enabled.
        """
        self.total_writes += 1
        self.writes_per_address[address] += 1
        self.total_bit_updates += bit_updates
        self.total_aux_bit_updates += aux_bit_updates
        self.total_words_touched += words_touched
        self.total_lines_touched += lines_touched
        self.total_write_latency_ns += latency_ns
        if self.bit_wear is not None:
            if updated_bits is None:
                raise ValueError(
                    "bit-level wear tracking is enabled but no bit mask was given"
                )
            self.bit_wear[address] += updated_bits.astype(np.uint32)

    def record_write_many(
        self,
        addresses: np.ndarray,
        bit_updates: np.ndarray,
        words_touched: np.ndarray,
        lines_touched: np.ndarray,
        latencies_ns: list[float],
        updated_bits: np.ndarray | None = None,
        aux_bit_updates: np.ndarray | None = None,
    ) -> None:
        """Account one multi-row write, row ``i`` against ``addresses[i]``.

        Produces exactly the state :meth:`record_write` would after the
        same rows one at a time: integer counters are order-free, and the
        latency total is accumulated in row order so even the float sum is
        bit-identical to the sequential path.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        self.total_writes += int(addresses.size)
        np.add.at(self.writes_per_address, addresses, 1)
        self.total_bit_updates += int(np.sum(bit_updates))
        if aux_bit_updates is not None:
            self.total_aux_bit_updates += int(np.sum(aux_bit_updates))
        self.total_words_touched += int(np.sum(words_touched))
        self.total_lines_touched += int(np.sum(lines_touched))
        for latency_ns in latencies_ns:
            self.total_write_latency_ns += latency_ns
        if self.bit_wear is not None:
            if updated_bits is None:
                raise ValueError(
                    "bit-level wear tracking is enabled but no bit mask was given"
                )
            np.add.at(self.bit_wear, addresses, updated_bits.astype(np.uint32))

    def record_read(self, latency_ns: float) -> None:
        """Account one read operation."""
        self.total_reads += 1
        self.total_read_latency_ns += latency_ns

    # ------------------------------------------------------------------ #
    # aggregation                                                         #
    # ------------------------------------------------------------------ #

    @classmethod
    def merge(cls, parts: Sequence["WearStats"]) -> "WearStats":
        """Aggregate several devices' accounting into one merged view.

        The sharded store keeps one :class:`WearStats` per shard zone;
        this produces the whole-store picture: totals are summed and the
        per-address (and, when every part tracks it, per-bit) counters
        are concatenated in part order, so address ``i`` of part ``j``
        appears at offset ``sum(len(parts[:j])) + i`` — the sharded
        store's global address space.  CDF helpers on the merged object
        therefore give the cross-shard Figures 12/13 curves directly.

        The merged object is an independent snapshot: later writes to the
        parts do not update it.  Bit-level wear is merged only when every
        part tracks it (a partial merge would under-report wear);
        ``bucket_bytes`` must agree so per-bit columns line up.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("merge() needs at least one WearStats")
        bucket_bytes = parts[0].bucket_bytes
        if any(part.bucket_bytes != bucket_bytes for part in parts):
            raise ValueError(
                "cannot merge WearStats with different bucket sizes: "
                f"{sorted({part.bucket_bytes for part in parts})}"
            )
        track_bits = all(part.bit_wear is not None for part in parts)
        # Build untracked, then attach the concatenated counters: letting
        # __post_init__ allocate a zeroed bit_wear matrix only to replace
        # it would double the peak memory of every merge.
        merged = cls(
            num_buckets=sum(part.num_buckets for part in parts),
            bucket_bytes=bucket_bytes,
            track_bit_wear=False,
        )
        merged.writes_per_address = np.concatenate(
            [part.writes_per_address for part in parts]
        )
        if track_bits:
            merged.track_bit_wear = True
            merged.bit_wear = np.vstack([part.bit_wear for part in parts])
        for name in cls.INT_TOTALS + cls.FLOAT_TOTALS:
            setattr(merged, name, sum(getattr(part, name) for part in parts))
        return merged

    # ------------------------------------------------------------------ #
    # derived views                                                       #
    # ------------------------------------------------------------------ #

    def address_write_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """CDF of per-address write counts (paper Fig. 12)."""
        return cdf_of_counts(self.writes_per_address)

    def bit_wear_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """CDF of per-bit update counts (paper Fig. 13).

        Raises ``ValueError`` when bit tracking was not enabled, because a
        silently empty CDF would be mistaken for perfect wear leveling.
        """
        if self.bit_wear is None:
            raise ValueError("device was created with track_bit_wear=False")
        return cdf_of_counts(self.bit_wear)

    @property
    def mean_bit_updates_per_write(self) -> float:
        """Average programmed cells per write (data region only)."""
        if self.total_writes == 0:
            return 0.0
        return self.total_bit_updates / self.total_writes

    @property
    def mean_lines_per_write(self) -> float:
        """Average cache lines touched per write."""
        if self.total_writes == 0:
            return 0.0
        return self.total_lines_touched / self.total_writes

    def summary(self) -> dict[str, float]:
        """Flat dictionary of the headline counters (for reports/tests)."""
        return {
            "writes": self.total_writes,
            "reads": self.total_reads,
            "bit_updates": self.total_bit_updates,
            "aux_bit_updates": self.total_aux_bit_updates,
            "words_touched": self.total_words_touched,
            "lines_touched": self.total_lines_touched,
            "write_latency_ns": self.total_write_latency_ns,
            "read_latency_ns": self.total_read_latency_ns,
            "mean_bit_updates_per_write": self.mean_bit_updates_per_write,
            "mean_lines_per_write": self.mean_lines_per_write,
        }

    def reset(self) -> None:
        """Zero every counter (used between warm-up and measurement)."""
        self.writes_per_address[:] = 0
        if self.bit_wear is not None:
            self.bit_wear[:] = 0
        for name in self.INT_TOTALS:
            setattr(self, name, 0)
        for name in self.FLOAT_TOTALS:
            setattr(self, name, 0.0)

