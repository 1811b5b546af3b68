"""Byte-addressable simulated NVM (PCM) with bit-flip accounting.

Real PCM DIMMs are unavailable (as they were for the paper's authors, who
emulated NVM on DRAM, §VI-A); ``SimulatedNVM`` models the device the paper
measures:

* a data zone of ``num_buckets`` fixed-size buckets,
* data-comparison writes by default — only differing cells are programmed,
  the core assumption behind every RBW technique the paper compares,
* pluggable write schemes (Conventional/DCW/FNW/MinShift/Captopril) that
  control which cells get programmed and what auxiliary metadata costs,
* per-address and optional per-bit wear counters (Figures 12 and 13),
* word/cache-line touch accounting (Figures 7, 8, 9) and a latency model.

Buckets are cache-line aligned: each bucket occupies
``ceil(bucket_bytes / cacheline_bytes)`` lines and starts on a line
boundary, so the line count of a write is derived from which bytes of the
bucket were programmed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .._bitops import POPCOUNT_TABLE, hamming_to_rows, popcount_rows
from ..errors import CapacityError
from .latency import LatencyModel
from .stats import WearStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..writeschemes.base import WriteScheme
    from .faults import FaultModel

__all__ = ["SimulatedNVM", "WriteReport"]


@dataclass(frozen=True)
class WriteReport:
    """Accounting record for a single bucket write."""

    address: int
    bit_updates: int
    aux_bit_updates: int
    words_touched: int
    lines_touched: int
    latency_ns: float

    @property
    def total_bit_updates(self) -> int:
        """Data plus auxiliary cells programmed by this write."""
        return self.bit_updates + self.aux_bit_updates


class SimulatedNVM:
    """A simulated PCM data zone of fixed-size, cache-line-aligned buckets.

    Parameters
    ----------
    num_buckets:
        Number of equally sized value slots in the data zone.
    bucket_bytes:
        Size of each slot.  Must be a multiple of ``word_bytes``.
    cacheline_bytes:
        Cache line size used for line-touch accounting (default 64).
    word_bytes:
        Word size used for word-touch accounting (default 4, the 32-bit
        words of the paper's synthetic experiments).
    track_bit_wear:
        Allocate per-bit wear counters (needed for Fig. 13; costs
        ``num_buckets * bucket_bytes * 8`` uint32 cells).
    latency:
        Latency model; defaults to the 3D-XPoint 600 ns line write.
    faults:
        Optional :class:`~repro.nvm.faults.FaultModel`.  When present,
        every write is filtered through it just before the bytes land:
        stuck cells keep their current value and weakened cells are
        charged endurance budget.  Wear accounting still reflects the
        *attempted* program (real cells wear on failed programs too),
        so a fault-free model leaves accounting byte-identical.
    """

    def __init__(
        self,
        num_buckets: int,
        bucket_bytes: int,
        *,
        cacheline_bytes: int = 64,
        word_bytes: int = 4,
        track_bit_wear: bool = False,
        latency: LatencyModel | None = None,
        faults: "FaultModel | None" = None,
    ) -> None:
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        if bucket_bytes <= 0:
            raise ValueError(f"bucket_bytes must be positive, got {bucket_bytes}")
        if bucket_bytes % word_bytes != 0:
            raise ValueError(
                f"bucket_bytes ({bucket_bytes}) must be a multiple of "
                f"word_bytes ({word_bytes})"
            )
        self.num_buckets = num_buckets
        self.bucket_bytes = bucket_bytes
        self.cacheline_bytes = cacheline_bytes
        self.word_bytes = word_bytes
        self.latency = latency if latency is not None else LatencyModel()
        self._data = np.zeros((num_buckets, bucket_bytes), dtype=np.uint8)
        self._aux: dict[int, Any] = {}
        self.stats = WearStats(num_buckets, bucket_bytes, track_bit_wear)
        self.faults = faults

    # ------------------------------------------------------------------ #
    # geometry                                                            #
    # ------------------------------------------------------------------ #

    @property
    def bucket_bits(self) -> int:
        """Number of data bits per bucket."""
        return self.bucket_bytes * 8

    @property
    def lines_per_bucket(self) -> int:
        """Cache lines spanned by one (line-aligned) bucket."""
        return -(-self.bucket_bytes // self.cacheline_bytes)

    @property
    def words_per_bucket(self) -> int:
        """Words per bucket."""
        return self.bucket_bytes // self.word_bytes

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.num_buckets:
            raise CapacityError(
                f"address {address} out of range [0, {self.num_buckets})"
            )

    def _validate_payload(self, data: np.ndarray) -> np.ndarray:
        data = np.ascontiguousarray(data, dtype=np.uint8)
        if data.shape != (self.bucket_bytes,):
            raise ValueError(
                f"payload shape {data.shape} does not match bucket size "
                f"({self.bucket_bytes},)"
            )
        return data

    # ------------------------------------------------------------------ #
    # accesses                                                            #
    # ------------------------------------------------------------------ #

    def load(self, address: int, data: np.ndarray) -> None:
        """Set bucket contents without any accounting (warm-up/bootstrap)."""
        self._check_address(address)
        self._data[address] = self._validate_payload(data)
        self._aux.pop(address, None)

    def load_many(self, start: int, rows: np.ndarray) -> None:
        """Bulk :meth:`load` of consecutive buckets starting at ``start``."""
        rows = np.ascontiguousarray(rows, dtype=np.uint8)
        if rows.ndim != 2 or rows.shape[1] != self.bucket_bytes:
            raise ValueError(
                f"rows shape {rows.shape} does not match (n, {self.bucket_bytes})"
            )
        end = start + rows.shape[0]
        if start < 0 or end > self.num_buckets:
            raise CapacityError(
                f"bulk load [{start}, {end}) exceeds capacity {self.num_buckets}"
            )
        self._data[start:end] = rows
        for address in range(start, end):
            self._aux.pop(address, None)

    def read(self, address: int) -> np.ndarray:
        """Read a bucket's *physical* contents (a defensive copy)."""
        self._check_address(address)
        latency_ns = self.latency.read_ns(self.lines_per_bucket)
        self.stats.record_read(latency_ns)
        return self._data[address].copy()

    def read_logical(self, address: int, scheme: "WriteScheme | None" = None) -> np.ndarray:
        """Read a bucket and undo any scheme transformation (FNW inversion,
        MinShift rotation, ...) using the metadata recorded at write time.

        For plain data-comparison writes the physical and logical contents
        are identical and ``scheme`` may be omitted.
        """
        physical = self.read(address)
        entry = self._aux.get(address)
        if entry is None:
            return physical
        state_key, aux_state = entry
        if scheme is None or scheme.state_key != state_key:
            raise ValueError(
                f"bucket {address} was written with scheme {state_key!r}; "
                "pass that scheme to decode it"
            )
        return scheme.decode(physical, aux_state)

    def peek(self, address: int) -> np.ndarray:
        """Read bucket contents without latency/traffic accounting."""
        self._check_address(address)
        return self._data[address].copy()

    def peek_many(self, addresses: np.ndarray) -> np.ndarray:
        """Gather many buckets' contents without accounting (batch paths)."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size and not (
            0 <= int(addresses.min()) and int(addresses.max()) < self.num_buckets
        ):
            raise CapacityError(
                f"addresses out of range [0, {self.num_buckets})"
            )
        return self._data[addresses].copy()

    def gather_into(self, addresses: np.ndarray, out: np.ndarray) -> None:
        """Unaccounted multi-row gather into a caller-owned DRAM buffer.

        The address pool's content-cache fill path: on ``rebuild`` /
        ``release`` the pool reads each free address's current bytes into
        its contiguous cache rows, so later Hamming probes never touch
        the device.  Writes row ``i`` of ``out`` in place (no per-call
        allocation) — ``out`` must be ``(len(addresses), bucket_bytes)``
        ``uint8``.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size and not (
            0 <= int(addresses.min()) and int(addresses.max()) < self.num_buckets
        ):
            raise CapacityError(
                f"addresses out of range [0, {self.num_buckets})"
            )
        if out.shape != (addresses.size, self.bucket_bytes) or out.dtype != np.uint8:
            raise ValueError(
                f"out buffer {out.shape}/{out.dtype} does not match "
                f"({addresses.size}, {self.bucket_bytes}) uint8"
            )
        np.take(self._data, addresses, axis=0, out=out)

    def hamming_many(self, addresses: np.ndarray, payload: np.ndarray) -> np.ndarray:
        """Hamming distance of ``payload`` to each addressed bucket.

        Unaccounted: this is the pool's candidate scoring (§IV), which a
        real deployment serves from DRAM-side content metadata rather
        than NVM reads.  (The store's hot path now scores the pool's
        content cache directly; this gather-through-the-device form
        remains for ad-hoc probing and as the cache's oracle in tests.)
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        payload = self._validate_payload(payload)
        return hamming_to_rows(self._data[addresses], payload)

    def write(
        self,
        address: int,
        new: np.ndarray,
        scheme: "WriteScheme | None" = None,
    ) -> WriteReport:
        """Write ``new`` into ``address`` and account the damage.

        With ``scheme=None`` the device performs its native data-comparison
        write (read-modify-write that programs only differing cells) —
        exactly what PNW's Algorithm 2 does in lines 5–6.  With a scheme,
        the scheme decides the physical bit pattern, the programmed-cell
        mask, and the auxiliary metadata cost.
        """
        self._check_address(address)
        new = self._validate_payload(new)
        old = self._data[address]

        if scheme is None:
            stored = new
            update_mask = np.bitwise_xor(old, new)
            aux_bit_updates = 0
            aux_state = None
        else:
            # Only hand back metadata this same scheme wrote; another
            # scheme's state (e.g. a MinShift shift count) is meaningless
            # here and starts fresh.
            entry = self._aux.get(address)
            old_aux = (
                entry[1]
                if entry is not None and entry[0] == scheme.state_key
                else None
            )
            outcome = scheme.prepare(old, new, old_aux)
            stored = self._validate_payload(outcome.stored)
            update_mask = np.ascontiguousarray(outcome.update_mask, dtype=np.uint8)
            if update_mask.shape != (self.bucket_bytes,):
                raise ValueError(
                    f"scheme update mask shape {update_mask.shape} does not "
                    f"match bucket size ({self.bucket_bytes},)"
                )
            aux_bit_updates = outcome.aux_bit_updates
            aux_state = outcome.aux_state

        report = self._apply(address, stored, update_mask, aux_bit_updates)
        if aux_state is not None and scheme is not None:
            self._aux[address] = (scheme.state_key, aux_state)
        else:
            self._aux.pop(address, None)
        return report

    def write_many(
        self,
        addresses: np.ndarray,
        rows: np.ndarray,
        scheme: "WriteScheme | None" = None,
    ) -> list[WriteReport]:
        """Vectorized multi-row :meth:`write` — row ``i`` to ``addresses[i]``.

        The native data-comparison path computes every row's update mask,
        programmed-cell count, and word/line footprint in single array
        operations, then accounts them in row order, leaving device state
        and wear counters byte-identical to ``n`` sequential writes.
        Scheme writes (per-row auxiliary state) and batches that hit the
        same address twice (later rows must see earlier rows' data) fall
        back to the per-row path.
        """
        addresses = np.asarray(addresses, dtype=np.int64).ravel()
        rows = np.ascontiguousarray(np.atleast_2d(rows), dtype=np.uint8)
        n = addresses.size
        if rows.shape != (n, self.bucket_bytes):
            raise ValueError(
                f"rows shape {rows.shape} does not match ({n}, {self.bucket_bytes})"
            )
        if n == 0:
            return []
        if not (0 <= int(addresses.min()) and int(addresses.max()) < self.num_buckets):
            raise CapacityError(
                f"addresses out of range [0, {self.num_buckets})"
            )
        if scheme is not None or np.unique(addresses).size != n:
            return [
                self.write(int(address), row, scheme)
                for address, row in zip(addresses, rows)
            ]

        old = self._data[addresses]
        masks = np.bitwise_xor(old, rows)
        bit_updates = popcount_rows(masks)
        dirty_bytes = masks != 0
        words_touched = (
            dirty_bytes.reshape(n, self.words_per_bucket, self.word_bytes)
            .any(axis=2)
            .sum(axis=1, dtype=np.int64)
        )
        pad = self.lines_per_bucket * self.cacheline_bytes - self.bucket_bytes
        if pad:
            padded = np.zeros((n, self.bucket_bytes + pad), dtype=bool)
            padded[:, : self.bucket_bytes] = dirty_bytes
            line_view = padded.reshape(n, self.lines_per_bucket, self.cacheline_bytes)
        else:
            line_view = dirty_bytes.reshape(
                n, self.lines_per_bucket, self.cacheline_bytes
            )
        lines_touched = line_view.any(axis=2).sum(axis=1, dtype=np.int64)
        latencies_ns = [self.latency.write_ns(int(lines)) for lines in lines_touched]
        updated_bits = (
            np.unpackbits(masks, axis=1) if self.stats.bit_wear is not None else None
        )
        self.stats.record_write_many(
            addresses, bit_updates, words_touched, lines_touched,
            latencies_ns, updated_bits,
        )
        if self.faults is not None:
            rows = self.faults.filter_many(addresses, old, rows)
        self._data[addresses] = rows
        for address in addresses:
            self._aux.pop(int(address), None)
        return [
            WriteReport(
                address=int(addresses[i]),
                bit_updates=int(bit_updates[i]),
                aux_bit_updates=0,
                words_touched=int(words_touched[i]),
                lines_touched=int(lines_touched[i]),
                latency_ns=latencies_ns[i],
            )
            for i in range(n)
        ]

    def _apply(
        self,
        address: int,
        stored: np.ndarray,
        update_mask: np.ndarray,
        aux_bit_updates: int,
    ) -> WriteReport:
        """Commit a prepared write and accumulate statistics."""
        bit_updates = int(POPCOUNT_TABLE[update_mask].sum())
        dirty_bytes = update_mask != 0
        words_touched = int(
            dirty_bytes.reshape(self.words_per_bucket, self.word_bytes).any(axis=1).sum()
        )
        # Bucket padding: reshape via a padded view when the bucket does not
        # fill a whole number of lines.
        pad = self.lines_per_bucket * self.cacheline_bytes - self.bucket_bytes
        if pad:
            padded = np.zeros(self.bucket_bytes + pad, dtype=bool)
            padded[: self.bucket_bytes] = dirty_bytes
            line_view = padded.reshape(self.lines_per_bucket, self.cacheline_bytes)
        else:
            line_view = dirty_bytes.reshape(self.lines_per_bucket, self.cacheline_bytes)
        lines_touched = int(line_view.any(axis=1).sum())

        latency_ns = self.latency.write_ns(lines_touched)
        updated_bits = None
        if self.stats.bit_wear is not None:
            updated_bits = np.unpackbits(update_mask)
        self.stats.record_write(
            address,
            bit_updates,
            aux_bit_updates,
            words_touched,
            lines_touched,
            latency_ns,
            updated_bits,
        )
        if self.faults is not None:
            stored = self.faults.filter(address, self._data[address], stored)
        self._data[address] = stored
        return WriteReport(
            address=address,
            bit_updates=bit_updates,
            aux_bit_updates=aux_bit_updates,
            words_touched=words_touched,
            lines_touched=lines_touched,
            latency_ns=latency_ns,
        )

    # ------------------------------------------------------------------ #
    # media health                                                         #
    # ------------------------------------------------------------------ #

    def media_probe(self, address: int) -> int:
        """Stuck-cell count of one row (0 on a fault-free device).

        The scrubber's modeled margin read: a real controller senses
        cell resistance margins during patrol; here we count the fault
        model's stuck bits.  Unaccounted — it rides on the patrol read
        the scrubber already charged."""
        self._check_address(address)
        if self.faults is None:
            return 0
        return self.faults.probe(address)

    def age_media(self, addresses: np.ndarray | list[int] | None = None) -> int:
        """Freeze pending weakened cells (see :meth:`FaultModel.age`);
        no-op returning 0 without a fault model.  Test/bench hook for
        manufacturing latent faults."""
        if self.faults is None:
            return 0
        return self.faults.age(addresses)

    # ------------------------------------------------------------------ #
    # bulk views for model training                                       #
    # ------------------------------------------------------------------ #

    @property
    def contents(self) -> np.ndarray:
        """Read-only view of the whole data zone (for model training).

        Training reads the zone without going through :meth:`read` because
        the paper trains on DRAM snapshots, not on accounted NVM reads.
        """
        view = self._data.view()
        view.flags.writeable = False
        return view

    def snapshot(self) -> np.ndarray:
        """Deep copy of the data zone."""
        return self._data.copy()
