"""Row retirement and patrol scrubbing for worn NVM media.

Companion to :class:`~repro.nvm.faults.FaultModel`: the fault model makes
cells fail, this module makes the store survive it.

* :class:`BadRowDirectory` — the persistent registry of retired rows,
  a packed bitmap that survives ``crash()`` so post-crash recovery sees
  the same condemnations.  A retired row is removed from the address
  pool's free lists and never handed out again.
* :class:`MediaScrubber` — DRAM-side patrol state: one CRC32 checksum
  per occupied row (refreshed on every verified write) plus a cursor, so
  :meth:`PNWStore.scrub` can patrol-read the zone incrementally and
  (a) relocate rows sitting on latent stuck cells before a future write
  tears them, and (b) alarm with :class:`~repro.errors.MediaError` if an
  occupied row's bytes ever contradict their checksum — which the
  write-verify path is designed to make impossible.
* :class:`BackgroundScrubber` — a daemon thread driving scrub passes on
  an interval, the "background" in background scrubber.

Checksums are volatile by design (a real controller would keep them in
per-row ECC metadata; we rebuild them from the media on recovery), so
:meth:`MediaScrubber.reset` is part of the store's crash surface while
the :class:`BadRowDirectory` explicitly is not.
"""

from __future__ import annotations

import threading
import zlib

import numpy as np

from ..errors import DegradedModeError, MediaError

__all__ = ["BadRowDirectory", "MediaScrubber", "BackgroundScrubber", "row_checksum"]


def row_checksum(row: np.ndarray) -> int:
    """CRC32 of one bucket's bytes (the scrubber's per-row checksum)."""
    return zlib.crc32(row.tobytes()) & 0xFFFFFFFF


class BadRowDirectory:
    """Packed bitmap of retired (condemned) row addresses.

    Bit ``a`` of the ``ceil(num_buckets / 8)``-byte bitmap
    (little-endian within each byte) marks address ``a``.
    """

    def __init__(self, num_buckets: int) -> None:
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        self.num_buckets = int(num_buckets)
        self._bits = np.zeros(-(-num_buckets // 8), dtype=np.uint8)

    def _locate(self, address: int) -> tuple[int, int]:
        if not 0 <= address < self.num_buckets:
            raise ValueError(
                f"address {address} out of range [0, {self.num_buckets})"
            )
        byte, bit = divmod(int(address), 8)
        return byte, 1 << bit

    def retire(self, address: int) -> bool:
        """Condemn ``address``; returns False if it was already retired."""
        byte, mask = self._locate(address)
        if self._bits[byte] & mask:
            return False
        self._bits[byte] |= mask
        return True

    def is_retired(self, address: int) -> bool:
        byte, mask = self._locate(address)
        return bool(self._bits[byte] & mask)

    @property
    def count(self) -> int:
        """Number of retired rows."""
        return int(np.unpackbits(self._bits).sum())

    def retired_addresses(self) -> np.ndarray:
        """Sorted int64 array of every condemned address."""
        flat = np.unpackbits(self._bits, bitorder="little")[: self.num_buckets]
        return np.flatnonzero(flat).astype(np.int64)


class MediaScrubber:
    """Volatile patrol state: per-row checksums and the patrol cursor.

    Owned by a media-enabled :class:`~repro.core.store.PNWStore`; the
    store's commit path calls :meth:`note` / :meth:`note_many` after
    every verified write so patrol reads always have a ground truth to
    compare against.  ``known`` guards rows whose checksum was never
    recorded (e.g. right after recovery rebuilt state from the media
    itself — those are re-trusted, not compared).
    """

    def __init__(self, num_buckets: int) -> None:
        self.num_buckets = int(num_buckets)
        self.row_sums = np.zeros(num_buckets, dtype=np.uint32)
        self.known = np.zeros(num_buckets, dtype=bool)
        self.cursor = 0

    def note(self, address: int, row: np.ndarray) -> None:
        """Record the checksum of a just-written (verified) row."""
        self.row_sums[address] = row_checksum(row)
        self.known[address] = True

    def note_many(self, addresses: np.ndarray, rows: np.ndarray) -> None:
        for address, row in zip(addresses, rows):
            self.note(int(address), row)

    def forget(self, address: int) -> None:
        """Drop the checksum of a deleted/relocated-away row."""
        self.known[address] = False

    def check(self, address: int, row: np.ndarray) -> bool:
        """True iff the row matches its recorded checksum (vacuously true
        for rows with no recorded checksum)."""
        if not self.known[address]:
            return True
        return self.row_sums[address] == row_checksum(row)

    def reset(self) -> None:
        """Crash surface: checksums and cursor are DRAM, so they die."""
        self.row_sums.fill(0)
        self.known.fill(False)
        self.cursor = 0

    def rebuild(self, nvm, addresses: np.ndarray) -> None:
        """Recovery: re-trust the media for the surviving live rows."""
        self.reset()
        for address in addresses:
            self.note(int(address), nvm.peek(int(address)))


class BackgroundScrubber:
    """Daemon thread calling ``store.scrub(rows_per_pass)`` on an interval.

    Media alarms (:class:`~repro.errors.MediaError`, including the
    degraded-mode subclass) don't kill the thread — they are latched on
    :attr:`last_error` for the owner to inspect, because a patrol loop
    that dies silently is worse than one that keeps patrolling a sick
    device.  Works against any store exposing ``scrub`` (plain, sharded,
    or tiered).
    """

    def __init__(self, store, *, interval: float = 0.05,
                 rows_per_pass: int | None = None) -> None:
        self.store = store
        self.interval = float(interval)
        self.rows_per_pass = rows_per_pass
        self.passes = 0
        self.last_error: MediaError | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "BackgroundScrubber":
        if self._thread is not None:
            raise RuntimeError("scrubber already started")
        self._thread = threading.Thread(
            target=self._run, name="pnw-scrubber", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.store.scrub(self.rows_per_pass)
            except (DegradedModeError, MediaError) as exc:
                self.last_error = exc
            self.passes += 1

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "BackgroundScrubber":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
