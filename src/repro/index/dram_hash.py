"""DRAM-resident hash index (paper Fig. 2a, the small-key architecture).

A plain dictionary with byte-traffic accounting against the hybrid
memory's DRAM region.  It costs no NVM endurance at all — the whole point
of the placement — but is lost on a crash and must be rebuilt by scanning
the data zone (see ``PNWStore.recover``).
"""

from __future__ import annotations

import numpy as np

from ..errors import KeyNotFoundError
from ..nvm.hybrid import DRAMRegion
from .base import KeyIndex

__all__ = ["DRAMHashIndex"]


class DRAMHashIndex(KeyIndex):
    """Dictionary-backed index with DRAM traffic accounting."""

    def __init__(self, key_bytes: int, dram: DRAMRegion | None = None) -> None:
        if key_bytes <= 0:
            raise ValueError(f"key_bytes must be positive, got {key_bytes}")
        self.key_bytes = key_bytes
        self.dram = dram if dram is not None else DRAMRegion()
        self._map: dict[bytes, int] = {}

    def _entry_bytes(self) -> int:
        # Key plus a 64-bit pointer, the footprint of one table entry.
        return self.key_bytes + 8

    def put(self, key: bytes, address: int) -> None:
        key = self.normalize_key(key, self.key_bytes)
        self._map[key] = address
        self.dram.write(self._entry_bytes())

    def put_many(self, keys: np.ndarray, addresses: list[int]) -> None:
        """:meth:`put` of every row of a ``(n, key_bytes)`` key matrix.

        The recovery rebuild's bulk insert: one dict update, and the DRAM
        counters of ``n`` single puts.  Each key is a slice of the
        matrix's bytes, so trailing NUL bytes stay part of the key.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint8)
        assert keys.shape == (len(addresses), self.key_bytes), keys.shape
        blob, width = keys.tobytes(), self.key_bytes
        self._map.update(
            (blob[start : start + width], address)
            for start, address in zip(range(0, len(blob), width), addresses)
        )
        self.dram.write_many(self._entry_bytes(), len(addresses))

    def get(self, key: bytes) -> int:
        key = self.normalize_key(key, self.key_bytes)
        self.dram.read(self._entry_bytes())
        try:
            return self._map[key]
        except KeyError:
            raise KeyNotFoundError(f"key {key!r} not found") from None

    def peek(self, key: bytes) -> int:
        key = self.normalize_key(key, self.key_bytes)
        try:
            return self._map[key]
        except KeyError:
            raise KeyNotFoundError(f"key {key!r} not found") from None

    def delete(self, key: bytes) -> int:
        key = self.normalize_key(key, self.key_bytes)
        self.dram.write(self._entry_bytes())
        try:
            return self._map.pop(key)
        except KeyError:
            raise KeyNotFoundError(f"key {key!r} not found") from None

    def __contains__(self, key: bytes) -> bool:
        return self.normalize_key(key, self.key_bytes) in self._map

    def __len__(self) -> int:
        return len(self._map)

    def items(self):
        """Iterate (key, address) pairs (used by recovery tests)."""
        return self._map.items()
