"""Key-index interface: logical keys to physical NVM bucket addresses.

PNW needs exactly one property from its index (paper §V-A3): mapping a
logical key to an *arbitrary* physical address, so the store is free to
steer values anywhere.  Implementations differ in placement: the DRAM
index (Fig. 2a) is wear-free but must be rebuilt after a crash, and is
the one :class:`~repro.core.store.PNWStore` uses; the NVM path-hashing
index (Fig. 2b) persists but its writes cost endurance (and are
accounted) — it stands alone, sharing its layout with the Fig. 9
:class:`~repro.stores.pathhash_store.PathHashKVStore` baseline.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = ["KeyIndex", "stable_hash64"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def stable_hash64(data: bytes, seed: int = 0) -> int:
    """Deterministic 64-bit FNV-1a hash (Python's ``hash`` is salted).

    ``seed`` derives independent hash functions for multi-hash schemes.
    """
    value = (_FNV_OFFSET ^ (seed * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


class KeyIndex(ABC):
    """Maps fixed-width byte keys to integer bucket addresses."""

    @abstractmethod
    def put(self, key: bytes, address: int) -> None:
        """Insert or update the mapping for ``key``."""

    @abstractmethod
    def get(self, key: bytes) -> int:
        """Return the address of ``key``; raise ``KeyNotFoundError`` if absent."""

    @abstractmethod
    def delete(self, key: bytes) -> int:
        """Remove ``key`` and return its address; raise if absent."""

    def peek(self, key: bytes) -> int:
        """Address of ``key`` without traffic accounting.

        Batch pipelines gather addresses up front with this so the
        *accounted* index traffic stays exactly one lookup per operation.
        The default falls back to :meth:`get` (accounted) so third-party
        indexes stay correct; both built-in indexes override it.
        """
        return self.get(key)

    @abstractmethod
    def __contains__(self, key: bytes) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @staticmethod
    def normalize_key(key: bytes, key_bytes: int) -> bytes:
        """Zero-pad a key to fixed width; reject oversized keys."""
        if len(key) > key_bytes:
            raise ValueError(f"key of {len(key)} bytes exceeds key_bytes={key_bytes}")
        return key.ljust(key_bytes, b"\x00")
