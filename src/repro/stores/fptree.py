"""FPTree [Oukid et al., SIGMOD 2016] — simplified hybrid SCM-DRAM B+-tree.

The Fig. 9 baseline.  FPTree keeps inner nodes in DRAM (rebuilt on
recovery) and leaf nodes in SCM.  A leaf holds a slot array of K/V pairs,
a validity bitmap, and one-byte key *fingerprints* that accelerate
lookups.  Persistence-critical writes — the appended pair, the
fingerprint, the bitmap word, and the entry copies of a leaf split — all
hit NVM, which is why its cache lines per request sit at the top of
Figure 9.

Simplifications relative to the original (README.md "Layout" points here):
inner nodes are a plain sorted list (their writes are DRAM-side and free
either way), and concurrency (HTM) is out of scope.  The NVM write
pattern per request — slot + metadata, plus periodic split copies — is
the behaviour the figure measures, and that is reproduced faithfully.
"""

from __future__ import annotations

import bisect

import numpy as np

from ..errors import CapacityError, KeyNotFoundError
from ..nvm.device import SimulatedNVM
from .base import BaselineKVStore

__all__ = ["FPTreeStore"]


class _Leaf:
    """DRAM-side mirror of one NVM leaf (slots live on the device)."""

    __slots__ = ("base_bucket", "keys", "slot_of", "free_slots")

    def __init__(self, base_bucket: int, fanout: int) -> None:
        self.base_bucket = base_bucket
        self.keys: list[bytes] = []          # sorted live keys
        self.slot_of: dict[bytes, int] = {}  # key -> slot id
        self.free_slots = list(range(fanout - 1, -1, -1))


class FPTreeStore(BaselineKVStore):
    """Hybrid B+-tree with NVM leaves, fingerprints, and bitmap commits.

    Parameters
    ----------
    capacity:
        Maximum live pairs the tree must hold.
    leaf_fanout:
        Slots per leaf (the original uses large multi-line leaves).
    """

    name = "FPTree"

    def __init__(
        self,
        key_bytes: int,
        value_bytes: int,
        capacity: int,
        *,
        leaf_fanout: int = 32,
    ) -> None:
        super().__init__(key_bytes, value_bytes)
        if leaf_fanout < 4:
            raise ValueError(f"leaf_fanout must be >= 4, got {leaf_fanout}")
        self.leaf_fanout = leaf_fanout
        # Slot bucket holds one K/V pair; header bucket holds the bitmap +
        # fingerprint array + next pointer of the leaf.
        pair_bytes = key_bytes + value_bytes
        self._slot_bytes = -(-pair_bytes // 4) * 4
        header_bytes = -(-(leaf_fanout + leaf_fanout // 8 + 8) // 4) * 4
        self._header_bytes = max(self._slot_bytes, header_bytes)
        # Splits halve leaves, so worst-case leaf count is ~2x the minimum.
        max_leaves = max(4, int(np.ceil(capacity / (leaf_fanout // 2))) + 4)
        buckets_per_leaf = leaf_fanout + 1
        self.nvm = SimulatedNVM(max_leaves * buckets_per_leaf, self._header_bytes)
        self._buckets_per_leaf = buckets_per_leaf
        self._free_leaf_bases = list(
            range((max_leaves - 1) * buckets_per_leaf, -1, -buckets_per_leaf)
        )
        self._leaves: list[_Leaf] = [self._alloc_leaf()]
        self._count = 0

    # ------------------------------------------------------------------ #

    def _alloc_leaf(self) -> _Leaf:
        if not self._free_leaf_bases:
            raise CapacityError("FPTree leaf arena exhausted; raise capacity")
        return _Leaf(self._free_leaf_bases.pop(), self.leaf_fanout)

    def _leaf_for(self, key: bytes) -> int:
        """Index of the leaf whose key range covers ``key`` (the DRAM
        inner-node traversal)."""
        lows = [leaf.keys[0] if leaf.keys else b"" for leaf in self._leaves]
        idx = bisect.bisect_right(lows, key) - 1
        return max(idx, 0)

    def _write_slot(self, leaf: _Leaf, slot: int, key: bytes, value: bytes) -> None:
        payload = np.zeros(self._header_bytes, dtype=np.uint8)
        payload[: self.key_bytes] = self._to_array(key)
        payload[self.key_bytes : self.key_bytes + self.value_bytes] = self._to_array(
            value
        )
        self.nvm.write(leaf.base_bucket + 1 + slot, payload)

    def _write_header(self, leaf: _Leaf) -> None:
        """Persist bitmap + fingerprints (the commit point of an insert)."""
        header = np.zeros(self._header_bytes, dtype=np.uint8)
        for key, slot in leaf.slot_of.items():
            header[slot] = (key[0] ^ key[-1]) & 0xFF  # 1-byte fingerprint
            header[self.leaf_fanout + slot // 8] |= 1 << (slot % 8)
        self.nvm.write(leaf.base_bucket, header)

    def _read_slot_value(self, leaf: _Leaf, slot: int) -> bytes:
        bucket = self.nvm.read(leaf.base_bucket + 1 + slot)
        return bucket[self.key_bytes : self.key_bytes + self.value_bytes].tobytes()

    # ------------------------------------------------------------------ #

    def put(self, key: bytes, value: bytes) -> None:
        key = self._normalize_key(key)
        value = self._normalize_value(value)
        self.mutations += 1
        leaf = self._leaves[self._leaf_for(key)]

        existing = leaf.slot_of.get(key)
        if existing is not None:
            self._write_slot(leaf, existing, key, value)
            return

        if not leaf.free_slots:
            leaf = self._split(leaf, key)
        slot = leaf.free_slots.pop()
        self._write_slot(leaf, slot, key, value)
        leaf.slot_of[key] = slot
        bisect.insort(leaf.keys, key)
        self._write_header(leaf)
        self._count += 1

    def _split(self, leaf: _Leaf, key: bytes) -> _Leaf:
        """Split a full leaf; the upper half is *copied* to a new NVM leaf.

        Returns the leaf that should receive ``key``.
        """
        new_leaf = self._alloc_leaf()
        mid = len(leaf.keys) // 2
        moved = leaf.keys[mid:]
        for moved_key in moved:
            old_slot = leaf.slot_of.pop(moved_key)
            value = self._read_slot_value(leaf, old_slot)
            new_slot = new_leaf.free_slots.pop()
            self._write_slot(new_leaf, new_slot, moved_key, value)
            new_leaf.slot_of[moved_key] = new_slot
            new_leaf.keys.append(moved_key)
            leaf.free_slots.append(old_slot)
        leaf.keys = leaf.keys[:mid]
        self._write_header(leaf)
        self._write_header(new_leaf)
        position = self._leaves.index(leaf)
        self._leaves.insert(position + 1, new_leaf)
        return new_leaf if key >= new_leaf.keys[0] else leaf

    def get(self, key: bytes) -> bytes:
        key = self._normalize_key(key)
        leaf = self._leaves[self._leaf_for(key)]
        slot = leaf.slot_of.get(key)
        if slot is None:
            raise KeyNotFoundError(f"key {key!r} not found")
        return self._read_slot_value(leaf, slot)

    def delete(self, key: bytes) -> None:
        key = self._normalize_key(key)
        self.mutations += 1
        leaf = self._leaves[self._leaf_for(key)]
        slot = leaf.slot_of.pop(key, None)
        if slot is None:
            raise KeyNotFoundError(f"key {key!r} not found")
        leaf.keys.remove(key)
        leaf.free_slots.append(slot)
        self._write_header(leaf)  # bitmap clear is the persistent delete
        self._count -= 1
        if not leaf.keys and len(self._leaves) > 1:
            self._leaves.remove(leaf)
            self._free_leaf_bases.append(leaf.base_bucket)

    def __len__(self) -> int:
        return self._count

    @property
    def total_nvm_lines(self) -> int:
        return self.nvm.stats.total_lines_touched
