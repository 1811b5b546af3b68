"""Write-back staging area (the WriteBuffer half of the tier).

One buffer per shard holds that shard's dirty entries — mutations
admitted to DRAM but not yet written to NVM.  A rewrite of a staged key
*coalesces* into the existing entry (the earlier version never touches
an NVM cell: that is the tier's entire wear win), and a flush drains the
entries in staging order through the store's existing ``put_many`` batch
path.

Entries are keyed by normalized key and store the padded value bytes, so
a GET served from the buffer is byte-identical to what the store would
return after a flush.  Each entry remembers whether it *created* its key
(the key was absent from the durable store when first staged): the
tiered store needs that to report membership/length and to cancel a
staged create on DELETE without ever consulting NVM.
"""

from __future__ import annotations

from .stats import TierStats

__all__ = ["WriteBuffer", "StagedEntry"]


class StagedEntry:
    """One dirty key: its latest value and staging metadata."""

    __slots__ = ("value", "is_create", "seq")

    def __init__(self, value: bytes, is_create: bool, seq: int) -> None:
        #: Padded value bytes — what a flush will write.
        self.value = value
        #: True iff the key was absent from the durable store when the
        #: entry was first staged (a flush will insert, not update).
        self.is_create = is_create
        #: Tier mutation sequence number of the *first* staging — the
        #: age anchor for the interval flush trigger.
        self.seq = seq


class WriteBuffer:
    """Bounded dirty-entry map for one shard, in staging order.

    ``capacity`` is the size flush trigger: the tiered store drains the
    buffer as soon as :meth:`full` reports True after a staging.  The
    buffer itself never refuses an entry — the bound is enforced by the
    store flushing, which keeps the trigger logic (size vs interval vs
    pressure) in one place.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = TierStats()
        #: Insertion-ordered (Python dict) key -> StagedEntry.
        self._entries: dict[bytes, StagedEntry] = {}
        self._creates = 0

    # ------------------------------------------------------------------ #
    # introspection                                                       #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    @property
    def creates(self) -> int:
        """Staged entries whose key the durable store has never seen."""
        return self._creates

    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def oldest_seq(self) -> int | None:
        """Staging sequence of the oldest dirty entry, or ``None``."""
        for entry in self._entries.values():
            return entry.seq
        return None

    def peek(self, key: bytes) -> StagedEntry | None:
        """The staged entry for ``key`` (GET path), counting a hit."""
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.writeback_hits += 1
        return entry

    def entry(self, key: bytes) -> StagedEntry | None:
        """The staged entry without any accounting (internal checks)."""
        return self._entries.get(key)

    # ------------------------------------------------------------------ #
    # staging                                                             #
    # ------------------------------------------------------------------ #

    def stage(self, key: bytes, value: bytes, *, is_create: bool, seq: int) -> bool:
        """Absorb one mutation; returns True if it coalesced into an
        existing dirty entry (an NVM write saved), False if it staged a
        new one."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.value = value
            self.stats.coalesced += 1
            return True
        self._entries[key] = StagedEntry(value, is_create, seq)
        if is_create:
            self._creates += 1
        self.stats.staged += 1
        return False

    def drop(self, key: bytes) -> StagedEntry | None:
        """Remove and return a staged entry (DELETE reconciliation)."""
        entry = self._entries.pop(key, None)
        if entry is not None and entry.is_create:
            self._creates -= 1
        return entry

    def take_all(self) -> list[tuple[bytes, StagedEntry]]:
        """Detach every dirty entry in staging order (flush path)."""
        items = list(self._entries.items())
        self._entries.clear()
        self._creates = 0
        return items

    def restage(self, items: list[tuple[bytes, StagedEntry]]) -> None:
        """Put detached entries back (a flush that failed part-way
        re-stages the unwritten remainder, preserving staging order
        relative to each other and ahead of nothing — the buffer is
        empty when this runs).  No re-accounting: the entries were
        already counted when first staged."""
        for key, entry in items:
            self._entries[key] = entry
            if entry.is_create:
                self._creates += 1

    def clear(self) -> int:
        """Drop every dirty entry (crash); returns how many were lost."""
        lost = len(self._entries)
        self._entries.clear()
        self._creates = 0
        return lost
