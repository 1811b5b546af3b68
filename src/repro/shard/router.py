"""Key-to-shard routing: virtual-bucket indirection over a stable hash.

Routing used to be a pure function of the key (``hash % n_shards``).
That bakes in the assumption that every shard's pool drains evenly —
on skewed streams one shard exhausts while siblings idle.  This module
splits routing into two layers:

* a **stable hash** of the normalized key into a fixed universe of
  *virtual buckets* (``vbuckets_per_shard * n_shards`` of them), still
  the repo's seeded FNV-1a under the dedicated router seed; and
* a :class:`RoutingTable` mapping virtual bucket → shard, which the
  rebalancer (:mod:`repro.shard.rebalance`) may edit at run time to
  shift whole buckets of keys between zones.

The table's *default* layout maps bucket ``b`` to ``b % n_shards``,
which composes with the hash to ``(h % (V * n)) % n == h % n`` — i.e.
exactly the old direct-hash routing, for any virtual-bucket multiple.
A store that never rebalances is therefore bit-identical to the
pre-table layout, and ``version == 0`` means "still the FNV default".

The table is versioned: every bucket move bumps ``version``, which the
ingestion layer checks at dispatch (a *routing epoch*) to re-route
batches that were laned under an older table.  The table lives in the
router's DRAM and is not touched by ``crash()``, so ``recover()``
sweeps against the migrated layout.

The batch hash (:func:`hash_keys`) is vectorized: the normalized-key
matrix is folded column by column with NumPy uint64 arithmetic (which
wraps exactly like the scalar loop's explicit masking), so routing a
10k-key batch costs ``key_bytes`` array ops instead of 10k Python-level
FNV loops.  :func:`assign_shards` keeps its historical signature on top
of it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..index.base import _FNV_OFFSET, _FNV_PRIME, KeyIndex, stable_hash64
from ..nvm.stats import _Counters

__all__ = [
    "ROUTER_SEED",
    "RouterStats",
    "RoutingTable",
    "assign_shards",
    "hash_keys",
    "shard_of",
]

#: Seed deriving the routing hash; distinct from every index-side seed.
ROUTER_SEED = 0x5A4D

#: Virtual buckets per shard: the migration granularity of the
#: rebalancer (the universe is ``ROUTER_VBUCKETS * n_shards``).
ROUTER_VBUCKETS = 64

_MASK64 = 0xFFFFFFFFFFFFFFFF


def hash_keys(
    normalized_keys: list[bytes], seed: int = ROUTER_SEED
) -> np.ndarray:
    """Vectorized :func:`~repro.index.base.stable_hash64` over a batch.

    Keys must already be normalized to one fixed width (the batch entry
    points normalize up front).  Returns a ``uint64`` hash per key,
    bit-identical to the scalar FNV-1a loop: NumPy's uint64 arithmetic
    wraps modulo 2**64, which is exactly the scalar path's explicit
    ``& 0xFFFF...`` masking.
    """
    n = len(normalized_keys)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    matrix = np.frombuffer(b"".join(normalized_keys), dtype=np.uint8)
    key_bytes = matrix.size // n
    matrix = matrix.reshape(n, key_bytes)
    init = (_FNV_OFFSET ^ (seed * 0x9E3779B97F4A7C15)) & _MASK64
    values = np.full(n, init, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for column in range(key_bytes):
        values ^= matrix[:, column].astype(np.uint64)
        values *= prime
    return values


def shard_of(key: bytes, n_shards: int, key_bytes: int) -> int:
    """Shard owning ``key`` under the *default* (table-free) layout."""
    normalized = KeyIndex.normalize_key(key, key_bytes)
    return stable_hash64(normalized, seed=ROUTER_SEED) % n_shards


def assign_shards(normalized_keys: list[bytes], n_shards: int) -> list[int]:
    """Owning shard per key under the default layout, vectorized.

    Keys must already be normalized to the store's key width.  This is
    the historical batch-routing entry point; a table-routing store goes
    through :meth:`RoutingTable.assign_hashes` instead (which reduces to
    this while the table holds its default layout).
    """
    return (
        (hash_keys(normalized_keys) % np.uint64(n_shards))
        .astype(np.int64)
        .tolist()
    )


class RoutingTable:
    """Versioned virtual-bucket → shard indirection.

    ``n_shards * vbuckets_per_shard`` virtual buckets; a key's bucket is
    ``hash % n_vbuckets`` and its shard is ``table[bucket]``.  The
    default table (``bucket % n_shards``) composes to the plain
    ``hash % n_shards`` routing, so a never-rebalanced store is
    bit-identical to the pre-table layout.
    """

    def __init__(
        self, n_shards: int, vbuckets_per_shard: int = ROUTER_VBUCKETS
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if vbuckets_per_shard < 1:
            raise ValueError(
                f"vbuckets_per_shard must be >= 1, got {vbuckets_per_shard}"
            )
        self.n_shards = n_shards
        self.n_vbuckets = n_shards * vbuckets_per_shard
        self._table = self._default_table()
        #: Routing epoch: bumped on every bucket move.  ``0`` means the
        #: table still holds the default (pure-FNV) layout.
        self.version = 0

    def _default_table(self) -> np.ndarray:
        return (
            np.arange(self.n_vbuckets, dtype=np.int32)
            % np.int32(self.n_shards)
        )

    # ------------------------------------------------------------------ #
    # lookups                                                             #
    # ------------------------------------------------------------------ #

    @property
    def is_default(self) -> bool:
        """Whether the table equals the default ``bucket % n_shards``
        layout (regardless of version)."""
        return bool(np.array_equal(self._table, self._default_table()))

    def bucket_of_hash(self, key_hash: int) -> int:
        return int(key_hash % self.n_vbuckets)

    def shard_of_hash(self, key_hash: int) -> int:
        return int(self._table[key_hash % self.n_vbuckets])

    def shard_of_bucket(self, bucket: int) -> int:
        return int(self._table[bucket])

    def assign_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """Shard per key hash (``int32`` array), one fancy-index op."""
        return self._table[hashes % np.uint64(self.n_vbuckets)]

    def buckets_of_shard(self, shard_id: int) -> np.ndarray:
        return np.flatnonzero(self._table == shard_id)

    def snapshot(self) -> np.ndarray:
        return self._table.copy()

    # ------------------------------------------------------------------ #
    # edits                                                               #
    # ------------------------------------------------------------------ #

    def move(self, bucket: int, shard_id: int) -> None:
        """Reassign one virtual bucket and bump the routing epoch.

        The caller (the rebalancer) flips the entry only *after* the
        bucket's keys are fully copied to ``shard_id``, so a reader that
        observes the new epoch always finds the keys at their new home.
        """
        if not 0 <= shard_id < self.n_shards:
            raise ValueError(f"shard {shard_id} out of range")
        if not 0 <= bucket < self.n_vbuckets:
            raise ValueError(f"virtual bucket {bucket} out of range")
        self._table[bucket] = shard_id
        self.version += 1


@dataclasses.dataclass
class RouterStats(_Counters):
    """Routing-layer counters, mergeable like :class:`WearStats` /
    ``TierStats`` / ``MediaStats``.

    * ``routed_ops`` — K/V operations routed per shard (list indexed by
      shard id; merge is elementwise).
    * ``bucket_moves`` — virtual-bucket table flips applied.
    * ``keys_migrated`` — keys copied + deleted across zones by
      completed bucket migrations.
    * ``migration_batches`` — engine-stage batches issued by migrations
      (copy and delete sides both count).
    * ``rebalances`` — watermark-triggered rebalance passes that moved
      at least one bucket.
    * ``orphans_swept`` — keys found off their routed shard during
      ``recover()`` (a crash between a migration's copy and its donor
      delete) and reconciled.
    """

    routed_ops: list[int] = dataclasses.field(
        default_factory=list, metadata={"elementwise": True}
    )
    bucket_moves: int = 0
    keys_migrated: int = 0
    migration_batches: int = 0
    rebalances: int = 0
    orphans_swept: int = 0

    @classmethod
    def for_shards(cls, n_shards: int) -> "RouterStats":
        return cls(routed_ops=[0] * n_shards)

    def snapshot(self) -> "RouterStats":
        return dataclasses.replace(self, routed_ops=list(self.routed_ops))
