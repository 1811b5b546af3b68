"""The dynamic address pool (paper §V-A2, Fig. 5, Algorithm 1).

One free-list per k-means cluster, holding the NVM addresses whose
*current contents* the model assigned to that cluster.  A PUT asks the
pool for an address from the predicted cluster; when that cluster is
exhausted the pool walks the caller-supplied fallback order (clusters
sorted by centroid distance, §V-C).  Deleted addresses are recycled into
the cluster of the data they still hold (Algorithm 3, lines 3-4).

The pool also keeps the paper's per-address availability flag — here a
boolean vector — which guards against double-release and lets the store
compute its live fraction against the load factor.

**The probe engine.**  PNW "determines the best memory location ... by
computing the minimum hamming distance between the new data and existing
free memory locations" (§IV), which makes per-candidate scoring the
store's hot loop.  The pool therefore keeps its probe state in
contiguous DRAM arrays rather than Python lists:

* each cluster's free list is an array-backed FIFO window
  (:class:`_ClusterFreeList`) with O(1) front pops and no per-pop
  list→array conversion;
* when built with a ``content_reader``, the pool maintains a **DRAM
  content cache** — one contiguous ``uint8`` matrix per cluster holding
  each free address's current device bytes, filled on :meth:`rebuild` /
  :meth:`release` and evicted on pop — so scoring a probe window is one
  vectorized popcount over contiguous rows instead of a gather through
  the device per pop;
* :meth:`get_best_many` groups a batch's requests by predicted cluster
  and scores each group against one cache window in a single cross-
  distance kernel, while still applying pops in strict request order.

Every engine path stays byte-identical to scoring candidates one pop at
a time through the device: popcounts are exact integers, ``argmin`` tie-
breaking sees candidates in the same FIFO order, and the fallback walk
and :class:`PoolExhaustedError` partial-prefix semantics are unchanged.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .._bitops import hamming_cross, hamming_to_rows
from ..errors import PoolExhaustedError

__all__ = ["DynamicAddressPool"]

#: ``content_reader`` signature: gather the current device bytes of
#: ``addresses`` into the pre-allocated ``out`` rows (no accounting).
ContentReader = Callable[[np.ndarray, np.ndarray], None]


class _ClusterFreeList:
    """One cluster's free list: an array-backed FIFO window plus an
    optional row-aligned content cache.

    Valid entries live in ``addrs[head:tail]`` (and ``cache[head:tail]``
    row for row).  Front pops advance ``head`` in O(1); a mid-window pop
    shifts whichever side of the window is shorter, preserving FIFO
    order exactly like ``list.pop(i)``.  Appends compact or grow the
    backing arrays amortized O(1).
    """

    __slots__ = ("addrs", "cache", "head", "tail", "row_bytes")

    def __init__(self, row_bytes: int | None, capacity: int = 0) -> None:
        self.row_bytes = row_bytes
        self.addrs = np.empty(capacity, dtype=np.int64)
        self.cache = (
            np.empty((capacity, row_bytes), dtype=np.uint8)
            if row_bytes is not None
            else None
        )
        self.head = 0
        self.tail = 0

    @property
    def size(self) -> int:
        return self.tail - self.head

    def clear(self) -> None:
        self.head = self.tail = 0

    def reset(self, addresses: np.ndarray) -> int:
        """Replace the window with ``addresses``; returns its length.

        The caller fills ``cache[:n]`` afterwards (one bulk gather per
        cluster — the rebuild fill path).
        """
        n = int(addresses.size)
        if self.addrs.size < n:
            self.addrs = np.empty(n, dtype=np.int64)
            if self.row_bytes is not None:
                self.cache = np.empty((n, self.row_bytes), dtype=np.uint8)
        self.addrs[:n] = addresses
        self.head, self.tail = 0, n
        return n

    def window(self, limit: int) -> np.ndarray:
        """The first ``limit`` free addresses, FIFO order (a view)."""
        return self.addrs[self.head : self.head + limit]

    def cache_window(self, limit: int) -> np.ndarray:
        """Cached contents of the first ``limit`` addresses (a view)."""
        return self.cache[self.head : self.head + limit]

    def append(self, address: int) -> int:
        """Append at the tail; returns the row index for the cache fill."""
        if self.tail == self.addrs.size:
            self._make_room()
        self.addrs[self.tail] = address
        self.tail += 1
        return self.tail - 1

    def _make_room(self) -> None:
        capacity = self.addrs.size
        size = self.size
        if self.head > capacity // 2:
            # Over half the array is popped slack: compact in place.
            self.addrs[:size] = self.addrs[self.head : self.tail]
            if self.cache is not None:
                self.cache[:size] = self.cache[self.head : self.tail]
        else:
            new_capacity = max(8, capacity * 2, size + 1)
            addrs = np.empty(new_capacity, dtype=np.int64)
            addrs[:size] = self.addrs[self.head : self.tail]
            if self.cache is not None:
                cache = np.empty((new_capacity, self.row_bytes), dtype=np.uint8)
                cache[:size] = self.cache[self.head : self.tail]
                self.cache = cache
            self.addrs = addrs
        self.head, self.tail = 0, size

    def pop(self, offset: int) -> int:
        """Remove and return the address ``offset`` entries from the front,
        preserving the FIFO order of the rest (``list.pop(offset)``)."""
        h = self.head
        address = int(self.addrs[h + offset])
        back = self.size - offset - 1
        if offset <= back:
            if offset:
                self.addrs[h + 1 : h + offset + 1] = self.addrs[h : h + offset]
                if self.cache is not None:
                    self.cache[h + 1 : h + offset + 1] = self.cache[h : h + offset]
            self.head = h + 1
        else:
            i = h + offset
            self.addrs[i : self.tail - 1] = self.addrs[i + 1 : self.tail]
            if self.cache is not None:
                self.cache[i : self.tail - 1] = self.cache[i + 1 : self.tail]
            self.tail -= 1
        return address

    def to_list(self) -> list[int]:
        return self.addrs[self.head : self.tail].tolist()


class DynamicAddressPool:
    """Per-cluster free-lists over a fixed address range."""

    def __init__(
        self,
        n_clusters: int,
        num_addresses: int,
        *,
        content_reader: ContentReader | None = None,
        row_bytes: int | None = None,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if num_addresses < 1:
            raise ValueError(f"num_addresses must be >= 1, got {num_addresses}")
        if (content_reader is None) != (row_bytes is None):
            raise ValueError(
                "content_reader and row_bytes must be given together"
            )
        if row_bytes is not None and row_bytes < 1:
            raise ValueError(f"row_bytes must be >= 1, got {row_bytes}")
        self.n_clusters = n_clusters
        self.num_addresses = num_addresses
        self._reader = content_reader
        self._row_bytes = row_bytes
        self._lists = [_ClusterFreeList(row_bytes) for _ in range(n_clusters)]
        self._available = np.zeros(num_addresses, dtype=bool)
        self._cluster_of = np.full(num_addresses, -1, dtype=np.int64)
        self._blocked = np.zeros(num_addresses, dtype=bool)

    # ------------------------------------------------------------------ #

    @property
    def has_content_cache(self) -> bool:
        """Whether the probe engine can score payloads from DRAM."""
        return self._reader is not None

    @property
    def _free_lists(self) -> list[list[int]]:
        """Per-cluster windows as plain lists — the shape the pre-engine
        implementation stored directly; kept for tests and debugging."""
        return [free_list.to_list() for free_list in self._lists]

    def cache_rows(self, cluster: int) -> tuple[np.ndarray, np.ndarray]:
        """One cluster's ``(addresses, cached_contents)`` — copies, row
        ``i`` of the matrix caching address ``i``'s device bytes."""
        if self._reader is None:
            raise ValueError("this pool was built without a content cache")
        free_list = self._lists[cluster]
        size = free_list.size
        return free_list.window(size).copy(), free_list.cache_window(size).copy()

    def rebuild(self, labels: np.ndarray, free_addresses: np.ndarray) -> None:
        """Reset the pool from a fresh clustering (Algorithm 1).

        ``labels[i]`` is the cluster of address ``free_addresses[i]``.
        Addresses not listed become unavailable (they hold live data).
        With a content cache, every cluster's window is filled with its
        addresses' current device bytes in one bulk gather.
        """
        labels = np.asarray(labels, dtype=np.int64)
        free_addresses = np.asarray(free_addresses, dtype=np.int64)
        if labels.shape != free_addresses.shape:
            raise ValueError(
                f"labels {labels.shape} and addresses {free_addresses.shape} differ"
            )
        if labels.size and not (0 <= labels.min() and labels.max() < self.n_clusters):
            raise ValueError("label out of cluster range")
        if free_addresses.size and self._blocked.any():
            keep = ~self._blocked[free_addresses]
            free_addresses = free_addresses[keep]
            labels = labels[keep]
        for free_list in self._lists:
            free_list.clear()
        self._available[:] = False
        self._cluster_of[:] = -1
        if not free_addresses.size:
            return
        self._available[free_addresses] = True
        self._cluster_of[free_addresses] = labels
        for label in range(self.n_clusters):
            addresses = free_addresses[labels == label]
            if not addresses.size:
                continue
            free_list = self._lists[label]
            n = free_list.reset(addresses)
            if free_list.cache is not None:
                self._reader(addresses, free_list.cache[:n])

    def _candidates(
        self, cluster: int, fallback_order: np.ndarray | None
    ) -> list[int]:
        """Clusters to try, in order (predicted first, then the walk)."""
        if fallback_order is not None:
            return list(np.asarray(fallback_order, dtype=np.int64))
        # Still scan the others so a single-cluster drought does not
        # fail a request the pool could serve.
        return [cluster] + [c for c in range(self.n_clusters) if c != cluster]

    def _pop_at(self, free_list: _ClusterFreeList, offset: int) -> int:
        address = free_list.pop(offset)
        self._available[address] = False
        self._cluster_of[address] = -1
        return address

    def _check_payload(self, payload: np.ndarray) -> np.ndarray:
        if self._reader is None:
            raise ValueError(
                "payload scoring needs the content cache; build the pool "
                "with content_reader/row_bytes (or pass a scorer callable)"
            )
        payload = np.ascontiguousarray(payload, dtype=np.uint8)
        if payload.shape != (self._row_bytes,):
            raise ValueError(
                f"payload shape {payload.shape} does not match cached row "
                f"width ({self._row_bytes},)"
            )
        return payload

    def _check_payloads(self, payloads: np.ndarray, n: int) -> np.ndarray:
        if self._reader is None:
            raise ValueError(
                "payload scoring needs the content cache; build the pool "
                "with content_reader/row_bytes (or pass a scorer callable)"
            )
        payloads = np.ascontiguousarray(np.atleast_2d(payloads), dtype=np.uint8)
        if payloads.shape != (n, self._row_bytes):
            raise ValueError(
                f"payloads shape {payloads.shape} does not match "
                f"({n}, {self._row_bytes})"
            )
        return payloads

    def get(self, cluster: int, fallback_order: np.ndarray | None = None) -> int:
        """Pop a free address from ``cluster`` (Algorithm 2, line 2).

        Falls back along ``fallback_order`` (nearest-centroid-first) when
        the cluster is empty; raises :class:`PoolExhaustedError` when no
        cluster has a free address.
        """
        for candidate in self._candidates(cluster, fallback_order):
            free_list = self._lists[int(candidate)]
            if free_list.size:
                return self._pop_at(free_list, 0)
        raise PoolExhaustedError(
            f"no free address in any of {self.n_clusters} clusters"
        )

    def get_best(
        self,
        cluster: int,
        scorer: Callable[[np.ndarray], np.ndarray] | np.ndarray,
        probe_limit: int,
        fallback_order: np.ndarray | None = None,
    ) -> int:
        """Pop the *best-matching* free address of ``cluster`` (§IV).

        The paper's PNW "determines the best memory location ... by
        computing the minimum hamming distance between the new data and
        existing free memory locations"; clustering bounds the search to
        one free list.  ``scorer`` is either the payload itself (a packed
        ``uint8`` buffer, scored against the DRAM content cache — the
        engine path) or a callable mapping candidate addresses to
        distances (callers with exotic metrics).  At most ``probe_limit``
        candidates from the front of the free list are scored (the whole
        list with ``probe_limit < 0``).  ``probe_limit == 0`` degrades to
        the plain FIFO pop of Algorithm 2's pseudocode — kept as an
        ablation.
        """
        if probe_limit == 0:
            return self.get(cluster, fallback_order)
        payload = scorer if isinstance(scorer, np.ndarray) else None
        if payload is not None:
            payload = self._check_payload(payload)
        for candidate in self._candidates(cluster, fallback_order):
            free_list = self._lists[int(candidate)]
            size = free_list.size
            if not size:
                continue
            limit = size if probe_limit < 0 else min(probe_limit, size)
            if payload is not None:
                scores = hamming_to_rows(free_list.cache_window(limit), payload)
            else:
                # Copy so a mutating scorer cannot corrupt the window
                # (cold path; the hot path passes payload matrices).
                scores = scorer(free_list.window(limit).copy())
            return self._pop_at(free_list, int(np.argmin(scores)))
        raise PoolExhaustedError(
            f"no free address in any of {self.n_clusters} clusters"
        )

    def get_best_many(
        self,
        clusters: np.ndarray,
        scorer: Callable[[int, np.ndarray], np.ndarray] | np.ndarray,
        probe_limit: int,
        fallback_orders: Sequence[np.ndarray] | np.ndarray | None = None,
        releases: Sequence[tuple[int, int] | None] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pop one best-matching free address per request, in order.

        The bulk side of Algorithm 2, line 2: ``clusters[i]`` is request
        ``i``'s predicted cluster, ``fallback_orders[i]`` its
        nearest-first cluster order, and ``scorer`` is either the
        ``(n, row_bytes)`` payload matrix (the engine path: row ``i`` is
        scored against the DRAM content cache, with requests grouped by
        cluster so one cross-distance kernel covers a whole group) or a
        callable ``scorer(i, addrs)`` returning request ``i``'s distances
        to candidate ``addrs``.  Pops are applied strictly in request
        order, so the result — free-list order included — is identical
        to calling :meth:`get_best` once per request.

        ``releases[i]``, when given, is an ``(address, cluster)`` pair
        recycled into the pool immediately *before* request ``i``'s pop —
        the delete half of an endurance-mode UPDATE batch, interleaved
        exactly like the sequential delete-then-put loop (a released
        address is eligible for its own and every later request).

        Returns ``(addresses, fallback_used)`` where ``fallback_used[i]``
        records whether request ``i`` found its predicted cluster empty
        (the condition the store counts as a fallback).  When the pool
        runs dry mid-batch the raised :class:`PoolExhaustedError` carries
        ``partial_addresses`` / ``partial_fallbacks`` with the
        already-popped prefix (plus ``releases_applied`` when releases
        were interleaved), which stays popped — exactly like a
        sequential loop that dies on request ``i``.
        """
        clusters = np.asarray(clusters, dtype=np.int64)
        n = clusters.size
        if releases is not None and len(releases) != n:
            raise ValueError(
                f"{len(releases)} releases for {n} requests"
            )
        addresses = np.empty(n, dtype=np.int64)
        fallback_used = np.zeros(n, dtype=bool)
        payloads = scorer if isinstance(scorer, np.ndarray) else None
        if payloads is not None and n:
            payloads = self._check_payloads(payloads, n)

        # Cluster grouping: score every same-cluster request of the batch
        # against one snapshot of that cluster's cache window in a single
        # kernel.  Valid because without releases the window only loses
        # rows during the call (pops), never gains them, and a surviving
        # row's distance is position-independent; ``live`` tracks which
        # snapshot rows remain, in FIFO order.  With a positive
        # probe_limit no request can ever probe past snapshot row
        # ``probe_limit + n - 1`` (every probe window starts at the
        # current head, and at most ``n`` pops advance it), so the
        # snapshot — and the kernel — are capped there.
        precomputed: dict[int, list] = {}
        row_of: dict[int, int] = {}
        if payloads is not None and probe_limit != 0 and releases is None and n > 1:
            groups: dict[int, list[int]] = {}
            for i in range(n):
                groups.setdefault(int(clusters[i]), []).append(i)
            for cluster, members in groups.items():
                free_list = self._lists[cluster]
                size = free_list.size
                if size == 0 or len(members) < 2:
                    continue
                snap = size if probe_limit < 0 else min(size, probe_limit + n)
                distances = self._cross_distances(
                    free_list.cache_window(snap), payloads[members]
                )
                precomputed[cluster] = [
                    distances, np.arange(snap, dtype=np.int64)
                ]
                for row, i in enumerate(members):
                    row_of[i] = row

        for i in range(n):
            if releases is not None and releases[i] is not None:
                released_address, released_cluster = releases[i]
                self.release(int(released_address), int(released_cluster))
            cluster = int(clusters[i])
            fallback_used[i] = self._lists[cluster].size == 0
            order = None if fallback_orders is None else fallback_orders[i]
            popped = False
            if probe_limit == 0:
                try:
                    addresses[i] = self.get(cluster, order)
                    popped = True
                except PoolExhaustedError as exc:
                    self._stamp_partial(exc, addresses, fallback_used, i, releases)
                    raise
            else:
                for candidate in self._candidates(cluster, order):
                    candidate = int(candidate)
                    free_list = self._lists[candidate]
                    size = free_list.size
                    if not size:
                        continue
                    limit = size if probe_limit < 0 else min(probe_limit, size)
                    entry = precomputed.get(candidate)
                    if entry is not None and candidate == cluster:
                        # A precomputed entry for the predicted cluster
                        # implies request i is one of its group members.
                        scores = entry[0][row_of[i], entry[1][:limit]]
                    elif payloads is not None:
                        scores = hamming_to_rows(
                            free_list.cache_window(limit), payloads[i]
                        )
                    else:
                        scores = scorer(i, free_list.window(limit).copy())
                    best = int(np.argmin(scores))
                    addresses[i] = self._pop_at(free_list, best)
                    if entry is not None:
                        entry[1] = np.delete(entry[1], best)
                    popped = True
                    break
            if not popped and probe_limit != 0:
                exc = PoolExhaustedError(
                    f"no free address in any of {self.n_clusters} clusters"
                )
                self._stamp_partial(exc, addresses, fallback_used, i, releases)
                raise exc
        return addresses, fallback_used

    @staticmethod
    def _stamp_partial(exc, addresses, fallback_used, i, releases) -> None:
        exc.partial_addresses = addresses[:i].copy()
        exc.partial_fallbacks = fallback_used[:i].copy()
        if releases is not None:
            exc.releases_applied = i + 1

    @staticmethod
    def _cross_distances(window: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Group-vs-window distance matrix, chunked to bound the XOR
        intermediate (``chunk * window_rows * row_bytes``) at ~4 MB."""
        m, width = rows.shape
        size = window.shape[0]
        chunk = max(1, (4 << 20) // max(1, size * width))
        if chunk >= m:
            return hamming_cross(window, rows)
        distances = np.empty((m, size), dtype=np.int32)
        for start in range(0, m, chunk):
            distances[start : start + chunk] = hamming_cross(
                window, rows[start : start + chunk]
            )
        return distances

    def release(self, address: int, cluster: int) -> None:
        """Recycle a freed address into ``cluster`` (Algorithm 3, line 4).

        With a content cache the address's current device bytes are read
        into its cache row — the one per-release gather that keeps every
        later probe of this address DRAM-resident.
        """
        if not 0 <= address < self.num_addresses:
            raise ValueError(f"address {address} out of range")
        if not 0 <= cluster < self.n_clusters:
            raise ValueError(f"cluster {cluster} out of range")
        if self._available[address]:
            raise ValueError(f"address {address} is already in the pool")
        if self._blocked[address]:
            raise ValueError(f"address {address} is blocked (retired media row)")
        free_list = self._lists[cluster]
        row = free_list.append(int(address))
        if free_list.cache is not None:
            self._reader(
                np.array([address], dtype=np.int64),
                free_list.cache[row : row + 1],
            )
        self._available[address] = True
        self._cluster_of[address] = cluster

    def block(self, address: int) -> None:
        """Permanently remove ``address`` from circulation (media retirement).

        If the address is currently free it is pulled out of its free
        list; either way it can never be released back or handed out
        again — :meth:`rebuild` filters it, :meth:`release` rejects it.
        Blocking is per-pool-instance state: the store re-applies its
        :class:`~repro.core.media.BadRowDirectory` after every pool
        construction, which is what makes retirement survive retrain and
        recovery.
        """
        if not 0 <= address < self.num_addresses:
            raise ValueError(f"address {address} out of range")
        self._blocked[address] = True
        if not self._available[address]:
            return
        cluster = int(self._cluster_of[address])
        free_list = self._lists[cluster]
        window = free_list.window(free_list.size)
        offsets = np.flatnonzero(window == address)
        if offsets.size:
            self._pop_at(free_list, int(offsets[0]))

    def block_many(self, addresses: np.ndarray | Sequence[int]) -> None:
        """Bulk :meth:`block` (re-applying a retirement directory)."""
        for address in np.asarray(addresses, dtype=np.int64):
            self.block(int(address))

    def is_blocked(self, address: int) -> bool:
        return bool(self._blocked[address])

    # ------------------------------------------------------------------ #

    def __contains__(self, address: int) -> bool:
        return bool(self._available[address])

    @property
    def total_free(self) -> int:
        """Free addresses across all clusters."""
        return int(self._available.sum())

    @property
    def free_fraction(self) -> float:
        """Fraction of the address range currently free."""
        return self.total_free / self.num_addresses

    def cluster_sizes(self) -> list[int]:
        """Free-list length per cluster (Fig. 5's table column)."""
        return [free_list.size for free_list in self._lists]

    def free_addresses(self) -> np.ndarray:
        """All currently free addresses (sorted)."""
        return np.flatnonzero(self._available)

    def cluster_of(self, address: int) -> int:
        """Cluster a free address is filed under (-1 if not in the pool)."""
        return int(self._cluster_of[address])
