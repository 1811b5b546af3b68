"""Hot-key and key-churn workloads — the traffic the DRAM tier exists for.

The paper's figure workloads stress the *content* of values (bit-level
similarity); the tier instead exploits the *temporal* structure of keys:

* :class:`ZipfianKVWorkload` — rewrite traffic over a fixed key
  population with Zipf(``alpha``) popularity: a few hot keys absorb most
  writes, so a write-back buffer coalesces the bulk of the stream while
  the long tail passes through.
* :class:`ChurnTTLWorkload` — a CCTV-retention-style stream: a live
  working set of keys each rewritten ~``ttl`` times, then retired
  (deleted) and replaced by a fresh key.  Every value is short-lived by
  construction; :meth:`ChurnTTLWorkload.ops` exposes the full
  put/delete op stream for drivers, while the base :meth:`generate`
  contract yields just the put records.

Both pack items as ``[key | value]`` records (like the synthetic integer
workloads) so a record matrix maps 1:1 onto store buckets.  Values are
drawn from a small set of per-key *profiles* XOR sparse bit noise —
rewrites of a key differ (the store must actually write) yet stay
clusterable, so PNW's content model still finds structure in the
flushed versions.
"""

from __future__ import annotations

import numpy as np

from .base import Workload

__all__ = ["ZipfianKVWorkload", "ChurnTTLWorkload"]


class _RecordWorkload(Workload):
    """Shared ``[key | value]`` record packing and profile-noise values."""

    def __init__(
        self,
        seed: int | None = None,
        *,
        key_bytes: int = 8,
        value_bytes: int = 24,
        n_profiles: int = 8,
        flip_rate: float = 0.02,
    ) -> None:
        if key_bytes <= 0 or value_bytes <= 0:
            raise ValueError("key_bytes and value_bytes must be positive")
        if not 0.0 <= flip_rate <= 1.0:
            raise ValueError(f"flip_rate must be in [0, 1], got {flip_rate}")
        super().__init__(item_bytes=key_bytes + value_bytes, seed=seed)
        self.key_bytes = key_bytes
        self.value_bytes = value_bytes
        self.n_profiles = n_profiles
        self.flip_rate = flip_rate
        self._profiles = self.rng.integers(
            0, 256, size=(n_profiles, value_bytes), dtype=np.uint8
        )

    def _encode_key(self, key_id: int) -> bytes:
        return f"k{key_id:06d}".encode().ljust(self.key_bytes, b"\x00")[
            : self.key_bytes
        ]

    def _values_for(self, key_ids: np.ndarray) -> np.ndarray:
        """Profile of each key XOR fresh sparse bit noise (rewrites of a
        key differ but share its profile's bit structure)."""
        base = self._profiles[key_ids % self.n_profiles]
        flips = self.rng.random((len(key_ids), self.value_bytes * 8))
        noise = np.packbits((flips < self.flip_rate), axis=1)
        return base ^ noise

    def _records(self, key_ids: np.ndarray) -> np.ndarray:
        values = self._values_for(key_ids)
        out = np.empty((len(key_ids), self.item_bytes), dtype=np.uint8)
        for row, key_id in enumerate(key_ids):
            out[row, : self.key_bytes] = np.frombuffer(
                self._encode_key(int(key_id)), dtype=np.uint8
            )
        out[:, self.key_bytes :] = values
        return self._validate(out)

    def pairs(self, items: np.ndarray) -> list[tuple[bytes, bytes]]:
        """Split a record matrix into ``(key, value)`` byte pairs — the
        feed shape of ``put_many`` / the ingest queue."""
        return [
            (row[: self.key_bytes].tobytes(), row[self.key_bytes :].tobytes())
            for row in np.ascontiguousarray(items, dtype=np.uint8)
        ]


class ZipfianKVWorkload(_RecordWorkload):
    """Zipf-popular rewrites over a fixed key population.

    Key ranks are sampled with ``p(rank) ∝ 1 / rank**alpha`` over
    ``n_keys`` keys (bounded — no unbounded ``numpy`` Zipf tail), then
    mapped through a fixed random permutation so hot keys are scattered
    across the id space rather than id-ordered.
    """

    name = "zipfian"

    def __init__(
        self,
        seed: int | None = None,
        *,
        n_keys: int = 512,
        alpha: float = 1.2,
        **kwargs,
    ) -> None:
        if n_keys < 1:
            raise ValueError(f"n_keys must be >= 1, got {n_keys}")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        super().__init__(seed=seed, **kwargs)
        self.n_keys = n_keys
        self.alpha = alpha
        weights = np.arange(1, n_keys + 1, dtype=np.float64) ** -alpha
        self._probs = weights / weights.sum()
        self._perm = self.rng.permutation(n_keys)

    def generate(self, n: int) -> np.ndarray:
        ranks = self.rng.choice(self.n_keys, size=n, p=self._probs)
        return self._records(self._perm[ranks])


class ChurnTTLWorkload(_RecordWorkload):
    """TTL-style key churn: rewrite a live set, retire, replace.

    Each live key carries a remaining-rewrite budget drawn uniformly
    from ``[1, 2*ttl]``; when a rewrite exhausts it the key is *retired*
    (a DELETE in the op stream) and a brand-new key takes its slot — so
    the key population turns over continuously, as in the paper's CCTV
    retention scenario (§I).
    """

    name = "churn"

    def __init__(
        self,
        seed: int | None = None,
        *,
        working_set: int = 128,
        ttl: int = 12,
        **kwargs,
    ) -> None:
        if working_set < 1:
            raise ValueError(f"working_set must be >= 1, got {working_set}")
        if ttl < 1:
            raise ValueError(f"ttl must be >= 1, got {ttl}")
        super().__init__(seed=seed, **kwargs)
        self.working_set = working_set
        self.ttl = ttl
        self._next_id = 0
        #: slot -> [key_id, remaining rewrites]
        self._live: list[list[int]] = []
        for _ in range(working_set):
            self._live.append(self._fresh())

    def _fresh(self) -> list[int]:
        key_id = self._next_id
        self._next_id += 1
        budget = int(self.rng.integers(1, 2 * self.ttl + 1))
        return [key_id, budget]

    def ops(self, n: int):
        """Yield the next ``n`` rewrites as ``("put", key, value)`` ops,
        interleaved with the ``("delete", key, None)`` retirements they
        cause (so slightly more than ``n`` ops total)."""
        for _ in range(n):
            slot = int(self.rng.integers(0, len(self._live)))
            record = self._live[slot]
            key = self._encode_key(record[0])
            value = self._values_for(np.array([record[0]]))[0].tobytes()
            yield ("put", key, value)
            record[1] -= 1
            if record[1] <= 0:
                yield ("delete", key, None)
                self._live[slot] = self._fresh()

    def generate(self, n: int) -> np.ndarray:
        """The base contract view: the put records of the op stream
        (retirements consume the same RNG stream but emit no item)."""
        rows = np.empty((n, self.item_bytes), dtype=np.uint8)
        row = 0
        for kind, key, value in self.ops(n):
            if kind != "put":
                continue
            rows[row, : self.key_bytes] = np.frombuffer(key, dtype=np.uint8)
            rows[row, self.key_bytes :] = np.frombuffer(value, dtype=np.uint8)
            row += 1
        return self._validate(rows)
