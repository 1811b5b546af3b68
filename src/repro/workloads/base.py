"""Workload interface: seeded generators of fixed-size binary items.

Every evaluation dataset of the paper is represented as a generator that
yields ``(n, item_bytes)`` uint8 matrices.  Real downloads (UCI corpora,
Keras images, video files) are unavailable offline, so each generator is a
synthetic stand-in engineered to preserve the property PNW exploits: the
*bit-level similarity structure* of the values (each generator's module
docstring gives the per-dataset rationale; README.md "Layout").

Generators are deterministic in their seed and stateful: successive
``generate`` calls continue the same stream, which matters for the
temporal datasets (video, workload-shift phases).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Workload"]


class Workload(ABC):
    """A seeded stream of fixed-size binary items."""

    #: Registry/display name ("amazon", "roadnet", ...).
    name: str = "abstract"

    def __init__(self, item_bytes: int, seed: int | None = None) -> None:
        if item_bytes <= 0:
            raise ValueError(f"item_bytes must be positive, got {item_bytes}")
        self.item_bytes = item_bytes
        self.rng = np.random.default_rng(seed)

    @property
    def item_bits(self) -> int:
        """Bits per generated item."""
        return self.item_bytes * 8

    @abstractmethod
    def generate(self, n: int) -> np.ndarray:
        """Produce the next ``n`` items as an ``(n, item_bytes)`` array."""

    def batches(self, n: int, batch_size: int):
        """Yield the next ``n`` items in ``(<= batch_size, item_bytes)``
        chunks — the feed shape of the store's batch write pipeline.

        Chunks continue the workload's single stream (each call to
        :meth:`generate` picks up where the last left off) and are fully
        deterministic for a given seed and chunking.  Generators may
        consume randomness in ``n``-dependent ways, so a chunked stream
        is not promised to be item-identical to one ``generate(n)`` call
        — drivers comparing batched against sequential feeding should
        materialise the items once and group them, as the benchmark does.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        remaining = n
        while remaining > 0:
            take = min(batch_size, remaining)
            yield self.generate(take)
            remaining -= take

    def split_old_new(self, n_old: int, n_new: int) -> tuple[np.ndarray, np.ndarray]:
        """Generate a warm-up batch and a measurement batch in one stream.

        Mirrors the paper's methodology: "old data" fills the data zone and
        trains the model, then the remaining items replace it.
        """
        combined = self.generate(n_old + n_new)
        return combined[:n_old], combined[n_old:]

    def _validate(self, items: np.ndarray) -> np.ndarray:
        items = np.ascontiguousarray(items, dtype=np.uint8)
        if items.ndim != 2 or items.shape[1] != self.item_bytes:
            raise ValueError(
                f"{type(self).__name__} produced shape {items.shape}, "
                f"expected (n, {self.item_bytes})"
            )
        return items

    def __repr__(self) -> str:
        return f"{type(self).__name__}(item_bytes={self.item_bytes})"
