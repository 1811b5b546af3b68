"""Encoding NVM bucket contents as clustering feature vectors (§V-A1).

The paper encodes "each memory location ... as a vector of bits, each of
which is used as a feature/dimension", optionally compressed with PCA for
large buckets.  Two featurizers implement that trade-off:

* ``BitFeaturizer`` — one 0/1 feature per bit.  Squared Euclidean
  distance between bit vectors *equals* Hamming distance, so k-means
  clusters exactly the quantity PNW minimises.  Cost grows with
  ``8 * bucket_bytes`` features.
* ``ByteFeaturizer`` — one 0..255 feature per byte.  8x fewer features;
  Euclidean proximity of byte values correlates with shared high-order
  bits, a good surrogate for Hamming proximity on structured data (and
  the reason the paper reaches for PCA rather than raw bits on 4 KB
  pages).

Either can be composed with :class:`~repro.ml.pca.PCA`.
"""

from __future__ import annotations

import numpy as np

from .._bitops import unpack_bits
from ..errors import NotFittedError
from ..ml.pca import PCA

__all__ = ["Featurizer", "BitFeaturizer", "ByteFeaturizer", "make_featurizer"]


class Featurizer:
    """Base: raw-encode bucket bytes, then optionally project with PCA."""

    def __init__(self, pca_components: int | None = None, seed: int | None = None) -> None:
        self._pca = (
            PCA(n_components=pca_components, seed=seed)
            if pca_components is not None
            else None
        )
        self._fitted = False

    def _encode(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fit(self, rows: np.ndarray) -> "Featurizer":
        """Fit the (optional) PCA on raw encodings of ``rows``.

        The raw encodings themselves have nothing to learn, so without
        PCA this only marks the featurizer usable.
        """
        if self._pca is not None:
            self._pca.fit(self._encode(np.atleast_2d(rows)))
        self._fitted = True
        return self

    def transform(self, rows: np.ndarray) -> np.ndarray:
        """Feature matrix for packed byte rows ``(n, bucket_bytes)``."""
        if not self._fitted:
            raise NotFittedError("call fit() before transform()")
        encoded = self._encode(np.atleast_2d(rows))
        if self._pca is not None:
            return self._pca.transform(encoded)
        return encoded

    def fit_transform(self, rows: np.ndarray) -> np.ndarray:
        """Fit and transform, encoding ``rows`` once."""
        encoded = self._encode(np.atleast_2d(rows))
        self._fitted = True
        if self._pca is None:
            return encoded
        return self._pca.fit_transform(encoded)

    def transform_one(self, row: np.ndarray) -> np.ndarray:
        """Feature vector of a single bucket (the PUT hot path)."""
        return self.transform(row[None, :])[0]

    def transform_many(self, rows: np.ndarray) -> np.ndarray:
        """Feature matrix of a batch of buckets (the batched PUT path).

        Encoding is row-wise, so for the raw featurizers each row's
        features are bit-identical to :meth:`transform_one` on that row;
        with PCA attached, BLAS may round matrix and vector products
        differently, so batch and single features agree only to float
        tolerance.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {rows.shape}")
        return self.transform(rows)


class BitFeaturizer(Featurizer):
    """One feature per bit: exact Hamming geometry."""

    name = "bit"

    def _encode(self, rows: np.ndarray) -> np.ndarray:
        return unpack_bits(np.ascontiguousarray(rows, dtype=np.uint8)).astype(
            np.float64
        )


class ByteFeaturizer(Featurizer):
    """One feature per byte: compact surrogate for large buckets."""

    name = "byte"

    def _encode(self, rows: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(rows, dtype=np.uint8).astype(np.float64)


def make_featurizer(
    kind: str, pca_components: int | None = None, seed: int | None = None
) -> Featurizer:
    """Build a featurizer by name (``"bit"`` or ``"byte"``)."""
    if kind == "bit":
        return BitFeaturizer(pca_components, seed)
    if kind == "byte":
        return ByteFeaturizer(pca_components, seed)
    raise ValueError(f"unknown featurizer {kind!r}")
