"""K-means clustering (Lloyd's algorithm) and a streaming mini-batch variant.

The paper clusters NVM bucket contents with scikit-learn's k-means; that
library is unavailable offline, so this module reimplements the same
estimator surface on numpy:

* k-means++ seeding (the scikit-learn default),
* Lloyd iterations with vectorised assignment,
* ``n_init`` restarts keeping the lowest-inertia solution,
* empty-cluster repair by reseeding on the farthest points,
* optional multi-process assignment (``n_jobs``) for the Fig. 11
  single-core vs multi-core retraining experiment,
* ``MiniBatchKMeans`` for cheap background refreshes between full retrains
  (used by the ablation benchmarks).

The input dtype picks the kernels.  The bit and byte featurizers hand
the fit ``uint8`` matrices: every product and partial sum of their
values is an integer far below 2**53, so float64 arithmetic on them is
exact in any order, and each k-means++ seeding distance is one GEMV,
``|x|^2 + |c|^2 - 2 x.c``, that gives the same bits as the ordered
kernel.  Any other input (PCA projections, Gaussian test data) is
converted to float64 and keeps the seeding whose float operations run
in a fixed order.  The Lloyd passes run the same kernels for both.

All randomness flows through a caller-supplied seed, so experiments are
exactly reproducible.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotFittedError
from ._parallel import assign_labels, run_restarts

__all__ = ["KMeans", "MiniBatchKMeans", "kmeans_plus_plus"]

#: float64 elements per block of the float seeding distances and of the
#: variance reduction (256 KiB): the block's temporary is written and
#: re-read without leaving the cache.
_BLOCK_ELEMENTS = 1 << 15


def _sq_distances(X: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared L2 distance of every row of ``X`` to ``center``.

    Computed block by block so the difference never leaves the cache;
    each row's sum is the same ``einsum`` reduction whatever the block.
    """
    d2 = np.empty(X.shape[0], dtype=np.float64)
    block = max(1, _BLOCK_ELEMENTS // max(1, X.shape[1]))
    for start in range(0, X.shape[0], block):
        diff = X[start : start + block] - center
        np.einsum("ij,ij->i", diff, diff, out=d2[start : start + block])
    return d2


def _exact_sq_distances(X: np.ndarray, x_sq: np.ndarray, idx: int) -> np.ndarray:
    """Squared L2 distance of every row of ``X`` to row ``idx``, as one GEMV.

    ``|x|^2 + |x_idx|^2 - 2 x.x_idx``, given the rows' ``|x|^2``.  For
    ``uint8`` values every term is an integer below 2**53, so this is
    :func:`_sq_distances` bit for bit; on other input it would round.
    """
    return x_sq + x_sq[idx] - 2.0 * (X @ X[idx])


def _column_variance(X: np.ndarray) -> np.ndarray:
    """``np.var(X, axis=0)``, bit for bit, without its ``X - mean`` copy.

    The column sums are the axis-0 reduction ``np.var`` makes itself.
    The squared deviations are formed in cache-sized blocks and added
    row by row; each block's reduction starts from the running total,
    carried in as the block's first row, so the additions are those of
    ``np.var``'s one axis-0 reduction in the same order.  Each block is
    cast to float64 before the mean is subtracted: the cast is exact, and
    a float64-only subtraction runs faster than a mixed-type one.  numpy
    reduces a single column pairwise instead, so that shape (and an
    empty one) goes to ``np.var``.
    """
    n, d = X.shape
    if d < 2:
        return np.var(X, axis=0)
    mean = np.add.reduce(X, axis=0, dtype=np.float64) / n
    block = max(1, _BLOCK_ELEMENTS // d)
    buf = np.empty((min(block, n) + 1, d))
    total = np.empty(d)
    for start in range(0, n, block):
        rows = X[start : start + block]
        carry = 1 if start else 0
        stop = carry + rows.shape[0]
        if carry:
            buf[0] = total
        dev = buf[carry:stop]
        dev[...] = rows
        np.subtract(dev, mean, out=dev)
        np.multiply(dev, dev, out=dev)
        np.add.reduce(buf[:stop], axis=0, out=total)
    return total / n


def _seed_centers(
    X: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
    x_sq: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`kmeans_plus_plus`, optionally on the exact distances.

    With ``x_sq`` (the rows' ``|x|^2``) given, ``X`` is the float64 copy
    of ``uint8`` values and each distance is :func:`_exact_sq_distances`;
    otherwise it is the blocked :func:`_sq_distances`.  Both give the
    same bits.
    """
    n = X.shape[0]

    def distances(center: np.ndarray, idx: int) -> np.ndarray:
        if x_sq is None:
            return _sq_distances(X, center)
        return _exact_sq_distances(X, x_sq, idx)

    centers = np.empty((n_clusters, X.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = X[first]
    closest_d2 = distances(centers[0], first)
    for i in range(1, n_clusters):
        total = closest_d2.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen centroids; fall back
            # to uniform choices so we still return n_clusters rows.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest_d2 / total))
        centers[i] = X[idx]
        np.minimum(closest_d2, distances(centers[i], idx), out=closest_d2)
    return centers


def kmeans_plus_plus(
    X: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding [Arthur & Vassilvitskii, SODA 2007].

    Picks the first centroid uniformly, then each subsequent centroid with
    probability proportional to its squared distance from the nearest
    centroid chosen so far.
    """
    return _seed_centers(X, n_clusters, rng)


class KMeans:
    """Lloyd's k-means with the estimator API the paper's code relied on.

    Parameters
    ----------
    n_clusters:
        Number of clusters K.
    n_init:
        Independent k-means++ restarts; the best (lowest-inertia) run wins.
    max_iter, tol:
        Lloyd iteration limit and centroid-shift convergence threshold
        (squared L2, relative to the data scale like scikit-learn's).
    seed:
        Seed for all randomness.
    n_jobs:
        Worker processes running the ``n_init`` restarts concurrently
        (classic scikit-learn semantics, the mode the paper's Fig. 11
        compares against a single core); 1 means sequential.  Results are
        bit-identical across ``n_jobs`` settings for a given seed.

    Attributes (after ``fit``)
    --------------------------
    ``cluster_centers_``, ``labels_``, ``inertia_``, ``n_iter_``, and
    ``inertia_history_`` (SSE after each Lloyd iteration of the best run).
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        n_init: int = 3,
        max_iter: int = 100,
        tol: float = 1e-4,
        seed: int | None = None,
        n_jobs: int = 1,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.n_jobs = n_jobs
        self.cluster_centers_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float = np.inf
        self.n_iter_: int = 0
        self.inertia_history_: list[float] = []

    # ------------------------------------------------------------------ #

    def fit(self, X: np.ndarray) -> "KMeans":
        """Cluster ``X`` (n_samples, n_features).

        ``uint8`` features (the bit and byte encodings) keep their dtype
        and take the exact integer kernels; anything else is fitted as
        float64.  Both give the centroids the ordered float kernels give.
        """
        X = np.asarray(X)
        X = np.ascontiguousarray(
            X, dtype=np.uint8 if X.dtype == np.uint8 else np.float64
        )
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n = X.shape[0]
        if n < self.n_clusters:
            raise ValueError(
                f"n_samples={n} < n_clusters={self.n_clusters}; "
                "cannot place more centroids than points"
            )
        rng = np.random.default_rng(self.seed)
        # Match scikit-learn: tol is relative to the mean feature variance.
        scaled_tol = self.tol * float(np.mean(_column_variance(X)))

        # One independent seed per restart, drawn up front so serial and
        # parallel execution see the same seed list (determinism).
        run_seeds = [int(s) for s in rng.integers(0, 2**63, size=self.n_init)]
        runs = run_restarts(
            X, self.n_clusters, self.max_iter, scaled_tol, run_seeds,
            self.n_jobs,
        )
        best = min(runs, key=lambda run: run.sse)
        self.inertia_ = best.sse
        self.cluster_centers_ = best.centers
        self.labels_ = best.labels
        self.n_iter_ = best.n_iter
        self.inertia_history_ = best.history
        return self

    # ------------------------------------------------------------------ #

    def _require_fitted(self) -> np.ndarray:
        if self.cluster_centers_ is None:
            raise NotFittedError("call fit() before using the model")
        return self.cluster_centers_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Index of the closest centroid for each row of ``X``."""
        centers = self._require_fitted()
        X = np.atleast_2d(np.ascontiguousarray(X, dtype=np.float64))
        return assign_labels(X, centers)[0]

    def centroid_distances(self, X: np.ndarray) -> np.ndarray:
        """Squared L2 distance of each row of ``X`` to every centroid.

        Returns an ``(n_samples, n_clusters)`` matrix.  This is the shared
        kernel of the single-item and batched prediction paths, so both
        produce bit-identical distances for the same row.
        """
        centers = self._require_fitted()
        X = np.atleast_2d(np.ascontiguousarray(X, dtype=np.float64))
        diff = X[:, None, :] - centers[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)

    def predict_one(self, x: np.ndarray) -> int:
        """Fast path for a single sample (the store's PUT hot path)."""
        x = np.asarray(x, dtype=np.float64)
        return int(np.argmin(self.centroid_distances(x[None, :])[0]))

    def score(self, X: np.ndarray) -> float:
        """Negative SSE of ``X`` against the fitted centroids."""
        centers = self._require_fitted()
        X = np.ascontiguousarray(X, dtype=np.float64)
        return -assign_labels(X, centers)[1]

    def centroid_order_by_distance(self, x: np.ndarray) -> np.ndarray:
        """Cluster indices sorted from nearest to farthest centroid of ``x``.

        Used by the dynamic address pool's fallback when the nearest
        cluster has no free address left (paper §V-C).
        """
        x = np.asarray(x, dtype=np.float64)
        return self.centroid_order_by_distance_many(x[None, :])[0]

    def centroid_order_by_distance_many(self, X: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`centroid_order_by_distance` for a batch.

        One ``(n_samples, n_clusters)`` distance computation serves every
        row, which is what lets the batch PUT pipeline amortise the model
        cost over the whole batch.  ``result[i, 0]`` is row ``i``'s
        predicted cluster.
        """
        return np.argsort(self.centroid_distances(X), axis=1, kind="stable")


class MiniBatchKMeans:
    """Streaming k-means with per-centroid learning rates [Sculley 2010].

    Used by the model-refresh ablation: instead of a full Lloyd retrain,
    the model is nudged with mini-batches of recently written values.
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        batch_size: int = 256,
        max_iter: int = 50,
        seed: int | None = None,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters
        self.batch_size = batch_size
        self.max_iter = max_iter
        self.seed = seed
        self.cluster_centers_: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._rng = np.random.default_rng(seed)

    def warm_start(
        self, centers: np.ndarray, counts: np.ndarray | None = None
    ) -> "MiniBatchKMeans":
        """Seed the centroids from an already-fitted model.

        The store's incremental refresh path starts mini-batch updates
        from the *current* K-Means centroids instead of a fresh
        k-means++ draw, so a refresh nudges the model toward the zone's
        new distribution rather than re-deriving it.  ``counts`` sets
        the per-centroid sample counts that damp the learning rate
        (``eta = 1 / count``); the default of one pre-seen sample per
        centroid lets the first assignments move centroids strongly
        while keeping ``eta`` finite.
        """
        centers = np.atleast_2d(np.ascontiguousarray(centers, dtype=np.float64))
        if centers.shape[0] != self.n_clusters:
            raise ValueError(
                f"{centers.shape[0]} warm-start centers for "
                f"n_clusters={self.n_clusters}"
            )
        if counts is None:
            counts = np.ones(self.n_clusters, dtype=np.float64)
        else:
            counts = np.ascontiguousarray(counts, dtype=np.float64)
            if counts.shape != (self.n_clusters,):
                raise ValueError(
                    f"counts shape {counts.shape} does not match "
                    f"({self.n_clusters},)"
                )
        self.cluster_centers_ = centers.copy()
        self._counts = counts.copy()
        return self

    def partial_fit(self, X: np.ndarray) -> "MiniBatchKMeans":
        """Update centroids with one batch of samples."""
        X = np.atleast_2d(np.ascontiguousarray(X, dtype=np.float64))
        if self.cluster_centers_ is None:
            if X.shape[0] < self.n_clusters:
                raise ValueError(
                    f"first batch must contain at least n_clusters="
                    f"{self.n_clusters} samples, got {X.shape[0]}"
                )
            self.cluster_centers_ = kmeans_plus_plus(X, self.n_clusters, self._rng)
            self._counts = np.zeros(self.n_clusters, dtype=np.float64)
        labels, _ = assign_labels(X, self.cluster_centers_)
        for x, label in zip(X, labels):
            self._counts[label] += 1.0
            eta = 1.0 / self._counts[label]
            self.cluster_centers_[label] += eta * (x - self.cluster_centers_[label])
        return self

    def fit(self, X: np.ndarray) -> "MiniBatchKMeans":
        """Run ``max_iter`` random mini-batches over ``X``."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.shape[0] < self.n_clusters:
            raise ValueError(
                f"n_samples={X.shape[0]} < n_clusters={self.n_clusters}"
            )
        for _ in range(self.max_iter):
            take = min(self.batch_size, X.shape[0])
            idx = self._rng.choice(X.shape[0], size=take, replace=False)
            self.partial_fit(X[idx])
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Index of the closest centroid for each row of ``X``."""
        if self.cluster_centers_ is None:
            raise NotFittedError("call fit()/partial_fit() before predict()")
        X = np.atleast_2d(np.ascontiguousarray(X, dtype=np.float64))
        return assign_labels(X, self.cluster_centers_)[0]
