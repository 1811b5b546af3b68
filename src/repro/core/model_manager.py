"""Model lifecycle: training, prediction, and load-factor-driven retraining.

The manager owns the featurizer + k-means pair (both DRAM-resident and
crash-reconstructable, §V-A1), tracks prediction latency — the overhead
the paper reports alongside Fig. 6 — and decides *when* to retrain: the
load factor warns "that the system will need to be retrained in the near
future" (§V-C), and the Fig. 10 experiment retrains explicitly at a phase
boundary.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import NotFittedError
from ..ml.kmeans import KMeans, MiniBatchKMeans
from .config import PNWConfig
from .featurizer import Featurizer, make_featurizer

__all__ = ["ModelManager"]

#: Live fraction that triggers the *first* training of a store that
#: started empty (a store warmed with ``warm_up`` trains immediately).
AUTO_TRAIN_FRACTION = 0.1

#: Mini-batch size of one incremental refresh pass over the zone.
REFRESH_BATCH_SIZE = 256


class ModelManager:
    """Featurizer + k-means with retraining policy and latency accounting."""

    def __init__(self, config: PNWConfig) -> None:
        self.config = config
        self.model: KMeans | None = None
        self.featurizer: Featurizer | None = None
        self.model_version = 0
        self.train_count = 0
        self.refresh_count = 0
        self.predict_count = 0
        self.predict_ns_total = 0
        self.last_train_seconds = 0.0

    @property
    def is_trained(self) -> bool:
        """Whether a model is available for predictions."""
        return self.model is not None

    # ------------------------------------------------------------------ #

    def train(self, rows: np.ndarray) -> None:
        """(Re)train on the current data-zone contents (Algorithm 1).

        ``rows`` is the packed ``(n, bucket_bytes)`` matrix of bucket
        contents.  A fresh featurizer is fitted alongside the model so PCA
        axes track the current data distribution.

        With ``refresh_mode="incremental"`` a *retrain* of an
        already-trained manager is routed through :meth:`refresh`
        instead: the load-factor policy's periodic retrains (§V-C) then
        nudge the existing centroids with mini-batch K-Means rather than
        refitting from scratch, so they never stall the write path on a
        full Lloyd run.  The first training is always full.
        """
        if (
            self.config.refresh_mode == "incremental"
            and self.model is not None
            and self.featurizer is not None
        ):
            self.refresh(rows)
            return
        rows = np.atleast_2d(np.ascontiguousarray(rows, dtype=np.uint8))
        n_clusters = min(self.config.n_clusters, rows.shape[0])
        started = time.perf_counter()
        featurizer = make_featurizer(
            self.config.resolved_featurizer,
            self.config.pca_components,
            self.config.seed,
        )
        features = featurizer.fit_transform(rows)
        model = KMeans(
            n_clusters,
            n_init=self.config.n_init,
            max_iter=self.config.max_iter,
            seed=self.config.seed,
        )
        model.fit(features)
        self.last_train_seconds = time.perf_counter() - started
        self.featurizer = featurizer
        self.model = model
        self.model_version += 1
        self.train_count += 1

    def refresh(self, rows: np.ndarray) -> None:
        """Incrementally refresh the fitted model on the zone's contents.

        One deterministic mini-batch pass (``MiniBatchKMeans.partial_fit``
        over consecutive :data:`REFRESH_BATCH_SIZE` slices, warm-started from
        the current centroids) replaces the full Lloyd refit.  The
        featurizer is *not* refit — PCA axes stay frozen so the refreshed
        centroids live in the same feature space as every cached
        prediction — and ``n_clusters`` cannot change, so the caller's
        pool rebuild keeps one free list per existing cluster.
        """
        if self.model is None or self.featurizer is None:
            raise NotFittedError("refresh() needs a trained model; call train()")
        rows = np.atleast_2d(np.ascontiguousarray(rows, dtype=np.uint8))
        started = time.perf_counter()
        features = self.featurizer.transform_many(rows)
        refresher = MiniBatchKMeans(
            self.model.n_clusters,
            batch_size=REFRESH_BATCH_SIZE,
            seed=self.config.seed,
        )
        refresher.warm_start(self.model.cluster_centers_)
        for start in range(0, features.shape[0], REFRESH_BATCH_SIZE):
            refresher.partial_fit(features[start : start + REFRESH_BATCH_SIZE])
        self.model.cluster_centers_ = refresher.cluster_centers_
        # The fit's assignment was made against the centroids just replaced.
        self.model.labels_ = None
        self.last_train_seconds = time.perf_counter() - started
        self.model_version += 1
        self.refresh_count += 1

    def labels_for(self, rows: np.ndarray) -> np.ndarray:
        """Cluster labels for many buckets (pool rebuilds)."""
        if self.model is None or self.featurizer is None:
            raise NotFittedError("train() has not been called")
        return self.model.predict(self.featurizer.transform(rows))

    def trained_labels(self, rows: np.ndarray, subset: np.ndarray) -> np.ndarray:
        """Cluster labels of ``rows[subset]``, where ``rows`` is the very
        matrix the last :meth:`train` was given (pool rebuilds).

        A full fit ends by assigning every training row to its nearest
        final centroid, so those labels are reused instead of encoding
        and assigning the rows a second time.  An incremental refresh
        moves the centroids *after* that assignment; its rows go through
        :meth:`labels_for`.
        """
        if self.model is None:
            raise NotFittedError("train() has not been called")
        if self.model.labels_ is None:
            return self.labels_for(rows[subset])
        return self.model.labels_[subset]

    def predict(self, bucket: np.ndarray) -> int:
        """Cluster of one bucket's contents (Algorithm 2, line 1).

        Timed with a monotonic clock; the accumulated mean is the
        "latency of prediction per item" the paper reports in Fig. 6.
        """
        return int(self.predict_many(np.asarray(bucket)[None, :])[0])

    def predict_many(self, rows: np.ndarray) -> np.ndarray:
        """Cluster labels of a batch of buckets in one vectorized call.

        The batched side of Algorithm 2, line 1: one featurizer pass and
        one distance computation cover the whole batch.  Row ``i``'s
        label matches :meth:`predict` on that row (same kernel), and the
        whole batch is timed as one prediction interval covering
        ``rows.shape[0]`` items.
        """
        if self.model is None or self.featurizer is None:
            raise NotFittedError("train() has not been called")
        rows = np.atleast_2d(rows)
        started = time.perf_counter_ns()
        distances = self.model.centroid_distances(
            self.featurizer.transform_many(rows)
        )
        labels = np.argmin(distances, axis=1).astype(np.int64)
        self.predict_ns_total += time.perf_counter_ns() - started
        self.predict_count += rows.shape[0]
        return labels

    def fallback_order(self, bucket: np.ndarray) -> np.ndarray:
        """All clusters sorted nearest-first (§V-C).

        ``order[0]`` is the predicted cluster, so the PUT path gets the
        prediction and its fallbacks from one distance computation.  Timed
        like :meth:`predict`.
        """
        return self.fallback_order_many(np.asarray(bucket)[None, :])[0]

    def fallback_order_many(self, rows: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`fallback_order` for a batch of buckets.

        Returns an ``(n, n_clusters)`` matrix whose row ``i`` sorts all
        clusters nearest-first for bucket ``i`` — the single vectorized
        K-Means call behind ``PNWStore.put_many``.
        """
        if self.model is None or self.featurizer is None:
            raise NotFittedError("train() has not been called")
        rows = np.atleast_2d(rows)
        started = time.perf_counter_ns()
        orders = self.model.centroid_order_by_distance_many(
            self.featurizer.transform_many(rows)
        )
        self.predict_ns_total += time.perf_counter_ns() - started
        self.predict_count += rows.shape[0]
        return orders

    # ------------------------------------------------------------------ #

    @property
    def mean_predict_ns(self) -> float:
        """Mean measured prediction latency per item, in nanoseconds."""
        if self.predict_count == 0:
            return 0.0
        return self.predict_ns_total / self.predict_count

    def should_retrain(self, live_fraction: float) -> bool:
        """Load-factor policy: retrain before clusters run dry (§V-C)."""
        if not self.is_trained:
            return live_fraction >= AUTO_TRAIN_FRACTION
        return live_fraction >= self.config.load_factor
