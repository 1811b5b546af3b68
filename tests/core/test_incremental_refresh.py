"""Incremental model refresh: MiniBatchKMeans.partial_fit in the manager.

With ``refresh_mode="incremental"`` the load-factor policy's retrains
(§V-C) nudge the existing centroids with one deterministic mini-batch
pass instead of a full Lloyd refit: ``n_clusters`` never changes, the
featurizer stays frozen, and the pool rebuild that follows keeps one
consistent free list per cluster.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MiniBatchKMeans, PNWConfig, PNWStore
from repro.core.model_manager import ModelManager
from repro.errors import ConfigError, NotFittedError
from tests.conftest import clustered_values


def make_config(**overrides) -> PNWConfig:
    base = dict(
        num_buckets=256,
        value_bytes=24,
        key_bytes=8,
        n_clusters=4,
        seed=7,
        n_init=1,
        max_iter=20,
    )
    base.update(overrides)
    return PNWConfig(**base)


class TestWarmStart:
    def test_seeds_centroids(self):
        centers = np.arange(12, dtype=np.float64).reshape(4, 3)
        model = MiniBatchKMeans(4, seed=0).warm_start(centers)
        assert np.array_equal(model.cluster_centers_, centers)
        labels = model.predict(centers)
        assert np.array_equal(labels, np.arange(4))

    def test_partial_fit_continues_from_warm_start(self):
        centers = np.zeros((2, 3))
        centers[1] = 10.0
        model = MiniBatchKMeans(2, seed=0).warm_start(centers)
        model.partial_fit(np.array([[1.0, 1.0, 1.0]]))
        # One sample assigned to centroid 0 with one pre-seen sample:
        # eta = 1/2, so the centroid moves halfway toward it.
        assert np.allclose(model.cluster_centers_[0], [0.5, 0.5, 0.5])
        assert np.allclose(model.cluster_centers_[1], 10.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="warm-start centers"):
            MiniBatchKMeans(3, seed=0).warm_start(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="counts shape"):
            MiniBatchKMeans(2, seed=0).warm_start(
                np.zeros((2, 4)), counts=np.ones(3)
            )


class TestManagerRefresh:
    def test_first_train_is_always_full(self):
        config = make_config(refresh_mode="incremental")
        manager = ModelManager(config)
        rng = np.random.default_rng(0)
        manager.train(clustered_values(rng, 256, 32))
        assert manager.train_count == 1
        assert manager.refresh_count == 0
        assert manager.model is not None

    def test_second_train_routes_through_refresh(self):
        config = make_config(refresh_mode="incremental")
        manager = ModelManager(config)
        rng = np.random.default_rng(0)
        rows = clustered_values(rng, 256, 32)
        manager.train(rows)
        featurizer = manager.featurizer
        model = manager.model
        version = manager.model_version
        manager.train(clustered_values(rng, 256, 32))
        assert manager.train_count == 1  # no second full fit
        assert manager.refresh_count == 1
        assert manager.model is model  # same estimator, nudged in place
        assert manager.featurizer is featurizer  # frozen feature space
        assert manager.model_version == version + 1

    def test_refresh_keeps_n_clusters(self):
        config = make_config(refresh_mode="incremental")
        manager = ModelManager(config)
        rng = np.random.default_rng(1)
        manager.train(clustered_values(rng, 256, 32))
        k = manager.model.n_clusters
        for _ in range(3):
            manager.train(clustered_values(rng, 256, 32))
        assert manager.model.n_clusters == k
        labels = manager.labels_for(clustered_values(rng, 64, 32))
        assert labels.min() >= 0 and labels.max() < k

    def test_refresh_moves_centroids_toward_new_distribution(self):
        config = make_config(refresh_mode="incremental", n_clusters=2)
        manager = ModelManager(config)
        low = np.zeros((64, 32), dtype=np.uint8)
        high = np.full((64, 32), 255, dtype=np.uint8)
        manager.train(np.vstack([low, high]))
        before = manager.model.cluster_centers_.copy()
        # Drift the low population upward (0x03 = two set bits per byte):
        # its centroid must follow while the high one stays put.
        manager.train(np.full((128, 32), 0x03, dtype=np.uint8))
        after = manager.model.cluster_centers_
        assert not np.array_equal(before, after)
        assert after.mean() > before.mean()

    def test_refresh_requires_fitted_model(self):
        manager = ModelManager(make_config(refresh_mode="incremental"))
        with pytest.raises(NotFittedError):
            manager.refresh(np.zeros((8, 32), dtype=np.uint8))

    def test_full_mode_unchanged(self):
        manager = ModelManager(make_config(refresh_mode="full"))
        rng = np.random.default_rng(0)
        manager.train(clustered_values(rng, 256, 32))
        manager.train(clustered_values(rng, 256, 32))
        assert manager.train_count == 2
        assert manager.refresh_count == 0

    def test_refresh_is_deterministic(self):
        managers = []
        for _ in range(2):
            manager = ModelManager(make_config(refresh_mode="incremental"))
            rng = np.random.default_rng(3)
            manager.train(clustered_values(rng, 256, 32))
            manager.train(clustered_values(rng, 256, 32))
            managers.append(manager)
        assert np.array_equal(
            managers[0].model.cluster_centers_,
            managers[1].model.cluster_centers_,
        )


class TestStoreWithIncrementalRefresh:
    def build(self) -> PNWStore:
        config = make_config(
            refresh_mode="incremental",
            load_factor=0.5,
            retrain_check_interval=16,
        )
        store = PNWStore(config)
        rng = np.random.default_rng(42)
        store.warm_up(clustered_values(rng, 256, 24))
        return store

    def test_policy_retrains_keep_pools_consistent(self):
        store = self.build()
        rng = np.random.default_rng(5)
        values = clustered_values(rng, 180, 24)
        for i in range(180):
            store.put(f"k{i}".encode(), values[i].tobytes())
        manager = store.manager
        assert store.metrics.retrains > 1  # policy fired past warm-up
        assert manager.train_count == 1  # only warm-up was a full fit
        assert manager.refresh_count == store.metrics.retrains - 1
        # Pool consistency: one free list per (unchanged) cluster, and
        # every address is either live or pooled.
        assert store.pool.n_clusters == manager.model.n_clusters
        assert manager.model.n_clusters == store.config.n_clusters
        assert store.pool.total_free + len(store) == store.config.num_buckets
        for cluster, size in enumerate(store.pool.cluster_sizes()):
            assert size >= 0
        # Refreshed model still predicts in range for steering
        # (bucket rows are key_bytes + value_bytes = 32 wide).
        labels = manager.labels_for(clustered_values(rng, 32, 32))
        assert labels.max() < manager.model.n_clusters

    def test_round_trip_survives_refresh(self):
        store = self.build()
        rng = np.random.default_rng(6)
        values = clustered_values(rng, 170, 24)
        for i in range(170):
            store.put(f"k{i}".encode(), values[i].tobytes())
        assert store.manager.refresh_count > 0
        for i in range(0, 170, 17):
            assert store.get(f"k{i}".encode()) == values[i].tobytes()

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="refresh_mode"):
            make_config(refresh_mode="sometimes")
        # The batch size is a model_manager constant, not a field.
        with pytest.raises(TypeError):
            make_config(refresh_batch_size=0)
