"""Tests for PNWConfig validation and the featurizers."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import PNWConfig
from repro.core.featurizer import BitFeaturizer, ByteFeaturizer, make_featurizer
from repro.errors import ConfigError, NotFittedError


class TestConfig:
    def test_defaults_valid(self):
        config = PNWConfig(num_buckets=64, value_bytes=24)
        assert config.bucket_bytes == 32
        assert config.resolved_featurizer == "bit"

    def test_auto_featurizer_switches_on_size(self):
        small = PNWConfig(num_buckets=4, value_bytes=56)
        large = PNWConfig(num_buckets=4, value_bytes=1016)
        assert small.resolved_featurizer == "bit"
        assert large.resolved_featurizer == "byte"

    def test_explicit_featurizer_respected(self):
        config = PNWConfig(num_buckets=4, value_bytes=1016, featurizer="bit")
        assert config.resolved_featurizer == "bit"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_buckets": 0, "value_bytes": 8},
            {"num_buckets": 4, "value_bytes": 0},
            {"num_buckets": 4, "value_bytes": 8, "key_bytes": 0},
            {"num_buckets": 4, "value_bytes": 8, "n_clusters": 0},
            {"num_buckets": 4, "value_bytes": 8, "featurizer": "magic"},
            {"num_buckets": 4, "value_bytes": 8, "update_mode": "fast"},
            {"num_buckets": 4, "value_bytes": 8, "load_factor": 0.0},
            {"num_buckets": 4, "value_bytes": 8, "load_factor": 1.5},
            {"num_buckets": 4, "value_bytes": 7},  # bucket not word aligned
            {"num_buckets": 4, "value_bytes": 8, "executor": "fiber"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            PNWConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, old_default",
        [
            ("index_placement", "dram"),
            ("media_verify", True),
            ("rebalance_policy", "greedy"),
            ("rebalance_wear_factor", 0.0),
            ("auto_train_fraction", 0.1),
            ("auto_train_fraction", -0.1),
            ("refresh_batch_size", 256),
            ("kmeans_jobs", 1),
            ("cacheline_bytes", 64),
            ("router_vbuckets", 64),
            ("rebalance_low_watermark", 0.2),
            ("rebalance_max_keys", 256),
        ],
    )
    def test_removed_knobs_rejected(self, name, old_default):
        with pytest.raises(TypeError):
            PNWConfig(num_buckets=4, value_bytes=8, **{name: old_default})

    def test_process_executor_rejected_as_removed(self):
        with pytest.raises(ConfigError, match="'process' was removed"):
            PNWConfig(num_buckets=4, value_bytes=8, executor="process")

    def test_predictive_rejected_as_removed(self):
        with pytest.raises(ConfigError, match="'predictive' was removed"):
            PNWConfig(num_buckets=4, value_bytes=8, tier_mode="predictive")

    def test_frozen(self):
        config = PNWConfig(num_buckets=4, value_bytes=8)
        with pytest.raises(AttributeError):
            config.num_buckets = 8


def test_knob_inventory():
    """The exact set of ``PNWConfig`` fields.  Each field multiplies the
    configurations tests and benchmarks must cover, so adding one means
    naming the non-test caller (in ``src/``, ``benchmarks/`` or
    ``examples/``) that needs a non-default value — and updating this
    set in the same change."""
    assert {f.name for f in dataclasses.fields(PNWConfig)} == {
        "num_buckets", "value_bytes", "key_bytes", "n_clusters",
        "featurizer", "pca_components", "update_mode", "load_factor",
        "retrain_check_interval", "refresh_mode", "probe_limit", "n_init",
        "max_iter", "seed", "word_bytes", "track_bit_wear",
        "persist_flags", "shards", "executor", "tier_mode",
        "tier_cache_entries", "tier_writeback_entries", "tier_flush_ops",
        "media_fault_rate", "media_fault_budget", "media_retire_watermark",
        "rebalance_mode", "rebalance_check_interval",
    }


class TestFeaturizers:
    def test_bit_features_are_unpacked_bits(self, rng):
        rows = rng.integers(0, 256, (5, 4), dtype=np.uint8)
        feats = BitFeaturizer().fit_transform(rows)
        assert feats.shape == (5, 32)
        assert set(np.unique(feats)) <= {0.0, 1.0}

    def test_bit_euclidean_equals_hamming(self, rng):
        from repro._bitops import hamming_distance

        rows = rng.integers(0, 256, (2, 8), dtype=np.uint8)
        feats = BitFeaturizer().fit_transform(rows)
        squared = float(((feats[0] - feats[1]) ** 2).sum())
        assert squared == hamming_distance(rows[0], rows[1])

    def test_byte_features_are_byte_values(self, rng):
        rows = rng.integers(0, 256, (3, 6), dtype=np.uint8)
        feats = ByteFeaturizer().fit_transform(rows)
        assert feats.shape == (3, 6)
        assert np.array_equal(feats, rows.astype(np.float64))

    def test_pca_composition_reduces_dims(self, rng):
        rows = rng.integers(0, 256, (50, 32), dtype=np.uint8)
        feats = ByteFeaturizer(pca_components=5).fit_transform(rows)
        assert feats.shape == (50, 5)

    def test_transform_one_matches_batch(self, rng):
        rows = rng.integers(0, 256, (10, 16), dtype=np.uint8)
        featurizer = BitFeaturizer().fit(rows)
        assert np.array_equal(
            featurizer.transform_one(rows[3]), featurizer.transform(rows)[3]
        )

    def test_unfitted_raises(self, rng):
        with pytest.raises(NotFittedError):
            BitFeaturizer().transform(rng.integers(0, 256, (2, 4), dtype=np.uint8))

    def test_factory(self):
        assert isinstance(make_featurizer("bit"), BitFeaturizer)
        assert isinstance(make_featurizer("byte"), ByteFeaturizer)
        with pytest.raises(ValueError):
            make_featurizer("nope")
