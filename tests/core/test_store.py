"""Integration tests for the PNW store (Algorithms 1-3, recovery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PNWConfig, PNWStore
from repro.errors import DuplicateKeyError, KeyNotFoundError, PoolExhaustedError
from tests.conftest import clustered_values


class TestBasicOperations:
    def test_put_get_roundtrip(self, warm_store):
        report = warm_store.put(b"k1", b"hello world")
        value = warm_store.get(b"k1")
        assert value[: len(b"hello world")] == b"hello world"
        assert report.op == "put"
        assert len(warm_store) == 1

    def test_get_missing_raises(self, warm_store):
        with pytest.raises(KeyNotFoundError):
            warm_store.get(b"ghost")

    def test_delete_frees_address(self, warm_store):
        report = warm_store.put(b"k1", b"payload")
        free_before = warm_store.pool.total_free
        warm_store.delete(b"k1")
        assert warm_store.pool.total_free == free_before + 1
        assert b"k1" not in warm_store
        assert len(warm_store) == 0
        assert report.address in warm_store.pool

    def test_delete_missing_raises(self, warm_store):
        with pytest.raises(KeyNotFoundError):
            warm_store.delete(b"ghost")

    def test_put_existing_key_is_update(self, warm_store):
        warm_store.put(b"k1", b"old value")
        warm_store.put(b"k1", b"new value")
        assert warm_store.get(b"k1")[: len(b"new value")] == b"new value"
        assert len(warm_store) == 1
        assert warm_store.metrics.updates == 1

    def test_put_unique_rejects_duplicates(self, warm_store):
        warm_store.put_unique(b"k1", b"v")
        with pytest.raises(DuplicateKeyError):
            warm_store.put_unique(b"k1", b"w")

    def test_oversized_value_rejected(self, warm_store):
        huge = bytes(warm_store.config.value_bytes + 1)
        with pytest.raises(ValueError):
            warm_store.put(b"k1", huge)

    def test_value_as_ndarray(self, warm_store, rng):
        value = rng.integers(0, 256, warm_store.config.value_bytes, dtype=np.uint8)
        warm_store.put(b"arr", value)
        assert warm_store.get(b"arr") == value.tobytes()

    def test_capacity_exhaustion(self, rng):
        config = PNWConfig(num_buckets=4, value_bytes=8, n_clusters=1, seed=0)
        store = PNWStore(config)
        for i in range(4):
            store.put(f"k{i}".encode(), b"x")
        with pytest.raises(PoolExhaustedError):
            store.put(b"overflow", b"x")


class TestSteering:
    def test_put_reuses_similar_content_location(self, small_config, rng):
        """A value identical to warm-up content costs (near) zero flips."""
        old = clustered_values(rng, small_config.num_buckets,
                               small_config.value_bytes, flip_rate=0.0)
        store = PNWStore(small_config)
        store.warm_up(old)
        # Write a value byte-identical to an existing bucket's value part.
        report = store.put(b"\x00" * 8, old[17].tobytes())
        # The key prefix of warm data is zero and our key is zero, so a
        # perfect match exists; probing must find one of the duplicates.
        assert report.bit_updates == 0

    def test_steering_beats_random_placement(self, rng):
        config = PNWConfig(num_buckets=256, value_bytes=24, n_clusters=4,
                           seed=1, n_init=1)
        old = clustered_values(rng, 256, 24)
        new = clustered_values(np.random.default_rng(99), 400, 24)
        store = PNWStore(config)
        store.warm_up(old)
        steered = 0
        for i, item in enumerate(new):
            report = store.put(f"s{i}".encode(), item.tobytes())
            steered += report.bit_updates
            store.delete(f"s{i}".encode())
        # Random in-place replacement baseline on the same data.
        from repro.bench import run_scheme_stream

        random_metrics = run_scheme_stream(None, old, new)
        assert steered / len(new) < 0.8 * (
            random_metrics.bit_updates / random_metrics.items
        )

    def test_fallback_used_when_cluster_empty(self, rng):
        config = PNWConfig(num_buckets=8, value_bytes=24, n_clusters=4, seed=0,
                           n_init=1)
        old = clustered_values(rng, 8, 24)
        store = PNWStore(config)
        store.warm_up(old)
        # Fill almost the whole zone; eventually predicted clusters empty out.
        for i in range(8):
            store.put(f"k{i}".encode(), clustered_values(rng, 1, 24)[0].tobytes())
        assert store.metrics.puts == 8
        # With every address taken, at least one put must have fallen back
        # unless every prediction happened to match a non-empty cluster.
        assert store.pool.total_free == 0


class TestUpdateModes:
    def test_endurance_update_is_delete_plus_put(self, warm_store, rng):
        warm_store.put(b"k1", b"first")
        value = rng.integers(0, 256, 24, dtype=np.uint8)
        warm_store.update(b"k1", value)
        # Endurance mode re-steers through a DELETE + PUT; the address is
        # whatever the model chose (possibly the same one), but the delete
        # must have happened and the data must be the new value.
        assert warm_store.metrics.deletes == 1
        assert warm_store.metrics.puts == 2
        assert warm_store.get(b"k1") == value.tobytes()
        assert len(warm_store) == 1

    def test_latency_update_stays_in_place(self, rng):
        config = PNWConfig(num_buckets=32, value_bytes=24, n_clusters=2,
                           seed=0, update_mode="latency", n_init=1)
        store = PNWStore(config)
        store.warm_up(clustered_values(rng, 32, 24))
        store.put(b"k1", b"first")
        addr_before = store.index.get(b"k1".ljust(8, b"\x00"))
        report = store.update(b"k1", b"second")
        assert report.op == "update"
        assert store.index.get(b"k1".ljust(8, b"\x00")) == addr_before
        assert store.metrics.deletes == 0

    def test_update_missing_key_raises(self, warm_store):
        with pytest.raises(KeyNotFoundError):
            warm_store.update(b"ghost", b"v")


class TestRetraining:
    def test_load_factor_triggers_retrain(self, rng):
        config = PNWConfig(
            num_buckets=64, value_bytes=24, n_clusters=2, seed=0, n_init=1,
            load_factor=0.5, retrain_check_interval=1,
        )
        store = PNWStore(config)
        store.warm_up(clustered_values(rng, 64, 24))
        retrains_before = store.metrics.retrains
        for i in range(40):
            store.put(f"k{i}".encode(), b"v")
        assert store.metrics.retrains > retrains_before

    def test_retrain_preserves_live_data(self, warm_store, rng):
        for i in range(10):
            warm_store.put(f"k{i}".encode(), f"value-{i}".encode())
        warm_store.retrain()
        for i in range(10):
            assert warm_store.get(f"k{i}".encode()).startswith(
                f"value-{i}".encode()
            )

    def test_retrain_refiles_free_addresses(self, warm_store):
        warm_store.retrain()
        assert warm_store.pool.total_free == warm_store.config.num_buckets

    def test_first_training_is_automatic(self, rng):
        config = PNWConfig(
            num_buckets=64, value_bytes=24, n_clusters=2, seed=0, n_init=1,
            retrain_check_interval=1,
        )
        store = PNWStore(config)  # cold start, no warm_up
        assert not store.manager.is_trained
        for i in range(12):
            store.put(f"k{i}".encode(), bytes([i]) * 8)
        assert store.manager.is_trained


class TestRecovery:
    def test_crash_and_recover_restores_index(self, warm_store, rng):
        payloads = {}
        for i in range(12):
            key = f"key-{i}".encode()
            value = rng.integers(0, 256, 24, dtype=np.uint8).tobytes()
            warm_store.put(key, value)
            payloads[key] = value
        warm_store.crash()
        assert len(warm_store) == 0
        warm_store.recover()
        assert len(warm_store) == 12
        for key, value in payloads.items():
            assert warm_store.get(key) == value

    def test_recover_rebuilds_model_and_pool(self, warm_store):
        warm_store.put(b"live", b"v")
        warm_store.crash()
        warm_store.recover()
        assert warm_store.manager.is_trained
        assert (
            warm_store.pool.total_free
            == warm_store.config.num_buckets - 1
        )
        live_addr = warm_store.index.get(b"live".ljust(8, b"\x00"))
        assert live_addr not in warm_store.pool

    def test_recover_keeps_a_live_index(self, warm_store):
        """Without a crash the index is not rebuilt: ``recover`` keeps
        the live index object and its entries."""
        warm_store.put(b"live", b"v")
        index = warm_store.index
        entries = dict(index.items())
        warm_store.recover()
        assert warm_store.index is index
        assert dict(warm_store.index.items()) == entries
        assert warm_store.get(b"live").startswith(b"v")
        assert entries[b"live".ljust(8, b"\x00")] not in warm_store.pool


class TestAccounting:
    def test_reports_collected_when_enabled(self, warm_store):
        warm_store.metrics.keep_reports = True
        warm_store.put(b"k", b"v")
        assert len(warm_store.metrics.reports) == 1
        assert warm_store.metrics.reports[0].op == "put"

    def test_index_membership_checks_are_unaccounted(self, warm_store):
        """The batch planner tests key membership with a plain ``in``;
        that check must cost no DRAM traffic, or batched and sequential
        runs would account differently."""
        warm_store.put(b"k", b"v")
        dram = warm_store.memory.dram
        before = (dram.read_ops, dram.write_ops, dram.latency_ns)
        assert b"k" in warm_store.index
        assert b"absent" not in warm_store.index
        assert (dram.read_ops, dram.write_ops, dram.latency_ns) == before

    def test_total_latency_combines_model_and_nvm(self, warm_store):
        report = warm_store.put(b"k", bytes(24))
        assert report.total_latency_ns == pytest.approx(
            report.nvm_latency_ns + report.predict_ns
        )

    def test_validity_bitmap_tracks_liveness(self, warm_store):
        report = warm_store.put(b"k", b"v")
        assert warm_store._is_valid(report.address)
        warm_store.delete(b"k")
        assert not warm_store._is_valid(report.address)
