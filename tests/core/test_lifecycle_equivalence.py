"""``retrain()`` / ``recover()`` shortcuts leave the state the long way did.

The retrain path files free addresses under the labels the fit already
gave their rows, and recovery reads liveness and keys with one vectorised
pass each.  Each shortcut is checked here against the computation it
replaced, written out in the test: ``labels_for`` on the free rows, the
per-address ``_is_valid`` loop, and the per-row ``peek`` index rebuild.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PNWConfig, PNWStore
from repro.core.model_manager import ModelManager
from repro.index.dram_hash import DRAMHashIndex
from tests.conftest import clustered_values

FEATURE_CONFIGS = {
    "bit": dict(featurizer="bit"),
    "byte": dict(featurizer="byte"),
    "bit+pca": dict(featurizer="bit", pca_components=8),
    "byte+pca": dict(featurizer="byte", pca_components=5),
}


def make_config(**overrides) -> PNWConfig:
    base = dict(
        num_buckets=384,
        value_bytes=24,
        key_bytes=8,
        n_clusters=5,
        seed=7,
        n_init=1,
        max_iter=6,
    )
    base.update(overrides)
    return PNWConfig(**base)


def churned_store(**overrides) -> PNWStore:
    """Warmed, then 200 puts and 80 deletes: live rows, recycled rows and
    never-written rows all sit in the zone."""
    config = make_config(**overrides)
    rng = np.random.default_rng(42)
    store = PNWStore(config)
    store.warm_up(clustered_values(rng, config.num_buckets, config.value_bytes, 6, 0.1))
    values = clustered_values(rng, 200, config.value_bytes, 6, 0.1)
    keys = [b"k%05d" % i for i in range(200)]
    store.put_many(list(zip(keys, values)))
    store.delete_many(keys[20:100])
    return store


@pytest.fixture
def labels_for_calls(monkeypatch) -> list[int]:
    """Row counts of every ``ModelManager.labels_for`` call."""
    calls: list[int] = []
    original = ModelManager.labels_for

    def counting(self, rows):
        calls.append(len(rows))
        return original(self, rows)

    monkeypatch.setattr(ModelManager, "labels_for", counting)
    return calls


def assert_filed_as_labels_for_would(store: PNWStore) -> None:
    free = store.pool.free_addresses()
    assert free.size
    labels = store.manager.labels_for(np.asarray(store.nvm.contents)[free])
    expected = [
        free[labels == cluster].tolist()
        for cluster in range(store.manager.model.n_clusters)
    ]
    assert store.pool._free_lists == expected


class TestPoolFiling:
    @pytest.mark.parametrize("name", sorted(FEATURE_CONFIGS))
    def test_retrain_files_free_rows_under_their_fit_labels(
        self, name, labels_for_calls
    ):
        store = churned_store(**FEATURE_CONFIGS[name])
        store.retrain()
        assert labels_for_calls == []  # the fit's own labels were reused
        assert_filed_as_labels_for_would(store)

    @pytest.mark.parametrize("name", sorted(FEATURE_CONFIGS))
    def test_recover_files_free_rows_under_their_fit_labels(
        self, name, labels_for_calls
    ):
        store = churned_store(**FEATURE_CONFIGS[name])
        store.crash()
        store.recover()
        assert labels_for_calls == []
        assert_filed_as_labels_for_would(store)

    def test_incremental_refresh_does_not_reuse_stale_fit_labels(
        self, labels_for_calls
    ):
        store = churned_store(refresh_mode="incremental")
        assert store.manager.refresh_count == 0
        fit_labels = store.manager.model.labels_.copy()
        free = store.pool.free_addresses()

        store.retrain()  # nudges the centroids; the fit's labels are stale

        assert store.manager.refresh_count == 1
        assert store.manager.model.labels_ is None
        assert labels_for_calls == [free.size]
        assert_filed_as_labels_for_would(store)
        # The shortcut would have filed at least one row elsewhere.
        filed = np.array([store.pool.cluster_of(int(a)) for a in free])
        assert (filed != fit_labels[free]).any()

    def test_first_incremental_train_is_a_full_fit_and_reuses_its_labels(
        self, labels_for_calls
    ):
        store = churned_store(refresh_mode="incremental")
        store.crash()
        store.recover()
        assert store.manager.train_count == 1
        assert labels_for_calls == []
        assert_filed_as_labels_for_would(store)


class TestBitmapScan:
    @pytest.mark.parametrize("persist_flags", [True, False],
                             ids=["private", "dram-mirror"])
    @pytest.mark.parametrize("num_buckets", [1, 31, 32, 33, 100, 257])
    def test_mask_equals_per_address_loop(self, num_buckets, persist_flags):
        config = make_config(num_buckets=num_buckets, n_clusters=1,
                             persist_flags=persist_flags)
        store = PNWStore(config)
        rng = np.random.default_rng(num_buckets)
        for _round in range(3):
            flags = rng.random(num_buckets) < 0.5
            store._set_valid_many(np.flatnonzero(flags), True)
            store._set_valid_many(np.flatnonzero(~flags), False)
            loop = [store._is_valid(a) for a in range(num_buckets)]
            mask = store._valid_mask()
            assert mask.dtype == bool and mask.shape == (num_buckets,)
            assert mask.tolist() == loop == flags.tolist()

    def test_dram_flags_are_read_from_the_mirror(self):
        store = PNWStore(make_config(num_buckets=40, persist_flags=False))
        store._set_valid_many(np.array([0, 7, 39]), True)
        mask = store._valid_mask()
        assert np.flatnonzero(mask).tolist() == [0, 7, 39]
        mask[:] = False
        assert store._is_valid(7)  # a copy, not the mirror itself


class TestIndexRebuild:
    def test_recover_replays_the_per_row_rebuild(self):
        store = churned_store()
        config = store.config
        store.crash()

        reference = DRAMHashIndex(config.key_bytes)
        for address in range(config.num_buckets):
            if store._is_valid(address):
                bucket = store.nvm.peek(address)
                reference.put(bucket[: config.key_bytes].tobytes(), address)

        dram = store.memory.dram
        before = (dram.write_ops, dram.bytes_written, dram.latency_ns)
        reads_before = store.nvm.stats.total_reads
        store.recover()

        assert len(store) == len(reference) == 120
        # Same pairs, inserted in the same (address) order.
        assert list(store.index.items()) == list(reference.items())
        assert dram.write_ops - before[0] == reference.dram.write_ops
        assert dram.bytes_written - before[1] == reference.dram.bytes_written
        assert dram.latency_ns - before[2] == pytest.approx(reference.dram.latency_ns)
        # Recovery reads the zone unaccounted, as it always did.
        assert store.nvm.stats.total_reads == reads_before
