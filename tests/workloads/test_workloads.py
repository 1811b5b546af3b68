"""Tests for every workload generator: shape, determinism, structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro._bitops import hamming_distance
from repro.workloads import (
    SHERBROOKE,
    TRAFFIC_SEQ2,
    AmazonAccessWorkload,
    CIFARLikeWorkload,
    DocWordsWorkload,
    FashionLikeWorkload,
    MixtureWorkload,
    MNISTLikeWorkload,
    NormalIntWorkload,
    RoadNetworkWorkload,
    UniformIntWorkload,
    VideoWorkload,
    make_workload,
    workload_names,
)

ALL_NAMES = [
    "normal", "uniform", "amazon", "roadnet", "docwords",
    "mnist", "fashion", "cifar", "sherbrooke", "seq2",
    "zipfian", "churn",
]


@pytest.mark.parametrize("name", ALL_NAMES)
class TestGeneratorContract:
    def test_shape_and_dtype(self, name):
        workload = make_workload(name, seed=1)
        items = workload.generate(16)
        assert items.shape == (16, workload.item_bytes)
        assert items.dtype == np.uint8

    def test_deterministic_under_seed(self, name):
        a = make_workload(name, seed=9).generate(8)
        b = make_workload(name, seed=9).generate(8)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, name):
        a = make_workload(name, seed=1).generate(8)
        b = make_workload(name, seed=2).generate(8)
        assert not np.array_equal(a, b)

    def test_split_old_new_continues_stream(self, name):
        w1 = make_workload(name, seed=5)
        old, new = w1.split_old_new(4, 4)
        w2 = make_workload(name, seed=5)
        combined = w2.generate(8)
        assert np.array_equal(np.vstack([old, new]), combined)

    def test_item_bytes_word_aligned(self, name):
        # Buckets must be 4-byte-word aligned for the device.
        workload = make_workload(name, seed=0)
        assert workload.item_bytes % 4 == 0

    def test_batches_chunking_and_determinism(self, name):
        w1 = make_workload(name, seed=5)
        chunks = list(w1.batches(10, 4))
        assert [c.shape[0] for c in chunks] == [4, 4, 2]
        assert all(c.shape[1] == w1.item_bytes for c in chunks)
        # Same seed + same chunking -> the same stream.
        w2 = make_workload(name, seed=5)
        assert np.array_equal(np.vstack(chunks), np.vstack(list(w2.batches(10, 4))))
        # Chunks continue one stream: a following batch differs.
        follow_on = w1.batches(4, 4)
        assert not np.array_equal(next(follow_on), chunks[0])

    def test_batches_reject_bad_batch_size(self, name):
        with pytest.raises(ValueError, match="batch_size"):
            list(make_workload(name, seed=0).batches(4, 0))


class TestRegistry:
    def test_all_names_registered(self):
        assert set(workload_names()) == set(ALL_NAMES)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown workload"):
            make_workload("nope")


def mean_pairwise_hamming(items: np.ndarray, rng, pairs: int = 200) -> float:
    n = items.shape[0]
    idx = rng.integers(0, n, size=(pairs, 2))
    return float(np.mean([
        hamming_distance(items[i], items[j]) for i, j in idx
    ]))


class TestClusterability:
    """The structural property each stand-in must deliver (README.md "Layout")."""

    def test_amazon_within_role_closer_than_across(self, rng):
        w = AmazonAccessWorkload(seed=3, n_roles=4, flip_rate=0.005)
        items = w.generate(200)
        overall = mean_pairwise_hamming(items, rng)
        # Items re-generated from one role only:
        single = AmazonAccessWorkload(seed=3, n_roles=1, flip_rate=0.005)
        within = mean_pairwise_hamming(single.generate(200), rng)
        assert within < overall * 0.5

    def test_amazon_sparse(self):
        items = AmazonAccessWorkload(seed=0, density=0.08).generate(100)
        ones = np.unpackbits(items, axis=1).mean()
        assert ones < 0.15

    def test_uniform_is_incompressible(self, rng):
        items = UniformIntWorkload(seed=0).generate(400)
        mean = mean_pairwise_hamming(items, rng)
        # Random 64-bit items differ in ~32 bits.
        assert 28 < mean < 36

    def test_normal_clusters_better_than_uniform(self):
        """Pairwise bit distance of normals near 2^31 looks random (the
        carry effect), but *clustering* recovers the structure: k-means
        reduces inertia more on the normal stream than on uniform."""
        from repro._bitops import unpack_bits
        from repro.ml import KMeans

        def gain(workload):
            X = unpack_bits(workload.generate(600)).astype(np.float64)
            i1 = KMeans(1, seed=0, n_init=1).fit(X).inertia_
            i16 = KMeans(16, seed=0, n_init=1).fit(X).inertia_
            return i16 / i1

        assert gain(NormalIntWorkload(seed=0)) < gain(UniformIntWorkload(seed=0))

    def test_roadnet_regional_prefix_sharing(self, rng):
        w = RoadNetworkWorkload(seed=1, n_regions=1)
        items = w.generate(100)
        # Same region => identical high-order coordinate bytes most often.
        firsts = items[:, 0]
        assert len(np.unique(firsts)) <= 2

    def test_docwords_topics_cluster(self, rng):
        single = DocWordsWorkload(seed=2, n_topics=1)
        multi = DocWordsWorkload(seed=2, n_topics=10)
        within = mean_pairwise_hamming(single.generate(200), rng)
        across = mean_pairwise_hamming(multi.generate(200), rng)
        assert within < across

    def test_video_consecutive_frames_similar(self, rng):
        w = VideoWorkload(SHERBROOKE, seed=4)
        frames = w.generate(20)
        consecutive = np.mean([
            hamming_distance(frames[i], frames[i + 1]) for i in range(19)
        ])
        shuffled = mean_pairwise_hamming(frames, rng, pairs=50)
        assert consecutive <= shuffled

    def test_video_profiles_differ(self):
        assert SHERBROOKE.frame_bytes != TRAFFIC_SEQ2.frame_bytes
        a = VideoWorkload(SHERBROOKE, seed=1).generate(2)
        assert a.shape[1] == 64 * 64

    def test_mnist_fashion_families_disjoint(self, rng):
        """The Fig. 10 premise: the two image families are far apart."""
        mnist = MNISTLikeWorkload(seed=5).generate(50)
        fashion = FashionLikeWorkload(seed=5).generate(50)
        within_mnist = mean_pairwise_hamming(mnist, rng, pairs=50)
        cross = float(np.mean([
            hamming_distance(mnist[i], fashion[i]) for i in range(50)
        ]))
        assert cross > within_mnist

    def test_mnist_sparser_than_fashion(self):
        mnist = MNISTLikeWorkload(seed=0).generate(50)
        fashion = FashionLikeWorkload(seed=0).generate(50)
        # Stroke glyphs have much less "ink" than filled apparel shapes.
        assert (mnist > 100).mean() < (fashion > 100).mean()

    def test_cifar_class_palettes(self):
        items = CIFARLikeWorkload(seed=0).generate(50)
        assert items.shape == (50, 32 * 32 * 3)


class TestMixture:
    def test_weights_respected_statistically(self):
        # Degenerate sources make attribution easy: all-zero vs all-255.
        class Zeros(MNISTLikeWorkload):
            def generate(self, n):
                return np.zeros((n, self.item_bytes), dtype=np.uint8)

        class Ones(MNISTLikeWorkload):
            def generate(self, n):
                return np.full((n, self.item_bytes), 255, dtype=np.uint8)

        mix = MixtureWorkload([Zeros(seed=0), Ones(seed=0)], [1, 3], seed=0)
        items = mix.generate(400)
        ones_fraction = (items[:, 0] == 255).mean()
        assert 0.6 < ones_fraction < 0.9

    def test_mismatched_widths_rejected(self):
        with pytest.raises(ValueError, match="item_bytes"):
            MixtureWorkload([MNISTLikeWorkload(seed=0), CIFARLikeWorkload(seed=0)])

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            MixtureWorkload([])

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            MixtureWorkload([MNISTLikeWorkload(seed=0)], [1, 2])
        with pytest.raises(ValueError):
            MixtureWorkload([MNISTLikeWorkload(seed=0)], [0.0])


class TestValidation:
    def test_workload_rejects_bad_item_bytes(self):
        with pytest.raises(ValueError):
            AmazonAccessWorkload(item_bytes=0)

    def test_amazon_param_validation(self):
        with pytest.raises(ValueError):
            AmazonAccessWorkload(density=1.5)
        with pytest.raises(ValueError):
            AmazonAccessWorkload(flip_rate=0.7)

    def test_roadnet_minimum_width(self):
        with pytest.raises(ValueError):
            RoadNetworkWorkload(item_bytes=8)
