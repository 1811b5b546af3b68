"""Golden fits and kernel oracles: the K-Means kernels are bit-stable.

Pool filing, and through it every exact wear counter the perf ledger
reports, is a function of the fitted centroids and labels — so a faster
kernel may only *reorder work*, never float operations.  Two layers pin
that contract:

* ``GOLDEN`` holds SHA-256 digests of ``cluster_centers_``, ``labels_``,
  ``inertia_history_``, ``n_iter_`` and a ``predict`` on a row subset,
  generated at commit 933425d (before the kernels were split) with::

      PYTHONPATH=<parent>/src:. python -c \
        "from tests.ml.test_kmeans_golden import compute_digests as c; \
         import pprint; pprint.pprint(c())"

  Float results depend on how the BLAS build rounds a GEMM and an SVD,
  so ``CANARY`` digests two plain numpy products of a fixed matrix; on a
  platform whose BLAS rounds them differently the goldens are skipped
  (they say nothing there) and the oracle tests below still run.
* The oracle tests state the order-preserving claims directly against
  reference loops written here: per-cluster accumulation equals
  ``np.add.at`` bit for bit, and blocked k-means++ distances equal the
  unblocked ``einsum``.

The bit and byte featurizers return ``uint8`` matrices, and the fit
seeds those with exact integer GEMV distances instead of the ordered
float ones.  The ``bit/*`` and ``byte/*`` goldens were generated before
that kernel existed and still pass through it unchanged; the last
section checks that they really take that path and states each kernel
an exact fit runs against its oracle on the largest values a ``uint8``
row can hold.
"""

from __future__ import annotations

import hashlib
import multiprocessing

import numpy as np
import pytest

from repro.core.featurizer import make_featurizer
from repro.ml import KMeans, kmeans_plus_plus
from repro.ml import _parallel
from repro.ml import kmeans as kmeans_module
from repro.ml._parallel import assign_dense

FAST = dict(n_init=1, max_iter=3)
FULL = dict(n_init=3, max_iter=100)


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _byte_rows() -> np.ndarray:
    """600 rows of 16 bytes: 10 templates under 22% bit noise, so six
    clusters never fit cleanly and Lloyd needs several passes."""
    rng = np.random.default_rng(2021)
    templates = rng.integers(0, 256, size=(10, 16), dtype=np.uint8)
    picks = rng.integers(0, 10, size=600)
    noise = np.packbits(rng.random((600, 128)) < 0.22, axis=1)
    return templates[picks] ^ noise


def _gaussian() -> np.ndarray:
    rng = np.random.default_rng(77)
    centers = rng.normal(0.0, 2.0, size=(4, 9))
    return np.concatenate(
        [c + rng.normal(0.0, 1.5, size=(150, 9)) for c in centers]
    )


def _single_column() -> np.ndarray:
    rng = np.random.default_rng(5)
    return np.concatenate(
        [rng.normal(m, 1.5, size=200) for m in (-4.0, 0.0, 5.0)]
    )[:, None]


def _duplicates() -> np.ndarray:
    """Four distinct rows, ten copies each: k-means++ must seed two of
    six centroids on duplicates, whose clusters come up empty."""
    rng = np.random.default_rng(9)
    return np.repeat(rng.normal(0.0, 3.0, size=(4, 5)), 10, axis=0)


def _fit_digest(X: np.ndarray, n_clusters: int, **params) -> str:
    model = KMeans(n_clusters, seed=11, **params).fit(X)
    return _sha(
        model.cluster_centers_,
        model.labels_.astype(np.int64),
        np.asarray(model.inertia_history_, dtype=np.float64),
        np.int64(model.n_iter_),
        model.predict(X[::7]).astype(np.int64),
    )


def compute_digests() -> dict[str, str]:
    """Every golden configuration's digest under the imported ``repro``."""
    rows = _byte_rows()
    digests = {}
    for kind, pca in (("bit", None), ("byte", None), ("byte", 6), ("bit", 12)):
        features = make_featurizer(kind, pca, seed=3).fit_transform(rows)
        name = kind if pca is None else f"{kind}+pca{pca}"
        digests[f"{name}/fast"] = _fit_digest(features, 6, **FAST)
        digests[f"{name}/full"] = _fit_digest(features, 6, **FULL)
    digests["gaussian"] = _fit_digest(_gaussian(), 5, **FULL)
    digests["single-column"] = _fit_digest(_single_column(), 4, **FULL)
    digests["reseed-empty"] = _fit_digest(_duplicates(), 6, **FAST)
    digests["n_jobs=2"] = _fit_digest(_gaussian(), 5, n_jobs=2, **FULL)
    return digests


def compute_canary() -> str:
    G = np.random.default_rng(1).normal(size=(300, 40))
    return _sha(G @ G[:7].T, np.linalg.svd(G - G.mean(axis=0))[1])


CANARY = "75cb08a1cce1b7527d385c0ee4c018902a08b197b9202a1ad56a12aed37950ff"

GOLDEN = {
    "bit/fast": "368f76f53a26e97f5c84afe77bac3327bceb46051809028b0c7fde38337f409d",
    "bit/full": "7201ad2bd78addc47053bc322ec036c437c72506a7036b2e8696577f18247c11",
    "byte/fast": "b56731697ff3dfd72aca8f54343444548b9c9ceaee1580af56068f8a68d637e2",
    "byte/full": "d8d53fe957fd532c0beb0fde43c50670a93c146bc8c7db8b7f679c1e7600dc3b",
    "byte+pca6/fast": "36d6312ccc558231200af6935d0150e9e97b211296ad24ae7b177675147b5c9e",
    "byte+pca6/full": "f4793f520278b13db37335aee0def98eab1ce45795c621faa9fd564cd4161b86",
    "bit+pca12/fast": "16f2b58fb4890b781434b657d2e76d076f139d8557df53a4cb645278591a6974",
    "bit+pca12/full": "29d9895287bfc6e102e0c1ee1a9aa54ae00607a8b087c8c3c9f4aa5f17bacb86",
    "gaussian": "02bee7e50614b59c8b6b7fdddb94a3e0ffea048c696b50e98413c2f7a2fb7a10",
    "single-column": "3adc9f81c0749e0bc05c466ebbf536aba000510d3923e1c3d73e049234734fb0",
    "reseed-empty": "60a6b64b0e94b6e7a535e9aeb1e919b93e226e030caf9fe5c40b304dbfceb70f",
    "n_jobs=2": "02bee7e50614b59c8b6b7fdddb94a3e0ffea048c696b50e98413c2f7a2fb7a10",
}


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    if compute_canary() != CANARY:
        pytest.skip("this BLAS rounds GEMM/SVD unlike the golden platform")
    return compute_digests()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fit_matches_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]


def test_golden_covers_every_configuration(digests):
    assert sorted(digests) == sorted(GOLDEN)


def test_reseed_case_really_reseeds(monkeypatch):
    calls = []
    original = _parallel._reseed_empty

    def counting(X, centers, labels, empty):
        calls.append(empty.size)
        return original(X, centers, labels, empty)

    monkeypatch.setattr(_parallel, "_reseed_empty", counting)
    KMeans(6, seed=11, **FAST).fit(_duplicates())
    assert calls and all(size > 0 for size in calls)


# ---------------------------------------------------------------------- #
# oracles                                                                 #
# ---------------------------------------------------------------------- #


def _wild(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Floats spanning ~24 orders of magnitude, both signs, with exact
    and negative zeros mixed in — any reassociation of their sum shows."""
    X = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-12, 13, size=(n, m))
    X[rng.random((n, m)) < 0.05] = 0.0
    X[rng.random((n, m)) < 0.05] = -0.0
    return X


@pytest.mark.parametrize("n_features", [1, 2, 40])
@pytest.mark.parametrize("seed", range(4))
def test_accumulation_equals_add_at(n_features, seed):
    rng = np.random.default_rng(seed)
    X = _wild(rng, 700, n_features)
    # Eight well-separated centroids that own rows, one that owns a
    # single row, one that owns none.
    centers = _wild(rng, 8, n_features)
    lone = np.full((1, n_features), 1e30)
    X[13] = lone[0]
    empty = np.full((1, n_features), -1e30)
    centers = np.concatenate([centers, lone, empty])

    labels, sums, counts, _sse = assign_dense(X, centers)

    expected = np.zeros_like(centers)
    np.add.at(expected, labels, X)
    assert sums.tobytes() == expected.tobytes()  # bitwise, incl. zero signs
    assert np.array_equal(counts, np.bincount(labels, minlength=10))
    assert counts[8] == 1 and counts[9] == 0
    assert not sums[9].any()


def _unblocked_sq_distances(X: np.ndarray, center: np.ndarray) -> np.ndarray:
    diff = X - center
    return np.einsum("ij,ij->i", diff, diff)


@pytest.fixture
def blocks_of_32_rows(monkeypatch):
    """Seven-feature matrices are cut into 32-row distance blocks."""
    monkeypatch.setattr(kmeans_module, "_BLOCK_ELEMENTS", 7 * 32)


@pytest.mark.parametrize("n_rows", [1, 31, 32, 33, 100, 257])
def test_blocked_distances_equal_unblocked_einsum(blocks_of_32_rows, n_rows):
    X = _wild(np.random.default_rng(n_rows), n_rows, 7)
    center = X[n_rows // 2].copy()
    got = kmeans_module._sq_distances(X, center)
    assert got.tobytes() == _unblocked_sq_distances(X, center).tobytes()


def test_default_blocks_equal_unblocked_einsum():
    X = _wild(np.random.default_rng(8), 300, 700)  # 46-row blocks
    got = kmeans_module._sq_distances(X, X[3])
    assert got.tobytes() == _unblocked_sq_distances(X, X[3]).tobytes()


def test_seeding_picks_what_unblocked_distances_pick(blocks_of_32_rows):
    X = _wild(np.random.default_rng(3), 257, 7)
    n, n_clusters = 257, 6

    def reference(rng):
        centers = np.empty((n_clusters, X.shape[1]))
        centers[0] = X[int(rng.integers(n))]
        closest = _unblocked_sq_distances(X, centers[0])
        for i in range(1, n_clusters):
            total = closest.sum()
            if total <= 0.0:
                idx = int(rng.integers(n))
            else:
                idx = int(rng.choice(n, p=closest / total))
            centers[i] = X[idx]
            np.minimum(
                closest, _unblocked_sq_distances(X, centers[i]), out=closest
            )
        return centers

    got = kmeans_plus_plus(X, n_clusters, np.random.default_rng(4))
    assert got.tobytes() == reference(np.random.default_rng(4)).tobytes()


# ---------------------------------------------------------------------- #
# the exact integer path                                                  #
# ---------------------------------------------------------------------- #


def _extreme_uint8(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Random bytes with all-0xFF and all-zero rows mixed in: the largest
    ``|x|^2`` and ``x.c`` a ``uint8`` row can produce."""
    X = rng.integers(0, 256, size=(n, m), dtype=np.uint8)
    X[::5] = 0xFF
    X[1::7] = 0
    return X


@pytest.mark.parametrize("kind", ["bit", "byte"])
def test_golden_uint8_fits_take_the_exact_kernels(monkeypatch, kind):
    features = make_featurizer(kind, None, seed=3).fit_transform(_byte_rows())
    assert features.dtype == np.uint8
    seen = []
    seed_centers = kmeans_module._seed_centers

    def spy_seed(X, n_clusters, rng, x_sq=None):
        seen.append(x_sq is not None)
        return seed_centers(X, n_clusters, rng, x_sq)

    monkeypatch.setattr(kmeans_module, "_seed_centers", spy_seed)
    KMeans(6, seed=11, **FULL).fit(features)
    assert seen == [True] * FULL["n_init"]
    # The float copy of the same features keeps the ordered seeding.
    seen.clear()
    KMeans(6, seed=11, **FAST).fit(features.astype(np.float64))
    assert seen == [False]


@pytest.mark.parametrize(
    "n_rows, n_features",
    [(40, 16), (33, 4096), (9, 32768)],
    ids=["16-bytes", "4096-byte-features", "32768-bit-features"],
)
def test_exact_distances_equal_unblocked_einsum(n_rows, n_features):
    rng = np.random.default_rng(n_features)
    X = _extreme_uint8(rng, n_rows, n_features)
    if n_features == 32768:
        X = np.unpackbits(X[:, : n_features // 8], axis=1)
    X = X.astype(np.float64)
    x_sq = _parallel.row_sq_norms(X)
    for idx in (0, 1, n_rows - 1):  # an all-0xFF, an all-zero, a random row
        got = kmeans_module._exact_sq_distances(X, x_sq, idx)
        assert got.tobytes() == _unblocked_sq_distances(X, X[idx]).tobytes()


@pytest.mark.parametrize("kind", ["bit", "byte"])
def test_exact_seeding_picks_what_float_seeding_picks(kind):
    X = make_featurizer(kind).fit_transform(
        _extreme_uint8(np.random.default_rng(6), 300, 24)
    )
    X = X.astype(np.float64)
    x_sq = _parallel.row_sq_norms(X)
    got = kmeans_module._seed_centers(X, 8, np.random.default_rng(4), x_sq)
    want = kmeans_module._seed_centers(X, 8, np.random.default_rng(4))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_features", [1, 2, 40, 4096])
def test_uint8_cluster_sums_equal_add_at(n_features):
    rng = np.random.default_rng(n_features)
    X = _extreme_uint8(rng, 700, n_features).astype(np.float64)
    labels = rng.integers(0, 9, size=700)
    labels[labels == 7] = 8  # cluster 7 comes up empty
    labels[13] = 9  # cluster 9 owns one row

    sums, counts = _parallel.cluster_sums(X, labels, 10)

    expected = np.zeros((10, n_features))
    np.add.at(expected, labels, X)
    assert sums.tobytes() == expected.tobytes()
    assert counts[7] == 0 and counts[9] == 1
    assert not sums[7].any()


@pytest.mark.parametrize("n_rows", [1, 31, 32, 33, 100, 257])
@pytest.mark.parametrize("dtype", ["float", "uint8"])
def test_blocked_variance_equals_np_var(blocks_of_32_rows, n_rows, dtype):
    rng = np.random.default_rng(n_rows)
    if dtype == "float":
        X = _wild(rng, n_rows, 7)
    else:
        X = _extreme_uint8(rng, n_rows, 7)
    got = kmeans_module._column_variance(X)
    assert got.tobytes() == np.var(X, axis=0).tobytes()


@pytest.mark.parametrize("n_features", [1, 700, 32768])
def test_default_block_variance_equals_np_var(n_features):
    rng = np.random.default_rng(n_features)
    X = _extreme_uint8(rng, 301, n_features)
    for data in (X, X.astype(np.float64) / 3.0):
        got = kmeans_module._column_variance(data)
        assert got.tobytes() == np.var(data, axis=0).tobytes()


@pytest.mark.parametrize("kind", ["bit", "byte"])
def test_uint8_fit_equals_float_fit(kind):
    """The exact seeding and the ordered float seeding fit the same bits."""
    features = make_featurizer(kind).fit_transform(_byte_rows())
    exact = _fit_digest(features, 6, **FULL)
    assert exact == _fit_digest(features.astype(np.float64), 6, **FULL)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="n_jobs > 1 needs the fork start method",
)
@pytest.mark.parametrize("kind", ["bit", "byte"])
def test_uint8_parallel_restarts_equal_serial(kind):
    features = make_featurizer(kind).fit_transform(_byte_rows())
    assert features.dtype == np.uint8
    serial = _fit_digest(features, 6, n_jobs=1, **FULL)
    assert _fit_digest(features, 6, n_jobs=2, **FULL) == serial
