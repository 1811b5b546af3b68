"""A store's whole lifecycle leaves the state it left before the exact
integer K-Means kernels.

The bit and byte featurizers hand the fit ``uint8`` matrices, which take
the exact GEMV seeding distances, and ``recover()`` rebuilds the DRAM index in one bulk insert.  None of that may change a
durable byte, an exact counter or a centroid bit.  ``EXPECTED`` holds,
after each stage of warm_up → put_many → retrain → crash → recover,
:func:`~tests.conftest.state_digest` plus a digest of the model's
centroids and the DRAM counters, computed at the parent of those
changes (commit c92d7f2) with::

    PYTHONPATH=<parent>/src:. python -c \
      "from tests.core.test_lifecycle_digest import lifecycle_digests as d; \
       import pprint; pprint.pprint({k: d(k) for k in ('bit', 'byte')})"

Labels come from a float GEMM against the centroids, so like the golden
fits these digests are skipped on a BLAS that fails the golden canary.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import PNWConfig, PNWStore
from tests.conftest import clustered_values, state_digest
from tests.ml.test_kmeans_golden import CANARY, compute_canary


def _model_digest(store: PNWStore) -> str:
    """Centroids of the store's model and the DRAM region's counters."""
    dram = store.memory.dram
    digest = hashlib.sha256(store.manager.model.cluster_centers_.tobytes())
    digest.update(repr((dram.bytes_written, dram.write_ops, dram.bytes_read,
                        dram.read_ops, dram.latency_ns)).encode())
    return digest.hexdigest()


def lifecycle_digests(featurizer: str) -> dict[str, str]:
    """Digests of one store after each stage of its lifecycle."""
    config = PNWConfig(
        num_buckets=512,
        value_bytes=24,
        key_bytes=8,
        n_clusters=6,
        featurizer=featurizer,
        seed=7,
        n_init=2,
        max_iter=30,
        load_factor=0.5,
    )
    rng = np.random.default_rng(2021)
    store = PNWStore(config)
    digests = {}

    def record(stage: str) -> None:
        digests[stage] = state_digest(store)
        digests[f"{stage}/model"] = _model_digest(store)

    store.warm_up(clustered_values(rng, config.num_buckets, config.value_bytes, 7, 0.08))
    record("warm_up")
    # Short keys end in NUL padding, which the rebuilt index must keep.
    keys = [b"k%04d" % i for i in range(300)]
    values = clustered_values(rng, len(keys), config.value_bytes, 7, 0.08)
    store.put_many(list(zip(keys, values)))
    assert store.metrics.retrains == 2  # warm_up's, then one in situ
    store.delete_many(keys[40:120])
    record("put_many")
    store.retrain()
    record("retrain")
    index_before = sorted(store.index.items())
    store.crash()
    store.recover()
    assert sorted(store.index.items()) == index_before
    record("recover")
    return digests


EXPECTED = {
    "bit": {
        "warm_up": "e1f6cb273b24e8894e953a903be43a0287b51f0f237c765bdd5b216e6ee5ebf0",
        "warm_up/model": "541202470be03ea92227a3365f4bed48f1bbd58e8fa8fe94419636d91079160a",
        "put_many": "99d1fad698c8bb8b8073364e175651129ba28abebc14ea66a147f5d20073cfaa",
        "put_many/model": "b0b79cc789a3a05aba41e5d7975ec187adb7155ec276e48534fab8f4b6c15841",
        "retrain": "303526d4a000542b3a87548af560b2f91ad21ac66cfa632cf4156c46d526c4dc",
        "retrain/model": "05a31dd56ba7914838b11730a0426b26c4d8afb38620a2479b3950f103889284",
        "recover": "0bff19692ef26e8c6b5e1aa61a138b17d2a47081f7ea0c8e973a7cdf410759c5",
        "recover/model": "0878792c9689b571dce4407cd66782d3c26808818edf76245fe62c4fce912e61",
    },
    "byte": {
        "warm_up": "7d50c42efc511d441ad0317c515f3a3caec5202eb9f53ca03536be3e21870bc4",
        "warm_up/model": "f4a04a2ab3d703f61736befa6a30517262b99d3ec92d85ef226cabe26292ada4",
        "put_many": "e4bc93d51b33534f6981613106ba487792b073339d44970744eb92709a36d65a",
        "put_many/model": "a80a645474cf318783c3c95c3626edb534334a1721cb00e2116f1aeb23f64527",
        "retrain": "31f785677b3b3eafe3d1b1160dcbdec61c28a5c54c817055cefc7692745afd24",
        "retrain/model": "6a013094c71077cc63e977a870dc8f2811c4106e294b15d30cb3465236963dc4",
        "recover": "48d9532b3160c9dd4a61b9fe6e2a9272b2f9bc5edc0a43411b61fb347e5dd648",
        "recover/model": "9a3e2fb395960cd96cf06b45d7f47100a9025aa10d09ce41aace4de9e86cdde8",
    },
}


@pytest.fixture(scope="module")
def canary_matches() -> None:
    if compute_canary() != CANARY:
        pytest.skip("this BLAS rounds GEMM/SVD unlike the golden platform")


@pytest.mark.parametrize("featurizer", ["bit", "byte"])
def test_lifecycle_matches_parent_digests(canary_matches, featurizer):
    assert lifecycle_digests(featurizer) == EXPECTED[featurizer]
