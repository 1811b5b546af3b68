"""Shared fixtures for the PNW reproduction test suite."""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pytest

from repro import PNWConfig, PNWStore


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: example smoke tests that take several seconds"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_config() -> PNWConfig:
    """A small but fully featured store configuration."""
    return PNWConfig(
        num_buckets=128,
        value_bytes=24,
        key_bytes=8,
        n_clusters=4,
        seed=7,
        n_init=1,
        max_iter=25,
    )


@pytest.fixture
def warm_store(small_config: PNWConfig, rng: np.random.Generator) -> PNWStore:
    """A store warmed with clusterable old data and a trained model."""
    templates = rng.integers(0, 256, size=(4, small_config.value_bytes), dtype=np.uint8)
    picks = rng.integers(0, 4, size=small_config.num_buckets)
    noise = (rng.random((small_config.num_buckets, small_config.value_bytes)) < 0.02)
    old = templates[picks] ^ noise.astype(np.uint8)
    store = PNWStore(small_config)
    store.warm_up(old)
    return store


def clustered_values(
    rng: np.random.Generator,
    n: int,
    width: int,
    n_classes: int = 4,
    flip_rate: float = 0.02,
) -> np.ndarray:
    """Byte rows drawn from a few templates with light bit noise."""
    templates = rng.integers(0, 256, size=(n_classes, width), dtype=np.uint8)
    picks = rng.integers(0, n_classes, size=n)
    noise_bits = (rng.random((n, width * 8)) < flip_rate).astype(np.uint8)
    noise = np.packbits(noise_bits, axis=1)
    return templates[picks] ^ noise


def crc_order(keys: list[bytes]) -> list[bytes]:
    """A fixed shuffle of ``keys`` unrelated to their insertion order
    (``hash(bytes)`` is salted per process; CRC-32 is not)."""
    return sorted(keys, key=zlib.crc32)


def near_values(rng: np.random.Generator, old: np.ndarray,
                keys: list[bytes]) -> list[tuple[bytes, bytes]]:
    """Values a few bits off rows the zone already holds, so a steered
    write flips few cells and only some writes land on a worn one."""
    rows = old[rng.integers(0, len(old), size=len(keys))]
    noise = np.packbits(rng.random((len(keys), old.shape[1] * 8)) < 0.02, axis=1)
    return [(key, (rows[i] ^ noise[i]).tobytes())
            for i, key in enumerate(keys)]


#: The :class:`OperationReport` fields ``state_digest`` hashes: every
#: field except the wall-clock ``predict_ns``, named explicitly so the
#: digest of a report does not depend on the dataclass's field list.
REPORT_DIGEST_FIELDS = (
    "op", "key", "address", "cluster", "fallback_used", "bit_updates",
    "words_touched", "lines_touched", "nvm_latency_ns", "retrained",
)


def state_digest(store: PNWStore, reports=()) -> str:
    """SHA-256 of everything a leaf store keeps durably or accounts
    exactly: data zone, flag bitmap *contents*, index entries, data-zone
    wear (per address and totals), pool free lists in order, operation
    counters, retired rows and media counters — plus ``reports`` as
    their :data:`REPORT_DIGEST_FIELDS`.  Flag-region write *counts* are
    left out on purpose: batching may lower them."""
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                part = np.ascontiguousarray(part).tobytes()
            elif not isinstance(part, bytes):
                part = repr(part).encode()
            digest.update(part + b"|")

    feed(store.nvm.snapshot(), store.flags_nvm.snapshot())
    feed(sorted(store.index.items()))
    feed(store.nvm.stats.writes_per_address, store.nvm.stats.summary())
    feed(store.pool._free_lists, store.pool._available)
    metrics = store.metrics
    feed(len(store), metrics.puts, metrics.gets, metrics.deletes,
         metrics.updates, metrics.retrains, metrics.fallbacks)
    feed(store.manager.model_version, store._mutations_since_check)
    feed(store.bad_rows.retired_addresses(), store.media_stats.as_dict())
    for report in list(metrics.reports) + list(reports):
        feed(tuple(getattr(report, name) for name in REPORT_DIGEST_FIELDS))
    return digest.hexdigest()
