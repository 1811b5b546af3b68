"""Shared fixtures for the PNW reproduction test suite."""

from __future__ import annotations

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
