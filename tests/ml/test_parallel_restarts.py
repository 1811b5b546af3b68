"""Tests for the restart-level training parallelism (Fig. 11 machinery)."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.errors import ReproError
from repro.ml import KMeans
from repro.ml._parallel import LloydRun, assign_dense, run_restarts, single_run


@pytest.fixture
def X(rng) -> np.ndarray:
    centers = np.array([[0.0, 0.0], [8.0, 8.0]])
    return np.concatenate([c + rng.normal(0, 0.3, (40, 2)) for c in centers])


class TestSingleRun:
    def test_returns_converged_run(self, X):
        run = single_run(X, 2, max_iter=50, scaled_tol=1e-8, seed=3)
        assert isinstance(run, LloydRun)
        assert run.centers.shape == (2, 2)
        assert run.n_iter <= 50
        assert run.history[-1] == pytest.approx(run.sse)

    def test_deterministic_per_seed(self, X):
        a = single_run(X, 2, 50, 1e-8, seed=3)
        b = single_run(X, 2, 50, 1e-8, seed=3)
        assert np.array_equal(a.centers, b.centers)
        assert a.sse == b.sse

    def test_history_is_monotone(self, X):
        run = single_run(X, 2, 50, 0.0, seed=3)
        history = np.asarray(run.history)
        assert np.all(np.diff(history) <= 1e-9 * max(1.0, history[0]))


class TestRunRestarts:
    def test_serial_returns_one_run_per_seed(self, X):
        runs = run_restarts(X, 2, 20, 1e-8, [1, 2, 3], n_jobs=1)
        assert len(runs) == 3

    def test_parallel_equals_serial(self, X):
        seeds = [10, 11, 12, 13]
        serial = run_restarts(X, 2, 20, 1e-8, seeds, n_jobs=1)
        parallel = run_restarts(X, 2, 20, 1e-8, seeds, n_jobs=2)
        for a, b in zip(serial, parallel):
            assert a.sse == pytest.approx(b.sse)
            assert np.allclose(a.centers, b.centers)

    def test_single_seed_skips_pool(self, X):
        runs = run_restarts(X, 2, 20, 1e-8, [5], n_jobs=4)
        assert len(runs) == 1


@pytest.fixture
def spawn_is_default():
    """The process-wide default start method is ``spawn`` (the default
    from Python 3.14, and what any ``set_start_method`` caller gets)."""
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        yield
    finally:
        multiprocessing.set_start_method(before, force=True)


class TestStartMethod:
    def test_parallel_fit_ignores_the_default_start_method(
        self, X, spawn_is_default
    ):
        # Workers read the matrix from a module global only a forked
        # child inherits; a spawned one would import a fresh module.
        serial = KMeans(2, n_init=2, seed=4, n_jobs=1).fit(X)
        parallel = KMeans(2, n_init=2, seed=4, n_jobs=2).fit(X)
        assert np.array_equal(serial.cluster_centers_, parallel.cluster_centers_)
        assert np.array_equal(serial.labels_, parallel.labels_)
        assert serial.inertia_ == parallel.inertia_

    def test_platform_without_fork_is_refused_up_front(self, X, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(ReproError, match="fork"):
            run_restarts(X, 2, 20, 1e-8, [1, 2], n_jobs=2)


class TestAssignDense:
    def test_sse_matches_manual(self, X):
        centers = np.array([[0.0, 0.0], [8.0, 8.0]])
        labels, sums, counts, sse = assign_dense(X, centers)
        d2 = ((X[:, None, :] - centers[None]) ** 2).sum(axis=2)
        assert sse == pytest.approx(d2.min(axis=1).sum())
        assert counts.sum() == X.shape[0]
        # Per-cluster sums reconstruct the member means.
        for c in range(2):
            members = X[labels == c]
            if len(members):
                assert np.allclose(sums[c] / counts[c], members.mean(axis=0))
