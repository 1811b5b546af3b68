"""Multi-process k-means training for the Fig. 11 experiment.

The paper retrains its model "on a single core" versus "on all 4 cores"
(§VI-F) with scikit-learn, whose classic ``n_jobs`` semantics ran the
``n_init`` k-means++ restarts in parallel processes.  We reproduce that
design: each worker runs one complete seeded Lloyd optimisation and the
parent keeps the lowest-SSE run.

The training matrix is published to workers through a module-level global
*before* the pool is forked, so children inherit it via copy-on-write and
tasks only carry a seed; the pool is therefore always built on a ``fork``
context, whatever the process-wide default start method is.

One Lloyd pass is two kernels: ``assign_labels`` (nearest centroid and
SSE) and ``cluster_sums`` (the per-cluster row sums the centroid update
divides).  Callers that only want labels run the first alone;
``assign_dense`` is the two back to back.  Both are shared with the
in-process path, so serial and parallel fits are bit-identical for the
same seeds.

``run_restarts`` converts the training matrix to float64 and computes
its rows' ``|x|^2`` once for all restarts.  A ``uint8`` matrix (the bit
and byte encodings) marks the fit *exact*: its products and partial
sums are integers below 2**53 — a row's ``|x|^2`` is at most
``255**2 * n_features``, a cluster's sum at most ``255 * n_samples`` —
so float64 computes them without rounding in any order, and the
k-means++ seeding may use one GEMV per centre instead of its ordered
``X - c`` loop.  Float input could round differently in another order,
and wider integers could pass 2**53, so only ``uint8`` qualifies.
``cluster_sums`` keeps its ordered row sums for every input: a one-hot
GEMM would give the same bits on ``uint8`` input, but it costs
``K * n * d`` multiply-adds against the ``n * d`` of the row sums, so it
only wins at small ``K``.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..errors import ReproError

__all__ = ["assign_dense", "single_run", "run_restarts", "LloydRun"]

_SHARED: dict | None = None


def assign_labels(
    X: np.ndarray, centers: np.ndarray, x_sq: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Nearest centroid of every row: ``(labels, sse)``.

    Distances use the ``|x|^2 + |c|^2 - 2 x.c`` expansion.  ``x_sq`` is
    the per-row ``|x|^2``; a caller assigning the same ``X`` repeatedly
    (the Lloyd loop) computes it once and passes it in.
    """
    if x_sq is None:
        x_sq = row_sq_norms(X)
    c_sq = np.einsum("ij,ij->i", centers, centers)
    cross = X @ centers.T
    d2 = x_sq[:, None] + c_sq[None, :] - 2.0 * cross
    np.maximum(d2, 0.0, out=d2)
    labels = np.argmin(d2, axis=1)
    sse = float(d2[np.arange(X.shape[0]), labels].sum())
    return labels, sse


def row_sq_norms(X: np.ndarray) -> np.ndarray:
    """Per-row ``|x|^2`` of a float64 matrix."""
    return np.einsum("ij,ij->i", X, X)


def cluster_sums(
    X: np.ndarray, labels: np.ndarray, n_clusters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster ``(row sums, member counts)`` of an assignment.

    Every cluster's members are added in row order starting from zero —
    the float operations of a scatter-add over ``labels``, in the same
    order, without its per-element dispatch.
    An axis-0 reduction of a C-ordered matrix adds whole rows left to
    right; a single column would be reduced pairwise instead, so that
    shape goes through ``bincount``, which also accumulates in order.
    The same kernel serves the exact ``uint8`` fits (module docstring).
    """
    counts = np.bincount(labels, minlength=n_clusters).astype(np.float64)
    sums = np.zeros((n_clusters, X.shape[1]), dtype=np.float64)
    if X.shape[1] == 1:
        sums[:, 0] = np.bincount(labels, weights=X[:, 0], minlength=n_clusters)
        return sums, counts
    for cluster in np.flatnonzero(counts):
        np.add.reduce(X[labels == cluster], axis=0, initial=0.0, out=sums[cluster])
    return sums, counts


def assign_dense(
    X: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One assignment step.

    Returns ``(labels, per_cluster_sums, per_cluster_counts, sse)``:
    :func:`assign_labels` followed by :func:`cluster_sums`.
    """
    labels, sse = assign_labels(X, centers)
    sums, counts = cluster_sums(X, labels, centers.shape[0])
    return labels, sums, counts, sse


class LloydRun:
    """Outcome of one seeded Lloyd optimisation."""

    __slots__ = ("sse", "centers", "labels", "n_iter", "history")

    def __init__(self, sse, centers, labels, n_iter, history) -> None:
        self.sse = sse
        self.centers = centers
        self.labels = labels
        self.n_iter = n_iter
        self.history = history


def _reseed_empty(
    X: np.ndarray,
    centers: np.ndarray,
    labels: np.ndarray,
    empty: np.ndarray,
) -> np.ndarray:
    """Re-seed empty clusters on the points farthest from their centroid."""
    diffs = X - centers[labels]
    d2 = np.einsum("ij,ij->i", diffs, diffs)
    farthest = np.argsort(d2)[::-1][: empty.size]
    return X[farthest]


def _training_matrix(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """``(float64 X, per-row |x|^2, exact)`` for a fit's restarts."""
    exact = X.dtype == np.uint8
    X = np.ascontiguousarray(X, dtype=np.float64)
    return X, row_sq_norms(X), exact


def single_run(
    X: np.ndarray,
    n_clusters: int,
    max_iter: int,
    scaled_tol: float,
    seed: int,
) -> LloydRun:
    """One k-means++ seeding followed by Lloyd iterations to convergence.

    ``uint8`` input takes the exact kernels (module docstring).
    """
    return _lloyd(*_training_matrix(X), n_clusters, max_iter, scaled_tol, seed)


def _lloyd(
    X: np.ndarray,
    x_sq: np.ndarray,
    exact: bool,
    n_clusters: int,
    max_iter: int,
    scaled_tol: float,
    seed: int,
) -> LloydRun:
    """:func:`single_run` on a prepared :func:`_training_matrix`."""
    from .kmeans import _seed_centers  # local import breaks the cycle

    rng = np.random.default_rng(seed)
    centers = _seed_centers(X, n_clusters, rng, x_sq if exact else None)
    history: list[float] = []
    iteration = 0
    for iteration in range(1, max_iter + 1):
        labels, sse = assign_labels(X, centers, x_sq)
        sums, counts = cluster_sums(X, labels, n_clusters)
        history.append(sse)
        new_centers = centers.copy()
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            new_centers[empty] = _reseed_empty(X, centers, labels, empty)
        shift = float(((new_centers - centers) ** 2).sum())
        centers = new_centers
        if shift <= scaled_tol:
            break
    # Final assignment keeps labels/SSE consistent with the centroids.
    labels, sse = assign_labels(X, centers, x_sq)
    history.append(sse)
    return LloydRun(sse, centers, labels, iteration, history)


def _restart_task(args: tuple[int, int, int, float]) -> LloydRun:
    """Worker task: one restart against the fork-shared matrix."""
    seed, n_clusters, max_iter, scaled_tol = args
    return _lloyd(*_SHARED["matrix"], n_clusters, max_iter, scaled_tol, seed)


def run_restarts(
    X: np.ndarray,
    n_clusters: int,
    max_iter: int,
    scaled_tol: float,
    seeds: list[int],
    n_jobs: int,
) -> list[LloydRun]:
    """Run the ``n_init`` restarts, optionally across a process pool.

    ``X`` is converted to float64 once for all of them; ``uint8`` input
    takes the exact kernels (module docstring).
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    matrix = _training_matrix(X)
    if n_jobs == 1 or len(seeds) == 1:
        return [
            _lloyd(*matrix, n_clusters, max_iter, scaled_tol, seed)
            for seed in seeds
        ]
    # Only a forked child inherits ``_SHARED``; a spawned one would
    # import this module afresh and find it empty.
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ReproError(
            "n_jobs > 1 shares the training matrix with its workers by "
            "fork, which this platform does not offer; use n_jobs=1"
        )
    global _SHARED
    _SHARED = {"matrix": matrix}
    try:
        workers = min(n_jobs, len(seeds))
        tasks = [(seed, n_clusters, max_iter, scaled_tol) for seed in seeds]
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            return list(pool.map(_restart_task, tasks))
    finally:
        _SHARED = None
