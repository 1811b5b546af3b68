"""Principal Component Analysis for the curse-of-dimensionality fix.

Large PNW buckets (4 KB values = 32768 bit features) make k-means training
slow and noisy; the paper projects values with PCA first (§V-A1, Fig. 3).
This module implements:

* exact PCA via the economy SVD,
* randomized PCA (Halko, Martinsson & Tropp 2011) for very wide feature
  matrices, where the exact SVD would dominate the retraining budget,
* component selection either as a fixed count or as a target fraction of
  explained variance (how the paper chose 1000 components covering >80%
  on MNIST).
"""

from __future__ import annotations

import numpy as np

from ..errors import NotFittedError

__all__ = ["PCA"]


def _randomized_svd(
    A: np.ndarray,
    rank: int,
    rng: np.random.Generator,
    n_oversamples: int = 10,
    n_power_iter: int = 4,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD of ``A`` via a randomized range finder.

    Power iterations sharpen the spectrum so slowly decaying singular
    values (typical of near-binary data) are still captured accurately.
    """
    n, m = A.shape
    sketch = min(rank + n_oversamples, min(n, m))
    omega = rng.standard_normal((m, sketch))
    Y = A @ omega
    Q, _ = np.linalg.qr(Y)
    for _ in range(n_power_iter):
        Q, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Q)
    B = Q.T @ A
    Ub, S, Vt = np.linalg.svd(B, full_matrices=False)
    U = Q @ Ub
    return U[:, :rank], S[:rank], Vt[:rank]


class PCA:
    """Principal component analysis with exact and randomized solvers.

    Parameters
    ----------
    n_components:
        ``int`` — keep that many components; ``float`` in (0, 1) — keep the
        smallest count whose cumulative explained-variance ratio reaches
        the fraction (requires the exact solver); ``None`` — keep
        ``min(n_samples, n_features)`` components.
    solver:
        ``"auto"`` (randomized when it pays off), ``"exact"``, or
        ``"randomized"``.
    seed:
        Seed for the randomized solver's sketching matrix.
    """

    def __init__(
        self,
        n_components: int | float | None = None,
        *,
        solver: str = "auto",
        seed: int | None = None,
    ) -> None:
        if solver not in ("auto", "exact", "randomized"):
            raise ValueError(f"unknown solver {solver!r}")
        if isinstance(n_components, float) and not 0.0 < n_components < 1.0:
            raise ValueError(
                f"fractional n_components must be in (0, 1), got {n_components}"
            )
        if isinstance(n_components, int) and n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        self.n_components = n_components
        self.solver = solver
        self.seed = seed
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None
        self.explained_variance_: np.ndarray | None = None
        self.explained_variance_ratio_: np.ndarray | None = None
        self.n_components_: int = 0

    # ------------------------------------------------------------------ #

    def _resolve_solver(self, n: int, m: int, rank_request: int) -> str:
        if self.solver != "auto":
            return self.solver
        # Randomized pays off when we keep a small slice of a wide matrix.
        if isinstance(self.n_components, int) and rank_request * 5 < min(n, m) and m > 512:
            return "randomized"
        return "exact"

    def fit(self, X: np.ndarray) -> "PCA":
        """Learn the principal axes of ``X`` (n_samples, n_features)."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n, m = X.shape
        if n < 2:
            raise ValueError("PCA needs at least 2 samples")
        self.mean_ = X.mean(axis=0)
        centered = X - self.mean_
        total_var = float(np.var(X, axis=0, ddof=1).sum())

        max_rank = min(n, m)
        if isinstance(self.n_components, int):
            rank_request = min(self.n_components, max_rank)
        else:
            rank_request = max_rank

        solver = self._resolve_solver(n, m, rank_request)
        if solver == "randomized":
            if isinstance(self.n_components, float):
                raise ValueError(
                    "fractional n_components needs the full spectrum; "
                    "use the exact solver"
                )
            rng = np.random.default_rng(self.seed)
            _, S, Vt = _randomized_svd(centered, rank_request, rng)
        else:
            _, S, Vt = np.linalg.svd(centered, full_matrices=False)
            S, Vt = S[:rank_request], Vt[:rank_request]

        explained = (S**2) / max(n - 1, 1)
        ratio = explained / total_var if total_var > 0 else np.zeros_like(explained)

        if isinstance(self.n_components, float):
            cumulative = np.cumsum(ratio)
            keep = int(np.searchsorted(cumulative, self.n_components) + 1)
            keep = min(keep, rank_request)
        else:
            keep = rank_request

        self.components_ = Vt[:keep]
        self.explained_variance_ = explained[:keep]
        self.explained_variance_ratio_ = ratio[:keep]
        self.n_components_ = keep
        return self

    def _require_fitted(self) -> None:
        if self.components_ is None:
            raise NotFittedError("call fit() before using the PCA")

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Project ``X`` onto the principal axes."""
        self._require_fitted()
        X = np.atleast_2d(np.ascontiguousarray(X, dtype=np.float64))
        return (X - self.mean_) @ self.components_.T

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit on ``X`` and return its projection.

        ``X`` is converted to float64 once, for both steps (the featurizers
        hand PCA their ``uint8`` encodings).
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        return self.fit(X).transform(X)

    def inverse_transform(self, Z: np.ndarray) -> np.ndarray:
        """Map projections back to the original feature space."""
        self._require_fitted()
        Z = np.atleast_2d(np.ascontiguousarray(Z, dtype=np.float64))
        return Z @ self.components_ + self.mean_

    def cumulative_variance_ratio(self) -> np.ndarray:
        """Cumulative explained-variance curve (the y-axis of Fig. 3)."""
        self._require_fitted()
        return np.cumsum(self.explained_variance_ratio_)
