"""Feature conditioning: per-dimension standardization and randomized PCA.

The PCA uses the randomized range finder: sketch the centered data with
a Gaussian test matrix, refine the subspace with a couple of power
iterations (re-orthonormalizing each half step), then take an exact SVD
of the small projected matrix.  With a reasonable spectral gap the
recovered components agree with a full SVD to working precision at a
fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Standardizer",
    "PcaModel",
    "fit_pca_randomized",
    "project",
    "STD_EPSILON",
    "WHITEN_EPSILON",
]

STD_EPSILON = 1e-12
WHITEN_EPSILON = 1e-8

_OVERSAMPLE = 10
_POWER_ITERS = 2


@dataclass
class Standardizer:
    """Per-dimension affine map to zero mean and unit variance."""

    means: np.ndarray
    stds: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 2:
            raise ValueError(f"need a 2-D matrix with at least 2 rows, got shape {X.shape}")
        return cls(means=X.mean(axis=0), stds=X.std(axis=0))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Standardize a vector or a matrix of row vectors.

        Dimensions with (near) zero spread are only centered, never
        blown up by the division.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.means.shape[0]:
            raise ValueError(f"expected {self.means.shape[0]} features, got {x.shape[-1]}")
        return (x - self.means) / np.maximum(self.stds, STD_EPSILON)


@dataclass
class PcaModel:
    """Fitted projection: training mean, component rows, their variances."""

    mean: np.ndarray
    components: np.ndarray
    component_variances: np.ndarray
    whiten: bool
    epsilon: float = WHITEN_EPSILON


def fit_pca_randomized(X: np.ndarray, k: int, seed: int, whiten: bool = True) -> PcaModel:
    """Fit a k-component PCA of ``X`` with the randomized algorithm.

    Components are rows, orthonormal, ordered by decreasing variance,
    and sign-fixed so each row's largest-magnitude entry is positive.
    Variances are population variances of the projected training data.
    ``k`` must not exceed ``min(n_samples - 1, n_features)``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 samples to fit a PCA")
    if not 1 <= k <= min(n - 1, d):
        raise ValueError(f"k must lie in 1..{min(n - 1, d)}, got {k}")

    rng = np.random.default_rng(seed)
    mean = X.mean(axis=0)
    centered = X - mean

    sketch_width = min(k + _OVERSAMPLE, d)
    basis = np.linalg.qr(centered @ rng.standard_normal((d, sketch_width)))[0]
    for _ in range(_POWER_ITERS):
        basis = np.linalg.qr(centered.T @ basis)[0]
        basis = np.linalg.qr(centered @ basis)[0]

    projected = basis.T @ centered
    _, singular_values, vt = np.linalg.svd(projected, full_matrices=False)
    components = vt[:k].copy()
    variances = singular_values[:k] ** 2 / n

    # Deterministic sign: the entry of largest magnitude in each row is
    # made positive (ties resolved by the first such entry).
    pivots = np.abs(components).argmax(axis=1)
    components[components[np.arange(k), pivots] < 0.0] *= -1.0
    return PcaModel(mean=mean, components=components, component_variances=variances, whiten=whiten)


def project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project vectors onto the components, whitening if the model says so.

    Whitening divides each coordinate by the square root of its
    component variance plus ``model.epsilon``.  Each row is one
    matrix-vector product with the shapes of a one-row call, so a row
    projects to the same bits alone or in a batch.
    """
    x = np.asarray(x, dtype=np.float64)
    k, d = model.components.shape
    if x.shape[-1] != d:
        raise ValueError(f"expected {d} features, got {x.shape[-1]}")
    rows = np.ascontiguousarray(x - model.mean).reshape(-1, d, 1)
    y = np.matmul(np.ascontiguousarray(model.components), rows).reshape(*x.shape[:-1], k)
    if model.whiten:
        y = y / np.sqrt(model.component_variances + model.epsilon)
    return y
