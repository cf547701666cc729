"""Feature conditioning: per-dimension standardization and exact PCA.

The PCA is exact: it takes the eigendecomposition of the smaller of the
centered data's two cross-products, ``Xc^T Xc`` (d x d) when there are
no more features than rows and ``Xc Xc^T`` (n x n) otherwise, so it
agrees with an SVD of the centered data whatever the spectrum's decay.

A fitted model has the same bits at any BLAS thread count.  OpenBLAS
computes each entry of a matrix-vector product on one thread, but splits
the sums of larger matrix products across threads, and LAPACK's ``eigh``
makes such products while it reduces a matrix to tridiagonal form: its
bits have changed with the thread count from order 100.  So the
cross-product, and the products with its eigenvectors, are built from
matrix-vector products, and ``eigh`` reduces only a cross-product of
order 64 or less, as 10 or 40 LBP features give.  A larger one is
reduced here, in panels as LAPACK's dsytrd does, with matrix-vector
products only, and ``eigh`` takes the tridiagonal result.  At order 160
(the convnet's training rows) a fit costs about twice what ``eigh``
alone would.
"""

from __future__ import annotations

import math
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

# Largest order that LAPACK's eigh takes directly.  OpenBLAS runs a matrix
# product of at most 2^18 multiply-adds, and a dsymv of order below 200, on
# one thread, so an eigh of order 64 splits no sum across threads.
_LAPACK_EIGH_ORDER = 64
# Columns per panel of the tridiagonal reduction.
_PANEL = 16


def _check_finite(X: np.ndarray) -> None:
    if not np.isfinite(X).all():
        raise ValueError("training matrix contains NaN or infinite values")


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
        _check_finite(X)
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


def fit_pca_randomized(X: np.ndarray, k: int, seed: int = 0, whiten: bool = True) -> PcaModel:
    """Fit an exact k-component PCA of ``X``.

    Components are rows, orthonormal, ordered by decreasing variance,
    and sign-fixed so each row's largest-magnitude entry is positive.
    Variances are population variances of the projected training data.
    ``k`` must not exceed ``min(n_samples - 1, n_features)``, and ``X``
    must be finite.

    The components are the top eigenvectors of ``Xc^T Xc`` when
    d <= n; when d > n they come from those of ``Xc Xc^T`` as the
    orthonormalized ``Xc^T U_k``, which stays orthonormal when ``k``
    exceeds the data's rank.  The model has the same bits at any BLAS
    thread count.  The name is kept from the randomized sketch this
    replaced, and ``seed`` is accepted and unused, so that callers
    written against it still run: the fit is deterministic.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 samples to fit a PCA")
    if not 1 <= k <= min(n - 1, d):
        raise ValueError(f"k must lie in 1..{min(n - 1, d)}, got {k}")
    _check_finite(X)

    mean = X.mean(axis=0)
    centered = X - mean
    columns = np.ascontiguousarray(centered.T)
    if d <= n:
        eigenvalues, vectors = _top_eigenpairs(_row_products(columns, columns), k)
        components = vectors.copy()
    else:
        eigenvalues, vectors = _top_eigenpairs(_row_products(centered, centered), k)
        components = np.linalg.qr(_row_products(columns, vectors).T)[0].T.copy()
    variances = np.maximum(eigenvalues, 0.0) / n

    # Deterministic sign: the entry of largest magnitude in each row is
    # made positive (ties resolved by the first such entry).
    pivots = np.abs(components).argmax(axis=1)
    components[components[np.arange(k), pivots] < 0.0] *= -1.0
    return PcaModel(mean=mean, components=components, component_variances=variances, whiten=whiten)


def _row_products(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``B @ A.T``: row ``j`` is the matrix-vector product ``A @ B[j]``.
    OpenBLAS computes each entry of a matrix-vector product on one
    thread, while a matrix product splits the sums of some shapes across
    threads, so these bits do not depend on the thread count."""
    return np.matmul(np.ascontiguousarray(A), np.ascontiguousarray(B)[:, :, None])[:, :, 0]


def _top_eigenpairs(C: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` largest eigenvalues of the symmetric ``C`` in decreasing
    order, and their eigenvectors as rows, read from ``C``'s lower
    triangle, with the same bits at any BLAS thread count.  Above
    ``_LAPACK_EIGH_ORDER``, ``eigh`` gets the tridiagonal form of ``C``,
    whose reduction in LAPACK then adds only exact zeros, and its
    eigenvectors are mapped back through the reduction's reflectors."""
    reflectors = []
    if len(C) > _LAPACK_EIGH_ORDER:
        diag, off, reflectors = _tridiagonalize(C)
        C = np.diag(diag) + np.diag(off, -1)
    values, vectors = np.linalg.eigh(C)
    top = vectors[:, : -k - 1 : -1].copy()
    for i, v, tau in reversed(reflectors):
        top[i + 1 :] -= (tau * v)[:, None] * (v @ top[i + 1 :])
    return values[: -k - 1 : -1], top.T


def _tridiagonalize(C: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Householder reduction of the symmetric matrix in ``C``'s lower
    triangle to a tridiagonal ``T = Q^T C Q``.  Returns ``T``'s diagonal
    and off-diagonal, and the reflectors ``(i, v, tau)`` whose product,
    first to last, is ``Q``; reflector ``i`` is ``I - tau v v^T`` on
    coordinates ``i + 1`` onwards.

    Blocked as LAPACK's dsytrd is: within a panel of columns the
    trailing matrix is left as it was, and each column and product with
    it is corrected by the panel's reflectors ``V`` and their images
    ``W``; the rank-2 updates ``V W^T + W V^T`` are then applied at once.
    """
    A = np.tril(C) + np.tril(C, -1).T
    m = len(A)
    off = np.zeros(m - 1)
    reflectors = []
    for start in range(0, m - 2, _PANEL):
        width = min(_PANEL, m - 2 - start)
        # Row r of VW is [V[r], W[r]] and of WV is [W[r], V[r]], so that
        # VW @ WV[r] is row r of V W^T + W V^T.
        VW = np.zeros((m, 2 * width))
        WV = np.zeros((m, 2 * width))
        for j in range(width):
            i = start + j
            A[i:, i] -= VW[i:] @ WV[i]
            x = A[i + 1 :, i]
            scale = np.abs(x).max()
            if scale == 0.0:
                continue
            # LAPACK's dlarfg on x / scale: v[0] = 1, tau in [1, 2], and no
            # square under- or overflows however small the column has become.
            u = x / scale
            beta = -math.copysign(math.sqrt(u @ u), u[0])
            tau = (beta - u[0]) / beta
            v = u / (u[0] - beta)
            v[0] = 1.0
            p = A[i + 1 :, i + 1 :] @ v
            p -= WV[i + 1 :] @ (v @ VW[i + 1 :])
            p *= tau
            w = p - (0.5 * tau * (p @ v)) * v
            VW[i + 1 :, j] = WV[i + 1 :, width + j] = v
            VW[i + 1 :, width + j] = WV[i + 1 :, j] = w
            off[i] = beta * scale
            reflectors.append((i, v, tau))
        end = start + width
        A[end:, end:] -= _row_products(VW[end:], WV[end:])
    off[-1] = A[-1, -2]
    return np.diag(A).copy(), off, reflectors


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
