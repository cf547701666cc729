"""Binary RBF-kernel support vector machine trained in the dual with SMO.

The solver optimizes two dual variables at a time, which keeps the
equality constraint sum(alpha_i * y_i) = 0 intact by construction.  It
picks the pair by second-order working-set selection (Fan, Chen & Lin,
JMLR 2005, the LIBSVM rule): the most violating variable first, then
the partner whose step gains the most dual objective.  It stops when
the maximal Karush-Kuhn-Tucker violation is at most ``tol``.  Every
choice is deterministic, so training depends only on the data and the
parameters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SvmParams",
    "SvmModel",
    "SmoDiagnostics",
    "rbf_gram",
    "train_smo",
    "decision_score",
    "decision_scores",
    "predict",
]

_MAX_SWEEPS = 10_000  # steps are capped at this many times the sample count
_CURVATURE_FLOOR = 1e-12
_CURVATURE_CACHE_BYTES = 128 << 10  # every row fits at n=120; small enough for solve()'s memory pin
_SV_EPS = 1e-12


@dataclass(frozen=True)
class SvmParams:
    """Training knobs: soft margin C, kernel width gamma, KKT stopping gap tol."""

    C: float = 10.0
    gamma: float = 0.1
    tol: float = 1e-3

    def __post_init__(self):
        for name in ("C", "gamma", "tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass
class SvmModel:
    """Kernel expansion: support vectors, their signed weights, and a bias."""

    support_vectors: np.ndarray
    dual_coefs: np.ndarray  # alpha_i * y_i per support vector
    bias: float
    gamma: float


@dataclass
class SmoDiagnostics:
    """Solver internals exposed for inspection and testing."""

    alphas: np.ndarray
    dual_objectives: list[float] = field(default_factory=list)
    sweeps: int = 0
    """Pair steps taken divided by the sample count n, rounded up."""
    kkt_gap: float = 0.0
    """Final maximal KKT violation, max s_up - min s_low."""
    converged: bool = True
    """False when the step cap stopped the solver with the gap above tol."""


def rbf_gram(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Kernel matrix between the rows of two sample matrices."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    # In place, so at most two (len(A), len(B)) arrays are alive at once.
    cross = A @ B.T
    cross *= 2.0
    out = (A**2).sum(axis=1)[:, None] + (B**2).sum(axis=1)[None, :]
    out -= cross
    np.maximum(out, 0.0, out=out)
    out *= -gamma
    return np.exp(out, out=out)


class _SmoSolver:
    def __init__(self, X, y, params: SvmParams):
        self.y = y
        self.params = params
        self.K = rbf_gram(X, X, params.gamma)
        self.n = len(y)
        self.alphas = np.zeros(self.n)
        self.bias = 0.0
        # s = -y * (gradient of the dual), s_t = y_t - sum_k alpha_k y_k K_tk,
        # updated by two kernel rows after every step.
        self.s = y.copy()

    def _candidates(self) -> tuple[np.ndarray, np.ndarray]:
        # s over I_up (alpha may move along +y) and over I_low (along -y),
        # with -inf / +inf where a variable sits on the bound it would cross.
        y, alphas, C = self.y, self.alphas, self.params.C
        s_up = np.where(np.where(y > 0, alphas < C, alphas > 0), self.s, -np.inf)
        s_low = np.where(np.where(y > 0, alphas > 0, alphas < C), self.s, np.inf)
        return s_up, s_low

    def dual_objective(self) -> float:
        # K (alpha * y) = y - s, so no Gram product is needed.
        ay = self.alphas * self.y
        return float(self.alphas.sum() - 0.5 * (ay @ (self.y - self.s)))

    def solve(self, collect_objectives: bool = False) -> SmoDiagnostics:
        diag = SmoDiagnostics(alphas=self.alphas)
        K, alphas, C, tol, n = self.K, self.alphas, self.params.C, self.params.tol, self.n
        y = self.y.tolist()
        positive = (self.y > 0).tolist()
        diagonal = np.diag(K)
        # s and the candidate arrays are the rows of one matrix, so one
        # subtraction updates all three: a step shifts every entry by the
        # same dk (±inf stays ±inf, a finite entry gets exactly the bits a
        # rebuild from s would), and only i and j can change set.
        state = np.vstack((self.s, *self._candidates()))
        self.s, s_up, s_low = state
        b, a_scratch, gain, dk = (np.empty(n) for _ in range(4))
        # Curvature rows a_i by working index i, in one block within a byte
        # budget; rows past it are computed on every step and not stored.
        cache = np.empty((min(n, _CURVATURE_CACHE_BYTES // (8 * n)), n))
        slots: dict[int, int] = {}
        steps = 0
        while steps < _MAX_SWEEPS * n:
            i = int(s_up.argmax())
            top = s_up.item(i)
            if top - s_low.item(int(s_low.argmin())) <= tol:
                break
            # Partner j maximizes the dual gain b^2 / a of the pair's step.
            np.subtract(top, s_low, out=b)
            row_i = K[i]
            if i in slots:
                a = cache[slots[i]]
            else:
                a = cache[slots.setdefault(i, len(slots))] if len(slots) < len(cache) else a_scratch
                np.add(diagonal, diagonal[i], out=a)
                np.multiply(row_i, 2.0, out=dk)  # dk is scratch until the update
                np.subtract(a, dk, out=a)
                np.maximum(a, _CURVATURE_FLOOR, out=a)
            np.multiply(b, b, out=gain)
            np.divide(gain, a, out=gain)
            # b's sign makes every non-ascent gain <= 0, while the largest b
            # (> tol) has a positive gain unless tol is below about 1e-154 and
            # b^2 underflows, so argmax picks what a -inf mask would.
            np.copysign(gain, b, out=gain)
            j = int(gain.argmax())
            alpha_i, alpha_j = alphas.item(i), alphas.item(j)
            room_i = C - alpha_i if positive[i] else alpha_i
            room_j = alpha_j if positive[j] else C - alpha_j
            t = min(b.item(j) / a.item(j), room_i, room_j)
            # A variable that uses all its room lands exactly on its bound.
            alpha_i = (C if positive[i] else 0.0) if t == room_i else alpha_i + y[i] * t
            alpha_j = (0.0 if positive[j] else C) if t == room_j else alpha_j - y[j] * t
            alphas[i], alphas[j] = alpha_i, alpha_j
            np.subtract(row_i, K[j], out=dk)
            dk *= t
            state -= dk
            for k, alpha in ((i, alpha_i), (j, alpha_j)):
                below, above = alpha < C, alpha > 0.0
                s_k = state.item(0, k)
                s_up[k] = s_k if (below if positive[k] else above) else -np.inf
                s_low[k] = s_k if (above if positive[k] else below) else np.inf
            steps += 1
            if collect_objectives and steps % n == 0:
                diag.dual_objectives.append(self.dual_objective())
        if collect_objectives:
            diag.dual_objectives.append(self.dual_objective())
        diag.sweeps = math.ceil(steps / n)
        diag.kkt_gap = float(s_up.max() - s_low.min())
        diag.converged = diag.kkt_gap <= tol
        self._finalize_bias()
        diag.alphas = alphas.copy()
        return diag

    def _finalize_bias(self):
        # Free support vectors sit on the margin, where the bias equals s;
        # without any, the midpoint of the two extremes satisfies KKT best.
        free = (self.alphas > 0.0) & (self.alphas < self.params.C)
        if free.any():
            self.bias = float(self.s[free].mean())
        else:
            s_up, s_low = self._candidates()
            self.bias = float((s_up.max() + s_low.min()) / 2.0)


def train_smo(
    X: np.ndarray,
    y: np.ndarray,
    params: SvmParams,
    seed: int = 0,
    collect_diagnostics: bool = False,
) -> tuple[SvmModel, SmoDiagnostics | None]:
    """Train an RBF-SVM on labels in {-1, +1}.

    Returns the fitted model and, when ``collect_diagnostics`` is set,
    the final dual variables plus the dual objective after every n
    steps and at the end, the final KKT gap and whether it met ``tol``.
    A run that the step cap stops short of ``tol`` emits a
    ``RuntimeWarning``.  Training data must contain both classes and
    only finite values.  ``seed`` is accepted and unused: the solver is
    deterministic.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(f"inconsistent training data: X {X.shape}, y {y.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("training features contain non-finite values")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.unique(y).size < 2:
        raise ValueError("training data contains a single class")

    solver = _SmoSolver(X, y, params)
    diag = solver.solve(collect_objectives=collect_diagnostics)
    if not diag.converged:
        warnings.warn(
            f"SMO stopped at its cap of {diag.sweeps} sweeps with KKT gap {diag.kkt_gap:.3g} "
            f"above tol {params.tol:g}; the model is not at the optimum",
            RuntimeWarning,
            stacklevel=2,
        )

    keep = solver.alphas > _SV_EPS
    model = SvmModel(
        support_vectors=X[keep].copy(),
        dual_coefs=(solver.alphas * y)[keep].copy(),
        bias=solver.bias,
        gamma=params.gamma,
    )
    return model, (diag if collect_diagnostics else None)


def decision_score(model: SvmModel, x: np.ndarray) -> float:
    """Real-valued margin of one sample; positive means the +1 class."""
    return float(decision_scores(model, np.asarray(x, dtype=np.float64)[None])[0])


def _self_dots(A: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a contiguous matrix, one dot product
    per row."""
    return np.matmul(A[:, None, :], A[:, :, None])[:, 0, 0]


def decision_scores(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Margins for a matrix of row samples.

    Every BLAS call covers one sample, with the shapes of a one-row
    call, so a sample's margin has the same bits alone or in a batch.
    """
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
    sv = np.ascontiguousarray(model.support_vectors)
    if X.shape[1] != sv.shape[1]:
        raise ValueError(f"expected {sv.shape[1]} features, got {X.shape[1]}")
    sq = _self_dots(X)[:, None] + _self_dots(sv)[None, :]
    sq -= 2.0 * np.matmul(sv, X[:, :, None])[:, :, 0]
    np.maximum(sq, 0.0, out=sq)
    sq *= -model.gamma
    kernel = np.exp(sq, out=sq)
    return np.matmul(kernel[:, None, :], np.ascontiguousarray(model.dual_coefs))[:, 0] + model.bias


def predict(model: SvmModel, x: np.ndarray) -> float:
    """Hard label in {-1, +1}; a score of exactly zero maps to +1."""
    return 1.0 if decision_score(model, x) >= 0.0 else -1.0
