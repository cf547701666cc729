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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SvmParams",
    "SvmModel",
    "SmoDiagnostics",
    "rbf_kernel",
    "rbf_gram",
    "train_smo",
    "decision_score",
    "decision_scores",
    "predict",
]

_MAX_SWEEPS = 10_000  # steps are capped at this many times the sample count
_CURVATURE_FLOOR = 1e-12
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


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> float:
    """exp(-gamma * squared euclidean distance) between two vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"expected equal-length vectors, got {a.shape} and {b.shape}")
    diff = a - b
    return float(np.exp(-gamma * (diff @ diff)))


def rbf_gram(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Kernel matrix between the rows of two sample matrices."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    sq = (A**2).sum(axis=1)[:, None] + (B**2).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


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
        y, K, alphas, C = self.y, self.K, self.alphas, self.params.C
        diagonal = np.diag(K)
        steps = 0
        while steps < _MAX_SWEEPS * self.n:
            s_up, s_low = self._candidates()
            i = int(np.argmax(s_up))
            if s_up[i] - s_low.min() <= self.params.tol:
                break
            # Partner j maximizes the dual gain b^2 / a of the pair's step.
            b = s_up[i] - s_low
            a = np.maximum(diagonal[i] + diagonal - 2.0 * K[i], _CURVATURE_FLOOR)
            j = int(np.argmax(np.where(b > 0.0, b * b / a, -np.inf)))
            room_i = C - alphas[i] if y[i] > 0 else alphas[i]
            room_j = alphas[j] if y[j] > 0 else C - alphas[j]
            t = min(b[j] / a[j], room_i, room_j)
            # A variable that uses all its room lands exactly on its bound.
            alphas[i] = (C if y[i] > 0 else 0.0) if t == room_i else alphas[i] + y[i] * t
            alphas[j] = (0.0 if y[j] > 0 else C) if t == room_j else alphas[j] - y[j] * t
            self.s -= t * (K[i] - K[j])
            steps += 1
            if collect_objectives and steps % self.n == 0:
                diag.dual_objectives.append(self.dual_objective())
        if collect_objectives:
            diag.dual_objectives.append(self.dual_objective())
        diag.sweeps = math.ceil(steps / self.n)
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
    steps and at the end.  Training data must contain both classes and
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


def decision_scores(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Margins for a matrix of row samples."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.support_vectors.shape[1]:
        raise ValueError(
            f"expected {model.support_vectors.shape[1]} features, got {X.shape[1]}"
        )
    gram = rbf_gram(X, model.support_vectors, model.gamma)
    return gram @ model.dual_coefs + model.bias


def predict(model: SvmModel, x: np.ndarray) -> float:
    """Hard label in {-1, +1}; a score of exactly zero maps to +1."""
    return 1.0 if decision_score(model, x) >= 0.0 else -1.0
