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
# Byte budget of _solve's precomputed curvature rows: every row at n=120, rows
# 0-67 at n=240.  Built with one temporary of its size, it keeps _solve's peak
# at n=2000 near 360 KiB.
_CURVATURE_CACHE_BYTES = 128 << 10
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
    steps: int = 0
    """Pair steps taken."""


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


def _solve(
    K: np.ndarray, y: np.ndarray, params: SvmParams, collect_objectives: bool = False
) -> tuple[np.ndarray, float, SmoDiagnostics]:
    """Dual variables, bias and diagnostics of the SVM over the Gram ``K``."""
    C, tol, n = params.C, params.tol, len(y)
    positive = (y > 0).tolist()
    diagonal = np.diag(K)
    # With s = -y * (gradient of the dual), s_t = y_t - sum_k alpha_k y_k K_tk,
    # the live state is s over I_up (alpha may move along +y) and over I_low
    # (along -y), with -inf / +inf where a variable sits on the bound it would
    # cross; with every alpha at 0, I_up is y = +1 and I_low is y = -1.  Every
    # index is in I_up or I_low, so the two hold all of s.  A step shifts each
    # by the same dk (±inf stays ±inf, a finite entry gets exactly the bits a
    # rebuild from s would), and only i and j can change set.
    s_up = np.where(y > 0, y, -np.inf)
    s_low = np.where(y < 0, y, np.inf)
    b, a_scratch, gain, dk = (np.empty(n) for _ in range(4))
    # Curvature rows a_k = max(K_kk + K_ll - 2 K_kl, 1e-12) for working
    # indices k < m, built in one pass within a byte budget; a row past it
    # is computed into scratch on each step that needs it.
    m = min(n, _CURVATURE_CACHE_BYTES // (8 * n))
    curvature = np.add.outer(diagonal[:m], diagonal)
    curvature -= np.multiply(K[:m], 2.0)
    np.maximum(curvature, _CURVATURE_FLOOR, out=curvature)
    # At select's n = 120 a step costs about 6 µs, nearly all of it numpy
    # call overhead on ten 1-D vector calls and almost no arithmetic, so the
    # loop reads alphas from a list, calls ufuncs and array methods through
    # locals and passes their outputs by position.
    alphas = [0.0] * n
    add, subtract, multiply, divide, copysign, maximum = (
        np.add, np.subtract, np.multiply, np.divide, np.copysign, np.maximum
    )
    up_argmax, up_item, low_item = s_up.argmax, s_up.item, s_low.item
    b_item, gain_argmax = b.item, gain.argmax
    inf = math.inf
    objectives: list[float] = []

    def objective(values: list[float]) -> float:
        # K (alpha * y) = y - s, so no Gram product is needed.
        alpha = np.array(values)
        s = np.where(s_up > -inf, s_up, s_low)
        return float(alpha.sum() - 0.5 * ((alpha * y) @ (y - s)))

    steps = 0
    while steps < _MAX_SWEEPS * n:
        i = int(up_argmax())
        top = up_item(i)
        # Partner j maximizes the dual gain b^2 / a of the pair's step.
        subtract(top, s_low, b)
        row_i = K[i]
        if i < m:
            a = curvature[i]
        else:
            a = a_scratch
            add(diagonal, diagonal[i], a)
            multiply(row_i, 2.0, dk)  # dk is scratch until the update
            subtract(a, dk, a)
            maximum(a, _CURVATURE_FLOOR, out=a)  # numpy deprecates a positional out here
        multiply(b, b, gain)
        divide(gain, a, gain)
        # b's sign makes every non-ascent gain <= 0, while the largest b
        # (> tol) has a positive gain unless tol is below about 1e-154 and
        # b^2 underflows, so argmax picks what a -inf mask would.
        copysign(gain, b, gain)
        j = int(gain_argmax())
        b_j = b_item(j)
        # The stopping test is max(b) = top - min(s_low) <= tol; rounding
        # keeps order, so that max is fl(top - min(s_low)) exactly.  A
        # partner with b_j > tol already shows the gap is open.
        if b_j <= tol and top - low_item(int(s_low.argmin())) <= tol:
            break
        alpha_i, alpha_j = alphas[i], alphas[j]
        room_i = C - alpha_i if positive[i] else alpha_i
        room_j = alpha_j if positive[j] else C - alpha_j
        # min(b_j / a_j, room_i, room_j), ties resolved as min() does.
        t = b_j / a.item(j)
        if room_i < t:
            t = room_i
        if room_j < t:
            t = room_j
        subtract(row_i, K[j], dk)
        multiply(dk, t, dk)
        subtract(s_up, dk, s_up)
        subtract(s_low, dk, s_low)
        # i is in I_up and j in I_low (b_j > 0 keeps s_low[j] finite), so
        # these entries are s_i and s_j after the shift.
        s_i, s_j = up_item(i), low_item(j)
        # A variable that uses all its room lands exactly on its bound,
        # and only i and j can change set: I_up holds y = +1 below C and
        # y = -1 above 0, I_low the reverse.  The rooms and b_j are
        # positive, so t > 0: a positive i ends above 0, in I_low, and a
        # negative j ends above 0, in I_up.
        if positive[i]:
            alpha_i = C if t == room_i else alpha_i + t
            s_up[i] = s_i if alpha_i < C else -inf
            s_low[i] = s_i
        else:
            alpha_i = 0.0 if t == room_i else alpha_i - t
            s_up[i] = s_i if alpha_i > 0.0 else -inf
            s_low[i] = s_i if alpha_i < C else inf
        if positive[j]:
            alpha_j = 0.0 if t == room_j else alpha_j - t
            s_up[j] = s_j if alpha_j < C else -inf
            s_low[j] = s_j if alpha_j > 0.0 else inf
        else:
            alpha_j = C if t == room_j else alpha_j + t
            s_up[j] = s_j
            s_low[j] = s_j if alpha_j < C else inf
        alphas[i], alphas[j] = alpha_i, alpha_j
        steps += 1
        if collect_objectives and steps % n == 0:
            objectives.append(objective(alphas))
    if collect_objectives:
        objectives.append(objective(alphas))
    kkt_gap = float(s_up.max() - s_low.min())
    result = np.array(alphas)
    # Free support vectors sit on the margin, where the bias equals s (and
    # s_up holds it); without any, the midpoint of the two extremes
    # satisfies KKT best.
    free = (result > 0.0) & (result < C)
    bias = float(s_up[free].mean() if free.any() else (s_up.max() + s_low.min()) / 2.0)
    diag = SmoDiagnostics(
        result, objectives, sweeps=math.ceil(steps / n), kkt_gap=kkt_gap, converged=kkt_gap <= tol, steps=steps
    )
    return result, bias, diag


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
    steps and at the end, the pair-step count, the final KKT gap and
    whether it met ``tol``.
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
    positive = y == 1.0
    negative = y == -1.0
    if not (positive | negative).all():
        raise ValueError("labels must be -1 or +1")
    if positive.all() or negative.all():
        raise ValueError("training data contains a single class")

    K = rbf_gram(X, X, params.gamma)
    alphas, bias, diag = _solve(K, y, params, collect_diagnostics)
    if not diag.converged:
        warnings.warn(
            f"SMO stopped at its cap of {diag.sweeps} sweeps with KKT gap {diag.kkt_gap:.3g} "
            f"above tol {params.tol:g}; the model is not at the optimum",
            RuntimeWarning,
            stacklevel=2,
        )

    keep = alphas > _SV_EPS
    model = SvmModel(
        support_vectors=X[keep].copy(),
        dual_coefs=(alphas * y)[keep].copy(),
        bias=bias,
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
