"""Binary RBF-kernel support vector machine trained in the dual with SMO.

The solver optimizes two dual variables at a time, which keeps the
equality constraint sum(alpha_i * y_i) = 0 intact by construction.  It
picks the pair by second-order working-set selection (Fan, Chen & Lin,
JMLR 2005, the LIBSVM rule): the most violating variable first, then
the partner whose step gains the most dual objective.  It stops when
the maximal Karush-Kuhn-Tucker violation is at most ``tol``.  Every
choice is deterministic, so training depends only on the data and the
parameters.  ``_solve`` starts from zero or resumes a given state.
``_solve_lockstep`` steps several problems of one size at once and
hands each to ``_solve`` once few are left, so every problem gets the
bits that ``_solve`` gives it alone.  ``_FitQueue`` decides which of a
grid search's fits share a Gram and which train in lockstep or alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

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
# A lockstep batch hands its problems to _solve once at most this many are
# live: a lockstep step costs about 34 µs with one problem left, a _solve
# step about 7 µs.  On a 2-core Xeon, select-lbp-aug's batch of 40 took a
# median 21.5-21.8 ms at any value from 4 to 10, against 24.1 ms with no
# handoff and 40.5 ms with every problem in _solve.
_HANDOFF_LIVE = 5
# A _FitQueue trains its fits in lockstep batches whose distinct Grams take
# at most this many bytes (select-lbp-aug's 20 take 2.2 MiB); a fit whose
# Gram alone exceeds it trains at once, alone.
_LOCKSTEP_GRAM_BYTES = 4 << 20
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


class _SmoState(NamedTuple):
    """Where a solve stands: its alphas, ``s_up`` and ``s_low`` (see
    ``_solve``) and the pair steps taken.  ``_solve`` writes over its
    alphas, ``s_up`` and ``s_low``."""

    alphas: list[float]
    s_up: np.ndarray
    s_low: np.ndarray
    steps: int


def _bounds_at_zero(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``s_up`` and ``s_low`` with every alpha at 0, for labels of any
    shape: I_up is y = +1 and I_low is y = -1."""
    return np.where(y > 0, y, -np.inf), np.where(y < 0, y, np.inf)


def _solve(
    K: np.ndarray,
    y: np.ndarray,
    params: SvmParams,
    collect_objectives: bool = False,
    state: _SmoState | None = None,
) -> tuple[np.ndarray, float, SmoDiagnostics]:
    """Dual variables, bias and diagnostics of the SVM over the Gram ``K``,
    solved from every alpha at 0 or from ``state`` on.  A resumed solve
    takes the steps, and collects the objectives, that the solve from 0
    would take from that state on, under the same step cap."""
    C, tol, n = params.C, params.tol, len(y)
    positive = (y > 0).tolist()
    diagonal = np.diag(K)
    # With s = -y * (gradient of the dual), s_t = y_t - sum_k alpha_k y_k K_tk,
    # the live state is s over I_up (alpha may move along +y) and over I_low
    # (along -y), with -inf / +inf where a variable sits on the bound it would
    # cross.  Every index is in I_up or I_low, so the two hold all of s.  A
    # step shifts each by the same dk (±inf stays ±inf, a finite entry gets
    # exactly the bits a rebuild from s would), and only i and j can change
    # set.
    if state is None:
        state = _SmoState([0.0] * n, *_bounds_at_zero(y), 0)
    alphas, s_up, s_low, steps = state
    objectives: list[float] | None = [] if collect_objectives else None
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
    add, subtract, multiply, divide, copysign, maximum = (
        np.add, np.subtract, np.multiply, np.divide, np.copysign, np.maximum
    )
    up_argmax, up_item, low_item = s_up.argmax, s_up.item, s_low.item
    b_item, gain_argmax = b.item, gain.argmax
    inf = math.inf

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
            objectives.append(_dual_objective(np.array(alphas), y, s_up, s_low))
    return _finish(np.array(alphas), y, s_up, s_low, params, steps, objectives)


def _dual_objective(alpha: np.ndarray, y: np.ndarray, s_up: np.ndarray, s_low: np.ndarray) -> float:
    # K (alpha * y) = y - s, so no Gram product is needed.
    s = np.where(s_up > -math.inf, s_up, s_low)
    return float(alpha.sum() - 0.5 * ((alpha * y) @ (y - s)))


def _finish(
    alphas: np.ndarray,
    y: np.ndarray,
    s_up: np.ndarray,
    s_low: np.ndarray,
    params: SvmParams,
    steps: int,
    objectives: list[float] | None,
) -> tuple[np.ndarray, float, SmoDiagnostics]:
    """Bias and diagnostics of a stopped solve; ``objectives`` gets the
    final dual objective unless it is None."""
    if objectives is None:
        objectives = []
    else:
        objectives.append(_dual_objective(alphas, y, s_up, s_low))
    kkt_gap = float(s_up.max() - s_low.min())
    # Free support vectors sit on the margin, where the bias equals s (and
    # s_up holds it); without any, the midpoint of the two extremes
    # satisfies KKT best.
    free = (alphas > 0.0) & (alphas < params.C)
    bias = float(s_up[free].mean() if free.any() else (s_up.max() + s_low.min()) / 2.0)
    diag = SmoDiagnostics(
        alphas,
        objectives,
        sweeps=math.ceil(steps / len(alphas)),
        kkt_gap=kkt_gap,
        converged=kkt_gap <= params.tol,
        steps=steps,
    )
    return alphas, bias, diag


def _solve_lockstep(
    grams: np.ndarray, problems: list[tuple[int, np.ndarray, SvmParams]]
) -> list[tuple[np.ndarray, float, SmoDiagnostics]]:
    """``_solve`` of several problems of one size n at once.  Problem k is
    ``(g, y, params)``, the SVM over the Gram ``grams[g]``; problems may
    share a Gram.  The live problems' states are the rows of (problems, n)
    arrays, and each step makes one numpy call over all of them for each
    piece of ``_solve``'s vector work, then a few over the (problems, 2)
    pairs for the step length, the bounds and the I_up/I_low update.  A
    problem leaves the stack when it stops.  At the top of a step with at
    most ``_HANDOFF_LIVE`` problems live, before any move, each goes to
    ``_solve`` with its state and finishes there, so a batch that starts
    that small runs in ``_solve`` alone.  Each problem gets exactly what
    ``_solve`` returns for it alone, in the order given.

    ``_solve``'s curvature block would hold a Gram's worth of rows per
    problem at n = 120, so every step computes its curvature rows, with
    the arithmetic of ``_solve``'s scratch rows."""
    n = grams.shape[1]
    gram_rows = grams.reshape(-1, n)
    gram_of = np.array([g for g, _, _ in problems])
    first_row = gram_of * n  # each live problem's row 0 in gram_rows
    diagonal = np.diagonal(grams, axis1=1, axis2=2)[gram_of]
    y = np.stack([labels for _, labels, _ in problems])
    positive = y > 0
    C = np.array([[params.C] for _, _, params in problems])
    tol = np.array([params.tol for _, _, params in problems])
    ids = np.arange(len(problems))  # each live row's problem
    alphas = np.zeros(y.shape)
    s_up, s_low = _bounds_at_zero(y)
    buffers = [np.empty(y.shape) for _ in range(4)]
    b, a, gain, dk = buffers
    # A step's pair arrays hold i in column 0 and j in column 1.
    pair_buffers = np.empty((len(problems), 2), dtype=np.intp), np.empty((len(problems), 2))
    at, s_pair = pair_buffers
    column_i = np.array([True, False])
    column_j = ~column_i
    offsets = ids * n  # each live row's start in the flattened state
    add, subtract, multiply, divide, copysign, maximum, minimum, where = (
        np.add, np.subtract, np.multiply, np.divide, np.copysign, np.maximum, np.minimum, np.where
    )
    inf = math.inf
    results: list = [None] * len(problems)

    def retire(stopped: np.ndarray) -> None:
        for row in np.flatnonzero(stopped):
            k = ids[row]
            results[k] = _finish(alphas[row].copy(), y[row], s_up[row], s_low[row], problems[k][2], steps, None)

    steps = 0
    while steps < _MAX_SWEEPS * n:
        if len(ids) <= _HANDOFF_LIVE:
            for row, k in enumerate(ids):
                g, labels, params = problems[k]
                state = _SmoState(alphas[row].tolist(), s_up[row], s_low[row], steps)
                results[k] = _solve(grams[g], labels, params, state=state)
            return results
        i = s_up.argmax(axis=1)
        at_i = offsets + i
        top = s_up.take(at_i)
        subtract(top[:, None], s_low, b)
        row_i = gram_rows.take(first_row + i, axis=0)
        add(diagonal, diagonal.take(at_i)[:, None], a)
        multiply(row_i, 2.0, dk)
        subtract(a, dk, a)
        maximum(a, _CURVATURE_FLOOR, out=a)
        multiply(b, b, gain)
        divide(gain, a, gain)
        copysign(gain, b, gain)
        j = gain.argmax(axis=1)
        at_j = offsets + j
        b_j = b.take(at_j)
        a_j = a.take(at_j)
        near = b_j <= tol
        if near.any():
            stopped = near & (top - s_low.min(axis=1) <= tol)
            if stopped.any():
                retire(stopped)
                live = ~stopped
                if not live.any():
                    return results
                ids, first_row, diagonal, y, positive, C, tol = (
                    v[live] for v in (ids, first_row, diagonal, y, positive, C, tol)
                )
                alphas, s_up, s_low, i, j, b_j, a_j, row_i = (
                    v[live] for v in (alphas, s_up, s_low, i, j, b_j, a_j, row_i)
                )
                b, a, gain, dk = (buffer[: len(ids)] for buffer in buffers)
                at, s_pair = (buffer[: len(ids)] for buffer in pair_buffers)
                offsets = np.arange(len(ids)) * n
                at_i, at_j = offsets + i, offsets + j
        # min(b_j / a_j, room_i, room_j) and the moves of _solve's step.
        at[:, 0], at[:, 1] = at_i, at_j
        pair_alphas = alphas.take(at)
        pair_positive = positive.take(at)
        grows = pair_positive ^ column_j  # alpha_i grows when y_i > 0, alpha_j when y_j < 0
        room = where(grows, C - pair_alphas, pair_alphas)
        t = minimum(minimum(b_j / a_j, room[:, 0]), room[:, 1])[:, None]
        moved = where(room == t, grows * C, pair_alphas + where(grows, t, -t))
        subtract(row_i, gram_rows.take(first_row + j, axis=0), dk)
        multiply(dk, t, dk)
        subtract(s_up, dk, s_up)
        subtract(s_low, dk, s_low)
        # s_i and s_j after the shift; then only i and j can change set,
        # by _solve's rules for each.
        s_pair[:, 0], s_pair[:, 1] = s_up.take(at_i), s_low.take(at_j)
        above_zero = moved > 0.0
        below_c = moved < C
        alphas.put(at, moved)
        s_up.put(at, where(where(pair_positive, below_c, above_zero | column_j), s_pair, -inf))
        s_low.put(at, where(where(pair_positive, above_zero | column_i, below_c), s_pair, inf))
        steps += 1
    retire(np.ones(len(ids), dtype=bool))
    return results


def _training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``X`` and ``y`` as float64 arrays; raises ``ValueError`` unless they
    pair up, ``X`` is finite and ``y`` holds both of -1 and +1 only."""
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
    return X, y


def _model(X: np.ndarray, y: np.ndarray, params: SvmParams, alphas: np.ndarray, bias: float, diag) -> SvmModel:
    """The kernel expansion of a finished solve over ``X``; warns when the
    step cap stopped the solve short of ``tol``."""
    if not diag.converged:
        warnings.warn(
            f"SMO stopped at its cap of {diag.sweeps} sweeps with KKT gap {diag.kkt_gap:.3g} "
            f"above tol {params.tol:g}; the model is not at the optimum",
            RuntimeWarning,
            stacklevel=3,
        )
    keep = alphas > _SV_EPS
    return SvmModel(
        support_vectors=X[keep].copy(),
        dual_coefs=(alphas * y)[keep].copy(),
        bias=bias,
        gamma=params.gamma,
    )


def _solve_alone(X: np.ndarray, y: np.ndarray, params: SvmParams, collect_objectives: bool = False) -> tuple:
    """``_solve`` of checked training rows over a Gram of their own."""
    return _solve(rbf_gram(X, X, params.gamma), y, params, collect_objectives)


def _deliver(X: np.ndarray, y: np.ndarray, params: SvmParams, done, solved) -> None:
    """Hand ``done`` the model of a finished solve over ``X``, or the
    step-cap warning that ``_model`` raised for it as an error."""
    try:
        fitted = _model(X, y, params, *solved)
    except RuntimeWarning as exc:  # the fit's own failure, never the queue's
        fitted = exc
    done(fitted)


class _FitQueue:
    """SVM fits queued until their Grams would exceed ``_LOCKSTEP_GRAM_BYTES``,
    then trained in lockstep, one batch per row count.  Fits on one ``X``
    object and gamma, such as two values of C on one split, share a Gram.
    A fit whose Gram alone exceeds the budget trains at once, alone.  Each
    fit gets the bits that ``train_smo`` gives it alone."""

    def __init__(self):
        self.pending: list[tuple] = []  # (X, y, params, done) per fit
        self.grams: set = set()  # the Gram keys of the pending fits
        self.bytes = 0

    def add(self, X: np.ndarray, y: np.ndarray, params: SvmParams, done) -> None:
        """Queue a fit on rows that ``_training_data`` has checked;
        ``done`` gets its ``SvmModel`` or its error (see ``_deliver``)."""
        size = 8 * len(y) ** 2
        if size > _LOCKSTEP_GRAM_BYTES:
            _deliver(X, y, params, done, _solve_alone(X, y, params))
            return
        key = id(X), params.gamma
        if key not in self.grams:
            if self.bytes + size > _LOCKSTEP_GRAM_BYTES:
                self.flush()
            self.grams.add(key)
            self.bytes += size
        self.pending.append((X, y, params, done))

    def flush(self) -> None:
        """Train every pending fit."""
        batches: dict[int, list[tuple]] = {}
        for fit in self.pending:
            batches.setdefault(len(fit[1]), []).append(fit)
        self.pending, self.grams, self.bytes = [], set(), 0
        for n, batch in batches.items():
            sources: dict[tuple, np.ndarray] = {}  # each Gram's rows, in order of first use
            for X, _, params, _ in batch:
                sources.setdefault((id(X), params.gamma), X)
            grams = np.empty((len(sources), n, n))
            for g, ((_, gamma), X) in enumerate(sources.items()):
                grams[g] = rbf_gram(X, X, gamma)
            index = {key: g for g, key in enumerate(sources)}
            problems = [(index[id(X), params.gamma], y, params) for X, y, params, _ in batch]
            for (X, y, params, done), solved in zip(batch, _solve_lockstep(grams, problems)):
                _deliver(X, y, params, done, solved)


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
    X, y = _training_data(X, y)
    solved = _solve_alone(X, y, params, collect_diagnostics)
    model = _model(X, y, params, *solved)
    return model, (solved[2] if collect_diagnostics else None)


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
