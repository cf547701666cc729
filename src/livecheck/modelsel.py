"""Evaluation metric, cross-validation splits, and memoized grid search.

Grid search walks the candidate pipelines stage by stage, calling each
stage's runner once per split; within a split, candidates that share a
prefix of stage configs share its computation (see ``grid_search``).

Preprocessing and feature extraction do not depend on the split, so
the default runners for those stages go through the per-image memo of
``preprocess_images`` and ``feature_groups``: each image is
preprocessed once per config and extracted once per extractor.  The
rows come as one (images, views, features) array in train-then-test
order, and the split only chooses which images train and which test.
The command line keeps that memo through the winner's refit.  The
default classify runner returns a fit request, and the search trains
its requests together in lockstep batches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .pipeline import (
    FAKE_LABEL,
    LIVE_LABEL,
    TransformConfig,
    _memo_scope,
    check_labels,
    feature_groups,
    fit_transform,
    group_margins,
    margin_labels,
    preprocess_images,
)
from .seeds import derive_seed
from .svm import SvmParams, _model, _solve, _solve_lockstep, _training_data, rbf_gram
from .transform import project

__all__ = [
    "EvalReport",
    "ace",
    "five_by_two_splits",
    "GridStage",
    "GridSpec",
    "CandidateResult",
    "GridSearchResult",
    "grid_search",
    "default_runners",
]

STAGE_PREPROCESS = "preprocess"
STAGE_EXTRACT = "extract"
STAGE_TRANSFORM = "transform"
STAGE_CLASSIFY = "classify"

# A search trains its classify stage's fits together, in lockstep batches
# whose distinct Grams take at most this many bytes (select-lbp-aug's 20
# take 2.2 MiB); a fit whose Gram alone exceeds it trains at once, alone.
_LOCKSTEP_GRAM_BYTES = 4 << 20


# ---------------------------------------------------------------------------
# Metric


@dataclass(frozen=True)
class EvalReport:
    """Error rates with the raw counts they came from."""

    fpr: float
    fnr: float
    ace: float
    live_total: int
    fake_total: int
    live_wrong: int
    fake_wrong: int


def ace(predictions: np.ndarray, truth: np.ndarray) -> EvalReport:
    """Average classification error: mean of the per-class error rates.

    The false positive rate is the fraction of live samples called
    fake; the false negative rate is the fraction of fakes called live.
    Both classes must be present in ``truth``.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predictions.shape != truth.shape or predictions.ndim != 1:
        raise ValueError(f"mismatched shapes: {predictions.shape} vs {truth.shape}")
    for arr, what in ((predictions, "predictions"), (truth, "truth")):
        if not ((arr == LIVE_LABEL) | (arr == FAKE_LABEL)).all():
            raise ValueError(f"{what} must contain only +1/-1 labels")
    live = truth == LIVE_LABEL
    fake = ~live
    live_total = int(live.sum())
    fake_total = int(fake.sum())
    if live_total == 0 or fake_total == 0:
        raise ValueError("truth must contain both classes")
    live_wrong = int((predictions[live] == FAKE_LABEL).sum())
    fake_wrong = int((predictions[fake] == LIVE_LABEL).sum())
    fpr = live_wrong / live_total
    fnr = fake_wrong / fake_total
    return EvalReport(
        fpr=fpr,
        fnr=fnr,
        ace=(fpr + fnr) / 2.0,
        live_total=live_total,
        fake_total=fake_total,
        live_wrong=live_wrong,
        fake_wrong=fake_wrong,
    )


# ---------------------------------------------------------------------------
# Cross-validation


def five_by_two_splits(labels: np.ndarray, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Five repetitions of stratified two-fold splitting.

    Each repetition shuffles within every class and deals one half to
    each fold; both (train, test) orientations of a repetition are
    returned, giving ten pairs.  When a class has an odd count the
    extra sample goes to the first or second fold alternately by class
    position, keeping fold sizes within one of each other.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] < 4:
        raise ValueError("need a 1-D label vector with at least 4 samples")
    classes = np.unique(labels)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(5):
        fold_a: list[np.ndarray] = []
        fold_b: list[np.ndarray] = []
        for position, cls in enumerate(classes):
            members = np.flatnonzero(labels == cls)
            if members.size < 2:
                raise ValueError(f"class {cls!r} has fewer than 2 samples")
            shuffled = rng.permutation(members)
            half = (members.size + (1 if position % 2 == 0 else 0)) // 2
            fold_a.append(shuffled[:half])
            fold_b.append(shuffled[half:])
        a = np.sort(np.concatenate(fold_a))
        b = np.sort(np.concatenate(fold_b))
        pairs.append((a, b))
        pairs.append((b, a))
    return pairs


# ---------------------------------------------------------------------------
# Grid definition


@dataclass(frozen=True)
class GridStage:
    name: str
    candidates: tuple

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.candidates:
            raise ValueError(f"stage {self.name!r} has no candidates")


@dataclass(frozen=True)
class GridSpec:
    stages: tuple[GridStage, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError("grid needs at least one stage")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")

    @property
    def size(self) -> int:
        out = 1
        for stage in self.stages:
            out *= len(stage.candidates)
        return out


@dataclass
class CandidateResult:
    indices: tuple[int, ...]
    fold_aces: tuple[float, ...]
    mean_ace: float
    failed: bool = False
    message: str = ""


@dataclass
class GridSearchResult:
    grid: GridSpec
    candidates: list[CandidateResult]
    best_indices: tuple[int, ...]
    executions: dict[str, int] = field(default_factory=dict)
    cache_hits: dict[str, int] = field(default_factory=dict)

    def best_configs(self) -> tuple:
        """The winner's config for each stage.  Raises ``ValueError`` when
        the winner failed, which happens only when every candidate did."""
        best = next(r for r in self.candidates if r.indices == self.best_indices)
        if best.failed:
            winner = "/".join(str(i) for i in best.indices)
            raise ValueError(f"every candidate failed; candidate {winner} failed with {best.message}")
        return tuple(
            stage.candidates[i] for stage, i in zip(self.grid.stages, self.best_indices)
        )


# ---------------------------------------------------------------------------
# Default stage runners


@dataclass
class StageContext:
    """Everything a stage runner may need besides its own config."""

    images: list
    labels: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    split_index: int
    root_seed: int
    augmented: bool


@dataclass
class _SplitRows:
    """Feature rows, or their projections, of one split."""

    train: np.ndarray
    train_y: np.ndarray
    test_groups: np.ndarray  # (test images, views, features)


def _run_preprocess(cfg, upstream, ctx: StageContext):
    return preprocess_images(ctx.images, cfg)


def _run_extract(cfg, pre_images, ctx: StageContext):
    order = np.concatenate([ctx.train_idx, ctx.test_idx])
    groups = feature_groups([pre_images[int(i)] for i in order], ctx.augmented, cfg, ctx.root_seed)
    n_train = len(ctx.train_idx)
    return _SplitRows(
        train=groups[:n_train].reshape(-1, groups.shape[2]),
        train_y=np.repeat(ctx.labels[ctx.train_idx], groups.shape[1]),
        test_groups=groups[n_train:],
    )


def _run_transform(cfg, bundle: _SplitRows, ctx: StageContext):
    standardizer, pca, train_Z = fit_transform(
        bundle.train, cfg, derive_seed(ctx.root_seed, "pca", ctx.split_index)
    )
    return _SplitRows(train_Z, bundle.train_y, project(pca, standardizer.apply(bundle.test_groups)))


@dataclass(eq=False)
class _FitRequest:
    """The default classify runner's result: an SVM fit and the test fold
    its model labels, resolved by ``grid_search`` with the search's other
    fits.  ``outcome`` is then the fold's labels or a ``_Failure``, and
    the inputs are dropped."""

    train: np.ndarray | None
    train_y: np.ndarray | None
    params: SvmParams
    test_groups: np.ndarray | None
    outcome: object = None

    def resolve(self, alphas: np.ndarray, bias: float, diag) -> None:
        """Label the test fold with the model of a finished solve; an error,
        or a warning raised as one, fails this request alone."""
        try:
            model = _model(self.train, self.train_y, self.params, alphas, bias, diag)
            self.outcome = margin_labels(group_margins(model, self.test_groups))
        except Exception as exc:  # scored, flagged, never fatal
            self.outcome = _Failure(f"{type(exc).__name__}: {exc}")
        self.train = self.train_y = self.test_groups = None


def _run_classify(cfg, bundle: _SplitRows, ctx: StageContext):
    train, train_y = _training_data(bundle.train, bundle.train_y)
    return _FitRequest(train, train_y, cfg, bundle.test_groups)


def default_runners() -> dict:
    return {
        STAGE_PREPROCESS: _run_preprocess,
        STAGE_EXTRACT: _run_extract,
        STAGE_TRANSFORM: _run_transform,
        STAGE_CLASSIFY: _run_classify,
    }


# ---------------------------------------------------------------------------
# Search engine


@dataclass
class _Failure:
    message: str


def _gram_key(request: _FitRequest) -> tuple:
    return id(request.train), request.params.gamma


def _resolve_alone(request: _FitRequest) -> None:
    K = rbf_gram(request.train, request.train, request.params.gamma)
    request.resolve(*_solve(K, request.train_y, request.params))


class _Fits:
    """The fit requests of one search, queued until their Grams would
    exceed ``_LOCKSTEP_GRAM_BYTES``, then trained in lockstep, one batch
    for each row count.  Requests on one train-rows object and gamma, such
    as two values of C on one split, share a Gram; a request whose Gram
    alone exceeds the budget, and a batch of one, train with ``_solve``."""

    def __init__(self):
        self.pending: list[_FitRequest] = []
        self.grams: set = set()  # the Gram keys of the pending requests
        self.bytes = 0

    def add(self, request: _FitRequest) -> None:
        size = 8 * len(request.train_y) ** 2
        if size > _LOCKSTEP_GRAM_BYTES:
            _resolve_alone(request)
            return
        if _gram_key(request) not in self.grams:
            if self.bytes + size > _LOCKSTEP_GRAM_BYTES:
                self.flush()
            self.grams.add(_gram_key(request))
            self.bytes += size
        self.pending.append(request)

    def flush(self) -> None:
        batches: dict[int, list[_FitRequest]] = {}
        for request in self.pending:
            batches.setdefault(len(request.train_y), []).append(request)
        self.pending, self.grams, self.bytes = [], set(), 0
        for n, batch in batches.items():
            if len(batch) == 1:
                _resolve_alone(batch[0])
                continue
            sources: dict[tuple, _FitRequest] = {}  # each Gram's first request
            for request in batch:
                sources.setdefault(_gram_key(request), request)
            grams = np.empty((len(sources), n, n))
            for g, request in enumerate(sources.values()):
                grams[g] = rbf_gram(request.train, request.train, request.params.gamma)
            index = {key: g for g, key in enumerate(sources)}
            problems = [(index[_gram_key(r)], r.train_y, r.params) for r in batch]
            for request, solved in zip(batch, _solve_lockstep(grams, problems)):
                request.resolve(*solved)


def _tiebreak_key(result: CandidateResult, grid: GridSpec):
    # A failed candidate never wins.  Prefer cheaper models on equal
    # error: fewer components, then a smaller soft margin, then the
    # earliest candidate.
    pca_fraction = np.inf
    soft_margin = np.inf
    for stage, i in zip(grid.stages, result.indices):
        cfg = stage.candidates[i]
        if isinstance(cfg, TransformConfig):
            pca_fraction = cfg.pca_fraction
        elif isinstance(cfg, SvmParams):
            soft_margin = cfg.C
    return (result.failed, result.mean_ace, pca_fraction, soft_margin, result.indices)


def grid_search(
    images: list,
    labels: np.ndarray,
    grid: GridSpec,
    seed: int,
    *,
    augmented: bool = False,
    splits: list[tuple[np.ndarray, np.ndarray]] | None = None,
    runners: dict | None = None,
    use_cache: bool = True,
) -> GridSearchResult:
    """Score every stage combination with 5x2 cross-validation.

    ``images`` and ``labels`` must pair up one to one, and every label
    must be +1 or -1; otherwise ``ValueError`` is raised before any
    stage runs.

    Stage outputs are memoized for one split at a time, keyed by the
    ``repr`` of every config up to and including the stage, so shared
    prefixes, and equal candidates, are computed once per split.
    The default preprocess and extract runners also share each image's
    result across the splits, keyed by the image object, in the open
    memo scope, or in one of their own that closes when the call
    returns.  A custom preprocess runner that makes new arrays on every
    split thus has them extracted once per split.  ``executions`` counts
    runner calls and ``cache_hits`` the stage results reused, so neither
    depends on that per-image sharing.  ``use_cache=False`` turns both
    memos off.  A candidate that raises on any split is scored with ACE
    1.0 and flagged rather than aborting the search, and never wins
    over one that did not fail.  With caching on or off the returned
    tables are identical.

    Custom ``runners`` may replace any stage; a runner takes
    (config, upstream_value, StageContext) and the last stage must
    return +1/-1 predictions for the test fold.  Runners must not modify
    their upstream value in place, since cached values are shared.  A
    runner may read the split from the context.

    The library's classify runner is the one exception to that contract:
    it checks its training rows as ``train_smo`` does and returns a fit
    request instead of labels.  The search queues its requests and trains
    them in lockstep batches of one row count each
    (``svm._solve_lockstep``) when their distinct Grams would pass
    ``_LOCKSTEP_GRAM_BYTES``, and after the last split; requests on one
    train-rows object and gamma share a Gram.  A request whose Gram alone
    exceeds the budget trains at once, and a batch of one trains alone,
    with ``train_smo``'s solver.  Each fit gets the bits it gets alone, so
    the tables are those of one fit at a time.  A fit that fails when it
    resolves, such as one stopped at the step cap while warnings are
    errors, fails its own candidate with the message ``train_smo`` raises;
    its runner call still counts in ``executions``.  A custom classify
    runner returns labels as before.
    """
    labels = check_labels(images, labels)
    if splits is None:
        splits = five_by_two_splits(labels, derive_seed(seed, "cv"))
    if runners is None:
        runners = default_runners()
    for stage in grid.stages:
        if stage.name not in runners:
            raise ValueError(f"no runner for stage {stage.name!r}")

    memo: dict = {}  # the current split's stage results by key
    fits = _Fits()
    executions = {stage.name: 0 for stage in grid.stages}
    hits = {stage.name: 0 for stage in grid.stages}

    def run_chain(combo: tuple[int, ...], ctx: StageContext):
        value = None
        key: tuple = ()
        for stage, choice in zip(grid.stages, combo):
            cfg = stage.candidates[choice]
            # A config's repr is canonical: frozen dataclasses of plain
            # values.  Equal candidates share a key, and a candidate that
            # cannot be hashed still gets one.
            key += (repr(cfg),)
            if use_cache and key in memo:
                hits[stage.name] += 1
                value = memo[key]
                continue
            if not isinstance(value, _Failure):  # a failure propagates without executing downstream
                try:
                    value = runners[stage.name](cfg, value, ctx)
                    executions[stage.name] += 1
                    if isinstance(value, _FitRequest):
                        fits.add(value)
                except Exception as exc:  # scored, flagged, never fatal
                    value = _Failure(f"{type(exc).__name__}: {exc}")
            if use_cache:
                memo[key] = value
        return value

    combos = list(itertools.product(*[range(len(s.candidates)) for s in grid.stages]))
    outcomes: dict[tuple[int, ...], list] = {c: [] for c in combos}
    truths = []

    with _memo_scope(use_cache):
        for split_index, (train_idx, test_idx) in enumerate(splits):
            memo.clear()
            ctx = StageContext(
                images=images,
                labels=labels,
                train_idx=np.asarray(train_idx),
                test_idx=np.asarray(test_idx),
                split_index=split_index,
                root_seed=seed,
                augmented=augmented,
            )
            truths.append(labels[ctx.test_idx])
            for combo in combos:
                outcomes[combo].append(run_chain(combo, ctx))
    # The last batch trains after the memos are gone, so its Grams take
    # the place of the search's per-image results.
    memo.clear()
    fits.flush()

    fold_tables: dict[tuple[int, ...], list[float]] = {c: [] for c in combos}
    failures: dict[tuple[int, ...], str] = {}
    for combo in combos:
        for outcome, truth in zip(outcomes[combo], truths):
            if isinstance(outcome, _FitRequest):
                outcome = outcome.outcome
            if isinstance(outcome, _Failure):
                fold_tables[combo].append(1.0)
                failures.setdefault(combo, outcome.message)
            else:
                fold_tables[combo].append(ace(np.asarray(outcome), truth).ace)

    results = [
        CandidateResult(
            indices=combo,
            fold_aces=tuple(fold_tables[combo]),
            mean_ace=float(np.mean(fold_tables[combo])),
            failed=combo in failures,
            message=failures.get(combo, ""),
        )
        for combo in combos
    ]

    best = min(results, key=lambda result: _tiebreak_key(result, grid))
    return GridSearchResult(
        grid=grid,
        candidates=results,
        best_indices=best.indices,
        executions=executions,
        cache_hits=hits,
    )

