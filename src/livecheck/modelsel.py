"""Evaluation metric, cross-validation splits, and cached grid search.

Grid search walks the candidate pipelines stage by stage, calling each
stage's runner once per split.  Every stage output is memoized under a
key built from the stage configuration, the name of the runner that
computes it, the upstream result's key, and the split identity, so two
candidates that share a prefix share its computation.  The split
identity chains from a root key over the image content, the labels,
the augmentation flag, the root seed and the package source, so no
other data, seed or code version can reuse a result.

Preprocessing and feature extraction do not depend on the split, so
the default runners for those stages also share per-image results
across the splits of one search: each image is preprocessed once per
preprocessing config and extracted once per extractor.  Those results
go into the search's stage memo, keyed by the stage, its config and
the input image's identity, and are dropped when the search returns.
The split then only chooses which rows train and which test.

An optional on-disk cache makes stage results survive across runs;
entries are evicted oldest-first once the directory exceeds its byte
budget.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import itertools
import math
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .pipeline import (
    FAKE_LABEL,
    LIVE_LABEL,
    TransformConfig,
    check_feature_lengths,
    check_labels,
    fit_transform,
    image_features,
    preprocess_image,
    realize_extractor,
)
from .seeds import derive_seed
from .svm import SvmParams, decision_scores, train_smo
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
    "CACHE_ENV_VAR",
]

CACHE_ENV_VAR = "LIVECHECK_CACHE_DIR"
DEFAULT_CACHE_BUDGET = 1 << 30  # one GiB

STAGE_PREPROCESS = "preprocess"
STAGE_EXTRACT = "extract"
STAGE_TRANSFORM = "transform"
STAGE_CLASSIFY = "classify"


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
        if not np.all(np.isin(arr, (LIVE_LABEL, FAKE_LABEL))):
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
        return tuple(
            stage.candidates[i] for stage, i in zip(self.grid.stages, self.best_indices)
        )


# ---------------------------------------------------------------------------
# Cache plumbing


@dataclass
class _Failure:
    message: str


_MISSING = object()  # a disk miss, told apart from a stored ``None``


@functools.cache
def _code_version() -> str:
    """Digest of the package source, so edited code never reuses results."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def _content_digest(img) -> bytes:
    """SHA-256 of an array's shape, dtype and bytes."""
    arr = np.ascontiguousarray(img)
    h = hashlib.sha256(repr((arr.shape, arr.dtype.str)).encode("utf-8"))
    h.update(arr.tobytes())
    return h.digest()


def _root_key(images: list, labels: np.ndarray, augmented: bool, seed: int) -> str:
    h = hashlib.sha256()
    h.update(repr((_code_version(), bool(augmented), int(seed))).encode("utf-8"))
    h.update(np.asarray(labels, dtype=np.float64).tobytes())
    for img in images:
        h.update(_content_digest(img))
    return h.hexdigest()


def _split_identity(root_key: str, split_index: int, train_idx: np.ndarray, test_idx: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(root_key.encode())
    h.update(str(split_index).encode())
    h.update(np.asarray(train_idx, dtype=np.int64).tobytes())
    h.update(np.asarray(test_idx, dtype=np.int64).tobytes())
    return h.hexdigest()


def _stage_key(stage_name: str, cfg, runner_name: str, upstream_key: str) -> str:
    # A config's repr is canonical: frozen dataclasses of plain values.
    material = "\x1f".join((stage_name, runner_name, repr(cfg), upstream_key))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class DiskCache:
    """Pickle files under one directory with LRU eviction by mtime.

    Writes keep a running byte total, so the directory is scanned, and
    its oldest entries removed, only on the first write and when the
    total passes the budget; another search's writes and removals count
    from the next scan on.

    Loading an entry unpickles it, so only point this at a directory no
    one untrusted can write to.
    """

    def __init__(self, root: str | Path, budget_bytes: int = DEFAULT_CACHE_BUDGET):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.budget = int(budget_bytes)
        self._bytes = math.inf  # unknown until the first write scans

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def get(self, key: str, default=None):
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except Exception:
            return default  # treat missing or unreadable entries as misses
        try:
            os.utime(path)
        except FileNotFoundError:
            pass  # evicted by a concurrent search since it was read
        return value

    def put(self, key: str, value) -> None:
        # Write a temporary file and rename it into place, so a reader
        # never sees a half-written entry.
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                size = fh.tell()
            os.replace(tmp, self._path(key))
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        self._bytes += size
        if self._bytes > self.budget:
            self._bytes = self._evict()

    def _evict(self) -> int:
        """Remove the oldest entries until the directory fits the budget;
        returns the bytes left."""
        entries = []
        for path in self.root.glob("*.pkl"):
            try:
                st = path.stat()
            except FileNotFoundError:
                continue  # removed by a concurrent search
            entries.append((st.st_mtime, st.st_size, path))
        total = sum(size for _, size, _ in entries)
        for _, size, path in sorted(entries):
            if total <= self.budget:
                break
            path.unlink(missing_ok=True)
            total -= size
        return total


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
    test_groups: list[np.ndarray]  # per test image, one row per view


# The running ``grid_search``'s stage memo, so every split after the
# first finds each image's result there; no other call sees it.
_SEARCH_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "livecheck_search_memo", default=None
)


def _per_image(tag: tuple, images: list, compute) -> list:
    """``[compute(img) for img in images]``, reusing results from the
    running search's memo under ``tag`` and each image's identity.  An
    entry holds its image, so no id is reused while the search runs."""
    memo = _SEARCH_MEMO.get()
    if memo is None:
        return [compute(img) for img in images]
    out = []
    for img in images:
        key = (*tag, id(img))
        if key not in memo:
            memo[key] = (img, compute(img))
        out.append(memo[key][1])
    return out


def _run_preprocess(cfg, upstream, ctx: StageContext):
    return _per_image(
        (STAGE_PREPROCESS, repr(cfg)), ctx.images, lambda img: preprocess_image(img, cfg)
    )


def _run_extract(cfg, pre_images, ctx: StageContext):
    extractor, banks = realize_extractor(cfg, ctx.root_seed)
    order = np.concatenate([ctx.train_idx, ctx.test_idx])
    groups = check_feature_lengths(_per_image(
        (STAGE_EXTRACT, repr(cfg), int(ctx.root_seed), bool(ctx.augmented)),
        [pre_images[int(i)] for i in order],
        lambda img: image_features(img, ctx.augmented, extractor, banks),
    ))
    train = groups[: len(ctx.train_idx)]
    return _SplitRows(
        train=np.vstack(train),
        train_y=np.repeat(ctx.labels[ctx.train_idx], [len(g) for g in train]),
        test_groups=groups[len(ctx.train_idx) :],
    )


def _split_rows(rows: np.ndarray, groups: list[np.ndarray]) -> list[np.ndarray]:
    """Cut stacked ``rows`` back into pieces as long as ``groups``."""
    return np.split(rows, np.cumsum([len(g) for g in groups])[:-1])


def _run_transform(cfg, bundle: _SplitRows, ctx: StageContext):
    standardizer, pca, train_Z = fit_transform(
        bundle.train, cfg, derive_seed(ctx.root_seed, "pca", ctx.split_index)
    )
    # One call for the whole test fold: a row projects to the same bits
    # alone or in a batch.
    test_Z = project(pca, standardizer.apply(np.vstack(bundle.test_groups)))
    return _SplitRows(
        train=train_Z,
        train_y=bundle.train_y,
        test_groups=_split_rows(test_Z, bundle.test_groups),
    )


def _run_classify(cfg, bundle: _SplitRows, ctx: StageContext):
    model, _ = train_smo(bundle.train, bundle.train_y, cfg)
    # One call for the whole test fold: a row scores the same bits alone
    # or in a batch, so each image's mean is that of its own call.
    scores = decision_scores(model, np.vstack(bundle.test_groups))
    return np.array([
        LIVE_LABEL if float(part.mean()) >= 0.0 else FAKE_LABEL
        for part in _split_rows(scores, bundle.test_groups)
    ])


def default_runners() -> dict:
    return {
        STAGE_PREPROCESS: _run_preprocess,
        STAGE_EXTRACT: _run_extract,
        STAGE_TRANSFORM: _run_transform,
        STAGE_CLASSIFY: _run_classify,
    }


# ---------------------------------------------------------------------------
# Search engine


def _tiebreak_key(result: CandidateResult, configs: tuple):
    # Prefer cheaper models on equal error: fewer components, then a
    # smaller soft margin, then the earliest candidate.
    pca_fraction = np.inf
    soft_margin = np.inf
    for cfg in configs:
        if isinstance(cfg, TransformConfig):
            pca_fraction = cfg.pca_fraction
        elif isinstance(cfg, SvmParams):
            soft_margin = cfg.C
    return (result.mean_ace, pca_fraction, soft_margin, result.indices)


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
    cache_dir: str | Path | None = None,
    cache_budget: int = DEFAULT_CACHE_BUDGET,
) -> GridSearchResult:
    """Score every stage combination with 5x2 cross-validation.

    ``images`` and ``labels`` must pair up one to one, and every label
    must be +1 or -1; otherwise ``ValueError`` is raised before any
    stage runs.

    Stage outputs are cached by (stage config, upstream key, split, data),
    so shared prefixes are computed once.  The default preprocess and
    extract runners also share each image's result across the splits
    of this call, keyed by the image object; nothing they keep outlives
    the call.  A custom preprocess runner that makes new arrays on every
    split thus has them extracted once per split.  ``executions`` counts
    runner calls and ``cache_hits`` the stage results reused, so neither
    depends on that per-image sharing.
    ``cache_dir`` (or the LIVECHECK_CACHE_DIR environment variable) adds
    a persistent layer.  ``use_cache=False`` turns every layer off.  A
    candidate that raises on any split is scored with ACE 1.0 and
    flagged rather than aborting the search.  With caching on or off
    the returned tables are identical.

    Custom ``runners`` may replace any stage; a runner takes
    (config, upstream_value, StageContext) and the last stage must
    return +1/-1 predictions for the test fold.  Runners must not modify
    their upstream value in place, since cached values are shared.  A
    runner may read the split from the context: its output is never
    shared with another split.  A runner enters the stage's cache key
    by its module and qualified name.  Only a runner with an importable
    name uses the disk cache.  A runner without a
    qualified name (a ``functools.partial``, a callable instance), a
    lambda, or one defined inside a function (a closure, whose name
    holds ``<locals>`` and does not tell it from its siblings) is
    memoized within this call only, and so is every stage after it.
    """
    labels = check_labels(images, labels)
    if splits is None:
        splits = five_by_two_splits(labels, derive_seed(seed, "cv"))
    if runners is None:
        runners = default_runners()
    # A stage's key names its runner and the runners upstream of it, so
    # it may go to disk only while every one of those names is unique.
    runner_names, on_disk = {}, {}
    portable = True
    for stage in grid.stages:
        if stage.name not in runners:
            raise ValueError(f"no runner for stage {stage.name!r}")
        run = runners[stage.name]
        name = getattr(run, "__qualname__", None)
        runner_names[stage.name] = f"{getattr(run, '__module__', None)}.{name}"
        portable = portable and bool(name) and "<" not in name
        on_disk[stage.name] = portable

    disk = None
    if use_cache:
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_ENV_VAR) or None
        if cache_dir is not None:
            disk = DiskCache(cache_dir, cache_budget)

    root_key = _root_key(images, labels, augmented, seed)
    memo: dict = {}  # stage results by key string, per-image ones by tuple
    executions = {stage.name: 0 for stage in grid.stages}
    hits = {stage.name: 0 for stage in grid.stages}

    def run_chain(combo: tuple[int, ...], ctx: StageContext, split_id: str):
        value = None
        upstream_key = split_id
        for stage, choice in zip(grid.stages, combo):
            cfg = stage.candidates[choice]
            key = _stage_key(stage.name, cfg, runner_names[stage.name], upstream_key)
            upstream_key = key
            if use_cache and key in memo:
                hits[stage.name] += 1
                value = memo[key]
                continue
            stage_disk = disk if on_disk[stage.name] else None
            if stage_disk is not None:
                cached = stage_disk.get(key, _MISSING)
                if cached is not _MISSING:
                    hits[stage.name] += 1
                    memo[key] = cached
                    value = cached
                    continue
            if isinstance(value, _Failure):
                memo[key] = value  # propagate without executing downstream
                continue
            try:
                value = runners[stage.name](cfg, value, ctx)
                executions[stage.name] += 1
            except Exception as exc:  # scored, flagged, never fatal
                value = _Failure(f"{type(exc).__name__}: {exc}")
            if use_cache:
                memo[key] = value
            if stage_disk is not None and not isinstance(value, _Failure):
                stage_disk.put(key, value)
        return value

    combos = list(itertools.product(*[range(len(s.candidates)) for s in grid.stages]))
    fold_tables: dict[tuple[int, ...], list[float]] = {c: [] for c in combos}
    failures: dict[tuple[int, ...], str] = {}

    memo_token = _SEARCH_MEMO.set(memo if use_cache else None)
    try:
        for split_index, (train_idx, test_idx) in enumerate(splits):
            ctx = StageContext(
                images=images,
                labels=labels,
                train_idx=np.asarray(train_idx),
                test_idx=np.asarray(test_idx),
                split_index=split_index,
                root_seed=seed,
                augmented=augmented,
            )
            split_id = _split_identity(root_key, split_index, ctx.train_idx, ctx.test_idx)
            truth = labels[ctx.test_idx]
            for combo in combos:
                outcome = run_chain(combo, ctx, split_id)
                if isinstance(outcome, _Failure):
                    fold_tables[combo].append(1.0)
                    failures.setdefault(combo, outcome.message)
                else:
                    fold_tables[combo].append(ace(np.asarray(outcome), truth).ace)
    finally:
        _SEARCH_MEMO.reset(memo_token)

    results = []
    for combo in combos:
        aces = tuple(fold_tables[combo])
        results.append(
            CandidateResult(
                indices=combo,
                fold_aces=aces,
                mean_ace=float(np.mean(aces)),
                failed=combo in failures,
                message=failures.get(combo, ""),
            )
        )

    def sort_key(result: CandidateResult):
        configs = tuple(
            stage.candidates[i] for stage, i in zip(grid.stages, result.indices)
        )
        return _tiebreak_key(result, configs)

    best = min(results, key=sort_key)
    return GridSearchResult(
        grid=grid,
        candidates=results,
        best_indices=best.indices,
        executions=executions,
        cache_hits=hits,
    )

