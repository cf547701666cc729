"""Evaluation metric, cross-validation splits, and cached grid search.

Grid search walks the candidate pipelines stage by stage, calling each
stage's runner once per split.  Every stage output is memoized under a
key built from the stage configuration, the upstream result's key, and
the split identity, so two candidates that share a prefix share its
computation.  The split identity chains from a root key over the image
content, the labels, the augmentation flag, the root seed and the
package source, so no other data, seed or code version can reuse a
result.

Preprocessing and feature extraction do not depend on the split, so
the default runners for those stages go through the per-image memo of
``preprocess_images`` and ``feature_groups``: each image is
preprocessed once per config and extracted once per extractor, and the
split only chooses which rows train and which test.  The command line
keeps that memo through the winner's refit.

An optional on-disk cache makes stage results survive across runs.
Only a search that uses the default runners goes to disk, so the
package source digest covers every runner whose results are stored.
Entries are evicted oldest-first once the directory exceeds its byte
budget.
"""

from __future__ import annotations

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
    _memo_scope,
    check_labels,
    feature_groups,
    fit_transform,
    preprocess_images,
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


def _stage_key(stage_name: str, cfg, upstream_key: str) -> str:
    # A config's repr is canonical: frozen dataclasses of plain values.
    material = "\x1f".join((stage_name, repr(cfg), upstream_key))
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

    def get(self, key: str):
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except Exception:
            return None  # treat missing or unreadable entries as misses
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


def _run_preprocess(cfg, upstream, ctx: StageContext):
    return preprocess_images(ctx.images, cfg)


def _run_extract(cfg, pre_images, ctx: StageContext):
    order = np.concatenate([ctx.train_idx, ctx.test_idx])
    groups = feature_groups([pre_images[int(i)] for i in order], ctx.augmented, cfg, ctx.root_seed)
    train = groups[: len(ctx.train_idx)]
    return _SplitRows(
        train=np.vstack(train),
        train_y=np.repeat(ctx.labels[ctx.train_idx], [len(g) for g in train]),
        test_groups=groups[len(ctx.train_idx) :],
    )


def _split_rows(rows: np.ndarray, groups: list[np.ndarray]) -> list[np.ndarray]:
    """Cut stacked ``rows`` back into pieces as long as ``groups``."""
    ends = np.cumsum([len(g) for g in groups])
    return [rows[end - len(g) : end] for g, end in zip(groups, ends)]


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


def _tiebreak_key(result: CandidateResult, grid: GridSpec):
    # Prefer cheaper models on equal error: fewer components, then a
    # smaller soft margin, then the earliest candidate.
    pca_fraction = np.inf
    soft_margin = np.inf
    for stage, i in zip(grid.stages, result.indices):
        cfg = stage.candidates[i]
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
) -> GridSearchResult:
    """Score every stage combination with 5x2 cross-validation.

    ``images`` and ``labels`` must pair up one to one, and every label
    must be +1 or -1; otherwise ``ValueError`` is raised before any
    stage runs.

    Stage outputs are cached by (stage config, upstream key, split, data),
    so shared prefixes are computed once.  The default preprocess and
    extract runners also share each image's result across the splits,
    keyed by the image object, in the open memo scope, or in one of
    their own that closes when the call returns.  A custom preprocess
    runner that makes new arrays on every split thus has them extracted
    once per split.  ``executions`` counts runner calls and
    ``cache_hits`` the stage results reused, so neither depends on that
    per-image sharing.  ``cache_dir`` (or the LIVECHECK_CACHE_DIR
    environment variable) adds a persistent layer, used only when every
    stage runs its default runner; a warm one runs no runner and leaves
    the memo scope empty.  ``use_cache=False`` turns every layer off,
    the memo included.  A candidate that raises on any split is scored
    with ACE 1.0 and flagged rather than aborting the search.  With caching on or off the returned
    tables are identical.

    Custom ``runners`` may replace any stage; a runner takes
    (config, upstream_value, StageContext) and the last stage must
    return +1/-1 predictions for the test fold.  Runners must not modify
    their upstream value in place, since cached values are shared.  A
    runner may read the split from the context: its output is never
    shared with another split.  A search with any custom runner is
    memoized within this call only.
    """
    labels = check_labels(images, labels)
    if splits is None:
        splits = five_by_two_splits(labels, derive_seed(seed, "cv"))
    defaults = default_runners()
    if runners is None:
        runners = defaults
    for stage in grid.stages:
        if stage.name not in runners:
            raise ValueError(f"no runner for stage {stage.name!r}")

    # Keys do not name runners: the code version in the root key covers
    # the default runners, the only ones whose results go to disk.
    disk = None
    if use_cache and all(runners[s.name] is defaults.get(s.name) for s in grid.stages):
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_ENV_VAR) or None
        if cache_dir is not None:
            disk = DiskCache(cache_dir, DEFAULT_CACHE_BUDGET)

    root_key = _root_key(images, labels, augmented, seed)
    memo: dict = {}  # stage results by key
    executions = {stage.name: 0 for stage in grid.stages}
    hits = {stage.name: 0 for stage in grid.stages}

    def run_chain(combo: tuple[int, ...], ctx: StageContext, split_id: str):
        value = None
        upstream_key = split_id
        for stage, choice in zip(grid.stages, combo):
            cfg = stage.candidates[choice]
            key = _stage_key(stage.name, cfg, upstream_key)
            upstream_key = key
            if use_cache and key in memo:
                hits[stage.name] += 1
                value = memo[key]
                continue
            if disk is not None:
                cached = disk.get(key)
                if cached is not None:
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
            if disk is not None and not isinstance(value, _Failure):
                disk.put(key, value)
        return value

    combos = list(itertools.product(*[range(len(s.candidates)) for s in grid.stages]))
    fold_tables: dict[tuple[int, ...], list[float]] = {c: [] for c in combos}
    failures: dict[tuple[int, ...], str] = {}

    with _memo_scope(use_cache):
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

