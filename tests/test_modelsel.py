"""Metric, 5x2 cross-validation, and the memoized grid search engine."""

import functools
import hashlib
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from livecheck import load_dataset, load_images, modelsel, pipeline, svm, write_dataset_tree
from livecheck.convnet import ConvLayerConfig, ConvNetConfig
from livecheck.lbp import LbpConfig
from livecheck.config import parse_config
from livecheck.modelsel import (
    GridSpec,
    GridStage,
    ace,
    default_runners,
    five_by_two_splits,
    grid_search,
)
from livecheck.pipeline import (
    PipelineConfig,
    PreprocessConfig,
    TrainedPipeline,
    TransformConfig,
    _image_rows,
    feature_groups,
    fit_transform,
    preprocess_images,
)
from livecheck.seeds import derive_seed
from livecheck.svm import SvmParams, train_smo
from livecheck.synthdata import make_texture_dataset

from conftest import PERFBENCH, count_extracted
from oracles import classify_runner_per_image, transform_runner_per_image


class TestAce:
    def test_perfect_predictions(self):
        truth = np.array([1.0, 1.0, -1.0, -1.0])
        report = ace(truth.copy(), truth)
        assert report.ace == 0.0
        assert report.fpr == 0.0 and report.fnr == 0.0

    def test_everything_wrong(self):
        truth = np.array([1.0, -1.0, 1.0, -1.0])
        report = ace(-truth, truth)
        assert report.ace == 1.0

    def test_one_sided_errors(self):
        """Live all right, half the fakes wrong: FPR 0, FNR 0.5, ACE 0.25."""
        truth = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
        preds = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
        report = ace(preds, truth)
        assert report.fpr == 0.0
        assert report.fnr == 0.5
        assert report.ace == 0.25
        assert report.fake_wrong == 2 and report.fake_total == 4

    def test_unbalanced_classes_weighted_equally(self):
        """ACE averages the class rates, not the pooled error."""
        truth = np.concatenate([np.ones(9), -np.ones(1)])
        preds = np.concatenate([np.ones(9), np.ones(1)])  # only the fake is wrong
        report = ace(preds, truth)
        assert report.ace == 0.5  # pooled error would be 0.1

    def test_single_class_truth_rejected(self):
        with pytest.raises(ValueError):
            ace(np.ones(3), np.ones(3))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            ace(np.array([1.0, 0.0]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            ace(np.ones(3), np.array([1.0, -1.0]))


class TestFiveByTwo:
    def test_ten_pairs_with_swapped_roles(self):
        labels = np.array([1.0] * 6 + [-1.0] * 6)
        pairs = five_by_two_splits(labels, seed=0)
        assert len(pairs) == 10
        for rep in range(5):
            a_train, a_test = pairs[2 * rep]
            b_train, b_test = pairs[2 * rep + 1]
            np.testing.assert_array_equal(a_train, b_test)
            np.testing.assert_array_equal(a_test, b_train)

    def test_folds_partition_the_data(self):
        labels = np.array([1.0] * 7 + [-1.0] * 8)
        for train, test in five_by_two_splits(labels, seed=3):
            merged = np.sort(np.concatenate([train, test]))
            np.testing.assert_array_equal(merged, np.arange(15))

    def test_stratified_within_one(self):
        labels = np.array([1.0] * 9 + [-1.0] * 7)
        for train, test in five_by_two_splits(labels, seed=1):
            for fold in (train, test):
                live = int((labels[fold] == 1.0).sum())
                fake = int((labels[fold] == -1.0).sum())
                assert abs(live - (9 - live)) <= 1
                assert abs(fake - (7 - fake)) <= 1

    def test_balanced_ten_gives_folds_of_five(self):
        labels = np.array([1.0] * 5 + [-1.0] * 5)
        for train, test in five_by_two_splits(labels, seed=2):
            assert len(train) == 5 and len(test) == 5

    def test_seeded_and_distinct_across_reps(self):
        labels = np.array([1.0] * 10 + [-1.0] * 10)
        a = five_by_two_splits(labels, seed=9)
        b = five_by_two_splits(labels, seed=9)
        for (t1, s1), (t2, s2) in zip(a, b):
            np.testing.assert_array_equal(t1, t2)
            np.testing.assert_array_equal(s1, s2)
        folds = {tuple(train) for train, _ in a}
        assert len(folds) >= 6  # shuffling actually varies the reps

    def test_too_small_class_rejected(self):
        with pytest.raises(ValueError):
            five_by_two_splits(np.array([1.0, 1.0, 1.0, -1.0]), seed=0)


class TestDeriveSeed:
    # Roots below 2**32 keep the streams they had when integers were masked
    # to 32 bits, so no model or digest moves.
    PINNED = {
        (7, "cv"): 2477646526,
        (2015, "select-lbp-aug", "train"): 3156142285,
        (42, "filters", 1): 942406681,
        (0, "pca", 3): 1459501428,
        (2**32 - 1, "smo"): 1731113524,
    }

    def test_values_below_two_to_the_32_are_pinned(self):
        assert {path: derive_seed(*path) for path in self.PINNED} == self.PINNED

    def test_large_root_does_not_alias_its_low_bits(self):
        assert derive_seed(7 + 2**32, "cv") != derive_seed(7, "cv")
        labels = np.array([1.0] * 10 + [-1.0] * 10)
        folds = [
            [train.tolist() for train, _ in five_by_two_splits(labels, derive_seed(root, "cv"))]
            for root in (7, 7 + 2**32)
        ]
        assert folds[0] != folds[1]

    def test_negative_parts_rejected(self):
        for path in ((-1, "cv"), (7, "filters", -1)):
            with pytest.raises(ValueError, match="non-negative"):
                derive_seed(*path)


def _toy_problem():
    """Twenty samples, one deterministic split."""
    labels = np.concatenate([np.ones(10), -np.ones(10)])
    images = [np.full((2, 2), float(i)) for i in range(20)]
    train = np.concatenate([np.arange(5), np.arange(10, 15)])
    test = np.concatenate([np.arange(5, 10), np.arange(15, 20)])
    return images, labels, [(train, test)]


def _named_extract(cfg, upstream, ctx):
    return cfg


def _named_classify(cfg, upstream, ctx):
    truth = ctx.labels[ctx.test_idx]
    if upstream == "good":
        return truth.copy()
    if upstream == "half":
        flipped = truth.copy()
        flipped[: len(flipped) // 2] *= -1.0
        return flipped
    return -truth


def _counting_runners(calls):
    """Two-stage synthetic pipeline with observable execution counts."""

    def run_extract(cfg, upstream, ctx):
        calls["extract"] += 1
        return _named_extract(cfg, upstream, ctx)

    def run_classify(cfg, upstream, ctx):
        calls["classify"] += 1
        return _named_classify(cfg, upstream, ctx)

    return {"extract": run_extract, "classify": run_classify}


class TestGridSearch:
    def test_planted_best_candidate_found(self):
        images, labels, splits = _toy_problem()
        calls = {"extract": 0, "classify": 0}
        grid = GridSpec(
            stages=(
                GridStage("extract", ("bad", "half", "good")),
                GridStage("classify", ("only",)),
            )
        )
        result = grid_search(
            images, labels, grid, seed=0, splits=splits, runners=_counting_runners(calls)
        )
        assert result.best_indices == (2, 0)
        assert result.best_configs() == ("good", "only")
        by_combo = {r.indices: r for r in result.candidates}
        assert by_combo[(2, 0)].mean_ace == 0.0
        assert by_combo[(0, 0)].mean_ace == 1.0
        assert 0.0 < by_combo[(1, 0)].mean_ace <= 0.6

    def test_shared_prefix_computed_once(self):
        """3 extract x 4 classify over one split: extractor runs 3 times."""
        images, labels, splits = _toy_problem()
        calls = {"extract": 0, "classify": 0}
        grid = GridSpec(
            stages=(
                GridStage("extract", ("bad", "half", "good")),
                GridStage("classify", ("a", "b", "c", "d")),
            )
        )
        result = grid_search(
            images, labels, grid, seed=0, splits=splits, runners=_counting_runners(calls)
        )
        assert calls["extract"] == 3
        assert result.executions["extract"] == 3
        assert calls["classify"] == 12
        assert result.cache_hits["extract"] == 9

    def test_equal_candidates_share_results(self):
        """``c = 1|1`` names one SVM twice: the second candidate reuses
        the first one's predictions on every split."""
        parsed = parse_config("[classify]\nc = 1|1\ngamma = 0.05\n[search]\nseed = 2\n")
        images, labels = make_texture_dataset(6, size=24, seed=8, blur_sigma=0.6)
        result = grid_search(images, labels, parsed.grid_spec(), parsed.seed)
        assert result.executions["classify"] == 10
        assert result.cache_hits["classify"] == 10
        first, second = result.candidates
        assert first.fold_aces == second.fold_aces

    def test_cached_and_uncached_identical(self):
        images, labels, splits = _toy_problem()
        grid = GridSpec(
            stages=(
                GridStage("extract", ("bad", "half", "good")),
                GridStage("classify", ("a", "b")),
            )
        )
        cached = grid_search(
            images, labels, grid, seed=0, splits=splits,
            runners=_counting_runners({"extract": 0, "classify": 0}),
        )
        uncached = grid_search(
            images, labels, grid, seed=0, splits=splits,
            runners=_counting_runners({"extract": 0, "classify": 0}),
            use_cache=False,
        )
        assert cached.best_indices == uncached.best_indices
        for a, b in zip(cached.candidates, uncached.candidates):
            assert a.indices == b.indices
            assert a.fold_aces == b.fold_aces  # bitwise: tuples of floats
            assert a.mean_ace == b.mean_ace

    def test_failing_candidate_flagged_not_fatal(self):
        images, labels, splits = _toy_problem()

        def run_extract(cfg, upstream, ctx):
            if cfg == "boom":
                raise ValueError("synthetic failure")
            return cfg

        def run_classify(cfg, upstream, ctx):
            return ctx.labels[ctx.test_idx].copy()

        grid = GridSpec(
            stages=(
                GridStage("extract", ("boom", "good")),
                GridStage("classify", ("only",)),
            )
        )
        result = grid_search(
            images, labels, grid, seed=0, splits=splits,
            runners={"extract": run_extract, "classify": run_classify},
        )
        by_combo = {r.indices: r for r in result.candidates}
        assert by_combo[(0, 0)].failed
        assert by_combo[(0, 0)].mean_ace == 1.0
        assert "synthetic failure" in by_combo[(0, 0)].message
        assert not by_combo[(1, 0)].failed
        assert result.best_indices == (1, 0)

    def test_tie_breaks_prefer_cheaper_models(self):
        """Equal ACE: fewer components wins, then smaller C, then order."""
        images, labels, splits = _toy_problem()

        def run_transform(cfg, upstream, ctx):
            return None

        def run_classify(cfg, upstream, ctx):
            return ctx.labels[ctx.test_idx].copy()  # every combo is perfect

        grid = GridSpec(
            stages=(
                GridStage("transform", (TransformConfig(pca_fraction=0.5), TransformConfig(pca_fraction=0.1))),
                GridStage("classify", (SvmParams(C=100.0), SvmParams(C=1.0))),
            )
        )
        result = grid_search(
            images, labels, grid, seed=0, splits=splits,
            runners={"transform": run_transform, "classify": run_classify},
        )
        assert result.best_indices == (1, 1)

    def test_failed_candidate_loses_tie_at_worst_error(self):
        """An ok candidate wrong on every image ties a failed one at ACE
        1.0; the failed one has the smaller C but must not win."""
        images, labels, splits = _toy_problem()

        def run_classify(cfg, upstream, ctx):
            if cfg.C == 1.0:
                raise ValueError("synthetic failure")
            return -ctx.labels[ctx.test_idx]

        grid = GridSpec(stages=(GridStage("classify", (SvmParams(C=10.0), SvmParams(C=1.0))),))
        result = grid_search(images, labels, grid, seed=0, splits=splits, runners={"classify": run_classify})
        assert [(r.mean_ace, r.failed) for r in result.candidates] == [(1.0, False), (1.0, True)]
        assert result.best_indices == (0,)

    def test_failed_candidate_loses_tie_on_fewer_components(self):
        images, labels, splits = _toy_problem()

        def run_transform(cfg, upstream, ctx):
            if cfg.pca_fraction == 0.1:
                raise ValueError("synthetic failure")
            return None

        def run_classify(cfg, upstream, ctx):
            return -ctx.labels[ctx.test_idx]

        grid = GridSpec(
            stages=(
                GridStage("transform", (TransformConfig(pca_fraction=0.1), TransformConfig(pca_fraction=0.5))),
                GridStage("classify", (SvmParams(C=1.0),)),
            )
        )
        result = grid_search(
            images, labels, grid, seed=0, splits=splits,
            runners={"transform": run_transform, "classify": run_classify},
        )
        assert [(r.mean_ace, r.failed) for r in result.candidates] == [(1.0, True), (1.0, False)]
        assert result.best_indices == (1, 0)

    def test_every_candidate_failing_still_picks_one(self):
        """Failed candidates break ties among themselves as usual; the
        winner stays flagged for the caller to report."""
        images, labels, splits = _toy_problem()

        def run_classify(cfg, upstream, ctx):
            raise ValueError(f"no model for C={cfg.C}")

        grid = GridSpec(stages=(GridStage("classify", (SvmParams(C=10.0), SvmParams(C=1.0))),))
        result = grid_search(images, labels, grid, seed=0, splits=splits, runners={"classify": run_classify})
        assert result.best_indices == (1,)
        assert [(r.failed, r.message) for r in result.candidates] == [
            (True, "ValueError: no model for C=10.0"),
            (True, "ValueError: no model for C=1.0"),
        ]

    def test_best_configs_raises_when_every_candidate_failed(self):
        """Blocks finer than the 32x32 images fail every candidate; the
        winner is still picked, but it has no configs to deploy."""
        images, labels = make_texture_dataset(4, size=32, seed=11)
        grid = GridSpec(
            stages=(
                GridStage("preprocess", (PreprocessConfig(),)),
                GridStage("extract", (LbpConfig(variant="uniform", blocks=(40, 40)),)),
                GridStage("transform", (TransformConfig(pca_fraction=0.4),)),
                GridStage("classify", (SvmParams(C=0.5, gamma=0.5), SvmParams(C=5.0, gamma=0.5))),
            )
        )
        result = grid_search(images, labels, grid, seed=21)
        assert [c.failed for c in result.candidates] == [True, True]
        assert result.best_indices == (0, 0, 0, 0)
        with pytest.raises(ValueError) as info:
            result.best_configs()
        assert str(info.value) == (
            "every candidate failed; candidate 0/0/0/0 failed with "
            "ValueError: block grid of 40 is too fine for extent 30"
        )

    def test_stage_results_die_with_their_split(self):
        """The stage memo holds one split: when split k+1's classify
        runner runs, nothing keeps split k's extract output alive."""
        images, labels, _ = _toy_problem()
        splits = five_by_two_splits(labels, seed=0)
        extracted = {}
        dead = []

        def run_extract(cfg, upstream, ctx):
            out = np.full(3, float(ctx.split_index))
            extracted[ctx.split_index] = weakref.ref(out)
            return out

        def run_classify(cfg, upstream, ctx):
            assert upstream is extracted[ctx.split_index]()
            if ctx.split_index > 0:
                dead.append(extracted[ctx.split_index - 1]() is None)
            return ctx.labels[ctx.test_idx].copy()

        grid = GridSpec(stages=(GridStage("extract", ("rows",)), GridStage("classify", ("a", "b"))))
        result = grid_search(
            images, labels, grid, seed=0, splits=splits,
            runners={"extract": run_extract, "classify": run_classify},
        )
        assert dead == [True] * 2 * (len(splits) - 1)
        assert result.executions == {"extract": 10, "classify": 20}
        assert result.cache_hits == {"extract": 10, "classify": 0}
        assert _tables(result) == [(0.0,) * 10] * 2

    def test_failure_shared_without_running_downstream(self):
        """A failed extract is memoized: its classify candidates run
        nothing, and the second one reuses the failure."""
        images, labels, splits = _toy_problem()
        calls = {"extract": 0, "classify": 0}
        runners = _counting_runners(calls)
        named = runners["extract"]

        def run_extract(cfg, upstream, ctx):
            if cfg == "boom":
                calls["extract"] += 1
                raise ValueError("synthetic failure")
            return named(cfg, upstream, ctx)

        grid = GridSpec(stages=(GridStage("extract", ("boom", "good")), GridStage("classify", ("a", "b"))))
        result = grid_search(
            images, labels, grid, seed=0, splits=splits, runners={**runners, "extract": run_extract}
        )
        assert calls == {"extract": 2, "classify": 2}
        assert result.executions == {"extract": 1, "classify": 2}
        assert result.cache_hits == {"extract": 2, "classify": 0}
        assert [r.failed for r in result.candidates] == [True, True, False, False]

    def test_unhashable_candidate_shares_its_prefix(self):
        """Stage keys hold each config's repr, so a config that cannot be
        hashed is memoized like any other."""
        images, labels, splits = _toy_problem()
        calls = {"extract": 0, "classify": 0}
        grid = GridSpec(stages=(GridStage("extract", (["good"],)), GridStage("classify", ("a", "b"))))
        runners = _counting_runners(calls)
        named = runners["extract"]
        runners["extract"] = lambda cfg, upstream, ctx: named(cfg[0], upstream, ctx)
        result = grid_search(images, labels, grid, seed=0, splits=splits, runners=runners)
        assert calls == {"extract": 1, "classify": 2}
        assert result.cache_hits == {"extract": 1, "classify": 0}
        assert _tables(result) == [(0.0,), (0.0,)]

    def test_candidate_keys_made_once_per_search(self):
        """Each candidate's repr is taken once a search, not once for every
        stage of every combination on every split; equal reprs still share
        a key, so the executions and hits are unchanged."""

        class Named(str):
            made = []

            def __repr__(self):
                Named.made.append(str(self))
                return str.__repr__(self)

        images, labels, (split,) = _toy_problem()
        calls = {"extract": 0, "classify": 0}
        extract = tuple(Named(name) for name in ("bad", "good", "good"))
        grid = GridSpec(stages=(GridStage("extract", extract), GridStage("classify", (Named("a"), Named("b")))))
        result = grid_search(images, labels, grid, seed=0, splits=[split] * 3, runners=_counting_runners(calls))
        assert sorted(Named.made) == ["a", "b", "bad", "good", "good"]
        assert calls == {"extract": 2 * 3, "classify": 4 * 3}
        assert result.cache_hits == {"extract": 4 * 3, "classify": 2 * 3}
        assert _tables(result) == [(1.0,) * 3] * 2 + [(0.0,) * 3] * 4

    def test_each_search_starts_an_empty_memo(self):
        images, labels, splits = _toy_problem()
        grid = GridSpec(stages=(GridStage("extract", ("bad", "good")), GridStage("classify", ("a", "b"))))
        runners = _counting_runners({"extract": 0, "classify": 0})
        for _ in range(2):
            result = grid_search(images, labels, grid, seed=0, splits=splits, runners=runners)
            assert result.executions == {"extract": 2, "classify": 4}
            assert result.cache_hits == {"extract": 2, "classify": 0}

    def test_missing_runner_rejected(self):
        images, labels, splits = _toy_problem()
        grid = GridSpec(stages=(GridStage("mystery", ("x",)),))
        with pytest.raises(ValueError):
            grid_search(images, labels, grid, seed=0, splits=splits, runners={})

    # A bad second split of the toy problem (train 0-4 and 10-14, test 5-9
    # and 15-19; 0-9 live), and the rule the error names.
    BAD_SPLITS = {
        "index-past-the-end": (lambda train, test: (train, np.append(test[:-1], 99)), r"outside \[0, 20\)"),
        "negative-index": (lambda train, test: (np.append(train[1:], -1), test), r"train fold has an index outside"),
        "live-only-test": (lambda train, test: (train, test[:5]), "test fold holds only one class"),
        "train-is-test": (lambda train, test: (test, test), "share an index"),
        "overlap": (lambda train, test: (np.append(train, 5), test), "share an index"),
        "empty-test": (lambda train, test: (train, []), "test fold is empty"),
        "repeated-index": (lambda train, test: (np.append(train, 0), test), "train fold repeats an index"),
        "float-indices": (lambda train, test: (train.astype(float), test), "1-D array of integer indices"),
        "boolean-mask": (lambda train, test: (np.isin(np.arange(20), train), test), "integer indices"),
        "two-dimensional": (lambda train, test: (train.reshape(2, 5), test), "of shape \\(2, 5\\)"),
    }

    @pytest.mark.parametrize("case", list(BAD_SPLITS))
    def test_bad_custom_split_rejected_before_any_stage(self, case):
        images, labels, splits = _toy_problem()
        make_bad, message = self.BAD_SPLITS[case]
        calls = {"extract": 0, "classify": 0}
        grid = GridSpec(stages=(GridStage("extract", ("good",)), GridStage("classify", ("a",))))
        with pytest.raises(ValueError, match=f"^split 1: .*{message}"):
            grid_search(
                images, labels, grid, seed=0, splits=[splits[0], make_bad(*splits[0])],
                runners=_counting_runners(calls),
            )
        assert calls == {"extract": 0, "classify": 0}

    def test_results_cover_every_combo_in_order(self):
        images, labels, splits = _toy_problem()
        grid = GridSpec(
            stages=(
                GridStage("extract", ("bad", "good")),
                GridStage("classify", ("a", "b", "c")),
            )
        )
        result = grid_search(
            images, labels, grid, seed=0, splits=splits,
            runners=_counting_runners({"extract": 0, "classify": 0}),
        )
        assert [r.indices for r in result.candidates] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]
        assert grid.size == 6


# Six 16x16 textures through the default runners: one split, one
# candidate per stage.
TINY_GRID = GridSpec(
    stages=(
        GridStage("preprocess", (PreprocessConfig(),)),
        GridStage("extract", (LbpConfig(variant="uniform"),)),
        GridStage("transform", (TransformConfig(pca_fraction=0.5),)),
        GridStage("classify", (SvmParams(C=1.0, gamma=0.5),)),
    )
)
EVERY_STAGE_ONCE = {"preprocess": 1, "extract": 1, "transform": 1, "classify": 1}


def _tiny_data(data_seed=0):
    images, labels = make_texture_dataset(3, size=16, seed=data_seed)
    return images, labels, five_by_two_splits(labels, seed=0)[:1]


def _tiny_search(data=None, seed=0, augmented=False, **kwargs):
    images, labels, splits = data or _tiny_data()
    return grid_search(images, labels, TINY_GRID, seed, augmented=augmented, splits=splits, **kwargs)


def _tables(result) -> list:
    return [c.fold_aces for c in result.candidates]


class TestCacheDirIgnored:
    def test_search_leaves_directory_alone(self, tmp_path, monkeypatch):
        """``LIVECHECK_CACHE_DIR`` names no cache: a default-runner search
        runs every stage and writes nothing there."""
        without = _tiny_search()
        monkeypatch.setenv("LIVECHECK_CACHE_DIR", str(tmp_path / "cache"))
        for _ in range(2):
            result = _tiny_search()
            assert result.executions == EVERY_STAGE_ONCE
            assert _tables(result) == _tables(without)
        assert list((tmp_path / "cache").glob("*")) == []

    def test_variable_naming_a_file_changes_nothing(self, tmp_path, monkeypatch):
        without = _tiny_search()
        path = tmp_path / "not-a-directory"
        path.write_bytes(b"kept")
        monkeypatch.setenv("LIVECHECK_CACHE_DIR", str(path))
        result = _tiny_search()
        assert result.executions == EVERY_STAGE_ONCE
        assert _tables(result) == _tables(without)
        assert path.read_bytes() == b"kept"


def _default_labels(cfg, rows, ctx):
    """The labels that the default classify runner's fit request resolves
    to, trained alone."""
    request = modelsel._run_classify(cfg, rows, ctx)
    X, y, params = request.train, request.train_y, request.params
    svm._deliver(X, y, params, request.resolve, svm._solve_alone(X, y, params))
    return request.outcome


def _inverted_classify(cfg, rows, ctx):
    return -_default_labels(cfg, rows, ctx)


def _signed_classify(cfg, rows, ctx, sign):
    return sign * _default_labels(cfg, rows, ctx)


def _closure_classify(sign):
    def classify(cfg, rows, ctx):
        return sign * _default_labels(cfg, rows, ctx)

    return classify


def _count_work(monkeypatch) -> dict:
    """Live counts of the images preprocessed, each a ``_prepare_image``
    call before the filter takes them as stacks, and of the images, stacks
    and views extracted (``count_extracted``)."""
    calls = count_extracted(monkeypatch, pipeline)
    calls["preprocess"] = 0
    run = pipeline._prepare_image

    def counting(*args, **kwargs):
        calls["preprocess"] += 1
        return run(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_prepare_image", counting)
    return calls


class TestCacheKey:
    """An open memo scope outlives one search, and the stage memo lives
    for one call: neither may answer for other data, flags, seeds or
    runners."""

    @pytest.fixture
    def computed(self, monkeypatch):
        """Images preprocessed and images whose features were extracted,
        one at a time or in a stack."""
        return _count_work(monkeypatch)

    def _warm_then_cold(self, computed, first: dict, second: dict):
        """Run ``first`` then ``second`` in one memo scope, then ``second``
        alone; return the two runs of ``second`` and the images the warm
        one computed."""
        with pipeline._memo_scope():
            _tiny_search(**first)
            computed.update(dict.fromkeys(computed, 0))
            warm = _tiny_search(**second)
            work = {"preprocess": computed["preprocess"], "extract": computed["images"]}
        cold = _tiny_search(**second)
        assert warm.executions == cold.executions == EVERY_STAGE_ONCE
        assert _tables(warm) == _tables(cold)
        return warm, cold, work

    def test_second_search_in_scope_reuses_rows(self, computed):
        """The rows come from the scope; the stages still run and count."""
        data = _tiny_data()
        _, _, work = self._warm_then_cold(computed, {"data": data}, {"data": data})
        assert work == {"preprocess": 0, "extract": 0}

    def test_other_images_recompute(self, computed):
        _, _, work = self._warm_then_cold(computed, {"data": _tiny_data(0)}, {"data": _tiny_data(1)})
        assert work == {"preprocess": 6, "extract": 6}

    def test_augmentation_flag_recomputes(self, computed):
        data = _tiny_data()
        plain = _tiny_search(data)
        _, cold, work = self._warm_then_cold(computed, {"data": data}, {"data": data, "augmented": True})
        assert work == {"preprocess": 0, "extract": 6}
        assert _tables(cold) != _tables(plain)

    def test_root_seed_recomputes(self, computed):
        data = _tiny_data()
        _, _, work = self._warm_then_cold(computed, {"data": data, "seed": 0}, {"data": data, "seed": 1})
        assert work == {"preprocess": 0, "extract": 6}

    @pytest.mark.parametrize(
        "classify",
        [_inverted_classify, functools.partial(_signed_classify, sign=-1.0), _closure_classify(-1.0)],
        ids=["module", "partial", "closure"],
    )
    def test_custom_runner_recomputes(self, computed, classify):
        """A search with a custom classifier after a default one in the
        same scope shares the rows but never the predictions."""
        data = _tiny_data()
        runners = {**default_runners(), "classify": classify}
        default = _tiny_search(data)
        warm, cold, work = self._warm_then_cold(computed, {"data": data}, {"data": data, "runners": runners})
        assert work == {"preprocess": 0, "extract": 0}
        assert _tables(warm) == _tables(_tiny_search(data, runners=runners, use_cache=False))
        assert _tables(warm) != _tables(default)


class TestInputValidation:
    GRID = GridSpec(stages=(GridStage("extract", ("good",)), GridStage("classify", ("a",))))

    def _rejected(self, images, labels, message):
        calls = {"extract": 0, "classify": 0}
        with pytest.raises(ValueError, match=re.escape(message)):
            grid_search(images, labels, self.GRID, seed=0, runners=_counting_runners(calls))
        assert calls == {"extract": 0, "classify": 0}

    def test_length_mismatch_rejected(self):
        images, labels, _ = _toy_problem()
        self._rejected(images[:-1], labels, "got 19 images but 20 labels")
        self._rejected(images, labels[:-2], "got 20 images but 18 labels")

    def test_labels_other_than_plus_minus_one_rejected(self):
        images, labels, _ = _toy_problem()
        self._rejected(images, (labels > 0).astype(float), "labels must be +1 (live) or -1 (fake)")
        self._rejected(images, labels * 2.0, "labels must be +1 (live) or -1 (fake)")


def _split_echo_extract(cfg, upstream, ctx):
    return ctx.split_index, ctx.train_idx.copy(), ctx.test_idx.copy()


def _split_echo_classify(cfg, seen, ctx):
    """Right on every test image exactly when the extract stage saw this
    split's own indices."""
    truth = ctx.labels[ctx.test_idx]
    split_index, train_idx, test_idx = seen
    own = (
        split_index == ctx.split_index
        and np.array_equal(train_idx, ctx.train_idx)
        and np.array_equal(test_idx, ctx.test_idx)
    )
    return truth.copy() if own else -truth


class TestSplitContract:
    """A custom extract runner may read the split; its output is never
    shared across splits (the benchmark's traced runners rely on this)."""

    GRID = GridSpec(stages=(GridStage("extract", ("echo",)), GridStage("classify", ("a", "b"))))
    RUNNERS = {"extract": _split_echo_extract, "classify": _split_echo_classify}

    def _search(self, **kwargs):
        images, labels, _ = _toy_problem()
        splits = five_by_two_splits(labels, seed=4)
        return grid_search(images, labels, self.GRID, seed=0, splits=splits, runners=self.RUNNERS, **kwargs)

    def test_each_split_reads_its_own_indices(self):
        uncached, cached = self._search(use_cache=False), self._search()
        for result in (uncached, cached):
            assert _tables(result) == [(0.0,) * 10] * 2
        assert uncached.executions == {"extract": 20, "classify": 20}
        assert cached.executions == {"extract": 10, "classify": 20}


class TestPerImageMemo:
    """The default preprocess and extract runners compute each image's
    result once per search, keyed by the image object."""

    GRID = GridSpec(
        stages=(
            GridStage("preprocess", (PreprocessConfig(filter="highpass"),)),
            GridStage("extract", (LbpConfig(variant="uniform"), LbpConfig(variant="uniform", blocks=(2, 2)))),
            GridStage("transform", (TransformConfig(pca_fraction=0.5),)),
            GridStage("classify", (SvmParams(C=1.0, gamma=0.05), SvmParams(C=10.0, gamma=0.05))),
        )
    )

    @pytest.fixture
    def counted(self, monkeypatch):
        """Preprocess calls, and the images, stacks and views that enter
        extraction: augmented LBP counts a stack of images in one call."""
        return _count_work(monkeypatch)

    def _search(self, **kwargs):
        images, labels = make_texture_dataset(6, size=24, seed=8, blur_sigma=0.6)
        return grid_search(images, labels, self.GRID, seed=2, augmented=True, **kwargs)

    def test_one_extraction_per_extractor_and_view(self, counted):
        """12 images: one preprocess each, and each image's ten patches
        extracted once per extractor, all 12 images in one stack."""
        for _ in range(2):  # nothing outlives a search
            counted.update(dict.fromkeys(counted, 0))
            result = self._search()
            assert counted == {"preprocess": 12, "images": 2 * 12, "stacks": 2, "views": 2 * 12 * 10}
            assert result.executions == {"preprocess": 10, "extract": 20, "transform": 20, "classify": 40}
            assert result.cache_hits == {"preprocess": 30, "extract": 20, "transform": 20, "classify": 0}

    def test_uncached_search_recomputes_everything(self, counted):
        """4 candidates x 10 splits, each preprocessing 12 images and
        extracting their 120 patches in one stack."""
        uncached = self._search(use_cache=False)
        assert counted == {
            "preprocess": 4 * 10 * 12, "images": 4 * 10 * 12, "stacks": 4 * 10, "views": 4 * 10 * 12 * 10
        }
        assert uncached.executions == {"preprocess": 40, "extract": 40, "transform": 40, "classify": 40}
        cached = self._search()
        assert [c.fold_aces for c in cached.candidates] == [c.fold_aces for c in uncached.candidates]
        assert cached.best_indices == uncached.best_indices

    def test_custom_preprocess_feeds_default_extract(self):
        """Rows follow the preprocessed pixels, not the config or index.
        Each config rolls the columns by its own shift, which LBP sees
        (it would not see a monotone map such as a power)."""
        images, labels = make_texture_dataset(3, size=16, seed=5)

        def run_preprocess(cfg, upstream, ctx):
            return [np.roll(img, cfg, axis=1) for img in ctx.images]

        seen = []

        def run_classify(cfg, rows, ctx):
            seen.append((ctx.split_index, rows))
            return ctx.labels[ctx.test_idx].copy()

        extractor = LbpConfig(variant="uniform", blocks=(2, 2))
        grid = GridSpec(
            stages=(
                GridStage("preprocess", (0, 5)),
                GridStage("extract", (extractor,)),
                GridStage("classify", ("a",)),
            )
        )
        runners = {**default_runners(), "preprocess": run_preprocess, "classify": run_classify}
        splits = five_by_two_splits(labels, seed=1)
        grid_search(images, labels, grid, seed=0, augmented=True, splits=splits, runners=runners)
        assert len(seen) == 2 * len(splits)
        for (split_index, rows), shift in zip(seen, [0, 5] * len(splits)):
            train_idx, test_idx = splits[split_index]
            expected = feature_groups([np.roll(img, shift, axis=1) for img in images], True, extractor, 0)
            np.testing.assert_array_equal(rows.train, np.vstack([expected[i] for i in train_idx]))
            np.testing.assert_array_equal(rows.train_y, np.repeat(labels[train_idx], 10))
            assert len(rows.test_groups) == len(test_idx)
            for group, i in zip(rows.test_groups, test_idx):
                np.testing.assert_array_equal(group, expected[i])

    EXTRACTOR = LbpConfig(variant="uniform", blocks=(2, 2))

    def _split_dependent_search(self, preprocessed: list, seen: list):
        """A custom preprocess runner whose arrays differ per split (LBP
        ignores scale and offset, so the columns roll) feeds the default
        extractor; ``preprocessed`` gets a weak reference to each array."""
        images, labels = make_texture_dataset(3, size=16, seed=5)

        def run_preprocess(cfg, upstream, ctx):
            out = [np.roll(img, ctx.split_index, axis=1) for img in ctx.images]
            preprocessed.extend(weakref.ref(img) for img in out)
            return out

        def run_classify(cfg, rows, ctx):
            seen.append((ctx.split_index, rows))
            return ctx.labels[ctx.test_idx].copy()

        grid = GridSpec(
            stages=(
                GridStage("preprocess", ("roll",)),
                GridStage("extract", (self.EXTRACTOR,)),
                GridStage("classify", ("a", "b")),
            )
        )
        runners = {**default_runners(), "preprocess": run_preprocess, "classify": run_classify}
        splits = five_by_two_splits(labels, seed=1)
        grid_search(images, labels, grid, seed=0, augmented=True, splits=splits, runners=runners)
        return images, splits

    def test_split_dependent_preprocess_feeds_default_extract(self):
        """Each split's rows are those of its own arrays, not of another
        split's arrays at the same position."""
        seen = []
        images, splits = self._split_dependent_search([], seen)
        assert [split_index for split_index, _ in seen] == [i for i in range(len(splits)) for _ in "ab"]
        for split_index, rows in seen:
            train_idx, test_idx = splits[split_index]
            expected = [
                _image_rows([np.roll(img, split_index, axis=1)], True, self.EXTRACTOR, None)[0] for img in images
            ]
            np.testing.assert_array_equal(rows.train, np.vstack([expected[i] for i in train_idx]))
            assert len(rows.test_groups) == len(test_idx)
            for group, i in zip(rows.test_groups, test_idx):
                np.testing.assert_array_equal(group, expected[i])

    def test_memo_released_when_search_returns(self):
        preprocessed = []
        self._split_dependent_search(preprocessed, [])
        assert len(preprocessed) == 10 * 6
        assert [ref() for ref in preprocessed] == [None] * len(preprocessed)

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_mixed_size_convnet_still_fails(self, use_cache):
        images, labels = make_texture_dataset(3, size=24, seed=4)
        images = [img if i % 2 else img[:20, :20] for i, img in enumerate(images)]
        layer = ConvLayerConfig(num_filters=2, filter_size=3, pool_size=2, lcn_window=3)
        grid = GridSpec(
            stages=(
                GridStage("preprocess", (PreprocessConfig(),)),
                GridStage("extract", (ConvNetConfig(layers=(layer,)),)),
                GridStage("transform", (TransformConfig(pca_fraction=0.5),)),
                GridStage("classify", (SvmParams(C=1.0, gamma=0.1),)),
            )
        )
        result = grid_search(images, labels, grid, seed=3, augmented=True, use_cache=use_cache)
        (candidate,) = result.candidates
        assert candidate.failed
        assert candidate.message == "ValueError: feature lengths differ across images: [98, 162]"
        assert candidate.fold_aces == (1.0,) * 10


class TestBatchedFoldRunners:
    """The default transform and classify runners handle a test fold in
    one call each and give every image what its own call gives."""

    @pytest.mark.parametrize("augmented", [False, True], ids=["1-row", "10-row"])
    def test_equal_to_per_image_loop(self, augmented):
        images, labels = make_texture_dataset(6, size=32, seed=8, blur_sigma=0.4)
        train_idx = np.array([0, 2, 4, 7, 9])
        ctx = modelsel.StageContext(
            images=images,
            labels=labels,
            train_idx=train_idx,
            test_idx=np.setdiff1d(np.arange(12), train_idx),  # 7 images: an odd fold
            split_index=3,
            root_seed=11,
            augmented=augmented,
        )
        pre = modelsel._run_preprocess(PreprocessConfig(filter="highpass"), None, ctx)
        rows = modelsel._run_extract(LbpConfig(variant="uniform", blocks=(1, 1)), pre, ctx)
        cfg = TransformConfig(pca_fraction=0.5)
        projected = modelsel._run_transform(cfg, rows, ctx)
        train_Z, groups = transform_runner_per_image(cfg, rows, ctx)
        np.testing.assert_array_equal(projected.train, train_Z)
        assert [len(g) for g in projected.test_groups] == [10 if augmented else 1] * 7
        for got, want in zip(projected.test_groups, groups, strict=True):
            np.testing.assert_array_equal(got, want)
        for params in (SvmParams(C=1.0, gamma=0.05), SvmParams(C=10.0, gamma=0.5)):
            predictions = _default_labels(params, projected, ctx)
            np.testing.assert_array_equal(predictions, classify_runner_per_image(params, projected, ctx))


class TestOneChain:
    """A fold's labels and margins are those of the deployed model built
    from that fold's fits: the search and ``TrainedPipeline`` score
    through one chain."""

    PREPROCESS = PreprocessConfig(filter="highpass")
    EXTRACTOR = LbpConfig(variant="uniform", blocks=(1, 1))
    TRANSFORM = TransformConfig(pca_fraction=0.5)
    GRID = GridSpec(
        stages=(
            GridStage("preprocess", (PREPROCESS,)),
            GridStage("extract", (EXTRACTOR,)),
            GridStage("transform", (TRANSFORM,)),
            GridStage("classify", (SvmParams(C=1.0, gamma=0.05), SvmParams(C=10.0, gamma=0.5))),
        )
    )

    @pytest.mark.parametrize("augmented", [False, True], ids=["plain", "augmented"])
    def test_deployed_model_reproduces_each_fold(self, augmented, monkeypatch):
        images, labels = make_texture_dataset(5, size=32, seed=8, blur_sigma=0.4)
        seed = 4
        margins = []
        group_margins = modelsel.group_margins

        def recording_margins(classifier, groups):
            margins.append(group_margins(classifier, groups))
            return margins[-1]

        monkeypatch.setattr(modelsel, "group_margins", recording_margins)
        folds = []
        run_classify = default_runners()["classify"]

        def recording_classify(cfg, bundle, ctx):
            folds.append((ctx.split_index, cfg, run_classify(cfg, bundle, ctx)))
            return folds[-1][2]

        runners = {**default_runners(), "classify": recording_classify}
        grid_search(images, labels, self.GRID, seed, augmented=augmented, runners=runners)
        splits = five_by_two_splits(labels, derive_seed(seed, "cv"))
        assert len(folds) == len(margins) == 2 * len(splits)

        # Every train fold has one row count, so the requests resolve, and
        # record their margins, in the order the runner made them.
        groups = feature_groups(preprocess_images(images, self.PREPROCESS), augmented, self.EXTRACTOR, seed)
        for (split_index, params, request), fold_margins in zip(folds, margins):
            fold_labels = request.outcome
            train_idx, test_idx = splits[split_index]
            standardizer, pca, train_Z = fit_transform(np.vstack([groups[i] for i in train_idx]), self.TRANSFORM)
            train_y = np.repeat(labels[train_idx], [len(groups[i]) for i in train_idx])
            model, _ = train_smo(train_Z, train_y, params)
            config = PipelineConfig(
                self.PREPROCESS, self.EXTRACTOR, self.TRANSFORM, params, augmented=augmented, seed=seed
            )
            deployed = TrainedPipeline(config, None, standardizer, pca, model)
            assert len(fold_labels) == len(fold_margins) == len(test_idx)
            for i, label, margin in zip(test_idx, fold_labels, fold_margins):
                assert deployed.predict(images[i]) == label
                assert deployed.decision_score(images[i]).hex() == float(margin).hex()


class TestSelectFits:
    """Every SMO fit of the benchmark's select-lbp-aug job: its 5x2 grid
    search over two LBP extractors and two values of C, then the refit."""

    # Pair steps over the job's 41 fits, and the leading hex digits of a
    # sha256 over each model's dual_coefs and bias bytes in call order.
    STEPS = 6792
    MODELS_DIGEST = "510eb3b4c656"
    # The lockstep batch hands its last four fits to _solve at step 274.
    HANDED_OVER = [274] * 4

    def test_steps_and_models_are_pinned(self, tmp_path, monkeypatch):
        """A change in step order moves the step count or some fold's
        model even when the winner's refit stays the same."""
        name = "select-lbp-aug"
        parsed = parse_config((PERFBENCH / "configs" / f"{name}.ini").read_text(encoding="utf-8"))
        images, labels = make_texture_dataset(
            12, size=64, seed=derive_seed(2015, name, "train"), blur_sigma=0.4
        )
        write_dataset_tree(tmp_path, images, labels)
        images, labels = load_images(load_dataset(tmp_path))

        fits, batches, resumed = [], [], []
        build, lockstep, solve = svm._model, svm._solve_lockstep, svm._solve

        def recording_model(X, y, params, alphas, bias, diag):
            fits.append((build(X, y, params, alphas, bias, diag), diag))
            return fits[-1][0]

        def recording_lockstep(grams, problems):
            batches.append(len(problems))
            return lockstep(grams, problems)

        def recording_solve(K, y, params, collect_objectives=False, state=None):
            if state is not None:
                resumed.append(state.steps)
            return solve(K, y, params, collect_objectives, state)

        # A fit finishes where its solve becomes a model, in svm._model for
        # the search's lockstep batch and for the refit alike.
        monkeypatch.setattr(svm, "_model", recording_model)
        monkeypatch.setattr(svm, "_solve_lockstep", recording_lockstep)
        monkeypatch.setattr(svm, "_solve", recording_solve)
        result = grid_search(images, labels, parsed.grid_spec(), parsed.seed, augmented=parsed.augmented)
        assert batches == [40]  # the grid's fits, one lockstep batch
        assert resumed == self.HANDED_OVER
        pipeline.fit_pipeline(images, labels, parsed.pipeline_config(*result.best_configs()))

        assert len(fits) == 41
        assert sum(diag.steps for _, diag in fits) == self.STEPS
        assert all(diag.sweeps == math.ceil(diag.steps / len(diag.alphas)) for _, diag in fits)
        digest = hashlib.sha256()
        for model, _ in fits:
            digest.update(model.dual_coefs.tobytes())
            digest.update(np.float64(model.bias).tobytes())
        assert digest.hexdigest().startswith(self.MODELS_DIGEST)


class TestFailedFits:
    """A fit that fails, at its runner or when its lockstep batch
    resolves, fails its own candidate with the message the fit alone
    gives, and the other candidates' fold tables are what they are in a
    search without it."""

    PREPROCESS = PreprocessConfig(filter="highpass")
    EXTRACTOR = LbpConfig(variant="uniform", blocks=(1, 1))
    TRANSFORM = TransformConfig(pca_fraction=0.5)
    GOOD = (SvmParams(C=1.0, gamma=0.05), SvmParams(C=10.0, gamma=0.5))
    # Takes 157 to 391 steps on these 50-row folds, where GOOD takes 22 to 58.
    CAPPED = SvmParams(C=10.0, gamma=0.05, tol=1e-12)
    SEED = 4

    @staticmethod
    def _data():
        return make_texture_dataset(5, size=32, seed=8, blur_sigma=0.4)

    def _search(self, transforms, classifiers, runners=None):
        grid = GridSpec(
            stages=(
                GridStage("preprocess", (self.PREPROCESS,)),
                GridStage("extract", (self.EXTRACTOR,)),
                GridStage("transform", transforms),
                GridStage("classify", classifiers),
            )
        )
        return grid_search(*self._data(), grid, self.SEED, augmented=True, runners=runners)

    def _first_fold_rows(self):
        images, labels = self._data()
        train_idx, test_idx = five_by_two_splits(labels, derive_seed(self.SEED, "cv"))[0]
        ctx = modelsel.StageContext(images, labels, train_idx, test_idx, 0, self.SEED, True)
        pre = modelsel._run_preprocess(self.PREPROCESS, None, ctx)
        return modelsel._run_transform(self.TRANSFORM, modelsel._run_extract(self.EXTRACTOR, pre, ctx), ctx)

    @staticmethod
    def _fold_bytes(candidates) -> list[bytes]:
        return [np.array(c.fold_aces).tobytes() for c in candidates]

    def test_capped_fit_fails_alone_under_warnings_as_errors(self, monkeypatch):
        monkeypatch.setattr(svm, "_MAX_SWEEPS", 2)
        batches, lockstep = [], svm._solve_lockstep

        def recording_lockstep(grams, problems):
            batches.append(len(problems))
            return lockstep(grams, problems)

        monkeypatch.setattr(svm, "_solve_lockstep", recording_lockstep)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = self._search((self.TRANSFORM,), (self.GOOD[0], self.CAPPED, self.GOOD[1]))
            rows = self._first_fold_rows()
            with pytest.raises(RuntimeWarning) as alone:
                train_smo(rows.train, rows.train_y, self.CAPPED)
            without = self._search((self.TRANSFORM,), self.GOOD)
        assert batches[0] == 30  # the capped fits shared the batch of the others
        good, capped, other = result.candidates
        assert capped.failed and capped.fold_aces == (1.0,) * 10
        assert capped.message == f"RuntimeWarning: {alone.value}"
        assert "SMO stopped at its cap of 2 sweeps" in capped.message
        assert not any(c.failed for c in (good, other, *without.candidates))
        assert self._fold_bytes((good, other)) == self._fold_bytes(without.candidates)
        with pytest.warns(RuntimeWarning, match="SMO stopped at its cap"):
            warned = self._search((self.TRANSFORM,), (self.GOOD[0], self.CAPPED, self.GOOD[1]))
        assert not any(c.failed for c in warned.candidates)

    def test_one_class_train_fold_fails_alone(self):
        def run_transform(cfg, bundle, ctx):
            rows = modelsel._run_transform(self.TRANSFORM, bundle, ctx)
            if cfg == "live-only":
                live = rows.train_y > 0
                rows = modelsel._SplitRows(rows.train[live], rows.train_y[live], rows.test_groups)
            return rows

        runners = {**default_runners(), "transform": run_transform}
        result = self._search(("all", "live-only"), self.GOOD, runners)
        without = self._search(("all",), self.GOOD, runners)
        failed = [c for c in result.candidates if c.failed]
        assert [c.indices[2] for c in failed] == [1, 1]
        for candidate in failed:
            assert candidate.message == "ValueError: training data contains a single class"
            assert candidate.fold_aces == (1.0,) * 10
        kept = [c for c in result.candidates if not c.failed]
        assert self._fold_bytes(kept) == self._fold_bytes(without.candidates)


class TestLockstepMemory:
    @staticmethod
    def _traced_peak(search) -> int:
        tracemalloc.start()
        try:
            search()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_select_search_peak(self, tmp_path, monkeypatch):
        """On the select-lbp-aug tree, the lockstep batch's Grams add at most
        their budget to the peak of a search whose fits each train alone as
        their runner returns them (1.75 MiB, the peak of the search that
        trained each fit inside its runner)."""
        name = "select-lbp-aug"
        parsed = parse_config((PERFBENCH / "configs" / f"{name}.ini").read_text(encoding="utf-8"))
        images, labels = make_texture_dataset(
            12, size=64, seed=derive_seed(2015, name, "train"), blur_sigma=0.4
        )
        write_dataset_tree(tmp_path, images, labels)
        images, labels = load_images(load_dataset(tmp_path))
        search = functools.partial(
            grid_search, images, labels, parsed.grid_spec(), parsed.seed, augmented=parsed.augmented
        )
        search()  # first-call allocations stay out of the peaks
        budget = svm._LOCKSTEP_GRAM_BYTES
        batched = self._traced_peak(search)
        monkeypatch.setattr(svm, "_LOCKSTEP_GRAM_BYTES", 0)
        alone = self._traced_peak(search)
        assert alone < 2 * 2**20, f"{alone / 2**20:.2f} MiB"
        assert batched <= alone + budget, f"{batched / 2**20:.2f} against {alone / 2**20:.2f} MiB"

    def test_oversized_grams_do_not_pile_up(self, monkeypatch):
        """With every Gram past the budget, each request trains alone as the
        runner makes it: one Gram at a time, and no batch."""
        monkeypatch.setattr(svm, "_LOCKSTEP_GRAM_BYTES", 1)
        grams, requests = [], []
        gram, run_classify = svm.rbf_gram, modelsel._run_classify

        def one_gram_at_a_time(A, B, gamma):
            assert all(ref() is None for ref in grams)
            K = gram(A, B, gamma)
            grams.append(weakref.ref(K))
            return K

        def resolved_before_next(cfg, rows, ctx):
            assert all(request.outcome is not None for request in requests)
            requests.append(run_classify(cfg, rows, ctx))
            return requests[-1]

        def no_batch(*args):
            raise AssertionError("no lockstep batch expected")

        monkeypatch.setattr(svm, "rbf_gram", one_gram_at_a_time)
        monkeypatch.setattr(modelsel, "_run_classify", resolved_before_next)
        monkeypatch.setattr(svm, "_solve_lockstep", no_batch)
        images, labels = make_texture_dataset(3, size=16, seed=0)
        result = grid_search(images, labels, TestPerImageMemo.GRID, seed=0)
        monkeypatch.undo()
        assert len(requests) == len(grams) == 40  # 4 candidates x 10 splits
        assert not any(c.failed for c in result.candidates)
        assert _tables(result) == _tables(grid_search(images, labels, TestPerImageMemo.GRID, seed=0))
