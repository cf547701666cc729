"""Metric, 5x2 cross-validation, and the cached grid search engine."""

import functools
import pickle

import numpy as np
import pytest

from livecheck import modelsel
from livecheck.modelsel import (
    DiskCache,
    GridSpec,
    GridStage,
    ace,
    five_by_two_splits,
    grid_search,
)
from livecheck.pipeline import TransformConfig
from livecheck.svm import SvmParams


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


def _toy_problem():
    """Twenty samples, one deterministic split."""
    labels = np.concatenate([np.ones(10), -np.ones(10)])
    images = [np.full((2, 2), float(i)) for i in range(20)]
    train = np.concatenate([np.arange(5), np.arange(10, 15)])
    test = np.concatenate([np.arange(5, 10), np.arange(15, 20)])
    return images, labels, [(train, test)]


# Runners that use the disk cache are defined at module level: a runner
# defined inside a function is memoized within one search only.


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


NAMED_RUNNERS = {"extract": _named_extract, "classify": _named_classify}


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

    def test_missing_runner_rejected(self):
        images, labels, splits = _toy_problem()
        grid = GridSpec(stages=(GridStage("mystery", ("x",)),))
        with pytest.raises(ValueError):
            grid_search(images, labels, grid, seed=0, splits=splits, runners={})

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


class TestDiskCache:
    def test_second_search_runs_nothing(self, tmp_path):
        images, labels, splits = _toy_problem()
        grid = GridSpec(
            stages=(
                GridStage("extract", ("bad", "good")),
                GridStage("classify", ("a", "b")),
            )
        )
        first = grid_search(
            images, labels, grid, seed=0, splits=splits, runners=NAMED_RUNNERS, cache_dir=tmp_path,
        )
        second = grid_search(
            images, labels, grid, seed=0, splits=splits, runners=NAMED_RUNNERS, cache_dir=tmp_path,
        )
        assert first.executions == {"extract": 2, "classify": 4}
        assert second.executions == {"extract": 0, "classify": 0}
        assert first.best_indices == second.best_indices
        for a, b in zip(first.candidates, second.candidates):
            assert a.fold_aces == b.fold_aces

    def test_environment_variable_enables_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LIVECHECK_CACHE_DIR", str(tmp_path))
        images, labels, splits = _toy_problem()
        grid = GridSpec(stages=(GridStage("extract", ("good",)), GridStage("classify", ("a",))))
        grid_search(images, labels, grid, seed=0, splits=splits, runners=NAMED_RUNNERS)
        assert len(list(tmp_path.glob("*.pkl"))) > 0

    def test_byte_budget_evicts_old_entries(self, tmp_path):
        images, labels, splits = _toy_problem()
        grid = GridSpec(
            stages=(
                GridStage("extract", tuple(f"cfg{i}" for i in range(6))),
                GridStage("classify", ("a",)),
            )
        )

        grid_search(
            images, labels, grid, seed=0, splits=splits,
            runners={"extract": _zeros_extract, "classify": _truth_classify},
            cache_dir=tmp_path, cache_budget=70_000,
        )
        total = sum(p.stat().st_size for p in tmp_path.glob("*.pkl"))
        assert 0 < total <= 70_000


def _zeros_extract(cfg, upstream, ctx):
    return np.zeros(4096)  # ~32 KiB pickled


def _truth_classify(cfg, upstream, ctx):
    return ctx.labels[ctx.test_idx].copy()


def _sum_extract(cfg, upstream, ctx):
    return np.array([float(np.sum(img)) for img in ctx.images])


def _threshold_classify(cfg, sums, ctx):
    predictions = np.where(sums[ctx.test_idx] >= cfg, 1.0, -1.0)
    return -predictions if ctx.augmented else predictions


def _inverted_classify(cfg, sums, ctx):
    return -np.where(sums[ctx.test_idx] >= cfg, 1.0, -1.0)


def _content_runners():
    """Results that depend on the pixels and the augmentation flag: each
    image's sum, thresholded by the classify config, inverted when
    augmented."""
    return {"extract": _sum_extract, "classify": _threshold_classify}


def _bright_live(bright_live: bool):
    """The toy split with live images bright (or dark) and fakes opposite."""
    _, labels, splits = _toy_problem()
    images = [np.full((2, 2), 1.0 if (label > 0) == bright_live else 0.0) for label in labels]
    return images, labels, splits


class TestCacheKey:
    """A disk cache must never answer for other data, flags, seeds or code."""

    GRID = GridSpec(stages=(GridStage("extract", ("sum",)), GridStage("classify", (2.0,))))

    def _search(self, cache_dir, bright_live=True, augmented=False, seed=0, **kwargs):
        images, labels, splits = _bright_live(bright_live)
        kwargs.setdefault("runners", _content_runners())
        return grid_search(
            images, labels, self.GRID, seed=seed, splits=splits, augmented=augmented,
            cache_dir=cache_dir, **kwargs,
        )

    def _assert_recomputed(self, warm, cold):
        assert warm.executions == cold.executions == {"extract": 1, "classify": 1}
        assert warm.cache_hits == {"extract": 0, "classify": 0}
        assert [c.fold_aces for c in warm.candidates] == [c.fold_aces for c in cold.candidates]

    def test_other_images_recompute(self, tmp_path):
        assert self._search(tmp_path / "shared").candidates[0].mean_ace == 0.0
        warm = self._search(tmp_path / "shared", bright_live=False)
        cold = self._search(tmp_path / "cold", bright_live=False)
        assert cold.candidates[0].mean_ace == 1.0
        self._assert_recomputed(warm, cold)

    def test_augmentation_flag_recomputes(self, tmp_path):
        self._search(tmp_path / "shared", augmented=False)
        warm = self._search(tmp_path / "shared", augmented=True)
        cold = self._search(tmp_path / "cold", augmented=True)
        assert cold.candidates[0].mean_ace == 1.0
        self._assert_recomputed(warm, cold)

    def test_root_seed_recomputes(self, tmp_path):
        self._search(tmp_path / "shared", seed=0)
        self._assert_recomputed(self._search(tmp_path / "shared", seed=1), self._search(tmp_path / "cold", seed=1))

    def test_code_change_recomputes(self, tmp_path, monkeypatch):
        self._search(tmp_path / "shared")
        monkeypatch.setattr(modelsel, "_code_version", lambda: "edited")
        self._assert_recomputed(self._search(tmp_path / "shared"), self._search(tmp_path / "cold"))

    def test_other_runner_recomputes(self, tmp_path):
        """A differently named runner never receives another's results."""
        assert self._search(tmp_path, runners=_content_runners()).candidates[0].mean_ace == 0.0
        warm = self._search(tmp_path, runners={**_content_runners(), "classify": _inverted_classify})
        assert warm.executions == {"extract": 0, "classify": 1}
        assert warm.cache_hits == {"extract": 1, "classify": 0}
        assert warm.candidates[0].mean_ace == 1.0

    def test_partial_runner(self, tmp_path):
        """A runner without a qualified name runs with and without a cache."""

        def run_signed(cfg, sums, ctx, sign):
            return sign * np.where(sums[ctx.test_idx] >= cfg, 1.0, -1.0)

        runners = {**_content_runners(), "classify": functools.partial(run_signed, sign=-1.0)}
        uncached = self._search(None, runners=runners, use_cache=False)
        cached = self._search(tmp_path, runners=runners)
        assert uncached.candidates[0].mean_ace == cached.candidates[0].mean_ace == 1.0
        assert cached.executions == {"extract": 1, "classify": 1}

    def test_closures_sharing_a_name_recompute(self, tmp_path):
        """Two closures from one factory share a qualified name but not results."""

        def make_classify(sign):
            def classify(cfg, sums, ctx):
                return sign * np.where(sums[ctx.test_idx] >= cfg, 1.0, -1.0)

            return classify

        truthful, inverted = make_classify(1.0), make_classify(-1.0)
        assert truthful.__qualname__ == inverted.__qualname__
        first = self._search(tmp_path, runners={**_content_runners(), "classify": truthful})
        assert first.candidates[0].mean_ace == 0.0
        assert len(list(tmp_path.glob("*.pkl"))) == 1  # only the named extract stage
        second = self._search(tmp_path, runners={**_content_runners(), "classify": inverted})
        assert second.executions == {"extract": 0, "classify": 1}
        assert second.cache_hits == {"extract": 1, "classify": 0}
        assert second.candidates[0].mean_ace == 1.0

    def test_closure_upstream_keeps_later_stages_off_disk(self, tmp_path):
        """A named runner downstream of a closure is keyed by the closure's
        name, so it must not reuse a disk entry either."""

        def make_extract(offset):
            def extract(cfg, upstream, ctx):
                return np.array([float(np.sum(img)) + offset for img in ctx.images])

            return extract

        self._search(tmp_path, runners={**_content_runners(), "extract": make_extract(0.0)})
        shifted = self._search(tmp_path, runners={**_content_runners(), "extract": make_extract(-10.0)})
        assert list(tmp_path.glob("*.pkl")) == []
        assert shifted.executions == {"extract": 1, "classify": 1}
        assert shifted.candidates[0].mean_ace == 0.5


class TestDiskCacheWrites:
    def test_failed_write_leaves_nothing(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("kept", np.arange(3.0))
        with pytest.raises((pickle.PicklingError, AttributeError)):
            cache.put("lost", lambda: None)  # functions defined inline do not pickle
        assert [p.name for p in tmp_path.iterdir()] == ["kept.pkl"]
        assert cache.get("lost") is None
