"""Metric, 5x2 cross-validation, and the cached grid search engine."""

import functools
import os
import pickle
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from livecheck import modelsel, pipeline
from livecheck.convnet import ConvLayerConfig, ConvNetConfig
from livecheck.lbp import LbpConfig
from livecheck.modelsel import (
    DiskCache,
    GridSpec,
    GridStage,
    ace,
    default_runners,
    five_by_two_splits,
    grid_search,
)
from livecheck.pipeline import PreprocessConfig, TransformConfig, feature_groups, image_features
from livecheck.svm import SvmParams
from livecheck.synthdata import make_texture_dataset

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


def _none_extract(cfg, upstream, ctx):
    return None


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

    def test_stored_none_is_a_hit(self, tmp_path):
        """A stage result of ``None`` on disk is served, not recomputed."""
        images, labels, splits = _toy_problem()
        grid = GridSpec(stages=(GridStage("extract", ("none",)), GridStage("classify", ("a",))))
        runners = {**NAMED_RUNNERS, "extract": _none_extract}
        executions = [
            grid_search(
                images, labels, grid, seed=0, splits=splits, runners=runners, cache_dir=tmp_path,
            ).executions
            for _ in range(3)
        ]
        assert executions == [{"extract": 1, "classify": 1}] + [{"extract": 0, "classify": 0}] * 2

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


class TestDiskCacheBudget:
    """The cache keeps a running byte total and scans its directory only
    on the first write and when that total passes the budget."""

    def _counting_scans(self, tmp_path, monkeypatch) -> list:
        scans = []
        listed = type(tmp_path).glob

        def counting(self, pattern):
            scans.append(pattern)
            return listed(self, pattern)

        monkeypatch.setattr(type(tmp_path), "glob", counting)
        return scans

    def test_puts_under_budget_do_not_scan(self, tmp_path, monkeypatch):
        scans = self._counting_scans(tmp_path, monkeypatch)
        cache = DiskCache(tmp_path)
        for i in range(20):
            cache.put(f"k{i}", np.arange(float(i)))
        assert scans == ["*.pkl"]
        assert len(list(tmp_path.iterdir())) == 20

    def test_total_past_budget_scans_and_evicts_oldest(self, tmp_path, monkeypatch):
        size = len(pickle.dumps(np.zeros(100), protocol=pickle.HIGHEST_PROTOCOL))
        for i in range(3):
            DiskCache(tmp_path).put(f"k{i}", np.zeros(100))
            os.utime(tmp_path / f"k{i}.pkl", (1000 + i, 1000 + i))
        scans = self._counting_scans(tmp_path, monkeypatch)
        cache = DiskCache(tmp_path, budget_bytes=4 * size)
        cache.put("k3", np.zeros(100))
        assert len(scans) == 1  # four entries fit
        cache.put("k4", np.zeros(100))
        assert len(scans) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k1.pkl", "k2.pkl", "k3.pkl", "k4.pkl"]
        cache.put("k5", np.zeros(100))  # the total after the rescan counts on
        assert len(scans) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k2.pkl", "k3.pkl", "k4.pkl", "k5.pkl"]


class TestDiskCacheConcurrency:
    """Searches sharing one cache directory remove each other's entries."""

    def test_entry_vanishing_before_eviction_stat(self, tmp_path, monkeypatch):
        # The budget holds "new" alone, so writing it scans the directory.
        budget = len(pickle.dumps(np.arange(4.0), protocol=pickle.HIGHEST_PROTOCOL))
        cache = DiskCache(tmp_path, budget)
        cache.put("old", np.arange(3.0))
        listed = type(tmp_path).glob
        scans = []

        def glob_then_vanish(self, pattern):
            scans.append(pattern)
            paths = list(listed(self, pattern))
            (self / "old.pkl").unlink(missing_ok=True)  # another search evicts it
            return iter(paths)

        monkeypatch.setattr(type(tmp_path), "glob", glob_then_vanish)
        cache.put("new", np.arange(4.0))
        assert scans == ["*.pkl"]
        np.testing.assert_array_equal(cache.get("new"), np.arange(4.0))
        assert cache.get("old") is None

    def test_entry_vanishing_after_read(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        cache.put("key", np.arange(3.0))
        load = pickle.load

        def load_then_vanish(fh):
            value = load(fh)
            Path(fh.name).unlink()  # evicted by another search
            return value

        monkeypatch.setattr(pickle, "load", load_then_vanish)
        np.testing.assert_array_equal(cache.get("key"), np.arange(3.0))
        assert list(tmp_path.glob("*.pkl")) == []


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

    def test_each_split_reads_its_own_indices(self, tmp_path):
        searches = [
            self._search(use_cache=False),
            self._search(cache_dir=tmp_path),
            self._search(cache_dir=tmp_path),  # served from disk
        ]
        for result in searches:
            assert [c.fold_aces for c in result.candidates] == [(0.0,) * 10] * 2
        assert searches[0].executions == {"extract": 20, "classify": 20}
        assert searches[1].executions == {"extract": 10, "classify": 20}
        assert searches[2].executions == {"extract": 0, "classify": 0}


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
        """Preprocess calls, LBP calls, and LBP views: one image's views
        go to ``lbp_window_features`` in one call, counted by its windows."""
        calls = {"preprocess": 0, "lbp_calls": 0, "lbp": 0}

        def count(name, run, views=None):
            def counting(*args, **kwargs):
                calls[name] += 1
                if views is not None:
                    calls[views] += len(args[3])
                return run(*args, **kwargs)

            return counting

        monkeypatch.setattr(modelsel, "preprocess_image", count("preprocess", modelsel.preprocess_image))
        monkeypatch.setattr(
            pipeline, "lbp_window_features", count("lbp_calls", pipeline.lbp_window_features, "lbp")
        )
        return calls

    def _search(self, **kwargs):
        images, labels = make_texture_dataset(6, size=24, seed=8, blur_sigma=0.6)
        return grid_search(images, labels, self.GRID, seed=2, augmented=True, **kwargs)

    def test_one_extraction_per_extractor_and_view(self, counted):
        """12 images: one preprocess each, one LBP per (extractor, patch),
        in one call per (extractor, image)."""
        for _ in range(2):  # nothing outlives a search
            counted.update(preprocess=0, lbp_calls=0, lbp=0)
            result = self._search()
            assert counted == {"preprocess": 12, "lbp_calls": 2 * 12, "lbp": 2 * 12 * 10}
            assert result.executions == {"preprocess": 10, "extract": 20, "transform": 20, "classify": 40}
            assert result.cache_hits == {"preprocess": 30, "extract": 20, "transform": 20, "classify": 0}

    def test_uncached_search_recomputes_everything(self, counted):
        """4 candidates x 10 splits, each preprocessing 12 images and
        extracting their 120 patches."""
        uncached = self._search(use_cache=False)
        assert counted == {"preprocess": 4 * 10 * 12, "lbp_calls": 4 * 10 * 12, "lbp": 4 * 10 * 12 * 10}
        assert uncached.executions == {"preprocess": 40, "extract": 40, "transform": 40, "classify": 40}
        cached = self._search()
        assert [c.fold_aces for c in cached.candidates] == [c.fold_aces for c in uncached.candidates]
        assert cached.best_indices == uncached.best_indices

    def test_each_array_hashed_once_per_search(self, monkeypatch):
        """The 12 raw images are hashed for the root key only; the memo
        finds every array by identity."""
        calls = []
        real = modelsel._content_digest

        def counting(img):
            calls.append(img.shape)
            return real(img)

        monkeypatch.setattr(modelsel, "_content_digest", counting)
        for _ in range(2):
            calls.clear()
            cached = self._search()
            assert len(calls) == 12
        calls.clear()
        uncached = self._search(use_cache=False)
        assert len(calls) == 12  # the root key only
        assert [c.fold_aces for c in cached.candidates] == [c.fold_aces for c in uncached.candidates]

    def test_custom_preprocess_feeds_default_extract(self):
        """Rows follow the preprocessed pixels, not the config or index."""
        images, labels = make_texture_dataset(3, size=16, seed=5)

        def run_preprocess(cfg, upstream, ctx):
            return [img**cfg for img in ctx.images]

        seen = []

        def run_classify(cfg, rows, ctx):
            seen.append((ctx.split_index, rows))
            return ctx.labels[ctx.test_idx].copy()

        extractor = LbpConfig(variant="uniform", blocks=(2, 2))
        grid = GridSpec(
            stages=(
                GridStage("preprocess", (1.0, 2.0)),
                GridStage("extract", (extractor,)),
                GridStage("classify", ("a",)),
            )
        )
        runners = {**default_runners(), "preprocess": run_preprocess, "classify": run_classify}
        splits = five_by_two_splits(labels, seed=1)
        grid_search(images, labels, grid, seed=0, augmented=True, splits=splits, runners=runners)
        assert len(seen) == 2 * len(splits)
        for (split_index, rows), power in zip(seen, [1.0, 2.0] * len(splits)):
            train_idx, test_idx = splits[split_index]
            expected = feature_groups([img**power for img in images], True, extractor, None)
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
                image_features(np.roll(img, split_index, axis=1), True, self.EXTRACTOR, None) for img in images
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
            predictions = modelsel._run_classify(params, projected, ctx)
            np.testing.assert_array_equal(predictions, classify_runner_per_image(params, projected, ctx))
