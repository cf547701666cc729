"""A trained pipeline scores an image's views as one stack, and refuses
what it cannot score instead of labelling it."""

import contextlib
import hashlib
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from livecheck import lbp, pipeline
from livecheck.augment import make_patches
from livecheck.config import parse_config_file
from livecheck.convnet import ConvLayerConfig, ConvNetConfig
from livecheck.dataset import load_dataset, load_images
from livecheck.imageproc import highpass
from livecheck.lbp import LbpConfig, lbp_features, lbp_map
from livecheck.model_io import model_bytes, model_digest
from livecheck.pipeline import (
    PipelineConfig,
    PreprocessConfig,
    TrainedPipeline,
    TransformConfig,
    _image_rows,
    fit_pipeline,
    preprocess_image,
    realize_extractor,
)
from livecheck.seeds import derive_seed
from livecheck.svm import SvmModel, SvmParams, decision_scores, train_smo
from livecheck.synthdata import make_texture_dataset, write_dataset_tree

from conftest import run_python
from oracles import averaged_score, preprocess_stepwise, score_image, view_rows


@pytest.fixture(scope="module")
def lbp_model():
    images, labels = make_texture_dataset(6, size=32, seed=3)
    config = PipelineConfig(
        preprocess=PreprocessConfig(filter="highpass"),
        extractor=LbpConfig(variant="uniform", blocks=(2, 2)),
        transform=TransformConfig(pca_fraction=0.3),
        classifier=SvmParams(C=1.0, gamma=0.5),
        seed=17,
    )
    return fit_pipeline(images, labels, config), images[0]


def _with_nan_pixel(img):
    out = img.copy()
    out[5, 7] = np.nan
    return out


def _with_inf_pixel(img):
    out = img.copy()
    out[5, 7] = np.inf
    return out


class TestUnscorableInputsRejected:
    @pytest.mark.parametrize(
        "corrupt",
        [_with_nan_pixel, _with_inf_pixel, lambda img: img * 5.0, np.zeros_like, lambda img: np.full_like(img, 0.5),
         lambda img: img + 0.7j],
        ids=["nan", "inf", "out-of-range", "black", "flat", "complex"],
    )
    def test_bad_image_raises(self, lbp_model, corrupt):
        model, img = lbp_model
        model.decision_score(img)  # the clean image scores
        with pytest.raises(ValueError):
            model.decision_score(corrupt(img))
        with pytest.raises(ValueError):
            model.predict(corrupt(img))

    def test_flat_training_image_raises(self, lbp_model):
        """Training preprocesses through the same check as scoring."""
        model, _ = lbp_model
        images, labels = make_texture_dataset(6, size=32, seed=3)
        images[4] = np.full_like(images[4], 0.25)
        with pytest.raises(ValueError, match="no intensity variation"):
            fit_pipeline(images, labels, model.config)

    def test_non_finite_margin_raises(self, lbp_model):
        model, img = lbp_model
        broken = TrainedPipeline(
            model.config, model.banks, model.standardizer, model.pca,
            replace(model.classifier, bias=float("nan")),
        )
        with pytest.raises(ValueError, match="cannot be scored"):
            broken.decision_score(img)
        with pytest.raises(ValueError, match="cannot be scored"):
            broken.predict(img)


def _finger_on_black(rng, height=144, width=112):
    """Ridges in an off-centre rectangle of a black frame, so the ROI is a
    proper sub-image."""
    img = np.zeros((height, width))
    rows, cols = np.mgrid[0:70, 0:50]
    img[30:100, 20:70] = 0.5 + 0.4 * np.sin(0.9 * rows + 0.3 * cols) * rng.uniform(0.8, 1.0, (70, 50))
    return img


class TestGroupMargins:
    """Each image's mean margin, taken over a fold's stacked scores."""

    @staticmethod
    def _model(rng):
        return SvmModel(
            support_vectors=rng.standard_normal((9, 4)),
            dual_coefs=rng.uniform(-2.0, 2.0, size=9),
            bias=0.3,
            gamma=0.2,
        )

    # Around numpy's pairwise-summation boundaries: a plain loop below 8
    # summed terms, eight accumulators up to 128, a split past 128.
    @pytest.mark.parametrize("size", [1, 7, 8, 9, 10, 16, 17, 129])
    def test_equals_per_group_mean(self, rng, size):
        model = self._model(rng)
        for count in (1, 2, 12):
            groups = rng.standard_normal((count, size, 4))
            scores = decision_scores(model, groups.reshape(-1, 4))
            want = np.array([scores[k * size : (k + 1) * size].mean() for k in range(count)])
            assert pipeline.group_margins(model, groups).tobytes() == want.tobytes()


class TestPreprocess:
    @pytest.mark.parametrize("filter", ["none", "lowpass", "highpass"])
    @pytest.mark.parametrize("equalize", [False, True])
    @pytest.mark.parametrize("roi", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 0.75])
    def test_equals_public_steps(self, rng, scale, roi, equalize, filter):
        """The ROI is read as a view and validated once, with the bits of
        copying it and validating it again; the output never aliases the
        input unless no step runs."""
        img = _finger_on_black(rng)
        config = PreprocessConfig(scale=scale, filter=filter, roi=roi, equalize=equalize, clahe_tiles=(4, 4))
        before = img.copy()
        out = preprocess_image(img, config)
        want = preprocess_stepwise(img, config)
        frame = [int(scale * n) for n in img.shape]
        assert not roi or (out.shape[0] < frame[0] and out.shape[1] < frame[1])
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(img, before)
        ran = scale < 1.0 or roi or equalize or filter != "none"
        assert np.shares_memory(out, img) != ran

    @pytest.mark.parametrize("roi", [False, True])
    @pytest.mark.parametrize("equalize", [False, True])
    def test_invalid_image_rejected(self, rng, roi, equalize):
        img = _finger_on_black(rng)
        config = PreprocessConfig(roi=roi, equalize=equalize)
        for bad in (_with_nan_pixel(img), img * 5.0, img - 0.5, img[None], np.zeros_like(img), img + 0.5j):
            with pytest.raises(ValueError):
                preprocess_image(bad, config)


def _mixed_batch(rng, scale: float) -> list:
    """Seven 64x64 textures, then images that are 64x65, 40x90, 13x13,
    120x150 (which stacks with no other) and 200x300 (which runs in row
    blocks) after ``scale``, and the first image object again."""
    textures, _ = make_texture_dataset(4, size=64, seed=11, blur_sigma=0.4)
    batch = textures[:7]
    for shape in ((64, 65), (40, 90), (13, 13), (120, 150), (200, 300)):
        batch.append(rng.uniform(0.0, 1.0, [math.ceil(side / scale) for side in shape]))
    return batch + [batch[0]]


class TestStackedPreprocess:
    """``preprocess_images`` filters same-shape images as stacks, with the
    bits and the first error of ``preprocess_image`` one image at a time."""

    @pytest.mark.parametrize("filter", ["none", "lowpass", "highpass"])
    @pytest.mark.parametrize("equalize", [False, True])
    @pytest.mark.parametrize("roi", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 0.75])
    def test_equals_one_image_at_a_time(self, rng, scale, roi, equalize, filter, monkeypatch):
        config = PreprocessConfig(scale=scale, filter=filter, roi=roi, equalize=equalize)
        batch = _mixed_batch(rng, scale)
        want = [preprocess_image(img, config) for img in batch]
        stacks = []
        lowpass = pipeline._lowpass

        def recording(images, residual):
            stacks.append(len(images))
            return lowpass(images, residual)

        monkeypatch.setattr(pipeline, "_lowpass", recording)
        for scope in (contextlib.nullcontext(), pipeline._memo_scope()):
            with scope:
                got = pipeline.preprocess_images(batch, config)
            assert len(got) == len(want)
            for out, expected in zip(got, want):
                assert out.shape == expected.shape and out.flags.c_contiguous
                assert out.tobytes() == expected.tobytes()
        assert got[-1] is got[0]  # the memo prepares a repeated object once
        if filter != "none":
            # The textures keep one shape through the ROI, so each run filters them
            # as one group, with the repeated object only when there is no memo.
            assert stacks == [8, 1, 1, 1, 1, 1] + [7, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("filter", ["none", "highpass"])
    @pytest.mark.parametrize("scale", [1.0, 0.75])
    def test_first_failing_image_raises(self, rng, scale, filter):
        """A flat, a 12x12 and a NaN image, in three orders, placed among
        the 64x64 stack: the error is the one the per-image loop meets
        first (a 12x12 image fails only when filtered)."""
        config = PreprocessConfig(scale=scale, filter=filter)
        batch = _mixed_batch(rng, scale)
        bad = [np.full((64, 64), 0.5), rng.uniform(0.0, 1.0, (12, 12)), _with_nan_pixel(batch[1])]
        for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            mixed = list(batch)
            for position, k in zip((3, 5, 9), order):
                mixed.insert(position, bad[k])
            expected = None
            for img in mixed:
                try:
                    preprocess_image(img, config)
                except ValueError as exc:
                    expected = str(exc)
                    break
            assert expected is not None
            for scope in (contextlib.nullcontext(), pipeline._memo_scope()):
                with scope, pytest.raises(ValueError) as info:
                    pipeline.preprocess_images(mixed, config)
                assert str(info.value) == expected


DEPLOYED_CONVNET = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "scan-convnet-aug.ini"
DEPLOYED_SENSOR = DEPLOYED_CONVNET.with_name("scan-sensor.ini")

SMALL_CONVNET = ConvNetConfig(
    layers=(
        ConvLayerConfig(num_filters=4, filter_size=3, pool_size=3, pool_stride=2, lcn_window=3),
        ConvLayerConfig(num_filters=6, filter_size=3, pool_size=2, lcn_window=1),
    )
)


@pytest.mark.parametrize("augmented", [False, True], ids=["plain", "augmented"])
@pytest.mark.parametrize("extractor", [LbpConfig(variant="uniform", blocks=(2, 2)), SMALL_CONVNET],
                         ids=["lbp", "convnet"])
def test_feature_groups_stack_image_features(augmented, extractor):
    """One float64 (images, views, features) array whose ``[i]`` is image
    i's own feature matrix, each view extracted alone, bit for bit."""
    images, _ = make_texture_dataset(2, size=32, seed=6, blur_sigma=0.6)
    groups = pipeline.feature_groups(images, augmented, extractor, seed=5)
    realized, banks = realize_extractor(extractor, 5)
    want = [view_rows(img, augmented, realized, banks) for img in images]
    assert groups.dtype == np.float64 and groups.flags.c_contiguous
    assert groups.shape == (len(images), 10 if augmented else 1, want[0].shape[1])
    for got, rows in zip(groups, want, strict=True):
        assert got.tobytes() == rows.tobytes()


@pytest.mark.parametrize("blocks", [(1, 1), (2, 2)])
@pytest.mark.parametrize("variant", ["original", "uniform"])
def test_plain_lbp_rows_stacked_by_shape(rng, monkeypatch, variant, blocks):
    """Plain LBP counts the images of each shape, in order of first
    appearance, as one ``lbp_features`` stack: every row is the image's
    own ``lbp_features``, bit for bit, a repeated image included, and an
    image alone in its shape goes as a view of itself, not a copy."""
    square = [rng.uniform(0.0, 1.0, size=(24, 24)) for _ in range(3)]
    odd = np.round(rng.uniform(0.0, 1.0, size=(17, 13)) * 3) / 3  # many exact ties
    images = [square[0], odd, square[1], square[0], square[2]]
    config = LbpConfig(variant=variant, blocks=blocks)
    stacks, real = [], pipeline.lbp_features

    def recording(stack, extractor):
        stacks.append(stack)
        return real(stack, extractor)

    monkeypatch.setattr(pipeline, "lbp_features", recording)
    rows = _image_rows(images, False, config, None)
    for img, got in zip(images, rows, strict=True):
        want = lbp_features(img, config)[None]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert [stack.shape for stack in stacks] == [(4, 24, 24), (1, 17, 13)]
    assert np.shares_memory(stacks[1], odd)


@pytest.fixture(scope="module", params=["lbp", "convnet"])
def augmented_model(request):
    images, labels = make_texture_dataset(5, size=32, seed=4, blur_sigma=0.6)
    extractor = LbpConfig(variant="uniform", blocks=(2, 2)) if request.param == "lbp" else SMALL_CONVNET
    config = PipelineConfig(
        preprocess=PreprocessConfig(filter="highpass"),
        extractor=extractor,
        transform=TransformConfig(pca_fraction=0.3),
        classifier=SvmParams(C=1.0, gamma=0.5),
        augmented=True,
        seed=11,
    )
    held, _ = make_texture_dataset(2, size=32, seed=9, blur_sigma=0.6)
    return fit_pipeline(images, labels, config), held


class TestStackedViews:
    def test_margin_equals_per_patch_average(self, augmented_model):
        """Stacked extraction, then scoring the view matrix in one call,
        gives the margin of the per-patch reference bit for bit."""
        model, held = augmented_model
        for img in held:
            pre = preprocess_image(img, model.config.preprocess)
            assert model.decision_score(img) == averaged_score(lambda patch: score_image(model, patch), pre)

    def test_unaugmented_margin_equals_score_image(self, lbp_model):
        model, img = lbp_model
        assert model.decision_score(img) == score_image(model, preprocess_image(img, model.config.preprocess))

    # 25x25 patches: the convnet's first layer writes 4 x 23 x 23 doubles
    # per view.  A view over the budget runs alone on the calling thread;
    # otherwise the views run as one stack, or on two or more cores as two
    # halves, the first on the calling thread.  With room for three views a
    # stack, they run as four stacks of 2, 3, 2 and 3 views, in two pairs on
    # two or more cores.  LBP counts all ten views from the image's one label
    # map, whatever the budgets and the cores.
    @pytest.mark.parametrize("cores, parts, split", [
        (1, [10], ([2, 3, 2, 3], [])), (2, [5, 5], ([2, 2], [3, 3])), (3, [5, 5], ([2, 2], [3, 3])),
    ])
    @pytest.mark.parametrize("stack", [1 << 30, 3 * 8 * 4 * 23 * 23])
    @pytest.mark.parametrize("budget", [8 * 4 * 23 * 23 - 1, 8 * 4 * 23 * 23, 1 << 30])
    def test_view_groups_do_not_change_rows(self, augmented_model, monkeypatch, budget, stack, cores, parts, split):
        """One view at a time, one stack, two halves or stacks under the byte
        bound: the same rows as each view extracted alone."""
        model, held = augmented_model
        pre = preprocess_image(held[0], model.config.preprocess)
        want = view_rows(pre, True, model.config.extractor, model.banks)
        monkeypatch.setattr(pipeline, "_VIEW_GROUP_BYTES", budget)
        monkeypatch.setattr(pipeline, "_STACK_BYTES", stack)
        monkeypatch.setattr(pipeline, "_usable_cores", lambda: cores)
        calls, helper_calls, maps = [], [], []
        real_extract, real_map = pipeline.convnet_features, lbp.lbp_map
        caller = threading.get_ident()

        def counting_extract(stack, *args):
            (calls if threading.get_ident() == caller else helper_calls).append(len(stack))
            return real_extract(stack, *args)

        def counting_map(img):
            maps.append(np.shape(img))
            return real_map(img)

        monkeypatch.setattr(pipeline, "convnet_features", counting_extract)
        monkeypatch.setattr(lbp, "lbp_map", counting_map)
        rows = _image_rows([pre], True, model.config.extractor, model.banks)[0]
        np.testing.assert_array_equal(rows, want)
        if isinstance(model.config.extractor, LbpConfig):
            assert (calls, helper_calls, maps) == ([], [], [(1, *pre.shape)])
        elif budget < 8 * 4 * 23 * 23:
            assert (calls, helper_calls, maps) == ([1] * 10, [], [])
        elif stack < 1 << 30:
            assert (calls, helper_calls, maps) == (*split, [])
        else:
            assert (calls, helper_calls, maps) == (parts[:1], parts[1:], [])


class TestViewParts:
    """The convnet's view stacks on the calling thread and a helper."""

    @pytest.mark.parametrize("bad, first", [([7], 7), ([7, 8], 7), ([2, 7], 2), ([0, 9], 0)])
    def test_error_is_the_first_failing_views(self, monkeypatch, bad, first):
        """A view failing in the helper's part raises on the calling
        thread with the message the views run one by one would raise."""
        img = np.random.default_rng(2).uniform(0.0, 1.0, size=(32, 32))
        views = make_patches(img)
        real_extract = pipeline.convnet_features

        def failing_extract(stack, *args):
            for view in stack:
                index = next(i for i, v in enumerate(views) if np.array_equal(v, view))
                if index in bad:
                    raise ValueError(f"view {index} failed")
            return real_extract(stack, *args)

        monkeypatch.setattr(pipeline, "_usable_cores", lambda: 2)
        monkeypatch.setattr(pipeline, "convnet_features", failing_extract)
        with pytest.raises(ValueError, match=f"^view {first} failed$"):
            _image_rows([img], True, SMALL_CONVNET, None)
        monkeypatch.setattr(pipeline, "convnet_features", real_extract)
        want = view_rows(img, True, SMALL_CONVNET)
        assert _image_rows([img], True, SMALL_CONVNET, None)[0].tobytes() == want.tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_scores_after_threaded_call(self):
        """A child forked after the helper ran gets no thread behind the
        parent's helper; it starts its own and gives the same rows."""
        result = run_python("-c", _FORK_AFTER_HELPER, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["child", "ok"]

    def test_concurrent_callers_get_their_own_rows(self, monkeypatch):
        """More calling threads than cores share the one helper, with the
        interpreter switching threads as often as it can: each gets the
        rows of its own image."""
        monkeypatch.setattr(pipeline, "_usable_cores", lambda: 2)
        images = np.random.default_rng(3).uniform(0.0, 1.0, size=(6, 32, 32))
        want = [_image_rows([img], True, SMALL_CONVNET, None)[0].tobytes() for img in images]
        got = [[] for _ in images]

        def score(k):
            for _ in range(5):
                got[k].append(_image_rows([images[k]], True, SMALL_CONVNET, None)[0].tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=score, args=(k,)) for k in range(len(images))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[rows] * 5 for rows in want]

    def test_lbp_starts_no_thread(self):
        """Fitting and scoring an augmented LBP model starts no helper
        thread and imports no module for one."""
        result = run_python("-c", _LBP_ONLY, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["1", "False"]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_one_cpu_gives_the_same_rows_and_digest(self, tmp_path):
        """A process pinned to one CPU runs the serial path with no helper
        thread, and gives the deployed convnet model's digest and the rows
        this process gives on all its cores."""
        deployed = parse_config_file(DEPLOYED_CONVNET)
        net, banks = realize_extractor(deployed.extract[0], deployed.seed)
        images, _ = make_texture_dataset(2, size=64, seed=3, blur_sigma=0.4)
        rows = np.stack(_image_rows([highpass(img) for img in images], True, net, banks))
        result = run_python("-c", _ONE_CPU, str(DEPLOYED_CONVNET), str(tmp_path), timeout=300)
        assert result.returncode == 0, result.stderr
        digest, threads, child_rows = result.stdout.split()
        assert (digest[:12], threads) == ("4882df53b946", "1")
        assert child_rows == hashlib.sha256(rows.tobytes()).hexdigest()


_LBP_ONLY = """
import sys, threading
from livecheck import LbpConfig, PipelineConfig, PreprocessConfig, SvmParams, TransformConfig
from livecheck import fit_pipeline, make_texture_dataset

images, labels = make_texture_dataset(4, size=32, seed=0)
config = PipelineConfig(PreprocessConfig(filter="highpass"), LbpConfig(), TransformConfig(), SvmParams(), augmented=True)
fit_pipeline(images, labels, config).decision_score(images[0])
print(threading.active_count(), "queue" in sys.modules)
"""


# Runs a small network once as two halves, the second on the helper thread,
# forks, and scores again in the child; an alarm ends a child that hangs
# waiting for the parent's helper, which the child does not have.
_FORK_AFTER_HELPER = """
import os, signal, sys, warnings
import numpy as np
from livecheck import pipeline
from livecheck.convnet import ConvLayerConfig, ConvNetConfig

warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads alive
pipeline._usable_cores = lambda: 2
net = ConvNetConfig(layers=(ConvLayerConfig(num_filters=4, filter_size=3, pool_size=2, lcn_window=3),))
img = np.random.default_rng(0).uniform(0.0, 1.0, size=(40, 40))
want = pipeline._image_rows([img], True, net, None)[0]
pid = os.fork()
if pid == 0:
    signal.alarm(30)
    same = pipeline._image_rows([img], True, net, None)[0].tobytes() == want.tobytes()
    print("child", "ok" if same else "differs", flush=True)
    os._exit(0 if same else 1)
_, status = os.waitpid(pid, 0)
sys.exit(os.waitstatus_to_exitcode(status))
"""

# Pins itself to one CPU, then fits the benchmark's convnet model on its
# PGM tree (as tests/test_blas_threads.py does) and hashes the rows of two
# highpassed 64x64 images; prints the digest, the thread count and the hash.
_ONE_CPU = """
import hashlib, os, sys, threading
import numpy as np

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from livecheck import (
    derive_seed, fit_pipeline, load_dataset, load_images, make_texture_dataset, model_bytes, model_digest,
    parse_config, write_dataset_tree,
)
from livecheck.imageproc import highpass
from livecheck.pipeline import _image_rows, realize_extractor

parsed = parse_config(open(sys.argv[1], encoding="utf-8").read())
images, labels = make_texture_dataset(8, size=64, seed=derive_seed(2015, "scan-convnet-aug", "train"), blur_sigma=0.4)
write_dataset_tree(sys.argv[2], images, labels)
images, labels = load_images(load_dataset(sys.argv[2]))
digest = model_digest(model_bytes(fit_pipeline(images, labels, parsed.single_config())))
net, banks = realize_extractor(parsed.extract[0], parsed.seed)
held, _ = make_texture_dataset(2, size=64, seed=3, blur_sigma=0.4)
rows = np.stack(_image_rows([highpass(img) for img in held], True, net, banks))
print(digest, threading.active_count(), hashlib.sha256(rows.tobytes()).hexdigest())
"""


def _lbp_image(rng, shape, kind):
    img = rng.uniform(0.0, 1.0, size=shape)
    if kind == "ties":
        return np.round(img * 3) / 3  # many exact ties for >=
    return np.full(shape, 0.5) if kind == "constant" else img


class TestAugmentedLbpViews:
    """LBP counts an image's ten views from its one label map: every row
    and every error is what each view extracted alone gives."""

    @pytest.mark.parametrize("kind", ["random", "ties", "constant"])
    @pytest.mark.parametrize("shape", [(64, 64), (63, 50), (17, 13)])
    @pytest.mark.parametrize("blocks", [(1, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("variant", ["original", "uniform"])
    def test_rows_equal_per_view_features(self, rng, variant, blocks, shape, kind):
        img = _lbp_image(rng, shape, kind)
        config = LbpConfig(variant=variant, blocks=blocks)
        rows = _image_rows([img], True, config, None)[0]
        want = np.vstack([lbp_features(view, config) for view in make_patches(img)])
        assert rows.shape == want.shape and rows.dtype == want.dtype
        assert rows.tobytes() == want.tobytes()

    @staticmethod
    def _same_error(img, config):
        with pytest.raises(ValueError) as alone:
            lbp_features(make_patches(img)[0], config)
        with pytest.raises(ValueError) as shared:
            _image_rows([img], True, config, None)
        assert str(shared.value) == str(alone.value)
        return str(shared.value)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (3, 4)])
    def test_views_under_three_by_three_rejected(self, shape):
        img = np.zeros(shape)
        lbp_map(img)  # the whole image is large enough
        assert "at least a 3x3" in self._same_error(img, LbpConfig())

    @pytest.mark.parametrize("blocks", [(12, 1), (1, 9)])
    def test_grid_too_fine_for_the_view_rejected(self, rng, blocks):
        """17x13 has a 15x11 label map, its 13x10 views 11x8 ones."""
        img = rng.uniform(0.0, 1.0, size=(17, 13))
        lbp_features(img, LbpConfig(blocks=blocks))  # the whole image's map takes the grid
        assert "too fine for extent" in self._same_error(img, LbpConfig(blocks=blocks))

    def test_image_too_small_to_crop_rejected(self):
        with pytest.raises(ValueError, match="too small to crop"):
            _image_rows([np.zeros((1, 4))], True, LbpConfig(), None)


def test_sensor_model_digest_pinned(tmp_path, perfbench_frames):
    """The benchmark's sensor model (ROI, CLAHE, highpass, blocked LBP),
    built as its set-up builds it: two 480x640 frames per class written
    as PGM and reloaded, then fitted with the deployed config."""
    images, labels = perfbench_frames.finger_frames(2, derive_seed(2015, "scan-sensor", "train"), 0.4)
    write_dataset_tree(tmp_path, images, labels)
    images, labels = load_images(load_dataset(tmp_path))
    model = fit_pipeline(images, labels, parse_config_file(DEPLOYED_SENSOR).single_config())
    assert model_digest(model_bytes(model))[:12] == "82d00ec8bc44"


def test_sensor_frame_scoring_memory(tmp_path, perfbench_frames):
    """``decision_score`` of a decoded 480x640 frame with that sensor
    model, traced whole and from the preprocessed crop on.  The ROI crop's
    plain LBP takes it as a one-image stack that is a view of the crop.
    When pinned, the whole call peaked at 2.37-2.97 MiB on these six
    frames, set by preprocessing, and the rows at 1.23x the crop's bytes
    above it.  A copy of the crop added its own bytes to the rows' peak
    (2.2x), but lifted the whole call's only to 2.37-3.22 MiB."""
    images, labels = perfbench_frames.finger_frames(2, derive_seed(2015, "scan-sensor", "train"), 0.4)
    write_dataset_tree(tmp_path / "train", images, labels)
    images, labels = load_images(load_dataset(tmp_path / "train"))
    model = fit_pipeline(images, labels, parse_config_file(DEPLOYED_SENSOR).single_config())
    write_dataset_tree(tmp_path / "probe", *perfbench_frames.finger_frames(3, 5, 0.4))
    frames, _ = load_images(load_dataset(tmp_path / "probe"))
    peaks, ratios = [], []
    for frame in frames:
        assert frame.shape == (480, 640)
        pre = preprocess_image(frame, model.config.preprocess)
        tracemalloc.start()
        try:
            model.decision_score(frame)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.reset_peak()
            _image_rows([pre], False, model.config.extractor, None)
            ratios.append(tracemalloc.get_traced_memory()[1] / pre.nbytes)
        finally:
            tracemalloc.stop()
    assert max(peaks) < 3.3, f"traced peaks {[round(peak, 2) for peak in peaks]} MiB"
    assert max(ratios) < 1.6, f"rows' peaks {[round(ratio, 2) for ratio in ratios]} x the crop"


def test_sensor_sized_augmented_convnet_memory():
    """Ten 384x512 patches of a 480x640 frame through the deployed 16/32
    network: each view is above the group budget and runs alone, so the
    traced peak stays at the one-view level (100.0 MiB when pinned)."""
    deployed = parse_config_file(DEPLOYED_CONVNET)
    net, banks = realize_extractor(deployed.extract[0], deployed.seed)
    img = np.random.default_rng(0).uniform(0.0, 1.0, size=(480, 640))
    tracemalloc.start()
    try:
        rows = _image_rows([img], True, net, banks)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape[0] == 10
    assert peak < 110 * 2**20


def test_mid_size_augmented_convnet_memory():
    """Ten 93x93 patches of a 117x117 image through the deployed 16/32
    network: each view's 89x89x16 first-layer maps take 1.0 MB, under the
    group budget, so the views run in stacks of 2, 3, 2 and 3, at most six
    views in flight on two cores.  With all ten in flight as two halves the
    traced peak was 13.4-14.9 MiB; the stacks read 8.5-8.6 MiB on two cores
    and 5.2 MiB on one when pinned."""
    deployed = parse_config_file(DEPLOYED_CONVNET)
    net, banks = realize_extractor(deployed.extract[0], deployed.seed)
    img = np.random.default_rng(0).uniform(0.0, 1.0, size=(117, 117))
    tracemalloc.start()
    try:
        rows = _image_rows([img], True, net, banks)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape[0] == 10
    assert peak < 11 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("blocks", [(1, 1), (2, 2)])
@pytest.mark.parametrize("variant", ["original", "uniform"])
def test_sensor_sized_augmented_lbp_memory(variant, blocks):
    """Ten 384x512 views of a 480x640 frame through LBP: one label map of
    the frame, counted in bands of rows.  The traced peak was 3.6-3.9 MiB
    when pinned, so 5 MiB leaves about 30%; the ten-view float patch stack
    alone is 15.6 MiB, and ten views' intp keys would be too.  With the
    counts in bands it reads 3.2-4.3 MiB when the frame's 2.4 MB cell map
    is built in the call, and 0.9-2.9 MiB when it is cached."""
    img = np.random.default_rng(0).uniform(0.0, 1.0, size=(480, 640))
    tracemalloc.start()
    try:
        rows = _image_rows([img], True, LbpConfig(variant=variant, blocks=blocks), None)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (10, LbpConfig(variant=variant, blocks=blocks).feature_length)
    assert peak < 5 * 2**20


def test_many_images_augmented_lbp_memory():
    """200 64x64 images through augmented uniform 2x2 LBP in one
    ``feature_groups`` call: they are counted in stacks of at most
    ``_BLOCK_BYTES`` of pixels, eight images here, so the traced peak is
    the rows' 0.6 MiB, their stacked copy and one stack's work.  It read
    1.5 MiB when pinned; all 200 as one stack would copy 6.3 MiB of
    pixels alone."""
    images, _ = make_texture_dataset(100, size=64, seed=0, blur_sigma=0.4)
    config = LbpConfig(variant="uniform", blocks=(2, 2))
    pipeline.feature_groups(images[:2], True, config, 0)  # the layout's plan and numpy's lazy imports
    tracemalloc.start()
    try:
        groups = pipeline.feature_groups(images, True, config, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert groups.shape == (200, 10, config.feature_length)
    assert peak < 2 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_banks_drawn_only_for_misses(monkeypatch):
    """In a memo scope, ``feature_groups`` draws a convnet's banks once for
    the images it extracts, and not again when every image hits."""
    drawn, real = [], pipeline.init_banks

    def drawing(config):
        drawn.append(config)
        return real(config)

    monkeypatch.setattr(pipeline, "init_banks", drawing)
    images, _ = make_texture_dataset(2, size=32, seed=6, blur_sigma=0.6)
    with pipeline._memo_scope():
        first = pipeline.feature_groups(images, False, SMALL_CONVNET, seed=5)
        again = pipeline.feature_groups(images, False, SMALL_CONVNET, seed=5)
    assert len(drawn) == 1
    assert again.tobytes() == first.tobytes()


def test_fit_pipeline_draws_convnet_banks_once(monkeypatch):
    """Outside a memo scope, and inside one where every image hits,
    ``fit_pipeline`` draws a convnet's banks once, and its model has the
    bytes of the same stages composed by hand."""
    drawn, real = [], pipeline.init_banks

    def drawing(config):
        drawn.append(config)
        return real(config)

    monkeypatch.setattr(pipeline, "init_banks", drawing)
    images, labels = make_texture_dataset(3, size=32, seed=6, blur_sigma=0.6)
    config = PipelineConfig(
        PreprocessConfig(filter="highpass"),
        SMALL_CONVNET,
        TransformConfig(pca_fraction=0.5),
        SvmParams(C=10.0, gamma=0.05),
        augmented=True,
        seed=9,
    )
    model = fit_pipeline(images, labels, config)
    assert len(drawn) == 1
    with pipeline._memo_scope():
        fit_pipeline(images, labels, config)
        drawn.clear()
        again = fit_pipeline(images, labels, config)
    assert len(drawn) == 1
    net, banks = realize_extractor(config.extractor, config.seed)
    rows = np.concatenate(_image_rows([highpass(img) for img in images], True, net, banks))
    standardizer, pca, Z = pipeline.fit_transform(rows, config.transform)
    classifier, _ = train_smo(Z, np.repeat(labels, 10), config.classifier)
    by_hand = TrainedPipeline(replace(config, extractor=net), banks, standardizer, pca, classifier)
    assert model_bytes(model) == model_bytes(again) == model_bytes(by_hand)
