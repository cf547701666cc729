"""A trained pipeline scores an image's views as one stack, and refuses
what it cannot score instead of labelling it."""

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
from livecheck.lbp import LbpConfig, lbp_features, lbp_map
from livecheck.model_io import model_bytes, model_digest
from livecheck.pipeline import (
    PipelineConfig,
    PreprocessConfig,
    TrainedPipeline,
    TransformConfig,
    extract_features,
    fit_pipeline,
    image_features,
    preprocess_image,
    realize_extractor,
)
from livecheck.seeds import derive_seed
from livecheck.svm import SvmModel, SvmParams, decision_scores
from livecheck.synthdata import make_texture_dataset, write_dataset_tree

from oracles import averaged_score, preprocess_stepwise, score_image


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
    @pytest.mark.parametrize("corrupt", [_with_nan_pixel, _with_inf_pixel, lambda img: img * 5.0],
                             ids=["nan", "inf", "out-of-range"])
    def test_bad_image_raises(self, lbp_model, corrupt):
        model, img = lbp_model
        model.decision_score(img)  # the clean image scores
        with pytest.raises(ValueError):
            model.decision_score(corrupt(img))
        with pytest.raises(ValueError):
            model.predict(corrupt(img))

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


def _finger_on_black(rng, height=120, width=96):
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
        for bad in (_with_nan_pixel(img), img * 5.0, img - 0.5, img[None]):
            with pytest.raises(ValueError):
                preprocess_image(bad, config)


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
    i's own feature matrix, bit for bit."""
    images, _ = make_texture_dataset(2, size=32, seed=6, blur_sigma=0.6)
    groups = pipeline.feature_groups(images, augmented, extractor, seed=5)
    realized, banks = realize_extractor(extractor, 5)
    want = [image_features(img, augmented, realized, banks) for img in images]
    assert groups.dtype == np.float64 and groups.flags.c_contiguous
    assert groups.shape == (len(images), 10 if augmented else 1, want[0].shape[1])
    for got, rows in zip(groups, want, strict=True):
        assert got.tobytes() == rows.tobytes()


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
    # per view, so 50,784 bytes hold three views.  LBP counts all ten
    # views from the image's one label map, whatever the budget.
    @pytest.mark.parametrize(
        "budget, groups",
        [
            (1, [1] * 10),
            (3 * 8 * 4 * 23 * 23, [3, 3, 3, 1]),
            (1 << 30, [10]),
        ],
    )
    def test_view_groups_do_not_change_rows(self, augmented_model, monkeypatch, budget, groups):
        """One view per group, a few, or all ten: the same rows as each
        view extracted alone."""
        model, held = augmented_model
        pre = preprocess_image(held[0], model.config.preprocess)
        views = make_patches(pre)
        want = np.vstack([extract_features(view, model.config.extractor, model.banks) for view in views])
        monkeypatch.setattr(pipeline, "_VIEW_GROUP_BYTES", budget)
        calls, maps = [], []
        real_extract, real_map = pipeline.extract_features, lbp.lbp_map

        def counting_extract(stack, *args):
            calls.append(len(stack))
            return real_extract(stack, *args)

        def counting_map(img):
            maps.append(np.shape(img))
            return real_map(img)

        monkeypatch.setattr(pipeline, "extract_features", counting_extract)
        monkeypatch.setattr(lbp, "lbp_map", counting_map)
        rows = image_features(pre, True, model.config.extractor, model.banks)
        np.testing.assert_array_equal(rows, want)
        if isinstance(model.config.extractor, LbpConfig):
            assert (calls, maps) == ([], [pre.shape])
        else:
            assert (calls, maps) == (groups, [])


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
        rows = image_features(img, True, config, None)
        want = np.vstack([lbp_features(view, config) for view in make_patches(img)])
        assert rows.shape == want.shape and rows.dtype == want.dtype
        assert rows.tobytes() == want.tobytes()

    @staticmethod
    def _same_error(img, config):
        with pytest.raises(ValueError) as alone:
            lbp_features(make_patches(img)[0], config)
        with pytest.raises(ValueError) as shared:
            image_features(img, True, config, None)
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
            image_features(np.zeros((1, 4)), True, LbpConfig(), None)


def test_sensor_model_digest_pinned(tmp_path, perfbench_frames):
    """The benchmark's sensor model (ROI, CLAHE, highpass, blocked LBP),
    built as its set-up builds it: two 480x640 frames per class written
    as PGM and reloaded, then fitted with the deployed config."""
    images, labels = perfbench_frames.finger_frames(2, derive_seed(2015, "scan-sensor", "train"), 0.4)
    write_dataset_tree(tmp_path, images, labels)
    images, labels = load_images(load_dataset(tmp_path))
    model = fit_pipeline(images, labels, parse_config_file(DEPLOYED_SENSOR).single_config())
    assert model_digest(model_bytes(model))[:12] == "5890d41f1a33"


def test_sensor_sized_augmented_convnet_memory():
    """Ten 384x512 patches of a 480x640 frame through the deployed 16/32
    network: each view is above the group budget and runs alone, so the
    traced peak stays at the one-view level (100.0 MiB when pinned)."""
    deployed = parse_config_file(DEPLOYED_CONVNET)
    net, banks = realize_extractor(deployed.extract[0], deployed.seed)
    img = np.random.default_rng(0).uniform(0.0, 1.0, size=(480, 640))
    tracemalloc.start()
    try:
        rows = image_features(img, True, net, banks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape[0] == 10
    assert peak < 110 * 2**20


@pytest.mark.parametrize("blocks", [(1, 1), (2, 2)])
@pytest.mark.parametrize("variant", ["original", "uniform"])
def test_sensor_sized_augmented_lbp_memory(variant, blocks):
    """Ten 384x512 views of a 480x640 frame through LBP: one label map of
    the frame and one view's keys at a time.  The traced peak was 3.6-3.9
    MiB when pinned, so 5 MiB leaves about 30%; the ten-view float patch
    stack alone is 15.6 MiB, and ten views' intp keys would be too."""
    img = np.random.default_rng(0).uniform(0.0, 1.0, size=(480, 640))
    tracemalloc.start()
    try:
        rows = image_features(img, True, LbpConfig(variant=variant, blocks=blocks), None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (10, LbpConfig(variant=variant, blocks=blocks).feature_length)
    assert peak < 5 * 2**20
