"""A trained pipeline scores an image's views as one stack, and refuses
what it cannot score instead of labelling it."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from livecheck import pipeline
from livecheck.augment import make_patches
from livecheck.config import parse_config_file
from livecheck.convnet import ConvLayerConfig, ConvNetConfig
from livecheck.lbp import LbpConfig
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
from livecheck.svm import SvmParams
from livecheck.synthdata import make_texture_dataset

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

SMALL_CONVNET = ConvNetConfig(
    layers=(
        ConvLayerConfig(num_filters=4, filter_size=3, pool_size=3, pool_stride=2, lcn_window=3),
        ConvLayerConfig(num_filters=6, filter_size=3, pool_size=2, lcn_window=1),
    )
)


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
    # per view and LBP's label map 23 x 23, so 50,784 bytes hold three
    # convnet views or all ten LBP views.
    @pytest.mark.parametrize(
        "budget, groups",
        [
            (1, {"lbp": [1] * 10, "convnet": [1] * 10}),
            (3 * 8 * 4 * 23 * 23, {"lbp": [10], "convnet": [3, 3, 3, 1]}),
            (1 << 30, {"lbp": [10], "convnet": [10]}),
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
        calls = []
        real = pipeline.extract_features

        def counting(stack, *args):
            calls.append(len(stack))
            return real(stack, *args)

        monkeypatch.setattr(pipeline, "extract_features", counting)
        rows = image_features(pre, True, model.config.extractor, model.banks)
        np.testing.assert_array_equal(rows, want)
        kind = "lbp" if isinstance(model.config.extractor, LbpConfig) else "convnet"
        assert calls == groups[kind]


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
