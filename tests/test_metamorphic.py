"""Metamorphic relations of the whole pipeline: how held-out margins must
move when the training set or a test image changes in a known way.

The models are select's first candidate (uniform LBP, 1x1 blocks) and
the deployed 16/32-filter convnet, both augmented, fitted on 64x64
textures.  Each bound sits above the value measured on this data:

| Relation                   | LBP     | Convnet |
|----------------------------|---------|---------|
| permute the training set   | 4.2e-4  | 4.3e-4  |
| train on -y, add margins   | 4.5e-4  | 2.0e-4  |
| mirror the test image      | 0.047   | 0.072   |

The first two are exact in exact arithmetic; SMO stops once its KKT gap
is below ``tol`` (1e-3), and the order of the rows changes its path to
that point.  Mirroring moves the margin because the centre crop's mirror
is not one of the ten views (see ``augment.patch_windows``).

One relation holds exactly at the feature level: LBP codes compare each
neighbour with its centre, so a positive gain on the highpass residual
keeps them.  A gain of 2^k scales every value without rounding, so the
codes are pinned equal.  Another gain rounds, and can merge two values
that differ by an ulp into a tie, which sets a bit; a gain of 3 moved 0
of about 2.1 million codes (20 per class of these 64x64 textures, as
float and as 8-bit images, and six whole 480x640 sensor frames).
"""

import numpy as np
import pytest

from livecheck import (
    LbpConfig,
    PipelineConfig,
    PreprocessConfig,
    SvmParams,
    TransformConfig,
    fit_pipeline,
    highpass,
    make_texture_dataset,
)
from livecheck.convnet import ConvLayerConfig, ConvNetConfig
from livecheck.lbp import lbp_map

CONFIGS = {
    "lbp": PipelineConfig(
        preprocess=PreprocessConfig(filter="highpass"),
        extractor=LbpConfig(variant="uniform"),
        transform=TransformConfig(pca_fraction=0.5),
        classifier=SvmParams(C=1.0, gamma=0.05),
        augmented=True,
        seed=42,
    ),
    "convnet": PipelineConfig(
        preprocess=PreprocessConfig(filter="highpass"),
        extractor=ConvNetConfig(
            layers=tuple(ConvLayerConfig(num_filters=n, filter_size=5, pool_size=3, lcn_window=9) for n in (16, 32))
        ),
        transform=TransformConfig(pca_fraction=0.05),
        classifier=SvmParams(C=10.0, gamma=0.02),
        augmented=True,
        seed=42,
    ),
}
BOUNDS = {
    "lbp": {"permute": 1e-3, "negate": 1e-3, "mirror": 0.07},
    "convnet": {"permute": 1e-3, "negate": 5e-4, "mirror": 0.1},
}


def _margins(model, images) -> np.ndarray:
    return np.array([model.decision_score(img) for img in images])


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def fitted(request):
    """(kind, training images, labels, model, held-out images, their margins)."""
    images, labels = make_texture_dataset(8, size=64, seed=0, blur_sigma=0.4)
    held, _ = make_texture_dataset(10, size=64, seed=1, blur_sigma=0.4)
    model = fit_pipeline(images, labels, CONFIGS[request.param])
    return request.param, images, labels, model, held, _margins(model, held)


def test_permuting_training_images_keeps_margins(fitted):
    kind, images, labels, _, held, margins = fitted
    order = np.random.default_rng(0).permutation(len(images))
    permuted = fit_pipeline([images[i] for i in order], labels[order], CONFIGS[kind])
    moved = _margins(permuted, held)
    assert np.abs(moved - margins).max() <= BOUNDS[kind]["permute"]
    np.testing.assert_array_equal(np.sign(moved), np.sign(margins))


def test_negated_labels_negate_margins(fitted):
    kind, images, labels, _, held, margins = fitted
    negated = _margins(fit_pipeline(images, -labels, CONFIGS[kind]), held)
    assert np.abs(negated + margins).max() <= BOUNDS[kind]["negate"]
    assert np.median(np.abs(margins)) > 100 * BOUNDS[kind]["negate"]  # not all near zero


def test_mirroring_a_test_image_barely_moves_its_margin(fitted):
    kind, _, _, model, held, margins = fitted
    mirrored = _margins(model, [img[:, ::-1] for img in held])
    assert np.abs(mirrored - margins).max() <= BOUNDS[kind]["mirror"]


@pytest.mark.parametrize("eight_bit", [False, True], ids=["float", "8-bit"])
def test_power_of_two_gain_keeps_lbp_codes(eight_bit):
    images, _ = make_texture_dataset(4, size=64, seed=0, blur_sigma=0.4)
    for img in images:
        residual = highpass(np.rint(img * 255.0) / 255.0 if eight_bit else img)
        codes = lbp_map(residual)
        for k in range(1, 11):
            np.testing.assert_array_equal(lbp_map(residual * 2.0**k), codes)
