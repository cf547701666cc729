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

One relation holds for the SVM alone: every training row twice with C is
the primal of each row once with 2C, so held-out margins agree in exact
arithmetic.  At C = 1 the largest held-out gap measured 3.8e-4 on blobs
(200 held-out points) and 5.4e-4 on the 120 augmented LBP rows of the
solver's oracle cases (held out: 120 rows of other textures through the
same transform), with every sign equal; the bound is 1e-3.  At the oracle
cases' C = 10 no alpha reaches the box, the duplicates tie with the rows
they copy, and both runs took the same steps to the same margins.

One relation holds exactly at the feature level: LBP codes compare each
neighbour with its centre, so a positive gain on the highpass residual
keeps them.  A gain of 2^k scales every value without rounding, so the
codes are pinned equal.  Another gain rounds, and can merge two values
that differ by an ulp into a tie, which sets a bit; a gain of 3 moved 0
of about 2.1 million codes (20 per class of these 64x64 textures, as
float and as 8-bit images, and six whole 480x640 sensor frames).

The sensor ROI takes its mass from ridge activity, not brightness, so a
photometric change of the benchmark's 12 held-out sensor frames (each
re-quantized through PGM) keeps every crop edge within one 16-pixel
block; the largest shift measured 5 px, at offset -0.1.  With the
deployed sensor model an offset of +0.1 flips 1 of the 12 labels and
turns no fake live; a ROI from intensity moments crops every such frame
to the whole 640x480 and flips 5.  Inversion still flips 4, all fakes
called live, with each crop as the original's.
"""

import numpy as np
import pytest

from livecheck import (
    LbpConfig,
    PipelineConfig,
    PreprocessConfig,
    SvmParams,
    TransformConfig,
    derive_seed,
    extract_roi,
    fit_pipeline,
    highpass,
    ingest,
    load_dataset,
    load_images,
    make_texture_dataset,
    parse_config_file,
    write_dataset_tree,
    write_pgm,
)
from livecheck.convnet import ConvLayerConfig, ConvNetConfig
from livecheck.imageproc import ROI_BLOCK
from livecheck.lbp import lbp_map
from livecheck.pipeline import fit_transform
from livecheck.svm import decision_scores, train_smo
from livecheck.transform import project

from test_pipeline import DEPLOYED_SENSOR
from test_svm import blob_data, lbp_rows, oracle_cases

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


def _blob_rows():
    X, y, params = oracle_cases()["blobs"]
    return X, y, blob_data(np.random.default_rng(3), n=200)[0], params.gamma


def _lbp_rows():
    X, y = lbp_rows(17)
    standardizer, pca, Z = fit_transform(X, TransformConfig(pca_fraction=0.5))
    held = project(pca, standardizer.apply(lbp_rows(18)[0]))
    return Z, y, held, 0.05  # the lbp-pca oracle case's gamma


@pytest.mark.parametrize("rows", [_blob_rows, _lbp_rows], ids=["blobs", "lbp"])
def test_every_row_twice_matches_twice_the_c(rows):
    X, y, held, gamma = rows()
    once, diag = train_smo(X, y, SvmParams(C=2.0, gamma=gamma), collect_diagnostics=True)
    twice, _ = train_smo(np.vstack([X, X]), np.concatenate([y, y]), SvmParams(C=1.0, gamma=gamma))
    assert (diag.alphas == 2.0).any()  # the box binds, so the two runs take different steps
    margins = decision_scores(once, held)
    moved = decision_scores(twice, held)
    np.testing.assert_array_equal(np.sign(moved), np.sign(margins))
    assert np.abs(moved - margins).max() <= 1e-3
    assert np.median(np.abs(margins)) > 100 * 1e-3  # not all near zero


SENSOR_CHANGES = {
    "offset +0.1": lambda frame: frame + 0.1,
    "offset -0.1": lambda frame: frame - 0.1,
    "gain 0.6": lambda frame: 0.6 * frame,
    "gain 0.8": lambda frame: 0.8 * frame,
    "inverted": lambda frame: 1.0 - frame,
    "inverted, offset -0.1": lambda frame: 0.9 - frame,
}


def _through_pgm(img):
    return ingest(write_pgm(np.clip(img, 0.0, 1.0)))


@pytest.fixture(scope="module")
def sensor_held(perfbench_frames):
    """scan-sensor's 12 held-out frames, read back through PGM as its set-up reads them."""
    frames, _ = perfbench_frames.finger_frames(6, derive_seed(2015, "scan-sensor", "held"), 0.4)
    return [_through_pgm(frame) for frame in frames]


def _edges(rect):
    return rect.x0, rect.y0, rect.x0 + rect.width, rect.y0 + rect.height


@pytest.mark.parametrize("change", sorted(SENSOR_CHANGES))
def test_photometric_change_keeps_the_sensor_crop(sensor_held, change):
    for frame in sensor_held:
        moved = extract_roi(_through_pgm(SENSOR_CHANGES[change](frame)))
        shift = np.subtract(_edges(moved), _edges(extract_roi(frame)))
        assert np.abs(shift).max() <= ROI_BLOCK, (change, moved)


def test_offset_flips_at_most_one_sensor_label(sensor_held, perfbench_frames, tmp_path):
    """The deployed sensor model, fitted as the benchmark fits it."""
    images, labels = perfbench_frames.finger_frames(2, derive_seed(2015, "scan-sensor", "train"), 0.4)
    write_dataset_tree(tmp_path, images, labels)
    images, labels = load_images(load_dataset(tmp_path))
    model = fit_pipeline(images, labels, parse_config_file(DEPLOYED_SENSOR).single_config())
    before = np.array([model.predict(frame) for frame in sensor_held])
    after = np.array([model.predict(_through_pgm(frame + 0.1)) for frame in sensor_held])
    assert (after != before).sum() <= 1
    assert not ((before < 0) & (after > 0)).any()  # no fake turned live
