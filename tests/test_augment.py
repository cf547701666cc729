"""Crop/flip augmentation layout, and the mirror and patch-averaging
references the pipeline's scoring is checked against."""

import re

import numpy as np
import pytest

from livecheck.augment import PATCHES_PER_IMAGE, augment_training, make_patches, patch_windows
from livecheck.lbp import LbpConfig
from livecheck.pipeline import _image_rows, feature_groups

from oracles import averaged_score, hflip


class TestHflip:
    def test_mirrors_columns(self):
        img = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(hflip(img), img[:, ::-1])

    def test_involution(self, random_image):
        img = random_image(9, 13)
        np.testing.assert_array_equal(hflip(hflip(img)), img)


class TestMakePatches:
    def test_hundred_pixel_layout(self, rng):
        """100x100 input: 80x80 patches at (0,0), (0,20), (20,0), (20,20), (10,10)."""
        img = rng.uniform(0.0, 1.0, size=(100, 100))
        patches = make_patches(img)
        assert len(patches) == PATCHES_PER_IMAGE
        origins = [(0, 0), (0, 20), (20, 0), (20, 20), (10, 10)]
        for pos, (oy, ox) in enumerate(origins):
            crop = img[oy : oy + 80, ox : ox + 80]
            np.testing.assert_array_equal(patches[2 * pos], crop)
            np.testing.assert_array_equal(patches[2 * pos + 1], crop[:, ::-1])

    def test_all_patches_same_shape(self, rng):
        patches = make_patches(rng.uniform(size=(33, 47)))
        shapes = {p.shape for p in patches}
        assert shapes == {(4 * 33 // 5, 4 * 47 // 5)}

    def test_odd_dimensions_floor(self, rng):
        patches = make_patches(rng.uniform(size=(11, 7)))
        assert patches[0].shape == (8, 5)

    def test_flip_pairs_adjacent(self, rng):
        """Patch 2i+1 is always the mirror of patch 2i."""
        patches = make_patches(rng.uniform(size=(25, 30)))
        for pos in range(5):
            np.testing.assert_array_equal(patches[2 * pos + 1], patches[2 * pos][:, ::-1])

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_patches(np.zeros((1, 10)))

    @pytest.mark.parametrize("shape", [(12,), (3, 12, 12), (1, 1, 12, 12)])
    def test_not_two_dimensional_rejected_by_patch_windows(self, shape):
        """Every path to the layout names ``patch_windows``, which raises."""
        message = f"patch_windows expects a 2-D image, got shape {shape}"
        calls = [
            lambda: patch_windows(shape),
            lambda: make_patches(np.zeros(shape)),
            lambda: _image_rows([np.zeros(shape)], True, LbpConfig(), None),
            lambda: feature_groups([np.zeros(shape)], True, LbpConfig(), 0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()


class TestAugmentTraining:
    def test_tenfold_expansion_with_labels(self, rng):
        images = [rng.uniform(size=(10, 10)) for _ in range(4)]
        labels = np.array([1.0, -1.0, 1.0, -1.0])
        out_images, out_labels = augment_training(images, labels)
        assert len(out_images) == 40
        assert out_labels.shape == (40,)
        np.testing.assert_array_equal(out_labels, np.repeat(labels, 10))

    def test_patch_positions_trace_back(self, rng):
        images = [rng.uniform(size=(10, 10)) for _ in range(3)]
        labels = np.ones(3) * -1.0
        out_images, _ = augment_training(images, labels)
        for i, img in enumerate(images):
            expected = make_patches(img)
            got = out_images[10 * i : 10 * (i + 1)]
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            augment_training([rng.uniform(size=(8, 8))], np.ones(2))


class _RecordingScorer:
    """Deterministic stand-in: score is the patch mean."""

    def __init__(self):
        self.calls = 0

    def score_image(self, img):
        self.calls += 1
        return float(img.mean())


class TestAveragedScore:
    def test_mean_of_ten_patch_scores(self, rng):
        img = rng.uniform(size=(20, 20))
        scorer = _RecordingScorer()
        got = averaged_score(scorer.score_image, img)
        assert scorer.calls == 10
        want = np.mean([p.mean() for p in make_patches(img)])
        assert got == pytest.approx(want, abs=1e-12)

    def test_constant_image_score_unchanged(self):
        img = np.full((15, 15), 0.42)
        assert averaged_score(_RecordingScorer().score_image, img) == pytest.approx(0.42)
