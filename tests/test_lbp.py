"""LBP codes, uniform labels, and blocked histogram features."""

import numpy as np
import pytest

from livecheck.lbp import (
    MIRROR_CODES,
    N_ORIGINAL_BINS,
    N_UNIFORM_BINS,
    UNIFORM_LABELS,
    LbpConfig,
    lbp_code,
    lbp_features,
    lbp_map,
    uniform_label,
)

from conftest import layouts
from oracles import lbp_code_oracle, lbp_histogram_oracle, lbp_map_oracle, uniform_label_oracle


class TestCodes:
    def test_worked_example(self):
        """Hand-checked 3x3 patch: ties count as >= center."""
        patch = np.array([[5, 4, 3], [6, 5, 2], [7, 8, 9]], dtype=float)
        # ring clockwise from top-left: 5,4,3,2,9,8,7,6 vs center 5
        # bits: 1,0,0,0,1,1,1,1 -> 0b10001111
        assert lbp_code(patch) == 0b10001111 == 143

    def test_constant_patch_is_all_ones(self):
        assert lbp_code(np.full((3, 3), 0.5)) == 255

    def test_matches_oracle_on_random_patches(self, rng):
        for _ in range(200):
            patch = rng.uniform(0.0, 1.0, size=(3, 3))
            assert lbp_code(patch) == lbp_code_oracle(patch, 1, 1)

    def test_map_matches_per_pixel_codes(self, rng):
        img = rng.uniform(0.0, 1.0, size=(10, 12))
        codes = lbp_map(img)
        assert codes.shape == (8, 10)
        for row in range(8):
            for col in range(10):
                assert codes[row, col] == lbp_code_oracle(img, row + 1, col + 1)

    def test_map_needs_three_by_three(self):
        with pytest.raises(ValueError):
            lbp_map(np.zeros((2, 5)))

    def test_code_shape_validated(self):
        with pytest.raises(ValueError):
            lbp_code(np.zeros((3, 4)))


class TestUniformLabels:
    def test_exactly_58_uniform_codes(self):
        """The classic count: 58 uniform patterns, the rest share label 9."""
        uniform = [c for c in range(256) if uniform_label(c) <= 8]
        assert len(uniform) == 58

    def test_labels_match_oracle_for_all_codes(self):
        for code in range(256):
            assert uniform_label(code) == uniform_label_oracle(code)

    def test_label_range_covered(self):
        labels = {uniform_label(c) for c in range(256)}
        assert labels == set(range(10))

    def test_popcount_for_uniform_codes(self):
        # all-zero, all-one, and a single run are uniform
        assert uniform_label(0b00000000) == 0
        assert uniform_label(0b11111111) == 8
        assert uniform_label(0b00011100) == 3
        # alternating bits are maximally non-uniform
        assert uniform_label(0b01010101) == 9

    def test_table_and_function_agree(self):
        np.testing.assert_array_equal(
            UNIFORM_LABELS, np.array([uniform_label(c) for c in range(256)])
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            uniform_label(256)


class TestFeatures:
    def test_matches_counting_oracle(self, rng):
        for variant in ("original", "uniform"):
            for blocks in ((1, 1), (2, 2), (2, 3)):
                img = rng.uniform(0.0, 1.0, size=(14, 17))
                got = lbp_features(img, LbpConfig(variant=variant, blocks=blocks))
                want = lbp_histogram_oracle(img, variant, blocks)
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_feature_length(self):
        assert LbpConfig("original", (1, 1)).feature_length == N_ORIGINAL_BINS
        assert LbpConfig("uniform", (3, 3)).feature_length == 9 * N_UNIFORM_BINS

    def test_each_block_sums_to_one(self, rng):
        img = rng.uniform(0.0, 1.0, size=(20, 20))
        config = LbpConfig(variant="uniform", blocks=(3, 3))
        feats = lbp_features(img, config)
        assert feats.shape == (90,)
        sums = feats.reshape(9, N_UNIFORM_BINS).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_nonnegative(self, rng):
        feats = lbp_features(rng.uniform(size=(12, 12)), LbpConfig())
        assert feats.min() >= 0.0

    def test_constant_image_single_bin(self):
        feats = lbp_features(np.full((10, 10), 0.3), LbpConfig(variant="original"))
        assert feats[255] == 1.0
        assert feats.sum() == 1.0

    def test_grid_too_fine_rejected(self):
        with pytest.raises(ValueError):
            lbp_features(np.zeros((4, 4)), LbpConfig(blocks=(3, 3)))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            LbpConfig(variant="rotation")
        with pytest.raises(ValueError):
            LbpConfig(blocks=(0, 1))


class TestStacks:
    """A stack of views gives each view the bits it gets alone."""

    def _views(self, rng):
        views = rng.uniform(0.0, 1.0, size=(5, 13, 16))
        views[1] = np.round(views[1] * 3) / 3  # many exact ties for >=
        views[2] = 0.5  # a constant view: every code 255
        return views

    def test_map_equals_single_views(self, rng):
        views = self._views(rng)
        stacked = lbp_map(views)
        assert stacked.shape == (5, 11, 14) and stacked.dtype == np.uint8
        for view, codes in zip(views, stacked):
            np.testing.assert_array_equal(codes, lbp_map(view))
        np.testing.assert_array_equal(lbp_map(views.reshape(5, 1, 13, 16))[:, 0], stacked)

    def test_features_equal_single_views(self, rng):
        views = self._views(rng)
        for variant in ("original", "uniform"):
            for blocks in ((1, 1), (2, 2)):
                config = LbpConfig(variant=variant, blocks=blocks)
                stacked = lbp_features(views, config)
                assert stacked.shape == (5, config.feature_length)
                for view, row in zip(views, stacked):
                    np.testing.assert_array_equal(row, lbp_features(view, config))

    def test_single_view_matches_oracle_exactly(self, rng):
        """Counts are exact integers divided by the block size."""
        img = rng.uniform(0.0, 1.0, size=(15, 12))
        for variant in ("original", "uniform"):
            for blocks in ((1, 1), (2, 2)):
                got = lbp_features(img, LbpConfig(variant=variant, blocks=blocks))
                np.testing.assert_array_equal(got, lbp_histogram_oracle(img, variant, blocks))


class TestFlatSpans:
    """``lbp_map`` compares over spans of the flattened stack; the codes
    that wrap past a row or view edge must never reach the output."""

    @pytest.mark.parametrize("shape", [(3, 3), (3, 4), (4, 3), (4, 4), (5, 13, 16), (2, 1, 3, 3)])
    def test_matches_per_pixel_codes(self, rng, shape):
        img = rng.uniform(0.0, 1.0, size=shape)
        for values in (img, np.round(img * 2) / 2, np.full(shape, 0.5)):
            codes = lbp_map(values)
            np.testing.assert_array_equal(codes, lbp_map_oracle(values))
            assert not np.shares_memory(codes, values)

    def test_non_contiguous_input(self, rng):
        """Fortran-ordered and sliced images and stacks."""
        for shape in ((4, 3), (9, 11), (5, 13, 16)):
            img = rng.uniform(0.0, 1.0, size=shape)
            want = lbp_map_oracle(img)
            for layout in layouts(img):
                np.testing.assert_array_equal(lbp_map(layout), want)


class TestMirror:
    """A horizontal flip maps every code through ``MIRROR_CODES`` and
    keeps its uniform label."""

    @pytest.mark.parametrize("ties", [False, True])
    def test_flipped_map(self, rng, ties):
        for _ in range(20):
            height, width = rng.integers(3, 40, size=2)
            img = rng.uniform(0.0, 1.0, size=(height, width))
            if ties:
                img = np.round(img * 2) / 2
            codes = lbp_map(img)
            np.testing.assert_array_equal(lbp_map(img[:, ::-1]), MIRROR_CODES[codes][:, ::-1])
            np.testing.assert_array_equal(
                UNIFORM_LABELS[lbp_map(img[:, ::-1])], UNIFORM_LABELS[codes][:, ::-1]
            )

    def test_permutation_matches_per_patch_codes(self):
        """Each code built as a 3x3 patch (neighbors clockwise from the
        top-left, most significant bit first) and flipped gives its mirror."""
        ring = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))
        for code in range(256):
            patch = np.full((3, 3), 0.5)
            for k, (dy, dx) in enumerate(ring):
                patch[1 + dy, 1 + dx] = 1.0 if code >> (7 - k) & 1 else 0.0
            assert lbp_code(patch) == code
            assert lbp_code(patch[:, ::-1]) == MIRROR_CODES[code]

    def test_involution_keeps_labels(self):
        codes = np.arange(256)
        np.testing.assert_array_equal(MIRROR_CODES[MIRROR_CODES[codes]], codes)
        np.testing.assert_array_equal(UNIFORM_LABELS[MIRROR_CODES], UNIFORM_LABELS)
