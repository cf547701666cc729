"""LBP codes, uniform labels, and blocked histogram features."""

import re

import numpy as np
import pytest

from livecheck import pipeline
from livecheck.augment import make_patches, patch_windows
from livecheck.lbp import (
    MIRROR_CODES,
    N_ORIGINAL_BINS,
    N_UNIFORM_BINS,
    UNIFORM_LABELS,
    LbpConfig,
    lbp_code,
    lbp_features,
    lbp_map,
    lbp_window_features,
    uniform_label,
)

from conftest import count_extracted, layouts
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


def _patch_rows(img, config):
    """The oracle: ``lbp_features`` of each crop/flip patch on its own."""
    return np.stack([lbp_features(patch, config) for patch in make_patches(img)])


def _window_stack(rng, shape, count):
    """``count`` images: random, tie-heavy quantized, and constant."""
    stack = rng.uniform(0.0, 1.0, size=(count, *shape))
    stack[1::3] = np.round(stack[1::3] * 3) / 3  # many exact ties for >=
    stack[2::3] = 0.5
    return stack


# The smallest image whose 80% patches still take each block grid: a 3x3
# patch has a 1x1 label map, and a grid needs a map row and column a block.
SMALLEST = {(1, 1): (4, 4), (2, 2): (5, 5), (3, 2): (7, 5)}


class TestWindowFeatures:
    """``lbp_window_features`` of a stack counts every image's views from
    cell counts and prefix sums; each row must have the bits of its patch
    extracted alone."""

    @pytest.mark.parametrize("size", ["smallest", (17, 13), (9, 31), (64, 64)])
    @pytest.mark.parametrize("blocks", [(1, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("variant", ["original", "uniform"])
    def test_stack_equals_per_patch_features(self, rng, variant, blocks, size):
        """Ten images, so that 64x64 ones take more than one band."""
        shape = SMALLEST[blocks] if size == "smallest" else size
        config = LbpConfig(variant=variant, blocks=blocks)
        stack = _window_stack(rng, shape, 10)
        rows = lbp_window_features(stack, config, *patch_windows(shape))
        assert rows.shape == (10, 10, config.feature_length) and rows.dtype == np.float64
        for img, got in zip(stack, rows):
            assert got.tobytes() == _patch_rows(img, config).tobytes()
            assert lbp_window_features(img, config, *patch_windows(shape)).tobytes() == got.tobytes()

    @pytest.mark.parametrize("blocks", [(1, 1), (2, 2), (3, 2)])
    def test_one_row_below_smallest_fails_as_the_patch_does(self, blocks):
        height, width = SMALLEST[blocks]
        for shape in ((height - 1, width), (height, width - 1)):
            stack = np.zeros((2, *shape))
            with pytest.raises(ValueError) as alone:
                lbp_features(make_patches(stack[0])[0], LbpConfig(blocks=blocks))
            with pytest.raises(ValueError, match=re.escape(str(alone.value))):
                lbp_window_features(stack, LbpConfig(blocks=blocks), *patch_windows(shape))

    def test_empty_stack_and_window_outside_the_image(self):
        config = LbpConfig(variant="original", blocks=(2, 2))
        rows = lbp_window_features(np.zeros((0, 20, 20)), config, *patch_windows((20, 20)))
        assert rows.shape == (0, 10, config.feature_length)
        with pytest.raises(ValueError, match=r"^window at \(5, 0\) does not fit a 20x20 image$"):
            lbp_window_features(np.zeros((20, 20)), config, (16, 16), [(0, 0, False), (5, 0, True)])

    @pytest.mark.parametrize("variant", ["original", "uniform"])
    def test_images_larger_than_a_band_count_in_row_bands(self, rng, variant):
        """A 170x210 image's keys exceed one band, so its rows are counted
        in several bands, one image at a time."""
        config = LbpConfig(variant=variant, blocks=(2, 2))
        stack = _window_stack(rng, (170, 210), 2)
        rows = lbp_window_features(stack, config, *patch_windows((170, 210)))
        for img, got in zip(stack, rows):
            assert got.tobytes() == _patch_rows(img, config).tobytes()

    @pytest.mark.parametrize("cached", [True, False], ids=["memo", "no-memo"])
    def test_feature_groups_mixing_shapes_and_a_repeated_image(self, rng, monkeypatch, cached):
        """Two shapes interleaved and one image object twice: each image
        is extracted once with the memo on, and every row is its patch's."""
        images = list(_window_stack(rng, (24, 24), 3)) + list(_window_stack(rng, (17, 13), 2))
        images = [images[0], images[3], images[1], images[0], images[4], images[2]]
        config = LbpConfig(variant="original", blocks=(2, 2))
        extracted = count_extracted(monkeypatch, pipeline)
        with pipeline._memo_scope(cached):
            groups = pipeline.feature_groups(images, True, config, seed=0)
        assert groups.shape == (6, 10, config.feature_length)
        for img, got in zip(images, groups):
            assert got.tobytes() == _patch_rows(img, config).tobytes()
        assert extracted == {"images": 5 if cached else 6, "stacks": 2, "views": 10 * (5 if cached else 6)}


class TestMirrorViews:
    """Metamorphic relations between a crop's row and its mirror's."""

    def test_uniform_one_block_mirror_equals_crop(self, rng):
        """Uniform labels are mirror-invariant and one block ignores where
        a label is, so each mirror's row is its crop's."""
        stack = _window_stack(rng, (64, 64), 3)
        rows = lbp_window_features(stack, LbpConfig(variant="uniform"), *patch_windows((64, 64)))
        assert rows[:, 1::2].tobytes() == rows[:, 0::2].tobytes()

    def test_uniform_two_by_two_mirror_swaps_block_columns(self, rng):
        """64x60 has 49x46 patch maps: the width splits evenly, so the
        mirror's blocks are the crop's with the two columns swapped."""
        config = LbpConfig(variant="uniform", blocks=(2, 2))
        stack = _window_stack(rng, (64, 60), 3)
        rows = lbp_window_features(stack, config, *patch_windows((64, 60)))
        crops = rows[:, 0::2].reshape(3, 5, 2, 2, N_UNIFORM_BINS)
        mirrors = rows[:, 1::2].reshape(3, 5, 2, 2, N_UNIFORM_BINS)
        np.testing.assert_array_equal(mirrors, crops[:, :, :, ::-1])

    @pytest.mark.parametrize("blocks", [(1, 1), (2, 2), (3, 2)])
    def test_original_mirror_is_the_flipped_patch(self, rng, blocks):
        """With original codes a mirror counts MIRROR_CODES of its crop's
        codes: its row is ``lbp_features`` of the crop flipped."""
        config = LbpConfig(variant="original", blocks=blocks)
        shape, windows = (63, 50), patch_windows((63, 50))
        stack = _window_stack(rng, shape, 3)
        rows = lbp_window_features(stack, config, *windows)
        (height, width), origins = windows
        for img, got in zip(stack, rows):
            for view, (row, col, flipped) in zip(got, origins):
                crop = img[row : row + height, col : col + width]
                assert view.tobytes() == lbp_features(crop[:, ::-1] if flipped else crop, config).tobytes()
