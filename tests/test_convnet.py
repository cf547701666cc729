"""Random-filter convnet stages against direct-summation references."""

from pathlib import Path

import numpy as np
import pytest

from livecheck.augment import make_patches
from livecheck.config import parse_config_file
from livecheck.convnet import (
    MAX_LAYERS,
    ConvLayerConfig,
    ConvNetConfig,
    conv_forward,
    convnet_features,
    init_banks,
    init_filters,
    lcn,
    max_pool,
    relu,
    _LCN_BOUND,
    _lcn_band,
)
from livecheck.imageproc import convolve2d, gaussian_profile
from livecheck.pipeline import preprocess_image, realize_extractor
from livecheck.seeds import derive_seed
from livecheck.synthdata import make_texture_dataset

from oracles import (
    conv_valid_oracle,
    convnet_features_dividing,
    lcn_centred,
    lcn_dividing,
    lcn_oracle,
    lcn_variance,
    max_pool_oracle,
    pool_starts_oracle,
)

DEPLOYED_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "scan-convnet-aug.ini"

# Both layers of the 16/32-filter network on a 56x56 input.
DEPLOYED_CONV_SHAPES = [((1, 56, 56), (16, 1, 5, 5)), ((16, 18, 18), (32, 16, 5, 5))]


class TestConvForward:
    def test_matches_oracle(self, rng):
        shapes = []
        for _ in range(20):
            channels = int(rng.integers(1, 4))
            filters = int(rng.integers(1, 5))
            size = int(rng.choice([1, 3, 5]))
            height = int(rng.integers(size, 12))
            width = int(rng.integers(size, 12))
            shapes.append(((channels, height, width), (filters, channels, size, size)))
        for x_shape, bank_shape in shapes + DEPLOYED_CONV_SHAPES:
            x = rng.standard_normal(x_shape)
            bank = rng.standard_normal(bank_shape)
            np.testing.assert_allclose(
                conv_forward(x, bank), conv_valid_oracle(x, bank), atol=1e-10
            )

    def test_identity_filter(self, rng):
        """A single 1x1 weight of one returns the tensor unchanged."""
        x = rng.standard_normal((1, 6, 7))
        bank = np.ones((1, 1, 1, 1))
        np.testing.assert_array_equal(conv_forward(x, bank), x)

    def test_output_shape_valid_mode(self, rng):
        out = conv_forward(rng.standard_normal((2, 9, 11)), rng.standard_normal((4, 2, 3, 3)))
        assert out.shape == (4, 7, 9)

    def test_no_kernel_flip(self):
        """Correlation: the weight at (0,0) reads the input at (0,0)."""
        x = np.zeros((1, 3, 3))
        x[0, 0, 0] = 1.0
        bank = np.zeros((1, 1, 3, 3))
        bank[0, 0, 0, 0] = 1.0
        assert conv_forward(x, bank)[0, 0, 0] == 1.0

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            conv_forward(rng.standard_normal((2, 5, 5)), rng.standard_normal((1, 3, 3, 3)))

    def test_oversized_filter_rejected(self, rng):
        with pytest.raises(ValueError):
            conv_forward(rng.standard_normal((1, 4, 4)), rng.standard_normal((1, 1, 5, 5)))


class TestRelu:
    def test_elementwise_max(self, rng):
        x = rng.standard_normal((3, 4, 5))
        out = relu(x)
        assert out.min() >= 0.0
        np.testing.assert_array_equal(out[x > 0], x[x > 0])

    def test_idempotent(self, rng):
        x = rng.standard_normal((2, 3, 3))
        np.testing.assert_array_equal(relu(relu(x)), relu(x))


class TestLcn:
    def test_matches_oracle(self, rng):
        cases = []
        for _ in range(10):
            channels = int(rng.integers(1, 4))
            height = int(rng.integers(5, 10))
            width = int(rng.integers(5, 10))
            cases.append(((channels, height, width), 3))
        cases.append(((8, 14, 14), 9))  # the deployed window on many channels
        # non-square maps whose short side equals the window, so the mirror
        # folds reach the far half of the band
        cases += [((3, 9, 12), 9), ((2, 12, 9), 9)]
        for shape, window in cases:
            x = rng.standard_normal(shape) * 3.0
            np.testing.assert_allclose(lcn(x, window), lcn_oracle(x, window), atol=1e-10)

    def test_deployed_map_matches_2d_convolution(self, rng):
        """The first-layer maps of the deployed network, against a dense 2-D window."""
        x = np.maximum(rng.standard_normal((16, 52, 52)), 0.0)
        q = gaussian_profile(9, 1.5)
        kernel = np.outer(q, q) / np.outer(q, q).sum()
        mean = convolve2d(x.mean(axis=0), kernel)
        centered = x - mean[None]
        sigma = np.sqrt(np.maximum(convolve2d((centered**2).mean(axis=0), kernel), 0.0))
        expected = centered / np.maximum(1.0, sigma)[None]
        np.testing.assert_allclose(lcn(x, 9), expected, atol=1e-12, rtol=0.0)

    def test_cache_hit_matches_miss(self, rng):
        x = rng.standard_normal((4, 20, 23))
        _lcn_band.cache_clear()
        miss = lcn(x, 9)
        hit = lcn(x, 9)
        assert _lcn_band.cache_info().hits >= 2
        np.testing.assert_array_equal(miss, hit)

    def test_cached_bands_read_only(self):
        band = _lcn_band(17, 9)
        with pytest.raises(ValueError):
            band[0, 0] = 1.0
        np.testing.assert_allclose(band.sum(axis=1), 1.0, atol=1e-15)

    def test_cache_stays_bounded(self, rng):
        bound = _lcn_band.cache_info().maxsize
        assert bound == 2 * MAX_LAYERS
        for size in range(9, 9 + 2 * bound):
            lcn(rng.standard_normal((1, size, size + 1)), 9)
        assert _lcn_band.cache_info().currsize <= bound

    def test_window_five_matches_oracle(self, rng):
        x = rng.standard_normal((2, 8, 9))
        np.testing.assert_allclose(lcn(x, 5), lcn_oracle(x, 5), atol=1e-10)

    def test_constant_tensor_zeroed(self):
        """Constant input has zero local contrast."""
        out = lcn(np.full((3, 7, 7), 2.5), 3)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_window_one_is_identity(self, rng):
        x = rng.standard_normal((2, 5, 5))
        np.testing.assert_array_equal(lcn(x, 1), x)

    def test_low_contrast_regions_not_amplified(self, rng):
        """Where sigma < 1 the divisor is one, not a tiny number."""
        x = 0.001 * rng.standard_normal((1, 9, 9))
        out = lcn(x, 3)
        mean_removed = np.abs(out).max()
        assert mean_removed <= 2.0 * np.abs(x).max()

    def test_even_window_rejected(self, rng):
        with pytest.raises(ValueError):
            lcn(rng.standard_normal((1, 5, 5)), 4)

    def test_oversized_window_rejected(self, rng):
        with pytest.raises(ValueError):
            lcn(rng.standard_normal((1, 4, 4)), 5)


def _deployed_views(images):
    """The deployed network and banks, and each image highpassed and cut
    into its ten views as the scan-convnet-aug benchmark scores it."""
    deployed = parse_config_file(DEPLOYED_CONFIG)
    net, banks = realize_extractor(deployed.extract[0], deployed.seed)
    return net, banks, [make_patches(preprocess_image(img, deployed.preprocess[0])) for img in images]


class TestLcnSkipsDivisionByOne:
    """LCN returns the mean-removed maps as they are when a bound proves that
    max(1, sigma) is one everywhere.  Either branch must give the bits of
    always dividing, ``lcn_dividing``, the LCN arithmetic before the skip."""

    @staticmethod
    def assert_bits(x, window=9):
        assert lcn(x, window).tobytes() == lcn_dividing(x, window).tobytes()

    def test_deployed_stack_takes_fast_branch(self):
        images, _ = make_texture_dataset(1, size=64, seed=11, blur_sigma=0.4)
        net, banks, stacks = _deployed_views(images)
        for views in stacks:
            x = np.maximum(conv_forward(views[:, None], banks[0]), 0.0)
            assert np.abs(lcn_centred(x, 9)).max() <= _LCN_BOUND
            self.assert_bits(x)
            got = convnet_features(views, net, banks)
            assert got.tobytes() == convnet_features_dividing(views, net, banks).tobytes()

    def test_values_at_and_just_past_bound(self, rng):
        signs = np.where(rng.uniform(size=(20, 23)) < 0.5, -1.0, 1.0)
        for value in (_LCN_BOUND, np.nextafter(_LCN_BOUND, 2.0), 1.0, 1.25):
            # channels that cancel at every pixel, so the mean-removed maps are x
            x = np.stack([value * signs, -value * signs])
            assert lcn_centred(x, 9).tobytes() == x.tobytes()
            assert x.max() == value and x.min() == -value
            self.assert_bits(x)
            self.assert_bits(x[None])

    def test_negative_values_past_bound_divide(self, rng):
        """Mean-removed values up to 0.875 and down to -2.625: the maximum
        alone is within the bound, but sigma reaches about 1.6."""
        spikes = np.where(rng.uniform(size=(18, 21)) < 0.7, -2.625, 0.0)
        x = np.stack([spikes] + [-spikes / 3.0] * 3)  # channels that cancel exactly
        assert lcn_centred(x, 9).tobytes() == x.tobytes()
        assert x.max() <= _LCN_BOUND < -x.min()
        assert not np.array_equal(lcn_dividing(x, 9), x)
        self.assert_bits(x)

    def test_large_contrast_divides(self, rng):
        for shape in ((3, 4, 20, 20), (16, 14, 15), (2, 1, 9, 9)):
            x = 3.0 * rng.standard_normal(shape)
            assert not np.array_equal(lcn_dividing(x, 9), lcn_centred(x, 9))
            self.assert_bits(x)

    def test_non_finite_entries(self, rng):
        for bad in (np.nan, np.inf, -np.inf):
            for scale in (0.01, 3.0):
                x = scale * rng.standard_normal((2, 3, 12, 13))
                x[1, 2, 5, 6] = bad
                with np.errstate(invalid="ignore", over="ignore"):
                    self.assert_bits(x)
                    self.assert_bits(x[1])

    def test_mixed_stack_keeps_each_view_bits(self, rng):
        """An in-bound view and one that divides: the stack takes the dividing
        branch, and each view keeps the bits it gets alone."""
        calm = 0.05 * rng.standard_normal((4, 15, 16))
        loud = 3.0 * rng.standard_normal((4, 15, 16))
        for stack in (np.stack([calm, loud]), np.stack([loud, calm])):
            out = lcn(stack, 9)
            assert out.tobytes() == lcn_dividing(stack, 9).tobytes()
            for view, got in zip(stack, out):
                assert got.tobytes() == lcn(view, 9).tobytes()

    def test_empty_stack(self):
        assert lcn(np.empty((0, 2, 9, 9)), 9).shape == (0, 2, 9, 9)

    def test_deployed_textures_stay_within_bound(self):
        """The scan-convnet-aug training textures, highpassed and cut into ten
        views, keep every mean-removed value within the bound at both layers,
        so LCN skips its variance pass; their variance, at most 0.04, is far
        below one.  A change that pushes them past the bound fails here rather
        than giving the time back unseen.  Over 280 other such images, 3 of
        the 560 stack layers passed the bound, by 1.01 at most, and ran the
        variance pass, which still skipped the division."""
        images, _ = make_texture_dataset(8, size=64, seed=derive_seed(2015, "scan-convnet-aug", "train"), blur_sigma=0.4)
        net, banks, stacks = _deployed_views(images)
        for views in stacks:
            x = views[:, None]
            for layer, bank in zip(net.layers, banks):
                x = np.maximum(conv_forward(x, bank), 0.0)
                centred = lcn_centred(x, layer.lcn_window)
                assert np.abs(centred).max() <= _LCN_BOUND
                assert lcn_variance(centred, layer.lcn_window).max() < 0.1
                x = max_pool(lcn(x, layer.lcn_window), layer.pool_size, layer.stride)


class TestMaxPool:
    def test_matches_oracle(self, rng):
        cases = []
        for _ in range(30):
            channels = int(rng.integers(1, 4))
            height = int(rng.integers(2, 12))
            width = int(rng.integers(2, 12))
            pool = int(rng.integers(1, min(height, width) + 1))
            stride = int(rng.integers(1, pool + 2))
            cases.append(((channels, height, width), pool, stride))
        # The deployed first-layer maps, non-overlapping and overlapping.
        cases += [((16, 52, 52), 3, 3), ((16, 52, 52), 3, 2)]
        for shape, pool, stride in cases:
            x = rng.standard_normal(shape)
            np.testing.assert_array_equal(
                max_pool(x, pool, stride), max_pool_oracle(x, pool, stride)
            )

    def test_two_by_two_block(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        np.testing.assert_array_equal(max_pool(x, 2, 2), [[[4.0]]])

    def test_partial_edge_windows_kept(self):
        """7 wide, pool 3, stride 3: windows at 0, 3, 6 (last is partial)."""
        x = np.broadcast_to(np.arange(7.0), (1, 7, 7)).copy()
        out = max_pool(x, 3, 3)
        assert out.shape == (1, 3, 3)
        np.testing.assert_array_equal(out[0, 0], [2.0, 5.0, 6.0])

    def test_pool_one_stride_one_identity(self, rng):
        x = rng.standard_normal((2, 4, 4))
        np.testing.assert_array_equal(max_pool(x, 1, 1), x)

    def test_overlapping_stride(self, rng):
        x = rng.standard_normal((1, 7, 7))
        out = max_pool(x, 3, 2)
        assert out.shape == (1, 3, 3)
        assert out[0, 0, 0] == x[0, :3, :3].max()

    def test_start_counts_match_oracle_formula(self):
        for extent in range(1, 20):
            for pool in range(1, extent + 1):
                for stride in range(1, pool + 3):
                    starts = pool_starts_oracle(extent, pool, stride)
                    x = np.zeros((1, extent, extent))
                    out = max_pool(x, pool, stride)
                    assert out.shape[1] == len(starts)

    def test_oversized_pool_rejected(self, rng):
        with pytest.raises(ValueError):
            max_pool(rng.standard_normal((1, 3, 3)), 4, 1)


class TestPadFreePool:
    """max_pool reduces a partial last window over its valid part, with no
    padded copy of the map; each geometry against the direct oracle."""

    @pytest.mark.parametrize(
        "shape, pool, stride",
        [
            ((2, 9, 10), 3, 2),  # overlapping windows, last one partial
            ((2, 10, 11), 2, 3),  # gapped windows, last one partial
            ((2, 7, 7), 3, 1),  # overlapping, the last two partial
            ((2, 5, 6), 5, 1),  # pool equal to the height
            ((2, 6, 6), 6, 6),  # one window covering the map
            ((3, 1, 9), 1, 2),  # a 1-row map
            ((3, 9, 1), 1, 2),  # a 1-column map
            ((3, 1, 9), 1, 1),
        ],
    )
    def test_matches_oracle(self, rng, shape, pool, stride):
        x = rng.standard_normal(shape)
        np.testing.assert_array_equal(max_pool(x, pool, stride), max_pool_oracle(x, pool, stride))
        stack = rng.standard_normal((4, *shape))
        out = max_pool(stack, pool, stride)
        for view, pooled in zip(stack, out):
            np.testing.assert_array_equal(pooled, max_pool_oracle(view, pool, stride))


class TestStacks:
    """A leading view axis gives each view the bits it gets alone."""

    def test_conv_forward(self, rng):
        for (channels, height, width), bank_shape in DEPLOYED_CONV_SHAPES + [((2, 9, 11), (4, 2, 3, 3))]:
            x = rng.standard_normal((3, channels, height, width))
            bank = rng.standard_normal(bank_shape)
            out = conv_forward(x, bank)
            assert out.shape == (3, *conv_forward(x[0], bank).shape)
            for view, got in zip(x, out):
                np.testing.assert_array_equal(got, conv_forward(view, bank))

    def test_lcn_and_relu(self, rng):
        for shape, window in (((3, 16, 52, 52), 9), ((4, 2, 7, 9), 3), ((2, 3, 5, 5), 1)):
            x = rng.standard_normal(shape)
            out = lcn(x, window)
            for view, got in zip(x, out):
                np.testing.assert_array_equal(got, lcn(view, window))
            np.testing.assert_array_equal(relu(x)[1], relu(x[1]))

    def test_max_pool(self, rng):
        for shape, pool, stride in (((3, 16, 52, 52), 3, 3), ((2, 4, 9, 10), 3, 2), ((2, 1, 7, 8), 2, 3)):
            x = rng.standard_normal(shape)
            out = max_pool(x, pool, stride)
            for view, got in zip(x, out):
                np.testing.assert_array_equal(got, max_pool(view, pool, stride))

    def test_convnet_features(self, rng):
        deployed = parse_config_file(DEPLOYED_CONFIG)
        scan_net, scan_banks = realize_extractor(deployed.extract[0], deployed.seed)
        views = make_patches(preprocess_image(rng.uniform(0.0, 1.0, size=(64, 64)), deployed.preprocess[0]))
        small = ConvNetConfig(
            layers=(
                ConvLayerConfig(num_filters=3, filter_size=3, pool_size=3, pool_stride=2, lcn_window=3, seed=5),
                ConvLayerConfig(num_filters=4, filter_size=3, pool_size=2, lcn_window=1, seed=6),
            )
        )
        cases = [(scan_net, views, scan_banks), (small, rng.uniform(0.0, 1.0, size=(4, 17, 19)), None)]
        for config, stack, banks in cases:
            rows = convnet_features(stack, config, banks)
            assert rows.shape[0] == len(stack)
            for view, row in zip(stack, rows):
                np.testing.assert_array_equal(row, convnet_features(view, config, banks))

    def test_higher_rank_rejected(self, rng):
        with pytest.raises(ValueError):
            conv_forward(rng.standard_normal((1, 1, 1, 5, 5)), rng.standard_normal((1, 1, 3, 3)))
        with pytest.raises(ValueError):
            convnet_features(rng.uniform(size=(1, 2, 8, 8)), ConvNetConfig(layers=(ConvLayerConfig(1, 3, 2),)))


# One call per public layer.  The inputs have negatives and lcn's window
# spans several pixels, so a layer that wrote in place would change them.
LAYER_CALLS = {
    "conv_forward": lambda x: conv_forward(x, np.full((2, x.shape[-3], 3, 3), 0.5)),
    "relu": relu,
    "lcn": lambda x: lcn(x, 3),
    "max_pool": lambda x: max_pool(x, 2, 1),
}


@pytest.mark.parametrize("shape", [(2, 7, 8), (3, 2, 7, 8)], ids=["CHW", "PCHW"])
@pytest.mark.parametrize("name", sorted(LAYER_CALLS))
def test_layer_leaves_input_untouched(rng, name, shape):
    """convnet_features overwrites its own conv output; a public layer
    never writes to, or returns a view of, the caller's array."""
    x = rng.standard_normal(shape)
    before = x.tobytes()
    out = LAYER_CALLS[name](x)
    assert x.tobytes() == before
    assert not np.shares_memory(out, x)


class TestFilterInit:
    def test_shape_and_scale(self):
        layer = ConvLayerConfig(num_filters=8, filter_size=5, pool_size=2, seed=3)
        bank = init_filters(layer, in_channels=4)
        assert bank.shape == (8, 4, 5, 5)
        expected_std = 1.0 / np.sqrt(4 * 25)
        assert bank.std() == pytest.approx(expected_std, rel=0.1)

    def test_seed_reproducibility(self):
        layer = ConvLayerConfig(num_filters=4, filter_size=3, pool_size=2, seed=11)
        np.testing.assert_array_equal(init_filters(layer, 1), init_filters(layer, 1))
        other = ConvLayerConfig(num_filters=4, filter_size=3, pool_size=2, seed=12)
        assert not np.array_equal(init_filters(layer, 1), init_filters(other, 1))

    def test_banks_chain_channels(self):
        config = ConvNetConfig(
            layers=(
                ConvLayerConfig(num_filters=6, filter_size=3, pool_size=2, seed=1),
                ConvLayerConfig(num_filters=9, filter_size=3, pool_size=2, seed=2),
            )
        )
        banks = init_banks(config)
        assert banks[0].shape == (6, 1, 3, 3)
        assert banks[1].shape == (9, 6, 3, 3)


class TestNetwork:
    def test_composition_equals_manual_stages(self, rng):
        """convnet_features is exactly conv, relu, lcn, pool per layer.

        The benchmark rebuilds the network from these public stages and
        requires bit-identical margins, so the deployed scan-convnet-aug
        model is pinned too: fusing or batching layers must fail here.
        """
        small = ConvNetConfig(
            layers=(
                ConvLayerConfig(num_filters=3, filter_size=3, pool_size=2, lcn_window=3, seed=5),
                ConvLayerConfig(num_filters=4, filter_size=3, pool_size=2, lcn_window=1, seed=6),
            )
        )
        deployed = parse_config_file(DEPLOYED_CONFIG)
        scan_net, scan_banks = realize_extractor(deployed.extract[0], deployed.seed)
        scan_img = make_patches(
            preprocess_image(rng.uniform(0.0, 1.0, size=(64, 64)), deployed.preprocess[0])
        )[0]
        # The small network passes no banks, so convnet_features must draw
        # the same filters as init_banks.
        cases = [
            (small, rng.uniform(0.0, 1.0, size=(16, 16)), init_banks(small), None),
            (scan_net, scan_img, scan_banks, scan_banks),
        ]
        for config, img, banks, passed_banks in cases:
            x = img[None]
            for layer, bank in zip(config.layers, banks):
                x = relu(conv_forward(x, bank))
                if layer.lcn_window > 1:
                    x = lcn(x, layer.lcn_window)
                x = max_pool(x, layer.pool_size, layer.stride)
            np.testing.assert_array_equal(convnet_features(img, config, passed_banks), x.reshape(-1))

    def test_degenerate_layer_is_flat_relu(self, rng):
        """1x1 filter of weight one, no lcn, pool 1: flattened relu."""
        config = ConvNetConfig(
            layers=(
                ConvLayerConfig(num_filters=1, filter_size=1, pool_size=1, lcn_window=1, seed=0),
            )
        )
        img = rng.standard_normal((5, 6))
        bank = [np.ones((1, 1, 1, 1))]
        out = convnet_features(img, config, banks=bank)
        np.testing.assert_array_equal(out, np.maximum(img, 0.0).reshape(-1))

    def test_feature_length_formula(self, rng):
        """64 -> conv5 60 -> pool3 20 -> conv5 16 -> pool3 6; 32*6*6."""
        config = ConvNetConfig(
            layers=(
                ConvLayerConfig(num_filters=16, filter_size=5, pool_size=3, seed=1),
                ConvLayerConfig(num_filters=32, filter_size=5, pool_size=3, seed=2),
            )
        )
        out = convnet_features(rng.uniform(size=(64, 64)), config)
        assert out.shape == (32 * 6 * 6,)

    def test_exhausted_extent_rejected(self, rng):
        config = ConvNetConfig(
            layers=(ConvLayerConfig(num_filters=2, filter_size=9, pool_size=2, seed=0),)
        )
        with pytest.raises(ValueError):
            convnet_features(rng.uniform(size=(8, 8)), config)

    def test_layer_count_bounds(self):
        layer = ConvLayerConfig(num_filters=1, filter_size=1, pool_size=1)
        with pytest.raises(ValueError):
            ConvNetConfig(layers=())
        with pytest.raises(ValueError):
            ConvNetConfig(layers=(layer,) * 6)

    def test_determinism(self, rng):
        config = ConvNetConfig(
            layers=(ConvLayerConfig(num_filters=4, filter_size=3, pool_size=2, seed=9),)
        )
        img = rng.uniform(size=(12, 12))
        np.testing.assert_array_equal(convnet_features(img, config), convnet_features(img, config))
