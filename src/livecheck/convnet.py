"""Convolutional feature extraction with fixed random filter banks.

Each layer applies valid cross-correlation with Gaussian random
filters, a ReLU, optional local contrast normalization, and overlapping
max pooling.  Filters are drawn once from a seeded generator and never
trained; the network is purely a random projection with a texture-
friendly topology.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .imageproc import gaussian_profile

__all__ = [
    "ConvLayerConfig",
    "ConvNetConfig",
    "init_filters",
    "init_banks",
    "conv_forward",
    "relu",
    "lcn",
    "max_pool",
    "convnet_features",
]

MAX_LAYERS = 5


@dataclass(frozen=True)
class ConvLayerConfig:
    """One layer: filter bank shape, LCN window, pooling geometry.

    ``lcn_window=1`` disables contrast normalization for the layer.
    ``pool_stride=0`` means non-overlapping pooling (stride equal to
    the pool size).
    """

    num_filters: int
    filter_size: int
    pool_size: int
    pool_stride: int = 0
    lcn_window: int = 9
    seed: int = 0

    def __post_init__(self):
        if self.num_filters < 1:
            raise ValueError(f"num_filters must be positive, got {self.num_filters}")
        if self.filter_size < 1 or self.filter_size % 2 == 0:
            raise ValueError(f"filter_size must be odd and positive, got {self.filter_size}")
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be positive, got {self.pool_size}")
        if self.pool_stride < 0:
            raise ValueError(f"pool_stride must be non-negative, got {self.pool_stride}")
        if self.lcn_window < 1 or self.lcn_window % 2 == 0:
            raise ValueError(f"lcn_window must be odd and positive, got {self.lcn_window}")

    @property
    def stride(self) -> int:
        return self.pool_stride if self.pool_stride > 0 else self.pool_size


@dataclass(frozen=True)
class ConvNetConfig:
    layers: tuple[ConvLayerConfig, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not 1 <= len(layers) <= MAX_LAYERS:
            raise ValueError(f"network must have 1..{MAX_LAYERS} layers, got {len(layers)}")
        object.__setattr__(self, "layers", layers)


def init_filters(layer: ConvLayerConfig, in_channels: int) -> np.ndarray:
    """Draw a (filters, channels, size, size) Gaussian bank.

    Weights are i.i.d. normal with standard deviation
    ``1 / sqrt(in_channels * size**2)``, which keeps response variance
    roughly independent of the fan-in.
    """
    if in_channels < 1:
        raise ValueError(f"in_channels must be positive, got {in_channels}")
    fan_in = in_channels * layer.filter_size**2
    rng = np.random.default_rng(layer.seed)
    shape = (layer.num_filters, in_channels, layer.filter_size, layer.filter_size)
    return rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=shape)


def init_banks(config: ConvNetConfig) -> list[np.ndarray]:
    """Materialize every layer's filter bank for a one-channel gray input."""
    banks = []
    channels = 1
    for layer in config.layers:
        banks.append(init_filters(layer, channels))
        channels = layer.num_filters
    return banks


def _check_maps(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (3, 4):
        raise ValueError(f"{name} expects a (C, H, W) or (P, C, H, W) tensor, got shape {x.shape}")
    return x


def conv_forward(x: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of a (C, H, W) tensor with a (F, C, s, s) bank.

    No kernel flip and no padding: output is (F, H-s+1, W-s+1).  A
    leading view axis, (P, C, H, W) in and (P, F, ...) out, runs every
    view through the same per-view product.
    """
    x = _check_maps(x, "conv_forward")
    bank = np.asarray(bank, dtype=np.float64)
    if bank.ndim != 4 or bank.shape[2] != bank.shape[3]:
        raise ValueError(f"bank must be (F, C, s, s), got shape {bank.shape}")
    if bank.shape[1] != x.shape[-3]:
        raise ValueError(f"bank expects {bank.shape[1]} channels, input has {x.shape[-3]}")
    size = bank.shape[2]
    channels, height, width = x.shape[-3:]
    if size > height or size > width:
        raise ValueError(f"filter {size}x{size} larger than input {height}x{width}")
    out_h, out_w = height - size + 1, width - size + 1
    views = x.reshape(-1, channels, height, width)
    # im2col: row (i, j) of a channel's columns holds the input pixels
    # weight bank[:, c, i, j] reads.
    windows = sliding_window_view(views, (size, size), axis=(-2, -1)).transpose(0, 1, 4, 5, 2, 3)
    # One (F, s*s) @ (s*s, H'W') GEMM per view and input channel, summed
    # in channel order.  Each has the shapes of a single-view call, so a
    # view's output has the same bits alone or in a stack.  One GEMM over
    # all C*s*s inputs rounded differently at 1 and 2 BLAS threads; the
    # s*s-deep products do not (tests/test_blas_threads.py).  The columns
    # are built one view at a time for a one-channel input and one channel
    # at a time for deeper ones, so only one such block is alive at once.
    weights = np.ascontiguousarray(bank.reshape(bank.shape[0], channels, -1).transpose(1, 0, 2))
    out = np.empty((len(views), bank.shape[0], out_h * out_w))
    if channels == 1:
        for v in range(len(views)):
            np.matmul(weights[0], windows[v, 0].reshape(size * size, -1), out=out[v])
    else:
        np.matmul(weights[0], windows[:, 0].reshape(len(views), size * size, -1), out=out)
        term = np.empty_like(out)
        for c in range(1, channels):
            out += np.matmul(weights[c], windows[:, c].reshape(len(views), size * size, -1), out=term)
    return out.reshape(*x.shape[:-3], bank.shape[0], out_h, out_w)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def lcn(x: np.ndarray, window: int = 9) -> np.ndarray:
    """Local contrast normalization over space and channels.

    A Gaussian window (sigma = window / 6) normalized to unit mass over
    all channels subtracts the local weighted mean, then divides by the
    local weighted standard deviation wherever it exceeds one.  Borders
    are mirror-extended.  ``window=1`` is a no-op.  Takes (C, H, W) or
    (P, C, H, W); each view is normalized on its own.
    """
    x = _check_maps(x, "lcn")
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and positive, got {window}")
    return x.copy() if window == 1 else _lcn(x.copy(), window)


def _lcn(x: np.ndarray, window: int) -> np.ndarray:
    """``lcn`` for an odd window > 1, overwriting and returning ``x``."""
    height, width = x.shape[-2:]
    if window > min(height, width):
        raise ValueError(f"window {window} larger than feature maps {height}x{width}")
    # The window is outer(q, q) / C with q the unit-mass 1-D Gaussian, so
    # its sum over channels is the separable blur of the channel mean,
    # rows @ plane @ cols.T with the mirrored border folded into the bands.
    rows = _lcn_band(height, window)
    cols = _lcn_band(width, window)
    x -= (rows @ x.mean(axis=-3) @ cols.T)[..., None, :, :]
    # The channel mean of the squares, summed in channel order as
    # ``np.square(x).mean(axis=-3)`` sums them, without a full-size square.
    squares = np.square(x[..., 0, :, :])
    term = np.empty_like(squares)
    for c in range(1, x.shape[-3]):
        squares += np.square(x[..., c, :, :], out=term)
    squares /= x.shape[-3]
    variance = rows @ squares @ cols.T
    sigma = np.sqrt(np.maximum(variance, 0.0))
    x /= np.maximum(1.0, sigma)[..., None, :, :]
    return x


@functools.lru_cache(maxsize=2 * MAX_LAYERS)  # a row and a column band per layer
def _lcn_band(length: int, window: int) -> np.ndarray:
    """Read-only (length, length) matrix of the unit-mass LCN Gaussian.

    Row i holds the taps that output i of a same-size blur applies, with
    taps that fall off either end moved onto their mirror images inside
    (symmetric reflection, the edge sample repeated).
    """
    profile = gaussian_profile(window, window / 6.0)
    profile = profile / profile.sum()
    radius = window // 2
    out_idx = np.repeat(np.arange(length), window)
    src = out_idx + np.tile(np.arange(-radius, radius + 1), length)
    src = np.where(src < 0, -src - 1, src)
    src = np.where(src >= length, 2 * length - 1 - src, src)
    band = np.bincount(out_idx * length + src, weights=np.tile(profile, length), minlength=length * length)
    band = band.reshape(length, length)
    band.flags.writeable = False
    return band


def _pool_count(extent: int, pool: int, stride: int) -> int:
    if pool > extent:
        raise ValueError(f"pool {pool} larger than extent {extent}")
    count = 1 if extent <= pool else math.ceil((extent - pool) / stride) + 1
    while (count - 1) * stride >= extent:  # last window must start inside
        count -= 1
    return count


def max_pool(x: np.ndarray, pool: int, stride: int | None = None) -> np.ndarray:
    """Per-channel max over pool x pool windows at the given stride.

    Windows that run past the bottom or right edge are kept and reduced
    over their valid part, so with stride <= pool every input pixel
    belongs to at least one window.  Takes (C, H, W) or (P, C, H, W).
    """
    x = _check_maps(x, "max_pool")
    if stride is None:
        stride = pool
    if pool < 1 or stride < 1:
        raise ValueError(f"pool and stride must be positive, got {pool}, {stride}")
    height, width = x.shape[-2:]
    out_h = _pool_count(height, pool, stride)
    out_w = _pool_count(width, pool, stride)
    # Rows first, then columns: max is exact in any order, and the
    # strided column pass then runs on 1/stride as many rows.  Offset k
    # of a window is valid for the windows that start before extent - k,
    # always a prefix of them, so a partial window is reduced over its
    # valid part without padding.
    rows = x[..., : (out_h - 1) * stride + 1 : stride, :].copy()
    for k in range(1, pool):
        n = min(out_h, -(-(height - k) // stride))
        np.maximum(
            rows[..., :n, :], x[..., k : k + (n - 1) * stride + 1 : stride, :], out=rows[..., :n, :]
        )
    out = rows[..., : (out_w - 1) * stride + 1 : stride].copy()
    for k in range(1, pool):
        n = min(out_w, -(-(width - k) // stride))
        np.maximum(out[..., :n], rows[..., k : k + (n - 1) * stride + 1 : stride], out=out[..., :n])
    return out


def convnet_features(img: np.ndarray, config: ConvNetConfig, banks: list[np.ndarray] | None = None) -> np.ndarray:
    """Run a 2-D image, or an (N, H, W) stack of them, through every layer
    and flatten the final maps to one row per image: (d,) or (N, d).

    ``banks`` may carry previously materialized filters (for example,
    ones loaded from a stored model); otherwise they are drawn from the
    per-layer seeds.  Configurations that exhaust the spatial extent at
    any layer raise ``ValueError``.  Each row has the same bits as its
    image run alone; besides its own maps, a stack holds one view's
    first-layer im2col block at a time, and a deeper layer's block for
    one input channel.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise ValueError(f"convnet_features expects a 2-D image or a stack of them, got shape {img.shape}")
    if banks is None:
        banks = init_banks(config)
    if len(banks) != len(config.layers):
        raise ValueError(f"expected {len(config.layers)} filter banks, got {len(banks)}")
    # conv_forward returns a fresh array, so ReLU and LCN overwrite it.
    x = img[..., None, :, :]
    for layer, bank in zip(config.layers, banks):
        x = conv_forward(x, bank)
        np.maximum(x, 0.0, out=x)
        if layer.lcn_window > 1:
            x = _lcn(x, layer.lcn_window)
        x = max_pool(x, layer.pool_size, layer.stride)
    return x.reshape(*img.shape[:-2], -1)
