"""Grayscale image ingestion and preprocessing primitives.

Images are 2-D float64 arrays.  Ingestion maps 8-bit pixels into
``[0, 1]``; most operations preserve that range, except ``highpass``
whose output is a signed residual and is consumed as-is downstream.
Border-sensitive operations (convolution, the Gaussian blur) extend the
image by mirroring edge pixels, so constant images pass through unchanged.

All functions are pure: no global state, no hidden RNG, identical
inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RoiRect",
    "as_image",
    "ingest",
    "write_pgm",
    "resize_bilinear",
    "gaussian_profile",
    "gaussian_kernel",
    "convolve2d",
    "lowpass",
    "highpass",
    "extract_roi",
    "crop",
    "clahe",
]

_WHITESPACE = b" \t\r\n\x0b\x0c"

# ``ingest`` rejects larger frames before it reads their pixels: scoring takes
# about 18 bytes a pixel, so this cap holds one frame near 300 MB.
MAX_PIXELS = 1 << 24

ROI_BLOCK = 16
ROI_SIGMA_FACTOR = 3.0

# A frame-sized kernel runs over row blocks whose float64 buffers each hold
# at most about this many bytes, so that its passes stay in cache.
_BLOCK_BYTES = 1 << 18


def as_image(data) -> np.ndarray:
    """Validate ``data`` as a 2-D float64 intensity image in [0, 1]."""
    return _image_range(data)[0]


def _image_range(data) -> tuple[np.ndarray, float, float]:
    """``as_image`` of ``data`` with its least and greatest intensity.

    A dtype other than bool, integer or float is rejected before the cast,
    which would keep only a complex array's real part."""
    arr = np.asarray(data)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"image must hold real numbers, got dtype {arr.dtype}")
    img = np.asarray(arr, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-D image, got shape {img.shape}")
    lo, hi = img.min(), img.max()
    if not (lo >= 0.0 and hi <= 1.0):  # NaN and +-inf fail this test too
        if not np.all(np.isfinite(img)):
            raise ValueError("image contains non-finite values")
        raise ValueError("image intensities must lie in [0, 1]")
    return img, lo, hi


# ---------------------------------------------------------------------------
# PGM ingestion


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next header token, skipping whitespace and # comments."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c == 0x23:  # '#'
            while pos < n and data[pos] not in (0x0A, 0x0D):
                pos += 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise ValueError("unsupported format: truncated header")
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != 0x23:
        pos += 1
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _read_token(data, pos)
    if not re.fullmatch(rb"\d+", token):
        raise ValueError(f"unsupported format: bad {what} field {token!r}")
    return int(token), pos


def ingest(data: bytes) -> np.ndarray:
    """Decode an 8-bit grayscale PGM byte stream into a [0, 1] image.

    Binary ``P5`` is the primary format; plain-text ``P2`` is accepted
    as well.  Header comments and arbitrary whitespace are handled.
    Anything else (wrong magic, maxval above 255, zero dimensions, more
    than ``MAX_PIXELS`` pixels, truncated pixel data) raises
    ``ValueError`` naming the problem.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("ingest expects a byte stream")
    data = bytes(data)
    magic, pos = _read_token(data, 0)
    if magic not in (b"P5", b"P2"):
        raise ValueError(f"unsupported format: not a PGM stream (magic {magic!r})")
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise ValueError("unsupported format: zero image dimension")
    if not 1 <= maxval <= 255:
        raise ValueError(f"unsupported format: maxval {maxval} is not 8-bit")
    count = width * height
    if count > MAX_PIXELS:
        raise ValueError(f"unsupported format: {width}x{height} image exceeds the {MAX_PIXELS}-pixel limit")
    if magic == b"P5":
        pos += 1  # single whitespace byte separates maxval from the raster
        if len(data) - pos < count:
            raise ValueError("unsupported format: truncated pixel data")
        pixels = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
        if pixels.max() > maxval:
            raise ValueError("unsupported format: pixel value exceeds maxval")
    else:
        pixels = _plain_raster(data[pos:], count, maxval)
    return np.divide(pixels.reshape(height, width), 255.0, dtype=np.float64)


def _plain_raster(body: bytes, count: int, maxval: int) -> np.ndarray:
    """The first ``count`` pixels of a P2 raster as uint8; anything after them is ignored.

    Cutting each ``#`` comment and then splitting once gives the tokens that
    ``_read_token`` would read one at a time.  Each must be decimal digits."""
    body = re.sub(rb"#[^\r\n]*", b"", body)
    tokens = body.split(None, count)[:count] if count <= len(body) else []
    if len(tokens) < count or not b"".join(tokens).isdigit():
        raise ValueError("unsupported format: truncated pixel data")
    values = list(map(int, tokens))
    if max(values) > maxval:
        raise ValueError("unsupported format: pixel value exceeds maxval")
    return np.array(values, dtype=np.uint8)


def write_pgm(img: np.ndarray) -> bytes:
    """Encode a [0, 1] image as a binary (P5) 8-bit PGM byte stream.

    The codes ``rint(255 * img)`` are rounded in row blocks through one float64
    buffer of at most ``_BLOCK_BYTES``, not through two frame-sized temporaries."""
    img = as_image(img)
    height, width = img.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    stream = bytearray(len(header) + img.size)
    stream[: len(header)] = header
    codes = np.frombuffer(stream, dtype=np.uint8, offset=len(header)).reshape(height, width)
    most, blocks = _row_blocks(height, 8 * width)
    scaled = np.empty((most, width))
    for r0, r1 in blocks:
        block = scaled[: r1 - r0]
        np.rint(np.multiply(img[r0:r1], 255.0, out=block), out=block)
        codes[r0:r1] = block
    return bytes(stream)


def _row_blocks(height: int, row_bytes: int, halo: int = 0) -> tuple[int, list[tuple[int, int]]]:
    """Split ``height`` rows evenly into the fewest blocks whose rows, plus ``halo``
    more, take at most ``_BLOCK_BYTES`` at ``row_bytes`` a row (one row at least).

    Returns the largest block's row count and each block's rows [r0, r1), in order.
    An image whose rows all fit is one block."""
    blocks = -(-height // max(1, _BLOCK_BYTES // row_bytes - halo))
    edges = [k * height // blocks for k in range(blocks + 1)]
    return -(-height // blocks), list(zip(edges, edges[1:]))


# ---------------------------------------------------------------------------
# Resampling and filtering


def _axis_coords(n_in: int, n_out: int):
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.intp)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, src - lo


def resize_bilinear(img: np.ndarray, scale: float) -> np.ndarray:
    """Downscale ``img`` by ``scale`` in (0, 1] with bilinear sampling.

    Output dimensions are ``floor(scale * input)``.  Sample positions
    use pixel-center alignment and are clamped to the source grid, so
    ``scale=1.0`` returns the input unchanged.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("resize_bilinear expects a 2-D image")
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must lie in (0, 1], got {scale}")
    height, width = img.shape
    out_h = math.floor(scale * height)
    out_w = math.floor(scale * width)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"scale {scale} collapses a {height}x{width} image")
    if (out_h, out_w) == (height, width):
        return img.copy()
    y0, y1, fy = _axis_coords(height, out_h)
    x0, x1, fx = _axis_coords(width, out_w)
    top = img[np.ix_(y0, x0)] * (1.0 - fx) + img[np.ix_(y0, x1)] * fx
    bottom = img[np.ix_(y1, x0)] * (1.0 - fx) + img[np.ix_(y1, x1)] * fx
    return top * (1.0 - fy)[:, None] + bottom * fy[:, None]


def gaussian_profile(size: int, sigma: float) -> np.ndarray:
    """Return the length-``size`` 1-D Gaussian with peak one, unnormalized.

    A 2-D Gaussian is the outer product of this profile with itself.
    """
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and positive, got {size}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    offsets = np.arange(size, dtype=np.float64) - size // 2
    return np.exp(-(offsets**2) / (2.0 * sigma**2))


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Return a ``size x size`` Gaussian kernel normalized to unit sum."""
    profile = gaussian_profile(size, sigma)
    kernel = np.outer(profile, profile)
    return kernel / kernel.sum()


# The fixed lowpass Gaussian, run as two passes of its unit-sum profile:
# gaussian_kernel(GAUSS_SIZE, GAUSS_SIGMA) is this profile's outer product with itself.
GAUSS_SIZE = 13
GAUSS_SIGMA = 3.0
_GAUSS_PROFILE = gaussian_profile(GAUSS_SIZE, GAUSS_SIGMA)
_GAUSS_PROFILE /= _GAUSS_PROFILE.sum()
_GAUSS_PROFILE.setflags(write=False)


def convolve2d(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """True 2-D convolution (kernel flipped) with mirrored borders.

    The output has the same shape as the input.  The kernel must be
    square with odd side length and no larger than the image.

    With ``t`` the flipped kernel and ``p`` the mirror-padded image, output
    (y, x) is ``((0.0 + r[0]) + r[1]) + ...`` over the kernel rows in order,
    where ``r[i] = t[i, 0] * p[y + i, x] + t[i, 1] * p[y + i, x + 1] + ...``
    is added left to right.  Output rows run in blocks: rows [r0, r1) take
    padded rows [r0, r1 + side - 1), mirrored into one reused buffer and
    flattened at their row pitch, so no padded copy of the whole image is made.
    A kernel row's pass runs once over a block and serves every later row with
    the same bits, so it is held until that row's last use: a Gaussian's row i
    equals row side - 1 - i.  A pass over the whole padded image that fits
    ``_BLOCK_BYTES`` makes one block; a larger image is split evenly into the
    fewest blocks whose passes fit.  For a 480x640 image and a 9x9 Gaussian,
    the middle row holds five 48x648 passes, a product buffer and the padded
    rows of that size, about 2 MB beside the 2.5 MB result.
    """
    img = np.asarray(img, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("convolve2d expects a 2-D image")
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1] or kernel.shape[0] % 2 == 0:
        raise ValueError(f"kernel must be square with odd side, got shape {kernel.shape}")
    size = kernel.shape[0]
    if size > min(img.shape):
        raise ValueError(f"kernel {size}x{size} larger than image {img.shape}")
    radius = size // 2
    height, width = img.shape
    flipped = kernel[::-1, ::-1]
    pitch = width + 2 * radius
    most, blocks = _row_blocks(height, 8 * pitch, 2 * radius)
    out = np.zeros((most, pitch))  # a zero start: 0.0 + -0.0 is +0.0
    padded = np.empty((most + 2 * radius) * pitch)
    product = np.empty(len(padded) - 2 * radius)
    result = np.empty((height, width))
    keys = [row.tobytes() for row in flipped]
    last_use = {key: i for i, key in enumerate(keys)}
    spare = []  # pass buffers past their last use, for the next pass
    for r0, r1 in blocks:
        n_rows = (r1 - r0 + 2 * radius) * pitch - 2 * radius
        n_out = (r1 - r0 - 1) * pitch + width
        span = out.ravel()[:n_out]
        if r0:  # every block starts from zero
            span.fill(0.0)
        _mirror_rows(img, r0 - radius, r1 + radius, radius, padded[: n_rows + 2 * radius].reshape(-1, pitch))
        passes = {}
        for i, key in enumerate(keys):
            rows = passes.pop(key, None)
            if rows is None:
                rows = spare.pop() if spare else np.empty(len(product))
                _tap_sum(flipped[i], padded, 1, rows[:n_rows], product[:n_rows])
            span += rows[i * pitch : i * pitch + n_out]
            if last_use[key] > i:
                passes[key] = rows
            else:
                spare.append(rows)
        result[r0:r1] = out[: r1 - r0, :width]
    return result


def _tap_sum(weights: np.ndarray, flat: np.ndarray, step: int, out: np.ndarray, product: np.ndarray) -> np.ndarray:
    """Set ``out`` to the sum over taps j of ``weights[j]`` times ``flat`` shifted by
    ``j * step``, added left to right from the j = 0 product; ``product`` is a scratch
    buffer of ``out``'s length."""
    n = len(out)
    np.multiply(weights[0], flat[:n], out=out)
    for j in range(1, len(weights)):
        out += np.multiply(weights[j], flat[j * step : j * step + n], out=product)
    return out


def _blur_same(planes, profile: np.ndarray, residual: bool = False) -> np.ndarray:
    """Same-size separable convolution with mirrored borders of one 2-D map, as a new
    C-contiguous array, or of each map of a list or (maps, H, W) stack of same-shape
    maps, as one new (maps, H, W) array; with ``residual``, each map minus its blur.

    Maps padded by ``radius`` on every side lie back to back in one reused buffer,
    flattened at row pitch ``pitch``.  Row tap j and column tap i are the shifts
    k + j and k + i * pitch, each one call over the whole contiguous span.  The sums
    that wrap past a row edge fall in the columns that the result cuts off, and those
    that reach the next map's rows fall in the padded rows that it cuts off, so every
    pixel gets the products and left-to-right sums it gets alone.  Maps run in
    stacks of whole maps, split evenly into the fewest stacks whose padded copies
    take at most ``_BLOCK_BYTES`` each: five padded 64x64 maps.  A map larger than
    that runs alone in the row blocks of ``_row_blocks``: rows [r0, r1) take the row
    pass over padded rows [r0, r1 + 2 * radius), with the same bits in any block."""
    single = isinstance(planes, np.ndarray) and planes.ndim == 2
    if single:
        planes = planes[None]
    radius = len(profile) // 2
    height, width = planes[0].shape
    pitch = width + 2 * radius
    map_bytes = 8 * (height + 2 * radius) * pitch
    if map_bytes <= _BLOCK_BYTES:
        most, stacks = _row_blocks(len(planes), map_bytes)
        blocks = [(m0, m1, 0, height) for m0, m1 in stacks]
        most *= height + 2 * radius
    else:
        most, spans = _row_blocks(height, 8 * pitch, 2 * radius)
        blocks = [(m, m + 1, r0, r1) for m in range(len(planes)) for r0, r1 in spans]
        most += 2 * radius
    padded, rows, product, out = np.empty((4, most * pitch))
    result = np.empty((len(planes), height, width))
    for m0, m1, r0, r1 in blocks:
        seg = r1 - r0 + 2 * radius  # a map's padded rows in the buffer
        n_rows = (m1 - m0) * seg * pitch - 2 * radius
        n_out = ((m1 - m0 - 1) * seg + r1 - r0 - 1) * pitch + width
        segs = padded[: (m1 - m0) * seg * pitch].reshape(m1 - m0, seg, pitch)
        for m, seg_rows in enumerate(segs, m0):
            _mirror_rows(planes[m], r0 - radius, r1 + radius, radius, seg_rows)
        _tap_sum(profile, padded, 1, rows[:n_rows], product[:n_rows])
        _tap_sum(profile, rows, pitch, out[:n_out], product[:n_out])
        blurred = out[: (m1 - m0) * seg * pitch].reshape(m1 - m0, seg, pitch)[:, : r1 - r0, :width]
        if residual:
            for m, blur in enumerate(blurred, m0):
                np.subtract(planes[m][r0:r1], blur, out=result[m, r0:r1])
        else:
            result[m0:m1, r0:r1] = blurred
    return result[0] if single else result


def _mirror_rows(plane: np.ndarray, start: int, stop: int, radius: int, out: np.ndarray) -> np.ndarray:
    """Set ``out`` to ``np.pad(plane, radius, "symmetric")[start + radius : stop + radius]``,
    rows [start, stop) of the map mirrored by ``radius`` on every side.  The rows may
    reach at most ``radius`` past either edge, and ``radius`` is at most either side."""
    height, width = plane.shape
    top, bottom = max(0, -start), max(0, stop - height)
    inner = out[:, radius : radius + width]
    inner[top : len(out) - bottom] = plane[start + top : stop - bottom]
    inner[:top] = plane[:top][::-1]
    inner[len(out) - bottom :] = plane[height - bottom :][::-1]
    out[:, :radius] = out[:, radius : 2 * radius][:, ::-1]
    out[:, radius + width :] = out[:, width : radius + width][:, ::-1]
    return out


def _check_lowpass_input(img: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``img`` is 2-D with both sides at least ``GAUSS_SIZE``."""
    if img.ndim != 2:
        raise ValueError("lowpass expects a 2-D image")
    if GAUSS_SIZE > min(img.shape):
        raise ValueError(f"kernel {GAUSS_SIZE}x{GAUSS_SIZE} larger than image {img.shape}")


def _lowpass(images, residual: bool) -> np.ndarray:
    """``lowpass``, or with ``residual`` ``highpass``, of one 2-D image, or of each
    image of a list of same-shape 2-D images as one (images, H, W) array."""
    for img in images if isinstance(images, list) else [images]:
        _check_lowpass_input(img)
    # Separable passes round alike at every pixel, so flat regions stay exactly tied for LBP's >=.
    return _blur_same(images, _GAUSS_PROFILE, residual)


def lowpass(img: np.ndarray) -> np.ndarray:
    """Smooth with the fixed 13x13, sigma 3 Gaussian (mirrored borders)."""
    return _lowpass(np.asarray(img, dtype=np.float64), residual=False)


def highpass(img: np.ndarray) -> np.ndarray:
    """Residual detail: the image minus its lowpass component."""
    return _lowpass(np.asarray(img, dtype=np.float64), residual=True)


# ---------------------------------------------------------------------------
# Region of interest


@dataclass(frozen=True)
class RoiRect:
    """Axis-aligned crop rectangle; ``x`` is the column axis."""

    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("RoiRect must have positive extent")
        if self.x0 < 0 or self.y0 < 0:
            raise ValueError("RoiRect origin must be non-negative")

    @property
    def window(self) -> tuple[slice, slice]:
        """Row and column slices that cut the rectangle out of an image."""
        return slice(self.y0, self.y0 + self.height), slice(self.x0, self.x0 + self.width)


def extract_roi(img: np.ndarray) -> RoiRect:
    """Locate the fingerprint in an image by its ridge activity.

    The image is tiled from its top-left corner into 16x16 blocks; rows
    and columns past the last whole block are left out.  Each block's
    variance is a mass placed at the block's center, and the mass gives
    a center and per-axis spread.  The rectangle spans three standard
    deviations to each side of the center, clipped to the image.  Ridges
    vary and a flat background does not, whatever its level, so dark
    ridges on a light ground crop as light ridges on a dark one.  A
    zero-mass image, or one too small for a whole block, yields the
    full frame.

    The variances are those of the 8-bit codes ``rint(255 * img)``, which
    is exact for 8-bit input such as every ``ingest`` output.  The search
    sees any other image rounded to a multiple of 1/255; nothing else
    does.  Input must be a 2-D image in [0, 1].
    """
    return _extract_roi(as_image(img))


def _extract_roi(img: np.ndarray) -> RoiRect:
    """``extract_roi`` of an image already validated by ``as_image``."""
    height, width = img.shape
    mass = _block_mass(img) if min(height, width) >= ROI_BLOCK else np.zeros((0, 0))
    total = float(mass.sum())
    if total == 0.0:
        return RoiRect(0, 0, width, height)
    xs = ROI_BLOCK * np.arange(mass.shape[1]) + (ROI_BLOCK - 1) / 2.0
    ys = ROI_BLOCK * np.arange(mass.shape[0]) + (ROI_BLOCK - 1) / 2.0
    col_mass, row_mass = mass.sum(axis=0), mass.sum(axis=1)
    cx = float(col_mass @ xs) / total
    cy = float(row_mass @ ys) / total
    sx = math.sqrt(float(col_mass @ (xs - cx) ** 2) / total)
    sy = math.sqrt(float(row_mass @ (ys - cy) ** 2) / total)
    x0 = max(0, math.floor(cx - ROI_SIGMA_FACTOR * sx))
    x1 = min(width - 1, math.ceil(cx + ROI_SIGMA_FACTOR * sx))
    y0 = max(0, math.floor(cy - ROI_SIGMA_FACTOR * sy))
    y1 = min(height - 1, math.ceil(cy + ROI_SIGMA_FACTOR * sy))
    return RoiRect(x0, y0, x1 - x0 + 1, y1 - y0 + 1)


def _block_mass(img: np.ndarray) -> np.ndarray:
    """``n * sum(c**2) - sum(c)**2`` over the n = 256 codes c = ``rint(255 * img)`` of
    each whole 16x16 block: n**2 times the block's code variance, one row of blocks
    to a row of the result.  The image must hold at least one whole block.

    Rows of blocks run in the bands of ``_row_blocks``, each through one float64
    buffer.  Codes, their squares and every sum here are integers below 2**53, so
    the masses are exact in any summation order, never negative, and zero on a
    flat block."""
    side = ROI_BLOCK
    n_rows, n_cols = img.shape[0] // side, img.shape[1] // side
    span = n_cols * side
    most, bands = _row_blocks(n_rows, 8 * side * span)
    buffer = np.empty((most * side, span))
    mass = np.empty((n_rows, n_cols))
    for r0, r1 in bands:
        band = buffer[: (r1 - r0) * side]
        np.rint(np.multiply(img[r0 * side : r1 * side, :span], 255.0, out=band), out=band)
        sums = band.reshape(-1, side, span).sum(axis=1).reshape(-1, n_cols, side).sum(axis=2)
        np.square(band, out=band)
        squares = band.reshape(-1, side, span).sum(axis=1).reshape(-1, n_cols, side).sum(axis=2)
        np.subtract(side * side * squares, sums * sums, out=mass[r0:r1])
    return mass


def crop(img: np.ndarray, rect: RoiRect) -> np.ndarray:
    """Cut ``rect`` out of ``img``; the rectangle must lie inside it."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("crop expects a 2-D image")
    height, width = img.shape
    if rect.x0 + rect.width > width or rect.y0 + rect.height > height:
        raise ValueError(f"rectangle {rect} exceeds image {height}x{width}")
    return img[rect.window].copy()


# ---------------------------------------------------------------------------
# Contrast-limited adaptive histogram equalization


def _axis_tiles(extent: int, tiles: int):
    """Tile of each pixel along one axis, the tile whose center is at or
    before it (the next center follows) and the blend factor toward the next."""
    edges = (np.arange(tiles + 1) * extent) // tiles
    tile = np.repeat(np.arange(tiles), np.diff(edges))
    if tiles == 1:
        return tile, tile, np.zeros(extent)
    coords = np.arange(extent, dtype=np.float64)
    centers = (edges[:-1] + edges[1:] - 1) / 2.0
    idx = np.clip(np.searchsorted(centers, coords, side="right") - 1, 0, tiles - 2)
    return tile, idx, np.clip((coords - centers[idx]) / (centers[idx + 1] - centers[idx]), 0.0, 1.0)


def clahe(img: np.ndarray, tiles: tuple[int, int] = (8, 8), clip: float = 2.0) -> np.ndarray:
    """Contrast-limited adaptive histogram equalization.

    The image is divided into a ``tiles`` grid.  Each tile gets a
    256-bin histogram; counts above ``clip`` times the uniform level
    are trimmed and the excess is spread evenly over all bins.  Every
    pixel is remapped through the clipped CDFs of the (up to four)
    nearest tiles, blended bilinearly by distance to their centers.
    ``clip=inf`` disables the limit and gives plain adaptive
    equalization.

    Input must lie in [0, 1]; so does the output.
    """
    return _clahe(as_image(img), tiles, clip)


def _clahe(img: np.ndarray, tiles: tuple[int, int], clip: float) -> np.ndarray:
    """``clahe`` of an image already validated by ``as_image``."""
    rows, cols = int(tiles[0]), int(tiles[1])
    if rows < 1 or cols < 1:
        raise ValueError(f"tile grid must be positive, got {tiles}")
    height, width = img.shape
    if rows > height or cols > width:
        raise ValueError(f"tile grid {tiles} too fine for image {height}x{width}")
    if not clip > 0.0:
        raise ValueError(f"clip limit must be positive, got {clip}")

    bins = 256
    row_tile, top, wy = _axis_tiles(height, rows)
    col_tile, left, wx = _axis_tiles(width, cols)
    # key = the pixel's bin plus the start of its tile's bins, (i * cols + j) * bins for tile (i, j)
    keys = np.minimum((img * bins).astype(np.intp), bins - 1)
    keys += (row_tile * (cols * bins))[:, None] + col_tile * bins
    hist = np.bincount(keys.ravel(), minlength=rows * cols * bins).reshape(-1, bins)
    sizes = hist.sum(axis=1, keepdims=True)
    if math.isfinite(clip):
        limit = clip * sizes / bins
        excess = np.maximum(hist - limit, 0.0).sum(axis=1, keepdims=True)
        hist = np.minimum(hist, limit) + excess / bins
    flat = (np.cumsum(hist, axis=1) / sizes).ravel()

    # Move each key to the top-left of the tiles the pixel blends; the right and lower
    # neighbours lie dx and dy further on, or at the same tile for a single column or row.
    # Rows blend in the blocks of _row_blocks, each term through one weight and one
    # gathered-CDF buffer: ((1 - wy) * (1 - wx)) * A + ((1 - wy) * wx) * B
    # + (wy * (1 - wx)) * C + (wy * wx) * D at every pixel, summed left to right.
    shift_y, shift_x = (top - row_tile) * (cols * bins), (left - col_tile) * bins
    dx, dy = bins * (cols > 1), cols * bins * (rows > 1)
    most, blocks = _row_blocks(height, 8 * width)
    weight, gathered = np.empty((2, most, width))
    out = np.empty((height, width))
    for r0, r1 in blocks:
        block = keys[r0:r1]
        block += shift_y[r0:r1, None]
        block += shift_x
        y = wy[r0:r1, None]
        w, g, sums = weight[: r1 - r0], gathered[: r1 - r0], out[r0:r1]
        terms = ((1.0 - y, 1.0 - wx, 0), (1.0 - y, wx, dx), (y, 1.0 - wx, dy), (y, wx, dy + dx))
        for k, (row_weight, col_weight, offset) in enumerate(terms):
            np.multiply(row_weight, col_weight, out=w)
            np.take(flat[offset:], block, out=g, mode="clip")  # keys are in range; "clip" skips a buffered check
            np.multiply(w, g, out=g if k else sums)
            if k:
                sums += g
    return out
