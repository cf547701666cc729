"""Grayscale image ingestion and preprocessing primitives.

Images are 2-D float64 arrays.  Ingestion maps 8-bit pixels into
``[0, 1]``; most operations preserve that range, except ``highpass``
whose output is a signed residual and is consumed as-is downstream.
Border-sensitive operations (convolution, morphology) extend the image
by mirroring edge pixels, so constant images pass through unchanged.

All functions are pure: no global state, no hidden RNG, identical
inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    "morph_close",
    "extract_roi",
    "crop",
    "clahe",
]

_WHITESPACE = b" \t\r\n\x0b\x0c"

GAUSS_SIZE = 13
GAUSS_SIGMA = 3.0

ROI_CLOSE_BOX = 21
ROI_SIGMA_FACTOR = 3.0


def as_image(data) -> np.ndarray:
    """Validate ``data`` as a 2-D float64 intensity image in [0, 1]."""
    img = np.asarray(data, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-D image, got shape {img.shape}")
    if not (img.min() >= 0.0 and img.max() <= 1.0):  # NaN and +-inf fail this test too
        if not np.all(np.isfinite(img)):
            raise ValueError("image contains non-finite values")
        raise ValueError("image intensities must lie in [0, 1]")
    return img


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
    Anything else (wrong magic, maxval above 255, zero dimensions,
    truncated pixel data) raises ``ValueError`` naming the problem.
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
    if magic == b"P5":
        pos += 1  # single whitespace byte separates maxval from the raster
        if len(data) - pos < count:
            raise ValueError("unsupported format: truncated pixel data")
        pixels = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
    else:
        values = []
        for _ in range(count):
            try:
                value, pos = _header_int(data, pos, "pixel")
            except ValueError:
                raise ValueError("unsupported format: truncated pixel data") from None
            values.append(value)
        pixels = np.asarray(values, dtype=np.int64)
    if pixels.max(initial=0) > maxval:
        raise ValueError("unsupported format: pixel value exceeds maxval")
    return np.divide(pixels.reshape(height, width), 255.0, dtype=np.float64)


def write_pgm(img: np.ndarray) -> bytes:
    """Encode a [0, 1] image as a binary (P5) 8-bit PGM byte stream."""
    img = as_image(img)
    height, width = img.shape
    raster = np.rint(img * 255.0).astype(np.uint8)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + raster.tobytes()


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


def convolve2d(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """True 2-D convolution (kernel flipped) with mirrored borders.

    The output has the same shape as the input.  The kernel must be
    square with odd side length and no larger than the image.
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
    padded = img if radius == 0 else np.pad(img, radius, mode="symmetric")
    windows = sliding_window_view(padded, kernel.shape)
    return np.einsum("hwij,ij->hw", windows, kernel[::-1, ::-1])


def _blur_same(plane: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """Same-size separable convolution of a 2-D map with mirrored borders.

    Row tap j and column tap i are the shifts k + j and k + i * pitch of the padded
    map flattened at row pitch ``pitch``, each one call over a contiguous span; the
    sums that wrap past a row edge fall in the columns that the result cuts off."""
    radius = len(profile) // 2
    height, width = plane.shape
    padded = np.pad(plane, radius, mode="symmetric").ravel()
    pitch = width + 2 * radius
    n_rows = len(padded) - 2 * radius
    rows = profile[0] * padded[:n_rows]
    product = np.empty(n_rows)
    for j in range(1, len(profile)):
        rows += np.multiply(profile[j], padded[j : j + n_rows], out=product)
    out = np.empty((height, pitch))
    n_out = (height - 1) * pitch + width
    span, product = out.ravel()[:n_out], product[:n_out]
    np.multiply(profile[0], rows[:n_out], out=span)
    for i in range(1, len(profile)):
        span += np.multiply(profile[i], rows[i * pitch : i * pitch + n_out], out=product)
    return out[:, :width]


def _lowpass(img: np.ndarray) -> np.ndarray:
    if img.ndim != 2:
        raise ValueError("lowpass expects a 2-D image")
    if GAUSS_SIZE > min(img.shape):
        raise ValueError(f"kernel {GAUSS_SIZE}x{GAUSS_SIZE} larger than image {img.shape}")
    # gaussian_kernel is the outer product of this unit-sum profile with itself
    profile = gaussian_profile(GAUSS_SIZE, GAUSS_SIGMA)
    # Separable passes round alike at every pixel, so flat regions stay exactly tied for LBP's >=.
    return _blur_same(img, profile / profile.sum())


def lowpass(img: np.ndarray) -> np.ndarray:
    """Smooth with the fixed 13x13, sigma 3 Gaussian (mirrored borders)."""
    return _lowpass(np.asarray(img, dtype=np.float64)).copy()


def highpass(img: np.ndarray) -> np.ndarray:
    """Residual detail: the image minus its lowpass component."""
    img = np.asarray(img, dtype=np.float64)
    return img - _lowpass(img)


# ---------------------------------------------------------------------------
# Morphology and region of interest


def _window_reduce(img: np.ndarray, box: int, reducer) -> np.ndarray:
    """Reduce every box x box window of the mirror-extended image.

    ``reducer`` is an exact binary ufunc (``np.maximum``, ``np.minimum``), so the
    window splits into a run down each column, then along each row.  Both run
    over the padded image flattened at row pitch ``pitch``: the column run steps
    by ``pitch`` and the row run by 1.  Returns an (H, W) view of an (H, pitch)
    array in the input's dtype.
    """
    radius = box // 2
    height, width = img.shape
    pitch = width + 2 * radius
    columns = _running_reduce(np.pad(img, radius, "symmetric").ravel(), box, reducer, pitch)
    out = np.empty((height, pitch), dtype=img.dtype)
    _running_reduce(columns, box, reducer, 1, out=out.ravel()[: len(columns) - 2 * radius])
    return out[:, :width]


def _running_reduce(a: np.ndarray, box: int, reducer, step: int, out=None) -> np.ndarray:
    """Reduce each run of ``box`` elements ``step`` apart in the flat ``a``.

    The reduced span doubles (1, 2, 4, ...) while it fits in the box;
    one reduce of two overlapping spans then covers the box, so a box
    of side b costs about log2(b) elementwise passes.
    """
    extent = len(a) - (box - 1) * step
    span = 1
    while 2 * span <= box:
        a = reducer(a[: -span * step], a[span * step :])
        span *= 2
    return reducer(a[:extent], a[(box - span) * step :][:extent], out=out)


def morph_close(img: np.ndarray, box: int) -> np.ndarray:
    """Grayscale closing (dilation then erosion) with a square box.

    Borders are mirror-extended.  Closing never decreases any pixel and
    leaves constant images untouched.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("morph_close expects a 2-D image")
    if box < 1 or box % 2 == 0:
        raise ValueError(f"box side must be odd and positive, got {box}")
    if box > min(img.shape):
        raise ValueError(f"box {box} larger than image {img.shape}")
    return np.ascontiguousarray(_close(img, box))


def _close(img: np.ndarray, box: int) -> np.ndarray:
    return _window_reduce(_window_reduce(img, box, np.maximum), box, np.minimum)


def _closed_codes(img: np.ndarray, box: int) -> np.ndarray:
    """Close the 8-bit codes ``rint(255 * img)`` of a [0, 1] image; uint8.

    Closing commutes with any nondecreasing map, so this is
    ``rint(255 * morph_close(img, box))``.  An 8-bit image (every ``ingest``
    output) is ``codes / 255.0`` exactly, and then so is its closing.
    """
    scaled = img * 255.0
    return _close(np.rint(scaled, out=scaled).astype(np.uint8), box)


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
    """Locate the foreground region of a fingerprint image.

    The image is closed with a box element (21 pixels, shrunk to the
    largest odd size that fits small inputs), then the intensity mass
    of the closed image gives a center and per-axis spread.  The
    rectangle spans three standard deviations to each side of the
    center, clipped to the image.  A zero-mass image yields the full
    frame.

    The closing runs on the 8-bit codes ``rint(255 * img)``, which is
    exact for 8-bit input such as every ``ingest`` output.  The search
    sees any other image rounded to a multiple of 1/255; nothing else
    does.  Input must be a 2-D image in [0, 1].
    """
    return _extract_roi(as_image(img))


def _extract_roi(img: np.ndarray) -> RoiRect:
    """``extract_roi`` of an image already validated by ``as_image``."""
    height, width = img.shape
    box = min(ROI_CLOSE_BOX, height, width)
    if box % 2 == 0:
        box -= 1
    # The moments of the closed image in [0, 1] are those of its 8-bit
    # codes (the 1/255 cancels), and the codes' column and row sums are
    # exact integers; a sum fits 32 bits up to 16 million pixels a line.
    closed = _closed_codes(img, box)
    col_mass = closed.sum(axis=0, dtype=np.uint32)
    row_mass = closed.sum(axis=1, dtype=np.uint32)
    total = int(row_mass.sum(dtype=np.uint64))
    if total == 0:
        return RoiRect(0, 0, width, height)
    xs = np.arange(width, dtype=np.float64)
    ys = np.arange(height, dtype=np.float64)
    cx = float(col_mass @ xs) / total
    cy = float(row_mass @ ys) / total
    sx = math.sqrt(float(col_mass @ (xs - cx) ** 2) / total)
    sy = math.sqrt(float(row_mass @ (ys - cy) ** 2) / total)
    x0 = max(0, math.floor(cx - ROI_SIGMA_FACTOR * sx))
    x1 = min(width - 1, math.ceil(cx + ROI_SIGMA_FACTOR * sx))
    y0 = max(0, math.floor(cy - ROI_SIGMA_FACTOR * sy))
    y1 = min(height - 1, math.ceil(cy + ROI_SIGMA_FACTOR * sy))
    return RoiRect(x0, y0, x1 - x0 + 1, y1 - y0 + 1)


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

    # move each key in place to the top-left of the tiles the pixel blends; the right and lower
    # neighbours lie dx and dy further on, or at the same tile for a single column or row
    keys += ((top - row_tile) * (cols * bins))[:, None] + (left - col_tile) * bins
    dx, dy = bins * (cols > 1), cols * bins * (rows > 1)
    wy = wy[:, None]
    out = (1.0 - wy) * (1.0 - wx) * flat.take(keys)
    out += (1.0 - wy) * wx * flat[dx:].take(keys)
    out += wy * (1.0 - wx) * flat[dy:].take(keys)
    out += wy * wx * flat[dy + dx :].take(keys)
    return out
