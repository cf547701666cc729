"""Local binary patterns over the 8-neighborhood, with blocked histograms."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .imageproc import _BLOCK_BYTES, _row_blocks

__all__ = [
    "LbpConfig",
    "lbp_code",
    "uniform_label",
    "lbp_map",
    "lbp_features",
    "lbp_window_features",
    "UNIFORM_LABELS",
    "MIRROR_CODES",
    "N_ORIGINAL_BINS",
    "N_UNIFORM_BINS",
]

# Clockwise ring starting at the top-left neighbor; the first offset
# contributes the most significant bit of the code.
_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))

N_ORIGINAL_BINS = 256
N_UNIFORM_BINS = 10


def _uniform_table() -> np.ndarray:
    # A code is uniform when its circular bit string has at most two
    # 0/1 transitions; uniform codes are labeled by their popcount
    # (0..8) and everything else shares label 9.
    table = np.empty(256, dtype=np.intp)
    for code in range(256):
        bits = [(code >> (7 - k)) & 1 for k in range(8)]
        transitions = sum(bits[k] != bits[(k + 1) % 8] for k in range(8))
        table[code] = sum(bits) if transitions <= 2 else 9
    return table


UNIFORM_LABELS = _uniform_table()


# lbp_map(img[:, ::-1]) == MIRROR_CODES[lbp_map(img)][:, ::-1]: a flip
# turns neighbor (dy, dx) into (dy, -dx), moving each ring bit.  That
# reverses the ring, which keeps every code's uniform label.
_FLIPPED = [_OFFSETS.index((dy, -dx)) for dy, dx in _OFFSETS]
MIRROR_CODES = np.array(
    [sum((code >> (7 - k) & 1) << (7 - m) for k, m in enumerate(_FLIPPED)) for code in range(256)], dtype=np.uint8
)
_UNIFORM_LABELS_U8 = UNIFORM_LABELS.astype(np.uint8)


def lbp_code(patch: np.ndarray) -> int:
    """Code of a single 3x3 patch: neighbors >= center, clockwise from top-left."""
    patch = np.asarray(patch, dtype=np.float64)
    if patch.shape != (3, 3):
        raise ValueError(f"lbp_code expects a 3x3 patch, got {patch.shape}")
    center = patch[1, 1]
    code = 0
    for k, (dy, dx) in enumerate(_OFFSETS):
        if patch[1 + dy, 1 + dx] >= center:
            code |= 1 << (7 - k)
    return code


def uniform_label(code: int) -> int:
    """Map a code to its uniform-pattern label in 0..9."""
    if not 0 <= code <= 255:
        raise ValueError(f"code must lie in 0..255, got {code}")
    return int(UNIFORM_LABELS[code])


def lbp_map(img: np.ndarray) -> np.ndarray:
    """Codes for every interior pixel of an (..., H, W) image or stack of
    images; output is (..., H-2, W-2) uint8.  Neighbor (dy, dx) of center k
    in the flattened stack is k + dy * W + dx, so each comparison is one call
    over a contiguous span; codes that wrap past a row or view edge are cut off."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim < 2 or img.shape[-2] < 3 or img.shape[-1] < 3:
        raise ValueError(f"lbp_map needs at least a 3x3 image, got {img.shape}")
    height, width = img.shape[-2:]
    flat = img.reshape(-1)
    codes = np.zeros(img.shape, dtype=np.uint8)
    span = codes.reshape(-1)[: len(flat) - 2 * width - 2]
    center = flat[width + 1 : width + 1 + len(span)]
    ge = np.empty(len(span), dtype=bool)
    bits = ge.view(np.uint8)
    # Horner form: shift the code left, then OR in the next neighbor's bit,
    # so the first offset ends up the most significant.
    for dy, dx in _OFFSETS:
        start = (1 + dy) * width + 1 + dx
        np.greater_equal(flat[start : start + len(span)], center, out=ge)
        np.left_shift(span, 1, out=span)
        np.bitwise_or(span, bits, out=span)
    return codes[..., : height - 2, : width - 2]


@dataclass(frozen=True)
class LbpConfig:
    """Histogram layout: code variant and spatial block grid."""

    variant: str = "uniform"
    blocks: tuple[int, int] = (1, 1)

    def __post_init__(self):
        if self.variant not in ("original", "uniform"):
            raise ValueError(f"variant must be 'original' or 'uniform', got {self.variant!r}")
        rows, cols = self.blocks
        if rows < 1 or cols < 1:
            raise ValueError(f"block grid must be positive, got {self.blocks}")
        object.__setattr__(self, "blocks", (int(rows), int(cols)))

    @property
    def bins(self) -> int:
        return N_UNIFORM_BINS if self.variant == "uniform" else N_ORIGINAL_BINS

    @property
    def feature_length(self) -> int:
        return self.bins * self.blocks[0] * self.blocks[1]


def _block_bounds(extent: int, blocks: int) -> list[tuple[int, int]]:
    base = extent // blocks
    if base < 1:
        raise ValueError(f"block grid of {blocks} is too fine for extent {extent}")
    bounds = [(i * base, (i + 1) * base) for i in range(blocks - 1)]
    bounds.append(((blocks - 1) * base, extent))  # last block absorbs the remainder
    return bounds


def lbp_features(img: np.ndarray, config: LbpConfig) -> np.ndarray:
    """Concatenated per-block histograms of LBP codes, each L1-normalized.

    Takes an (..., H, W) image or stack and returns (..., d) rows.
    Blocks tile the code map in row-major order; every block histogram
    sums to one, so each row sums to the number of blocks.
    """
    codes = lbp_map(img)
    values = codes if config.variant == "original" else _UNIFORM_LABELS_U8.take(codes)
    bins = config.bins
    rows, cols = config.blocks
    row_bounds = _block_bounds(codes.shape[-2], rows)
    col_bounds = _block_bounds(codes.shape[-1], cols)
    views = values.reshape(-1, *values.shape[-2:])
    out = np.empty((len(views), config.feature_length))
    for view, row in zip(views, out):
        start = 0
        for r0, r1 in row_bounds:
            for c0, c1 in col_bounds:
                block = view[r0:r1, c0:c1]
                hist = row[start : start + bins]
                hist[:] = np.bincount(block.ravel(), minlength=bins)
                hist /= block.size
                start += bins
    return out.reshape(*values.shape[:-2], -1)


@dataclass(frozen=True)
class _WindowPlan:
    """How ``lbp_window_features`` counts one layout of views.  The last
    eight are cached and shared, so their arrays are read-only; an image
    larger than a band holds 8 bytes of keys a pixel (2.4 MB at 480x640).

    An image's label map is cut into cells at every window origin and
    block edge, for unflipped and mirrored windows alike; slot 0 of each
    axis is an empty cell before the first cut.  ``cell_keys`` numbers
    each pixel's (image, cell), times the bins, for a band of images
    whose keys and counts fit ``_BLOCK_BYTES``.  Once the counts hold 2-D
    prefix sums, slot ``(i, j)`` counts each label above row cut ``i``
    and left of column cut ``j``, and a block's histogram is ``(+, -, -,
    +)`` of the four slots ``corners`` names for it."""

    grid: tuple[int, int, int]  # row slots, column slots, bins
    image_bytes: int  # an image's keys or counts, whichever is larger
    cell_keys: np.ndarray  # (images, map height, map width)
    spans: tuple  # row bands [r0, r1) of one image's keys
    corners: np.ndarray  # (4, views * blocks) column-major slots
    mirrored: np.ndarray  # indices into views * blocks: mirrors of original codes
    sizes: np.ndarray  # (blocks, 1) pixels in each block; floats divide as numpy's int / int does


@functools.lru_cache(maxsize=8)
def _window_plan(map_shape, view_shape, windows, blocks, variant) -> _WindowPlan:
    map_height, map_width = map_shape
    height, width = view_shape
    row_bounds = _block_bounds(height, blocks[0])
    col_bounds = _block_bounds(width, blocks[1])
    for row, col, _ in windows:
        if not (0 <= row <= map_height - height and 0 <= col <= map_width - width):
            raise ValueError(f"window at ({row}, {col}) does not fit a {map_height + 2}x{map_width + 2} image")
    # A mirrored view's block columns [c0, c1) are its window's columns
    # [width - c1, width - c0).
    rects = np.array(
        [
            (row + r0, row + r1, col + (width - c1 if flipped else c0), col + (width - c0 if flipped else c1))
            for row, col, flipped in windows
            for r0, r1 in row_bounds
            for c0, c1 in col_bounds
        ],
        dtype=np.intp,
    ).reshape(-1, 4)
    row_cuts = np.union1d([0, map_height], rects[:, :2])
    col_cuts = np.union1d([0, map_width], rects[:, 2:])
    bins = N_UNIFORM_BINS if variant == "uniform" else N_ORIGINAL_BINS
    grid = (len(row_cuts), len(col_cuts), bins)
    slots = grid[0] * grid[1]
    image_bytes = 8 * max(map_height * map_width, slots * bins)
    row_keys = np.searchsorted(row_cuts, np.arange(map_height), side="right") * grid[1]
    col_keys = np.searchsorted(col_cuts, np.arange(map_width), side="right")
    images = np.arange(max(1, _BLOCK_BYTES // image_bytes))[:, None] * slots
    cell_keys = np.add.outer((images + row_keys) * bins, col_keys * bins)
    r0, r1 = np.searchsorted(row_cuts, rects[:, :2].T)
    c0, c1 = np.searchsorted(col_cuts, rects[:, 2:].T)
    corners = np.stack([c1 * grid[0] + r1, c1 * grid[0] + r0, c0 * grid[0] + r1, c0 * grid[0] + r0])
    # A mirror's original codes are MIRROR_CODES of its crop's; uniform
    # labels are mirror-invariant.
    mirrored = [flipped and variant == "original" for _, _, flipped in windows]
    mirrored = np.flatnonzero(np.repeat(mirrored, blocks[0] * blocks[1]))
    sizes = np.array([float((r1 - r0) * (c1 - c0)) for r0, r1 in row_bounds for c0, c1 in col_bounds])[:, None]
    for array in (cell_keys, corners, mirrored, sizes):
        array.flags.writeable = False
    spans = tuple(_row_blocks(map_height, 8 * map_width)[1])
    return _WindowPlan(grid, image_bytes, cell_keys, spans, corners, mirrored, sizes)


def lbp_window_features(img: np.ndarray, config: LbpConfig, shape: tuple[int, int], windows) -> np.ndarray:
    """``lbp_features`` of ``shape`` crops of a 2-D image, or of each image
    of an (N, H, W) stack: one row per ``(row, col, flipped)`` window, the
    crop at that origin, mirrored when ``flipped``.  Returns (N, views, d)
    for a stack, which is what the pipeline passes, and (views, d) for a
    2-D image, which only direct callers pass.

    The stack's label map is computed once, and each image's is cut into
    cells at every window origin and block edge (``_WindowPlan``, cached
    per layout).  One ``bincount`` keyed by image, cell and label counts
    a band of whole images whose keys and counts fit ``_BLOCK_BYTES``, or
    rows of one image that does not.  A view's block histogram is then an
    integer inclusion-exclusion of four of the counts' 2-D prefix sums,
    read through ``MIRROR_CODES`` for a mirror of ``original`` codes.
    The counts are exact, so every row has the bits its view gets alone."""
    height, width = shape
    if height < 3 or width < 3:
        raise ValueError(f"lbp_map needs at least a 3x3 image, got {tuple(shape)}")
    codes = lbp_map(img)
    labels = codes if config.variant == "original" else _UNIFORM_LABELS_U8.take(codes)
    map_height, map_width = codes.shape[-2:]
    windows = tuple(map(tuple, windows))
    plan = _window_plan((map_height, map_width), (height - 2, width - 2), windows, config.blocks, config.variant)
    rows, cols, bins = plan.grid
    labels = labels.reshape(-1, map_height, map_width)
    out = np.empty((len(labels), len(windows), len(plan.sizes), bins))
    keys = np.empty(len(plan.cell_keys) * max(r1 - r0 for r0, r1 in plan.spans) * map_width, dtype=np.intp)
    for n0, n1 in _row_blocks(len(labels), plan.image_bytes)[1] if len(labels) else []:
        for r0, r1 in plan.spans:
            band = keys[: (n1 - n0) * (r1 - r0) * map_width]
            np.add(labels[n0:n1, r0:r1], plan.cell_keys[: n1 - n0, r0:r1], out=band.reshape(n1 - n0, r1 - r0, -1))
            hist = np.bincount(band, minlength=(n1 - n0) * rows * cols * bins).reshape(n1 - n0, rows, -1)
            counts = hist if r0 == 0 else counts + hist
        # Prefix sums one slot at a time, down the rows, then across the
        # columns of a column-major copy, so every add is contiguous in
        # each image: numpy's cumsum along an inner axis took about 5 ns
        # an entry.
        for i in range(1, rows):
            counts[:, i] += counts[:, i - 1]
        prefix = counts.reshape(n1 - n0, rows, cols, bins).transpose(0, 2, 1, 3).copy()
        for j in range(1, cols):
            prefix[:, j] += prefix[:, j - 1]
        corners = prefix.reshape(n1 - n0, cols * rows, bins).take(plan.corners, axis=1)
        block = corners[:, 0] - corners[:, 1]
        block -= corners[:, 2]
        block += corners[:, 3]
        if len(plan.mirrored):
            block[:, plan.mirrored] = block[:, plan.mirrored][:, :, MIRROR_CODES]
        np.divide(block.reshape(n1 - n0, len(windows), -1, bins), plan.sizes, out=out[n0:n1])
    return out.reshape(*codes.shape[:-2], len(windows), config.feature_length)
