"""Local binary patterns over the 8-neighborhood, with blocked histograms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def lbp_window_features(img: np.ndarray, config: LbpConfig, shape: tuple[int, int], windows) -> np.ndarray:
    """``lbp_features`` of ``shape`` crops of a 2-D image, one row per
    ``(row, col, flipped)`` window: the crop at that origin, mirrored when
    ``flipped``.  The image's label map is computed once; a crop's map is
    a window of it and a mirror's the flipped window of the mirrored
    labels.  Each view is counted by one ``bincount`` keyed by ``label +
    block * bins``, so its row has the bits it gets alone."""
    height, width = shape
    if height < 3 or width < 3:
        raise ValueError(f"lbp_map needs at least a 3x3 image, got {tuple(shape)}")
    codes = lbp_map(img)
    if config.variant == "original":
        labels, mirrored = codes, MIRROR_CODES.take(codes)
    else:
        labels = mirrored = _UNIFORM_LABELS_U8.take(codes)
    bins = config.bins
    map_height, map_width = height - 2, width - 2
    row_bounds = _block_bounds(map_height, config.blocks[0])
    col_bounds = _block_bounds(map_width, config.blocks[1])
    sizes = np.array([(r1 - r0) * (c1 - c0) for r0, r1 in row_bounds for c0, c1 in col_bounds])
    block_rows = np.repeat(np.arange(len(row_bounds)), [r1 - r0 for r0, r1 in row_bounds])
    block_cols = np.repeat(np.arange(len(col_bounds)), [c1 - c0 for c0, c1 in col_bounds])
    offsets = (block_rows[:, None] * len(col_bounds) + block_cols) * bins
    counts = np.empty((len(windows), config.feature_length), dtype=np.intp)
    keys = np.empty((map_height, map_width), dtype=np.intp)
    for view, (row, col, flipped) in zip(counts, windows):
        window = (mirrored if flipped else labels)[row : row + map_height, col : col + map_width]
        np.add(window[:, ::-1] if flipped else window, offsets, out=keys)
        view[:] = np.bincount(keys.ravel(), minlength=len(view))
    return (counts.reshape(len(windows), len(sizes), bins) / sizes[:, None]).reshape(len(windows), -1)
