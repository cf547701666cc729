"""Crop/flip augmentation: the ten views an image is trained and scored on.

Each image expands into ten patches: crops of 80% of each dimension
anchored at the four corners and the center, each followed by its
horizontal mirror.  Patch 2i is always the unflipped crop and patch
2i+1 its mirror, in corner order top-left, top-right, bottom-left,
bottom-right, then center.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PATCH_FRACTION",
    "PATCHES_PER_IMAGE",
    "patch_windows",
    "make_patches",
    "augment_training",
]

PATCH_FRACTION = 0.8
PATCHES_PER_IMAGE = 10


def patch_windows(shape: tuple[int, ...]) -> tuple[tuple[int, int], list[tuple[int, int, bool]]]:
    """The patch shape and, in patch order, each patch's ``(row, col,
    flipped)``: its crop's origin in an image of ``shape`` and whether it
    is mirrored.

    Patch height and width are ``floor(0.8 * dim)``; the center crop
    origin is the floor of half the leftover margin.  Images too small
    to yield a non-empty crop are rejected.
    """
    if len(shape) != 2:
        raise ValueError(f"patch_windows expects a 2-D image, got shape {tuple(shape)}")
    height, width = shape
    # floor(0.8 * dim) in exact integer arithmetic
    ph = 4 * height // 5
    pw = 4 * width // 5
    if ph < 1 or pw < 1:
        raise ValueError(f"image {height}x{width} too small to crop at {PATCH_FRACTION}")
    origins = [
        (0, 0),
        (0, width - pw),
        (height - ph, 0),
        (height - ph, width - pw),
        ((height - ph) // 2, (width - pw) // 2),
    ]
    return (ph, pw), [(oy, ox, flipped) for oy, ox in origins for flipped in (False, True)]


def make_patches(img: np.ndarray) -> np.ndarray:
    """The ten crop/flip patches of ``patch_windows`` as one (10, ph, pw) stack."""
    img = np.asarray(img, dtype=np.float64)
    (ph, pw), windows = patch_windows(img.shape)
    patches = np.empty((len(windows), ph, pw))
    for patch, (oy, ox, flipped) in zip(patches, windows):
        crop = img[oy : oy + ph, ox : ox + pw]
        patch[:] = crop[:, ::-1] if flipped else crop
    return patches


def augment_training(images: list[np.ndarray], labels: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Expand a labeled set tenfold; patches inherit the source label.

    Output order is the patch order within each image, images in their
    original order, so sample i maps to outputs 10i .. 10i+9.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if len(images) != len(labels):
        raise ValueError(f"got {len(images)} images but {len(labels)} labels")
    out_images: list[np.ndarray] = []
    for img in images:
        out_images.extend(make_patches(img))
    out_labels = np.repeat(labels, PATCHES_PER_IMAGE)
    return out_images, out_labels
