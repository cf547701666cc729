"""Synthetic sensor frames: a finger-shaped ridge region on a dark background.

A frame is 480x640, like a single-finger optical sensor.  The finger is a
soft-edged ellipse of concentric ridges around a core point, with
additive pixel noise; outside it the frame is black, so
``extract_roi`` finds the finger and crops well inside the frame.
Fakes are drawn from the same family and then lose fine ridge detail
to a Gaussian blur of the finger region, the cue livecheck detects.
"""

from __future__ import annotations

import numpy as np

from livecheck import convolve2d, gaussian_kernel

FRAME_SHAPE = (480, 640)
BLUR_SIZE = 9


def finger_frame(rng: np.random.Generator, spoof_sigma: float | None = None) -> np.ndarray:
    """One [0, 1] frame; ``spoof_sigma`` blurs the finger into a fake."""
    height, width = FRAME_SHAPE
    cy = rng.uniform(0.42, 0.58) * height
    cx = rng.uniform(0.35, 0.65) * width
    semi_y = rng.uniform(110.0, 135.0)
    semi_x = rng.uniform(80.0, 105.0)
    core_y = cy + rng.uniform(-0.3, 0.3) * semi_y
    core_x = cx + rng.uniform(-0.3, 0.3) * semi_x
    frequency = rng.uniform(0.08, 0.14)  # cycles per pixel, ridge period 7..12 px
    phase = rng.uniform(0.0, 2.0 * np.pi)

    # Work on the finger's bounding box only; the rest stays black.
    y0, y1 = int(cy - semi_y) - 1, int(cy + semi_y) + 2
    x0, x1 = int(cx - semi_x) - 1, int(cx + semi_x) + 2
    ys, xs = np.mgrid[y0:y1, x0:x1].astype(np.float64)
    radius = np.hypot(ys - core_y, 1.3 * (xs - core_x))
    ridges = 0.5 + 0.25 * np.sin(2.0 * np.pi * frequency * radius + phase)
    finger = ridges + 0.15 * rng.standard_normal(ridges.shape)
    if spoof_sigma is not None:
        finger = convolve2d(finger, gaussian_kernel(BLUR_SIZE, spoof_sigma))
    inside = ((ys - cy) / semi_y) ** 2 + ((xs - cx) / semi_x) ** 2
    mask = np.clip((1.0 - inside) / 0.15, 0.0, 1.0)

    frame = np.zeros(FRAME_SHAPE)
    frame[y0:y1, x0:x1] = np.clip(finger, 0.0, 1.0) * mask
    return frame


def finger_frames(n_per_class: int, seed: int, spoof_sigma: float) -> tuple[list[np.ndarray], np.ndarray]:
    """``n_per_class`` live then ``n_per_class`` fake frames, labels +1 then -1."""
    rng = np.random.default_rng(seed)
    live = [finger_frame(rng) for _ in range(n_per_class)]
    fake = [finger_frame(rng, spoof_sigma) for _ in range(n_per_class)]
    return live + fake, np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
