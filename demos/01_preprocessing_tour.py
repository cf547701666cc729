#!/usr/bin/env python3
# Walk through the preprocessing stages one at a time on a synthetic
# ridge texture: downscale, frequency filtering, region of interest,
# and adaptive equalization.  Run it and read the printed numbers.

import numpy as np

from livecheck.imageproc import (
    clahe,
    crop,
    extract_roi,
    highpass,
    lowpass,
    resize_bilinear,
)
from livecheck.synthdata import ridge_image

rng = np.random.default_rng(7)
img = ridge_image(rng, size=96)
print("input:", img.shape, f"range [{img.min():.3f}, {img.max():.3f}]")

# Bilinear downscale. Output dims are floors, so 96 * 0.6 -> 57.
small = resize_bilinear(img, 0.6)
print("resized 0.6x:", small.shape)

# The lowpass is a 13x13 Gaussian (sigma 3); the highpass is its
# residual, so adding the two always reconstructs the input.
lo = lowpass(img)
hi = highpass(img)
print("lowpass range:", f"[{lo.min():.3f}, {lo.max():.3f}]")
print("highpass range:", f"[{hi.min():.3f}, {hi.max():.3f}]  (signed, mean ~0)")
print("reconstruction error:", np.abs((lo + hi) - img).max())

# ROI: embed a small print in a flat frame and let the block-variance +
# center-of-mass logic find it again.  Each 16x16 block weighs by its
# variance, so ridges count and the flat ground does not, whatever its
# level; the box is the weighted center plus three standard deviations
# a side.
frame = np.zeros((160, 160))
frame[64:112, 30:78] = ridge_image(rng, size=48)
roi = extract_roi(frame)
print("roi found at:", (roi.y0, roi.x0), "size", (roi.height, roi.width))
focused = crop(frame, roi)
print("cropped mean:", round(focused.mean(), 3), "vs frame mean:", round(frame.mean(), 3))

# CLAHE stretches local contrast. A washed-out version of the texture
# (squeezed into [0.4, 0.6]) comes back with nearly full range.
washed = 0.4 + 0.2 * img
equalized = clahe(washed, tiles=(4, 4), clip=2.0)
print("washed-out range:", f"[{washed.min():.3f}, {washed.max():.3f}]")
print("equalized range:", f"[{equalized.min():.3f}, {equalized.max():.3f}]")
