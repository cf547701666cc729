"""Slow reference implementations used to verify the fast numpy paths.

Everything here is written the dumb way on purpose: explicit Python
loops, per-pixel index arithmetic, textbook formulas.  No function in
this module shares code with the package, except the references at
the end, which compose the package's stages one view or one image at a
time.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from livecheck.augment import make_patches
from livecheck.imageproc import clahe, crop, extract_roi, highpass, lowpass, resize_bilinear
from livecheck.pipeline import extract_features, fit_transform
from livecheck.seeds import derive_seed
from livecheck.svm import decision_score, decision_scores, train_smo
from livecheck.transform import project


def reflect_index(i: int, n: int) -> int:
    """Half-sample mirror: ... 2 1 0 | 0 1 ... n-1 | n-1 n-2 ..."""
    period = 2 * n
    j = i % period
    return j if j < n else period - 1 - j


def conv2d_same_reflect(img, kernel):
    """True convolution, same size, mirrored borders, quadruple loop."""
    img = np.asarray(img, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    height, width = img.shape
    size = kernel.shape[0]
    radius = size // 2
    out = np.zeros_like(img)
    for row in range(height):
        for col in range(width):
            acc = 0.0
            for ky in range(size):
                for kx in range(size):
                    sy = reflect_index(row + radius - ky, height)
                    sx = reflect_index(col + radius - kx, width)
                    acc += img[sy, sx] * kernel[ky, kx]
            out[row, col] = acc
    return out


def correlate2d_same_reflect(img, kernel):
    """Cross-correlation (no flip), same size, mirrored borders."""
    return conv2d_same_reflect(img, np.asarray(kernel)[::-1, ::-1])


def resize_bilinear_oracle(img, scale):
    img = np.asarray(img, dtype=np.float64)
    height, width = img.shape
    out_h = math.floor(scale * height)
    out_w = math.floor(scale * width)
    out = np.zeros((out_h, out_w))
    for row in range(out_h):
        sy = min(max((row + 0.5) * height / out_h - 0.5, 0.0), height - 1.0)
        y0 = math.floor(sy)
        y1 = min(y0 + 1, height - 1)
        fy = sy - y0
        for col in range(out_w):
            sx = min(max((col + 0.5) * width / out_w - 0.5, 0.0), width - 1.0)
            x0 = math.floor(sx)
            x1 = min(x0 + 1, width - 1)
            fx = sx - x0
            top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
            bottom = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
            out[row, col] = top * (1 - fy) + bottom * fy
    return out


def morph_close_oracle(img, box):
    img = np.asarray(img, dtype=np.float64)
    height, width = img.shape
    radius = box // 2

    def window_reduce(source, reducer):
        out = np.zeros_like(source)
        for row in range(height):
            for col in range(width):
                values = []
                for dy in range(-radius, radius + 1):
                    for dx in range(-radius, radius + 1):
                        values.append(
                            source[reflect_index(row + dy, height), reflect_index(col + dx, width)]
                        )
                out[row, col] = reducer(values)
        return out

    return window_reduce(window_reduce(img, max), min)


def morph_close_window_view(img, box):
    """Closing as a max, then a min, over every box x box window view.

    Vectorized, so it reaches sensor-sized frames that the loop oracle
    cannot, and independent of the running reduction the package uses.
    """
    radius = box // 2

    def window_reduce(source, reducer):
        padded = np.pad(source, radius, mode="symmetric")
        return reducer(sliding_window_view(padded, (box, box)), axis=(-2, -1))

    return window_reduce(window_reduce(np.asarray(img, dtype=np.float64), np.max), np.min)


def clahe_fancy_index(img, tiles, clip):
    """CLAHE with one histogram per tile in a Python loop and the four
    corner CDFs gathered by 3-D fancy indexing.

    Independent of the single bincount and flat-array gathers the package
    uses, with the same floating-point operations in the same order, so
    the two must agree bit for bit.
    """
    img = np.asarray(img, dtype=np.float64)
    rows, cols = int(tiles[0]), int(tiles[1])
    height, width = img.shape

    def tile_edges(extent, count):
        return (np.arange(count + 1) * extent) // count

    def blend_weights(coords, centers):
        if len(centers) == 1:
            zeros = np.zeros(len(coords), dtype=np.intp)
            return zeros, zeros, np.zeros(len(coords))
        idx = np.searchsorted(centers, coords, side="right") - 1
        idx = np.clip(idx, 0, len(centers) - 2)
        span = centers[idx + 1] - centers[idx]
        weight = np.clip((coords - centers[idx]) / span, 0.0, 1.0)
        return idx, idx + 1, weight

    bins = 256
    binned = np.minimum((img * bins).astype(np.intp), bins - 1)
    row_edges = tile_edges(height, rows)
    col_edges = tile_edges(width, cols)

    cdfs = np.empty((rows, cols, bins))
    for ti in range(rows):
        for tj in range(cols):
            tile = binned[row_edges[ti] : row_edges[ti + 1], col_edges[tj] : col_edges[tj + 1]]
            hist = np.bincount(tile.ravel(), minlength=bins).astype(np.float64)
            if math.isfinite(clip):
                limit = clip * tile.size / bins
                excess = np.maximum(hist - limit, 0.0).sum()
                hist = np.minimum(hist, limit) + excess / bins
            cdfs[ti, tj] = np.cumsum(hist) / tile.size

    center_y = (row_edges[:-1] + row_edges[1:] - 1) / 2.0
    center_x = (col_edges[:-1] + col_edges[1:] - 1) / 2.0
    top, bot, wy = blend_weights(np.arange(height, dtype=np.float64), center_y)
    left, right, wx = blend_weights(np.arange(width, dtype=np.float64), center_x)

    wy = wy[:, None]
    wx = wx[None, :]
    out = (1.0 - wy) * (1.0 - wx) * cdfs[top[:, None], left[None, :], binned]
    out += (1.0 - wy) * wx * cdfs[top[:, None], right[None, :], binned]
    out += wy * (1.0 - wx) * cdfs[bot[:, None], left[None, :], binned]
    out += wy * wx * cdfs[bot[:, None], right[None, :], binned]
    return out


def lbp_code_oracle(img, row, col):
    """Code of the pixel at (row, col), neighbors clockwise from top-left."""
    img = np.asarray(img, dtype=np.float64)
    ring = [(-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1)]
    center = img[row, col]
    code = 0
    for dy, dx in ring:
        code = (code << 1) | int(img[row + dy, col + dx] >= center)
    return code


def uniform_label_oracle(code):
    bits = format(code, "08b")
    transitions = sum(bits[i] != bits[(i + 1) % 8] for i in range(8))
    return bits.count("1") if transitions <= 2 else 9


def lbp_histogram_oracle(img, variant, blocks):
    """Blocked histograms by explicit counting, row-major block order."""
    img = np.asarray(img, dtype=np.float64)
    height, width = img.shape
    code_map = np.zeros((height - 2, width - 2), dtype=int)
    for row in range(1, height - 1):
        for col in range(1, width - 1):
            code = lbp_code_oracle(img, row, col)
            code_map[row - 1, col - 1] = code if variant == "original" else uniform_label_oracle(code)
    bins = 256 if variant == "original" else 10
    rows_b, cols_b = blocks
    rh = code_map.shape[0] // rows_b
    cw = code_map.shape[1] // cols_b
    feats = []
    for br in range(rows_b):
        for bc in range(cols_b):
            r1 = (br + 1) * rh if br < rows_b - 1 else code_map.shape[0]
            c1 = (bc + 1) * cw if bc < cols_b - 1 else code_map.shape[1]
            block = code_map[br * rh : r1, bc * cw : c1]
            hist = np.zeros(bins)
            for value in block.ravel():
                hist[value] += 1
            feats.extend(hist / block.size)
    return np.asarray(feats)


def conv_valid_oracle(x, bank):
    """Valid cross-correlation of (C,H,W) with (F,C,s,s), plain loops."""
    x = np.asarray(x, dtype=np.float64)
    bank = np.asarray(bank, dtype=np.float64)
    channels, height, width = x.shape
    filters, _, size, _ = bank.shape
    out_h = height - size + 1
    out_w = width - size + 1
    out = np.zeros((filters, out_h, out_w))
    for f in range(filters):
        for row in range(out_h):
            for col in range(out_w):
                acc = 0.0
                for c in range(channels):
                    for ky in range(size):
                        for kx in range(size):
                            acc += x[c, row + ky, col + kx] * bank[f, c, ky, kx]
                out[f, row, col] = acc
    return out


def gaussian2d_oracle(size, sigma):
    half = size // 2
    kernel = np.zeros((size, size))
    for ky in range(size):
        for kx in range(size):
            kernel[ky, kx] = math.exp(-((ky - half) ** 2 + (kx - half) ** 2) / (2 * sigma**2))
    return kernel / kernel.sum()


def lcn_oracle(x, window):
    """Subtractive and divisive normalization by direct summation.

    The weight window sums to one over (channel, dy, dx), the local
    mean is subtracted everywhere, and the centered value is divided by
    the local standard deviation where it exceeds one.
    """
    x = np.asarray(x, dtype=np.float64)
    channels, height, width = x.shape
    radius = window // 2
    w2d = gaussian2d_oracle(window, window / 6.0) / channels
    centered = np.zeros_like(x)
    for row in range(height):
        for col in range(width):
            mean = 0.0
            for c in range(channels):
                for dy in range(-radius, radius + 1):
                    for dx in range(-radius, radius + 1):
                        mean += w2d[dy + radius, dx + radius] * x[
                            c, reflect_index(row + dy, height), reflect_index(col + dx, width)
                        ]
            for c in range(channels):
                centered[c, row, col] = x[c, row, col] - mean
    out = np.zeros_like(x)
    for row in range(height):
        for col in range(width):
            var = 0.0
            for c in range(channels):
                for dy in range(-radius, radius + 1):
                    for dx in range(-radius, radius + 1):
                        var += w2d[dy + radius, dx + radius] * (
                            centered[c, reflect_index(row + dy, height), reflect_index(col + dx, width)]
                            ** 2
                        )
            sigma = math.sqrt(var)
            for c in range(channels):
                out[c, row, col] = centered[c, row, col] / max(1.0, sigma)
    return out


def pool_starts_oracle(extent, pool, stride):
    """Window origins for ceil-mode pooling, in exact integer arithmetic."""
    count = 1 if extent <= pool else (extent - pool + stride - 1) // stride + 1
    while (count - 1) * stride >= extent:
        count -= 1
    return [i * stride for i in range(count)]


def max_pool_oracle(x, pool, stride):
    """Window maxima with partial edge windows kept."""
    x = np.asarray(x, dtype=np.float64)
    channels, height, width = x.shape
    starts_y = pool_starts_oracle(height, pool, stride)
    starts_x = pool_starts_oracle(width, pool, stride)
    out = np.zeros((channels, len(starts_y), len(starts_x)))
    for c in range(channels):
        for oy, sy in enumerate(starts_y):
            for ox, sx in enumerate(starts_x):
                out[c, oy, ox] = x[c, sy : min(sy + pool, height), sx : min(sx + pool, width)].max()
    return out


def pca_exact(X, k):
    """Top-k right singular vectors and variances via a full SVD."""
    X = np.asarray(X, dtype=np.float64)
    centered = X - X.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    return vt[:k], svals[:k] ** 2 / X.shape[0]


def principal_angles(A, B):
    """Largest principal angle (radians) between two row spaces."""
    qa = np.linalg.qr(np.asarray(A, dtype=np.float64).T)[0]
    qb = np.linalg.qr(np.asarray(B, dtype=np.float64).T)[0]
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(sv.min(), -1.0, 1.0)))


def svm_score_oracle(support_vectors, dual_coefs, bias, gamma, x):
    """Kernel expansion evaluated term by term in plain Python."""
    total = 0.0
    for vector, coef in zip(support_vectors, dual_coefs):
        sq = 0.0
        for a, b in zip(vector, np.asarray(x, dtype=np.float64)):
            sq += (a - b) ** 2
        total += coef * math.exp(-gamma * sq)
    return total + bias


def rbf_kernel(a, b, gamma):
    """exp(-gamma * squared euclidean distance) between two vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"expected equal-length vectors, got {a.shape} and {b.shape}")
    diff = a - b
    return float(np.exp(-gamma * (diff @ diff)))


def hflip(img):
    """Mirror the columns; applying it twice restores the input."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"hflip expects a 2-D image, got shape {img.shape}")
    return img[:, ::-1].copy()


def project_gemm(pca, x):
    """Centered rows times the transposed components in one GEMM, then
    whitening: the projection before it went row by row."""
    y = (np.asarray(x, dtype=np.float64) - pca.mean) @ pca.components.T
    if pca.whiten:
        y = y / np.sqrt(pca.component_variances + pca.epsilon)
    return y


def svm_scores_gemm(model, X):
    """Margins from one RBF Gram GEMM against the support vectors and a
    matrix-vector product: the scoring before it went row by row."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    sv = model.support_vectors
    sq = (X**2).sum(axis=1)[:, None] + (sv**2).sum(axis=1)[None, :] - 2.0 * (X @ sv.T)
    return np.exp(-model.gamma * np.maximum(sq, 0.0)) @ model.dual_coefs + model.bias


def smo_reference(K, y, params, collect_objectives=False, max_sweeps=10_000):
    """WSS2 SMO that rebuilds both candidate arrays from ``s`` every step.

    The package's solver keeps the candidate arrays alive across steps
    and fills fixed buffers; this loop recomputes everything with fresh
    numpy expressions, in the same floating-point order, so the two must
    agree bit for bit.  Returns ``(alphas, bias, sweeps, objectives)``.
    """
    y = np.asarray(y, dtype=np.float64)
    K = np.asarray(K, dtype=np.float64)
    C, tol, n = params.C, params.tol, len(y)
    alphas = np.zeros(n)
    s = y.copy()

    def candidates():
        s_up = np.where(np.where(y > 0, alphas < C, alphas > 0), s, -np.inf)
        s_low = np.where(np.where(y > 0, alphas > 0, alphas < C), s, np.inf)
        return s_up, s_low

    def dual_objective():
        ay = alphas * y
        return float(alphas.sum() - 0.5 * (ay @ (y - s)))

    objectives = []
    diagonal = np.diag(K)
    steps = 0
    while steps < max_sweeps * n:
        s_up, s_low = candidates()
        i = int(np.argmax(s_up))
        if s_up[i] - s_low.min() <= tol:
            break
        b = s_up[i] - s_low
        a = np.maximum(diagonal[i] + diagonal - 2.0 * K[i], 1e-12)
        j = int(np.argmax(np.where(b > 0.0, b * b / a, -np.inf)))
        room_i = C - alphas[i] if y[i] > 0 else alphas[i]
        room_j = alphas[j] if y[j] > 0 else C - alphas[j]
        t = min(b[j] / a[j], room_i, room_j)
        alphas[i] = (C if y[i] > 0 else 0.0) if t == room_i else alphas[i] + y[i] * t
        alphas[j] = (0.0 if y[j] > 0 else C) if t == room_j else alphas[j] - y[j] * t
        s -= t * (K[i] - K[j])
        steps += 1
        if collect_objectives and steps % n == 0:
            objectives.append(dual_objective())
    if collect_objectives:
        objectives.append(dual_objective())

    free = (alphas > 0.0) & (alphas < C)
    if free.any():
        bias = float(s[free].mean())
    else:
        s_up, s_low = candidates()
        bias = float((s_up.max() + s_low.min()) / 2.0)
    return alphas, bias, math.ceil(steps / n), objectives


def score_image(model, img):
    """Margin of one already-preprocessed image (or patch) of a trained
    pipeline, through its stages one row at a time."""
    row = extract_features(img, model.config.extractor, model.banks)
    return decision_score(model.classifier, project(model.pca, model.standardizer.apply(row)))


def averaged_score(score, img):
    """Mean of ``score(patch)`` over the ten crop/flip patches of ``img``."""
    return float(np.mean([score(patch) for patch in make_patches(img)]))


def preprocess_stepwise(img, config):
    """``preprocess_image`` through the public steps: ``crop`` copies the
    ROI, and ``clahe`` validates its input again."""
    out = np.asarray(img, dtype=np.float64)
    if config.scale < 1.0:
        out = resize_bilinear(out, config.scale)
    if config.roi:
        out = crop(out, extract_roi(out))
    if config.equalize:
        out = clahe(out, config.clahe_tiles, config.clahe_clip)
    if config.filter == "lowpass":
        out = lowpass(out)
    elif config.filter == "highpass":
        out = highpass(out)
    return out


def transform_runner_per_image(cfg, bundle, ctx):
    """The grid search's transform stage with one standardize and
    project call per test image; returns (train rows, test groups)."""
    standardizer, pca, train_Z = fit_transform(
        bundle.train, cfg, derive_seed(ctx.root_seed, "pca", ctx.split_index)
    )
    return train_Z, [project(pca, standardizer.apply(g)) for g in bundle.test_groups]


def classify_runner_per_image(cfg, bundle, ctx):
    """The grid search's classify stage with one ``decision_scores``
    call per test image; a zero mean margin counts as live."""
    model, _ = train_smo(bundle.train, bundle.train_y, cfg)
    predictions = np.empty(len(bundle.test_groups))
    for pos, group in enumerate(bundle.test_groups):
        score = float(decision_scores(model, group).mean())
        predictions[pos] = 1.0 if score >= 0.0 else -1.0
    return predictions
