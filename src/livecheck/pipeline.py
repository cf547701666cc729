"""End-to-end liveness pipeline: preprocess, extract, transform, classify.

Labels are +1 for a live finger and -1 for a spoof throughout the
package.  A trained pipeline carries everything needed to score a raw
image: the preprocessing recipe, the feature extractor (with realized
filter banks for the convnet), the fitted standardizer and PCA, and the
SVM expansion.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import augment as aug
from .convnet import ConvNetConfig, convnet_features, init_banks
from .imageproc import _check_lowpass_input, _clahe, _extract_roi, _image_range, _lowpass, _row_blocks, resize_bilinear
from .lbp import LbpConfig, lbp_features, lbp_window_features
from .seeds import derive_seed
from .svm import SvmModel, SvmParams, decision_scores, train_smo
from .transform import PcaModel, Standardizer, fit_pca_randomized, project

__all__ = [
    "LIVE_LABEL",
    "FAKE_LABEL",
    "PreprocessConfig",
    "TransformConfig",
    "PipelineConfig",
    "preprocess_image",
    "resolve_components",
    "TrainedPipeline",
    "fit_pipeline",
]

LIVE_LABEL = 1.0
FAKE_LABEL = -1.0

FILTER_MODES = ("none", "lowpass", "highpass")


@dataclass(frozen=True)
class PreprocessConfig:
    """Geometry and photometry fixes applied before feature extraction.

    Order of application: downscale, crop to the fingerprint region,
    contrast equalization, frequency filtering.  The signed highpass
    residual, when selected, is the last step so every earlier stage
    sees intensities in [0, 1].
    """

    scale: float = 1.0
    filter: str = "none"
    roi: bool = False
    equalize: bool = False
    clahe_tiles: tuple[int, int] = (8, 8)
    clahe_clip: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must lie in (0, 1], got {self.scale}")
        if self.filter not in FILTER_MODES:
            raise ValueError(f"filter must be one of {FILTER_MODES}, got {self.filter!r}")
        tiles = (int(self.clahe_tiles[0]), int(self.clahe_tiles[1]))
        if tiles[0] < 1 or tiles[1] < 1:
            raise ValueError(f"clahe tile grid must be positive, got {self.clahe_tiles}")
        object.__setattr__(self, "clahe_tiles", tiles)
        if not self.clahe_clip > 0.0:
            raise ValueError(f"clahe clip must be positive, got {self.clahe_clip}")


@dataclass(frozen=True)
class TransformConfig:
    """PCA sizing: components as a fraction of the feature dimension."""

    pca_fraction: float = 0.2
    whiten: bool = True

    def __post_init__(self):
        if not 0.0 < self.pca_fraction <= 1.0:
            raise ValueError(f"pca_fraction must lie in (0, 1], got {self.pca_fraction}")


@dataclass(frozen=True)
class PipelineConfig:
    preprocess: PreprocessConfig
    extractor: LbpConfig | ConvNetConfig
    transform: TransformConfig
    classifier: SvmParams
    augmented: bool = False
    seed: int = 0


def preprocess_image(img: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """Apply ``config`` to a raw image.

    Raises ``ValueError`` for an image that is not a finite, real 2-D array
    in [0, 1], and for a flat one (every pixel the same intensity), which
    holds no texture to score; that is the only validation the image gets.
    This is ``preprocess_images`` of the one image.
    """
    return _filter_images([_prepare_image(img, config)], config.filter)[0]


def _prepare_image(img, config: PreprocessConfig) -> np.ndarray:
    """``preprocess_image`` up to its filter: validation, downscale, ROI crop
    and CLAHE, then the check that the filter fits the result, so that an
    image raises here whatever ``preprocess_image`` raises for it."""
    out, lo, hi = _image_range(img)
    if lo == hi:
        raise ValueError(f"image has no intensity variation: every pixel is {lo:g}")
    if config.scale < 1.0:
        out = resize_bilinear(out, config.scale)
    if config.roi:
        out = out[_extract_roi(out).window]
        if not config.equalize and config.filter == "none":
            out = out.copy()  # no later step makes a new array
    if config.equalize:
        out = _clahe(out, config.clahe_tiles, config.clahe_clip)
    if config.filter != "none":
        _check_lowpass_input(out)
    return out


def _filter_images(images: list, mode: str) -> list[np.ndarray]:
    """Each of the ``_prepare_image`` results after the ``mode`` filter.  The
    images of each shape, in order of first appearance, go to one ``_lowpass``
    call, which runs them as stacks; each gets the bits it gets alone."""
    if mode == "none":
        return images
    out = [None] * len(images)
    for indices in _shape_groups(images).values():
        for i, filtered in zip(indices, _lowpass([images[i] for i in indices], mode == "highpass")):
            out[i] = filtered
    return out


def _shape_groups(images: list) -> dict[tuple, list[int]]:
    """The indices of ``images`` by shape, shapes in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for index, img in enumerate(images):
        groups.setdefault(np.shape(img), []).append(index)
    return groups


def resolve_components(fraction: float, feature_dim: int, n_samples: int) -> int:
    """Number of PCA components: fraction of the feature dimension,
    clamped to what the sample count can support."""
    k = int(round(fraction * feature_dim))
    return max(1, min(k, n_samples - 1, feature_dim))


def realize_extractor(extractor, root_seed: int):
    """Fill in derived per-layer filter seeds for a convnet extractor and
    draw its filter banks; returns (extractor, banks), banks None for LBP."""
    if not isinstance(extractor, ConvNetConfig):
        return extractor, None
    layers = tuple(
        replace(layer, seed=derive_seed(root_seed, "filters", index))
        for index, layer in enumerate(extractor.layers)
    )
    extractor = ConvNetConfig(layers=layers)
    return extractor, init_banks(extractor)


# A convnet view whose first-layer response takes more than _VIEW_GROUP_BYTES
# runs alone.  Smaller views run in stacks whose first-layer responses take at
# most _STACK_BYTES together, one stack a thread at a time.  A 64x64 image's
# ten 47x47x16 maps take 2.8 MB, so its views stay one stack on one core and
# two halves on two; a 117x117 image's take 1.0 MB each.
_VIEW_GROUP_BYTES = 1 << 20
_STACK_BYTES = 3 << 20


def _first_layer_bytes(view_shape: tuple[int, int], extractor: ConvNetConfig) -> int:
    height, width = view_shape
    layer = extractor.layers[0]
    side = layer.filter_size - 1
    return 8 * layer.num_filters * max(1, height - side) * max(1, width - side)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Helper:
    """One daemon thread that runs half of a call beside the calling
    thread.  Started on first use and dropped in a forked child, whose
    copy has no thread behind it."""

    def __init__(self):
        import queue

        self._reply_queue = queue.SimpleQueue
        self._jobs = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="livecheck-helper", daemon=True).start()

    def pair(self, fn, first, second) -> tuple:
        """``(fn(first), fn(second))``, the second on the helper thread.
        Waits for both, and raises ``fn(first)``'s error before
        ``fn(second)``'s, as the two calls in turn would."""
        reply = self._reply_queue()
        self._jobs.put((fn, second, reply))
        try:
            one = fn(first)
        finally:
            failed, other = reply.get()
        if failed:
            raise other
        return one, other

    def _serve(self) -> None:
        while True:
            self._run(*self._jobs.get())

    @staticmethod
    def _run(fn, arg, reply) -> None:
        """One job; its references, and an error's frames, go on return."""
        try:
            reply.put((False, fn(arg)))
        except BaseException as exc:  # re-raised on the calling thread
            reply.put((True, exc))


_HELPER: _Helper | None = None
_HELPER_LOCK = threading.Lock()


def _helper() -> _Helper:
    global _HELPER
    with _HELPER_LOCK:
        if _HELPER is None:
            _HELPER = _Helper()
        return _HELPER


def _drop_helper() -> None:
    """In a forked child: forget the parent's helper and its lock."""
    global _HELPER, _HELPER_LOCK
    _HELPER, _HELPER_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("livecheck_memo", default=None)


@contextlib.contextmanager
def _memo_scope(enabled: bool = True):
    """Within the block, ``preprocess_images`` and ``feature_groups`` keep
    each image's result until the outermost scope closes; an inner scope
    joins it, and ``enabled=False`` turns the memo off."""
    memo = _MEMO.get()
    token = _MEMO.set(({} if memo is None else memo) if enabled else None)
    try:
        yield
    finally:
        _MEMO.reset(token)


def _per_image(tag: tuple, images: list, compute) -> list:
    """One result an image from ``compute``, which maps a list of images to
    the list of their results, memoized under ``tag`` and the image's id.
    The call's misses, each object once, go to one ``compute``, which is
    not called when every image hits; an entry holds its image, so no id
    is reused meanwhile."""
    memo = _MEMO.get()
    if memo is None:
        return compute(images)
    missing = {id(img): img for img in images if (*tag, id(img)) not in memo}
    if missing:
        for img, result in zip(missing.values(), compute(list(missing.values())), strict=True):
            memo[(*tag, id(img))] = (img, result)
    return [memo[(*tag, id(img))][1] for img in images]


def preprocess_images(images: list, config: PreprocessConfig) -> list[np.ndarray]:
    """``preprocess_image`` of every image, with its bits.  The memo's misses
    run ``_prepare_image`` one at a time, in order, so the first failing image
    raises the error it raises alone; ``_filter_images`` then filters them
    together, same-shape images as stacks."""
    return _per_image(
        ("preprocess", repr(config)),
        images,
        lambda batch: _filter_images([_prepare_image(img, config) for img in batch], config.filter),
    )


def _image_rows(images: list, augmented: bool, extractor, banks) -> list[np.ndarray]:
    """Feature matrix of each preprocessed image, one row per view: the ten
    crop/flip patches when augmented, otherwise the image itself.  Each
    row has the bits its view gets extracted alone, and an error is the
    one the first failing image, and within it the first failing view,
    raises alone.

    LBP counts the images of each shape, in order of first appearance, as
    stacks of at most ``_BLOCK_BYTES`` of pixels, one ``lbp_window_features``
    call a stack when augmented and one ``lbp_features`` call otherwise;
    an image alone in its stack goes as a view of itself.  LBP's errors
    follow the shape, so the first is the first failing image's.

    The convnet runs one image at a time.  It splits the views evenly into
    the fewest contiguous stacks whose first-layer outputs take at most
    ``_STACK_BYTES`` each, and into two at least with two usable cores.  It
    runs them in order, one at a time on the calling thread, or with two
    usable cores in pairs, the first of a pair on the calling thread and
    the second on a helper thread.  A view whose first-layer output exceeds
    ``_VIEW_GROUP_BYTES`` runs alone instead, one at a time on the calling
    thread."""
    if isinstance(extractor, LbpConfig):
        out = [None] * len(images)
        for shape, indices in _shape_groups(images).items():
            windows = aug.patch_windows(shape) if augmented else None
            for a, b in _row_blocks(len(indices), 8 * math.prod(shape))[1]:
                batch = [images[i] for i in indices[a:b]]
                stack = np.stack(batch) if len(batch) > 1 else np.asarray(batch[0])[None]
                if augmented:
                    rows = lbp_window_features(stack, extractor, *windows)
                else:
                    rows = lbp_features(stack, extractor)[:, None]
                for i, image_rows in zip(indices[a:b], rows):
                    out[i] = image_rows
        return out
    if not isinstance(extractor, ConvNetConfig):
        raise TypeError(f"unknown extractor config: {type(extractor).__name__}")

    def run(stack):
        return convnet_features(stack, extractor, banks)

    out = []
    for img in images:
        img = np.asarray(img, dtype=np.float64)
        views = aug.make_patches(img) if augmented else img[None]
        size = _first_layer_bytes(views.shape[1:], extractor)
        alone = size > _VIEW_GROUP_BYTES
        threads = 1 if alone or len(views) == 1 or _usable_cores() == 1 else 2
        count = len(views) if alone else max(threads, -(-len(views) // max(1, _STACK_BYTES // size)))
        edges = [k * len(views) // count for k in range(count + 1)]
        stacks = [views[a:b] for a, b in zip(edges, edges[1:])]
        if threads == 1:
            rows = [run(stack) for stack in stacks]
        else:
            # One helper, not one per core: each thread's heap arena faulted
            # its pages in again for every image (hundreds of faults at 4 threads).
            rows = []
            for i in range(0, count, 2):
                rows += _helper().pair(run, *stacks[i : i + 2]) if i + 1 < count else [run(stacks[i])]
        out.append(rows[0] if count == 1 else np.concatenate(rows))
    return out


def feature_groups(
    images: list, augmented: bool, extractor, seed: int, realized: tuple | None = None
) -> np.ndarray:
    """Feature rows of the images from ``extractor`` realized with
    ``seed``, as one (images, views, features) array whose ``[i]`` is
    image ``i``'s rows from ``_image_rows``; raises ``ValueError`` unless
    all rows have one length, as the convnet's do for equally sized
    inputs.  The memo's misses go to ``_image_rows`` together, each image
    once.  ``realized`` is ``realize_extractor(extractor, seed)`` when the
    caller has drawn it already; otherwise a convnet's banks are drawn
    only when some image misses."""
    groups = _per_image(
        ("extract", repr(extractor), int(seed), bool(augmented)),
        images,
        lambda batch: _image_rows(batch, augmented, *(realized or realize_extractor(extractor, seed))),
    )
    lengths = {group.shape[1] for group in groups}
    if len(lengths) > 1:
        raise ValueError(f"feature lengths differ across images: {sorted(lengths)}")
    return np.stack(groups)


def fit_transform(X: np.ndarray, config: TransformConfig):
    """Fit standardizer and PCA on training rows; returns
    (standardizer, pca, projected rows)."""
    standardizer = Standardizer.fit(X)
    Xs = standardizer.apply(X)
    k = resolve_components(config.pca_fraction, Xs.shape[1], Xs.shape[0])
    pca = fit_pca_randomized(Xs, k, whiten=config.whiten)
    return standardizer, pca, project(pca, Xs)


def group_margins(classifier: SvmModel, groups: np.ndarray) -> np.ndarray:
    """Each image's mean margin over its views, from one
    ``decision_scores`` call on an (images, views, features) array.  This
    and ``project`` serve a deployed model and a grid search's test fold
    alike; each gives a row the bits it would get alone, so an image's
    margin is the same scored alone or within a fold, and equals the mean
    of its views scored one at a time."""
    scores = decision_scores(classifier, groups.reshape(-1, groups.shape[2]))
    return scores.reshape(groups.shape[:2]).mean(axis=1)


def margin_labels(margins) -> np.ndarray:
    """+1 (live) where a margin is at least 0, else -1 (fake)."""
    return np.where(margins >= 0.0, LIVE_LABEL, FAKE_LABEL)


@dataclass(eq=False)
class TrainedPipeline:
    """A fully fitted pipeline ready to score raw [0, 1] images."""

    config: PipelineConfig
    banks: list[np.ndarray] | None
    standardizer: Standardizer
    pca: PcaModel
    classifier: SvmModel

    def decision_score(self, img: np.ndarray) -> float:
        """Margin of a raw image; averages the ten patches when the
        pipeline was trained with augmentation.  Raises ``ValueError`` for
        an image that is not a finite 2-D array in [0, 1], or whose margin
        comes out non-finite, so an unscorable input is never labelled.
        The rows come from ``_image_rows`` of the one preprocessed image,
        as a grid search's folds and ``fit_pipeline``'s do."""
        pre = preprocess_image(img, self.config.preprocess)
        rows = _image_rows([pre], self.config.augmented, self.config.extractor, self.banks)[0]
        score = float(group_margins(self.classifier, project(self.pca, self.standardizer.apply(rows[None])))[0])
        if not math.isfinite(score):
            raise ValueError(f"image cannot be scored: margin is {score}")
        return score

    def predict(self, img: np.ndarray) -> float:
        """Hard label of ``margin_labels``: +1 live, -1 fake."""
        return float(margin_labels(self.decision_score(img)))


def check_labels(images: list, labels) -> np.ndarray:
    """Return ``labels`` as floats after checking that there is one per
    image and that each is +1 (live) or -1 (fake)."""
    labels = np.asarray(labels, dtype=np.float64)
    if len(images) != len(labels):
        raise ValueError(f"got {len(images)} images but {len(labels)} labels")
    if not np.all(np.isin(labels, (LIVE_LABEL, FAKE_LABEL))):
        raise ValueError("labels must be +1 (live) or -1 (fake)")
    return labels


def fit_pipeline(images: list[np.ndarray], labels: np.ndarray, config: PipelineConfig) -> TrainedPipeline:
    """Train the full pipeline on raw labeled images.

    The one random draw, a convnet's filter banks, derives from
    ``config.seed``; inside a memo scope, rows a grid search made with
    that seed are reused.  The model also depends on the order of the
    images: SMO stops at a KKT gap of 1e-3 and its working-set argmax
    takes the first maximal row, so permuting the training images has
    moved held-out margins by up to 1.2e-3 (LBP, six seeds).
    ``tests/test_metamorphic.py::test_permuting_training_images_keeps_margins``
    bounds that move, and the margins' signs, on its own sets.
    """
    labels = check_labels(images, labels)
    pre = preprocess_images(images, config.preprocess)
    extractor, banks = realize_extractor(config.extractor, config.seed)
    groups = feature_groups(pre, config.augmented, config.extractor, config.seed, (extractor, banks))
    config = replace(config, extractor=extractor)
    rows = groups.reshape(-1, groups.shape[2])
    standardizer, pca, Z = fit_transform(rows, config.transform)
    y = np.repeat(labels, groups.shape[1])
    classifier, _ = train_smo(Z, y, config.classifier)
    return TrainedPipeline(config, banks, standardizer, pca, classifier)
