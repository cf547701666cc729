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
from .imageproc import _clahe, _extract_roi, as_image, highpass, lowpass, resize_bilinear
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
    "extract_features",
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

    Raises ``ValueError`` for an image that is not a finite 2-D array in
    [0, 1]; that is the only validation the image gets.
    """
    out = as_image(img)
    if config.scale < 1.0:
        out = resize_bilinear(out, config.scale)
    if config.roi:
        out = out[_extract_roi(out).window]
        if not config.equalize and config.filter == "none":
            out = out.copy()  # no later step makes a new array
    if config.equalize:
        out = _clahe(out, config.clahe_tiles, config.clahe_clip)
    if config.filter == "lowpass":
        out = lowpass(out)
    elif config.filter == "highpass":
        out = highpass(out)
    return out


def extract_features(
    img: np.ndarray,
    extractor: LbpConfig | ConvNetConfig,
    banks: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Feature vector of a 2-D image, or one row per view of an (N, H, W)
    stack."""
    if isinstance(extractor, LbpConfig):
        return lbp_features(img, extractor)
    if isinstance(extractor, ConvNetConfig):
        return convnet_features(img, extractor, banks=banks)
    raise TypeError(f"unknown extractor config: {type(extractor).__name__}")


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


# A convnet view whose first-layer response takes more than this many
# bytes runs alone; smaller views run as one stack, or two on two cores.
_VIEW_GROUP_BYTES = 1 << 20


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


def image_features(img: np.ndarray, augmented: bool, extractor, banks) -> np.ndarray:
    """Feature matrix of one image, one row per view: the ten crop/flip
    patches when augmented, otherwise the image itself.  LBP counts the
    ten views from the image's one label map.  The convnet runs the
    patches as one stack, or, with two usable cores, as two contiguous
    halves: the first on the calling thread, the second on a helper
    thread.  A view whose first-layer output exceeds ``_VIEW_GROUP_BYTES``
    runs alone instead, one at a time on the calling thread.  Each row
    has the same bits as the view extracted alone, and an error is the
    one the first failing view raises alone."""
    img = np.asarray(img, dtype=np.float64)
    if augmented and isinstance(extractor, LbpConfig):
        return lbp_window_features(img, extractor, *aug.patch_windows(img.shape))
    if not isinstance(extractor, ConvNetConfig):
        return extract_features(img[None], extractor, banks)
    views = aug.make_patches(img) if augmented else img[None]
    if _first_layer_bytes(views.shape[1:], extractor) > _VIEW_GROUP_BYTES:
        return np.concatenate([extract_features(view[None], extractor, banks) for view in views])
    if len(views) == 1 or _usable_cores() == 1:
        return extract_features(views, extractor, banks)
    # One helper, not one per core: each thread's heap arena faulted its
    # pages in again for every image (hundreds of faults at 4 threads).
    half = (len(views) + 1) // 2
    return np.concatenate(
        _helper().pair(lambda part: extract_features(part, extractor, banks), views[:half], views[half:])
    )


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
    """``[compute(img) for img in images]``, memoized under ``tag`` and the
    image's id; an entry holds its image, so no id is reused meanwhile."""
    memo = _MEMO.get()
    if memo is None:
        return [compute(img) for img in images]
    out = []
    for img in images:
        key = (*tag, id(img))
        if key not in memo:
            memo[key] = (img, compute(img))
        out.append(memo[key][1])
    return out


def preprocess_images(images: list, config: PreprocessConfig) -> list[np.ndarray]:
    """``preprocess_image`` of every image."""
    return _per_image(("preprocess", repr(config)), images, lambda img: preprocess_image(img, config))


def feature_groups(images: list, augmented: bool, extractor, seed: int) -> np.ndarray:
    """Feature rows of the images from ``extractor`` realized with
    ``seed``, as one (images, views, features) array whose ``[i]`` is
    ``image_features`` of image ``i``; raises ``ValueError`` unless all
    rows have one length, as the convnet's do for equally sized inputs."""
    realized, banks = realize_extractor(extractor, seed)
    groups = _per_image(
        ("extract", repr(extractor), int(seed), bool(augmented)),
        images,
        lambda img: image_features(img, augmented, realized, banks),
    )
    lengths = {group.shape[1] for group in groups}
    if len(lengths) > 1:
        raise ValueError(f"feature lengths differ across images: {sorted(lengths)}")
    return np.stack(groups)


def fit_transform(X: np.ndarray, config: TransformConfig, seed: int):
    """Fit standardizer and PCA on training rows; returns
    (standardizer, pca, projected rows)."""
    standardizer = Standardizer.fit(X)
    Xs = standardizer.apply(X)
    k = resolve_components(config.pca_fraction, Xs.shape[1], Xs.shape[0])
    pca = fit_pca_randomized(Xs, k, seed=seed, whiten=config.whiten)
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
        comes out non-finite, so an unscorable input is never labelled."""
        pre = preprocess_image(img, self.config.preprocess)
        rows = image_features(pre, self.config.augmented, self.config.extractor, self.banks)
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

    All randomness (filter banks, PCA sketch) derives from
    ``config.seed``; inside a memo scope, rows a grid search made with
    that seed are reused.
    """
    labels = check_labels(images, labels)
    pre = preprocess_images(images, config.preprocess)
    groups = feature_groups(pre, config.augmented, config.extractor, config.seed)
    extractor, banks = realize_extractor(config.extractor, config.seed)
    config = replace(config, extractor=extractor)
    rows = groups.reshape(-1, groups.shape[2])
    standardizer, pca, Z = fit_transform(rows, config.transform, derive_seed(config.seed, "pca"))
    y = np.repeat(labels, groups.shape[1])
    classifier, _ = train_smo(Z, y, config.classifier)
    return TrainedPipeline(config, banks, standardizer, pca, classifier)
