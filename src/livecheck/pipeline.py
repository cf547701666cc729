"""End-to-end liveness pipeline: preprocess, extract, transform, classify.

Labels are +1 for a live finger and -1 for a spoof throughout the
package.  A trained pipeline carries everything needed to score a raw
image: the preprocessing recipe, the feature extractor (with realized
filter banks for the convnet), the fitted standardizer and PCA, and the
SVM expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import augment as aug
from .convnet import ConvNetConfig, convnet_features, init_banks
from .imageproc import _clahe, as_image, extract_roi, highpass, lowpass, resize_bilinear
from .lbp import LbpConfig, lbp_features
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
        out = out[extract_roi(out).window]
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


# Views go through an extractor in groups whose first-layer output (the
# LBP label map, or the first convnet layer's responses) stays under this
# many bytes; a view larger than that runs alone.
_VIEW_GROUP_BYTES = 1 << 20


def _first_layer_bytes(view_shape: tuple[int, int], extractor) -> int:
    height, width = view_shape
    if isinstance(extractor, ConvNetConfig):
        layer = extractor.layers[0]
        side = layer.filter_size - 1
        return 8 * layer.num_filters * max(1, height - side) * max(1, width - side)
    return 8 * max(1, height - 2) * max(1, width - 2)


def image_features(img: np.ndarray, augmented: bool, extractor, banks) -> np.ndarray:
    """Feature matrix of one image, one row per view: the ten crop/flip
    patches when augmented, otherwise the image itself.  The views go
    through the extractor as stacks whose first-layer output stays under
    1 MiB; each row has the same bits as the view extracted alone."""
    views = aug.make_patches(img) if augmented else np.asarray(img, dtype=np.float64)[None]
    group = max(1, _VIEW_GROUP_BYTES // _first_layer_bytes(views.shape[1:], extractor))
    return np.concatenate(
        [extract_features(views[i : i + group], extractor, banks) for i in range(0, len(views), group)]
    )


def check_feature_lengths(groups: list[np.ndarray]) -> list[np.ndarray]:
    """Return the per-image feature matrices after checking that every
    row has the same length, which for the convnet extractor means
    equally sized inputs."""
    lengths = {group.shape[1] for group in groups}
    if len(lengths) > 1:
        raise ValueError(f"feature lengths differ across images: {sorted(lengths)}")
    return groups


def feature_groups(images: list[np.ndarray], augmented: bool, extractor, banks) -> list[np.ndarray]:
    """One feature matrix per image (see ``image_features``), all with
    rows of one length."""
    return check_feature_lengths([image_features(img, augmented, extractor, banks) for img in images])


def fit_transform(X: np.ndarray, config: TransformConfig, seed: int):
    """Fit standardizer and PCA on training rows; returns
    (standardizer, pca, projected rows)."""
    standardizer = Standardizer.fit(X)
    Xs = standardizer.apply(X)
    k = resolve_components(config.pca_fraction, Xs.shape[1], Xs.shape[0])
    pca = fit_pca_randomized(Xs, k, seed=seed, whiten=config.whiten)
    return standardizer, pca, project(pca, Xs)


class TrainedPipeline:
    """A fully fitted pipeline ready to score raw [0, 1] images."""

    def __init__(
        self,
        config: PipelineConfig,
        banks: list[np.ndarray] | None,
        standardizer: Standardizer,
        pca: PcaModel,
        classifier: SvmModel,
    ):
        self.config = config
        self.banks = banks
        self.standardizer = standardizer
        self.pca = pca
        self.classifier = classifier

    def decision_score(self, img: np.ndarray) -> float:
        """Margin of a raw image; averages the ten patches when the
        pipeline was trained with augmentation.

        The views are extracted, standardized, projected and scored as
        one matrix.  Every stage gives a row the bits it would get alone,
        so the margin equals the mean of the views scored one at a time,
        bit for bit.  Raises ``ValueError`` for an image that is not a
        finite 2-D array in [0, 1], or whose margin comes out non-finite,
        so an unscorable input is never labelled.
        """
        pre = preprocess_image(img, self.config.preprocess)
        rows = image_features(pre, self.config.augmented, self.config.extractor, self.banks)
        z = project(self.pca, self.standardizer.apply(rows))
        score = float(decision_scores(self.classifier, z).mean())
        if not math.isfinite(score):
            raise ValueError(f"image cannot be scored: margin is {score}")
        return score

    def predict(self, img: np.ndarray) -> float:
        """Hard label: +1 live, -1 fake; a zero margin counts as live."""
        return LIVE_LABEL if self.decision_score(img) >= 0.0 else FAKE_LABEL


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
    ``config.seed``.
    """
    labels = check_labels(images, labels)
    extractor, banks = realize_extractor(config.extractor, config.seed)
    config = replace(config, extractor=extractor)
    pre = [preprocess_image(img, config.preprocess) for img in images]
    groups = feature_groups(pre, config.augmented, extractor, banks)
    standardizer, pca, Z = fit_transform(np.vstack(groups), config.transform, derive_seed(config.seed, "pca"))
    y = np.repeat(labels, [len(g) for g in groups])
    classifier, _ = train_smo(Z, y, config.classifier)
    return TrainedPipeline(config, banks, standardizer, pca, classifier)
