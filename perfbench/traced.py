"""livecheck's scoring, grid-search and training paths, rebuilt from its
public functions with a span around each layer call.

Each function here mirrors one library path step by step, so its output
is bit-identical to the library's own; the benchmark checks that on
every run.  Span names are the per-layer metric names without ``_ms``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from livecheck import (
    FAKE_LABEL,
    LIVE_LABEL,
    ConvNetConfig,
    LbpConfig,
    Standardizer,
    TrainedPipeline,
    augment_training,
    clahe,
    conv_forward,
    crop,
    decision_score,
    decision_scores,
    derive_seed,
    extract_roi,
    fit_pca_randomized,
    highpass,
    ingest,
    lbp_features,
    lcn,
    lowpass,
    make_patches,
    max_pool,
    project,
    relu,
    train_smo,
)
from livecheck.modelsel import (
    STAGE_CLASSIFY,
    STAGE_EXTRACT,
    STAGE_PREPROCESS,
    STAGE_TRANSFORM,
)
from livecheck.pipeline import resolve_components


def preprocess(img: np.ndarray, config, tracer) -> np.ndarray:
    """``preprocess_image`` with one span per step."""
    if config.scale != 1.0:
        raise ValueError("the traced preprocessing covers scale 1 only")
    out = np.asarray(img, dtype=np.float64)
    if config.roi:
        with tracer.span("imageproc.roi"):
            out = crop(out, extract_roi(out))
    if config.equalize:
        with tracer.span("imageproc.clahe"):
            out = clahe(out, config.clahe_tiles, config.clahe_clip)
    if config.filter == "lowpass":
        with tracer.span("imageproc.filter"):
            out = lowpass(out)
    elif config.filter == "highpass":
        with tracer.span("imageproc.filter"):
            out = highpass(out)
    return out


def patches(img: np.ndarray, tracer) -> list[np.ndarray]:
    with tracer.span("augment.patch"):
        out = make_patches(img)
    tracer.count("augment.patches", len(out))
    return out


def features(img: np.ndarray, extractor, banks, tracer) -> np.ndarray:
    """``extract_features``; the convnet runs layer by layer."""
    if isinstance(extractor, LbpConfig):
        tracer.count("lbp.calls")
        with tracer.span("lbp.features"):
            return lbp_features(img, extractor)
    if not isinstance(extractor, ConvNetConfig):
        raise TypeError(f"unknown extractor config: {type(extractor).__name__}")
    tracer.count("convnet.calls")
    x = np.asarray(img, dtype=np.float64)[None]
    for number, (layer, bank) in enumerate(zip(extractor.layers, banks), start=1):
        prefix = f"convnet.l{number}"
        with tracer.span(f"{prefix}.conv"):
            x = conv_forward(x, bank)
        with tracer.span(f"{prefix}.relu"):
            x = relu(x)
        if layer.lcn_window > 1:
            with tracer.span(f"{prefix}.lcn"):
                x = lcn(x, layer.lcn_window)
        with tracer.span(f"{prefix}.pool"):
            x = max_pool(x, layer.pool_size, layer.stride)
    return x.reshape(-1).copy()


def score_image(model: TrainedPipeline, img: np.ndarray, tracer) -> float:
    """``TrainedPipeline.score_image``."""
    row = features(img, model.config.extractor, model.banks, tracer)
    with tracer.span("transform.standardize"):
        row = model.standardizer.apply(row)
    with tracer.span("transform.project"):
        z = project(model.pca, row)
    tracer.count("svm.score_calls")
    tracer.count("svm.score_rows")
    with tracer.span("svm.score"):
        return decision_score(model.classifier, z)


def scan(model: TrainedPipeline, data: bytes, tracer) -> float:
    """``ingest`` then ``TrainedPipeline.decision_score``."""
    with tracer.span("imageproc.ingest"):
        img = ingest(data)
    pre = preprocess(img, model.config.preprocess, tracer)
    if model.config.augmented:
        scores = [score_image(model, p, tracer) for p in patches(pre, tracer)]
        return float(np.mean(scores))
    return score_image(model, pre, tracer)


# ---------------------------------------------------------------------------
# Training: grid-search stage runners and the final fit


def _lbp_only(extractor) -> LbpConfig:
    # Convnet filter seeds are derived inside the library; the benchmark
    # trains only LBP models through the traced path.
    if not isinstance(extractor, LbpConfig):
        raise ValueError("the traced training path covers LBP extractors only")
    return extractor


def _smo(Z, y, params, seed, tracer):
    with tracer.span("svm.smo"):
        model, _ = train_smo(Z, y, params, seed=seed)
    return model


def runners(tracer) -> dict:
    """Grid-search stage runners equal to ``modelsel.default_runners``."""

    def run_preprocess(cfg, upstream, ctx):
        return [preprocess(img, cfg, tracer) for img in ctx.images]

    def run_extract(cfg, pre_images, ctx):
        extractor = _lbp_only(cfg)

        def views(index: int) -> list[np.ndarray]:
            img = pre_images[index]
            return patches(img, tracer) if ctx.augmented else [img]

        train_rows, train_y = [], []
        for i in ctx.train_idx:
            for view in views(int(i)):
                train_rows.append(features(view, extractor, None, tracer))
                train_y.append(ctx.labels[int(i)])
        test_groups = [
            np.vstack([features(view, extractor, None, tracer) for view in views(int(i))])
            for i in ctx.test_idx
        ]
        return np.vstack(train_rows), np.asarray(train_y, dtype=np.float64), test_groups

    def run_transform(cfg, bundle, ctx):
        train_X, train_y, test_groups = bundle
        with tracer.span("transform.standardize"):
            standardizer = Standardizer.fit(train_X)
            Xs = standardizer.apply(train_X)
        k = resolve_components(cfg.pca_fraction, Xs.shape[1], Xs.shape[0])
        with tracer.span("transform.pca_fit"):
            pca = fit_pca_randomized(
                Xs, k, seed=derive_seed(ctx.root_seed, "pca", ctx.split_index), whiten=cfg.whiten
            )
        with tracer.span("transform.project"):
            train_Z = project(pca, Xs)
        projected = []
        for group in test_groups:
            with tracer.span("transform.standardize"):
                group = standardizer.apply(group)
            with tracer.span("transform.project"):
                projected.append(project(pca, group))
        return train_Z, train_y, projected

    def run_classify(cfg, bundle, ctx):
        train_Z, train_y, test_groups = bundle
        model = _smo(train_Z, train_y, cfg, derive_seed(ctx.root_seed, "smo", ctx.split_index), tracer)
        predictions = np.empty(len(test_groups))
        for pos, group in enumerate(test_groups):
            tracer.count("svm.score_calls")
            tracer.count("svm.score_rows", len(group))
            with tracer.span("svm.score"):
                score = float(decision_scores(model, group).mean())
            predictions[pos] = LIVE_LABEL if score >= 0.0 else FAKE_LABEL
        return predictions

    return {
        STAGE_PREPROCESS: run_preprocess,
        STAGE_EXTRACT: run_extract,
        STAGE_TRANSFORM: run_transform,
        STAGE_CLASSIFY: run_classify,
    }


def fit(images: list[np.ndarray], labels: np.ndarray, config, tracer):
    """``fit_pipeline``; also returns the SVM's training matrix and labels."""
    labels = np.asarray(labels, dtype=np.float64)
    extractor = _lbp_only(config.extractor)
    config = replace(config, extractor=extractor)
    pre = [preprocess(img, config.preprocess, tracer) for img in images]
    if config.augmented:
        with tracer.span("augment.patch"):
            pre, labels = augment_training(pre, labels)
        tracer.count("augment.patches", len(pre))
    X = np.vstack([features(img, extractor, None, tracer) for img in pre])
    with tracer.span("transform.standardize"):
        standardizer = Standardizer.fit(X)
        Xs = standardizer.apply(X)
    k = resolve_components(config.transform.pca_fraction, X.shape[1], X.shape[0])
    with tracer.span("transform.pca_fit"):
        pca = fit_pca_randomized(
            Xs, k, seed=derive_seed(config.seed, "pca"), whiten=config.transform.whiten
        )
    with tracer.span("transform.project"):
        Z = project(pca, Xs)
    classifier = _smo(Z, labels, config.classifier, derive_seed(config.seed, "smo"), tracer)
    return TrainedPipeline(config, None, standardizer, pca, classifier), Z, labels
