"""Acceptance gate: one test per release criterion, in order.

Each test prints a single verdict line with the measured value and its
bound, so a verbose run doubles as the acceptance report.  Tolerances
and budgets are fixed here on purpose; loosen nothing without a reason
recorded next to the number.
"""

import re
import time

import numpy as np
import pytest

from livecheck.augment import augment_training, make_patches
from livecheck.cli import main
from livecheck.convnet import (
    ConvLayerConfig,
    ConvNetConfig,
    conv_forward,
    convnet_features,
    init_banks,
    init_filters,
    lcn,
    max_pool,
    relu,
)
from livecheck.lbp import LbpConfig, lbp_features, lbp_map, uniform_label
from livecheck.model_io import save_model
from livecheck.modelsel import (
    STAGE_CLASSIFY,
    STAGE_EXTRACT,
    STAGE_PREPROCESS,
    STAGE_TRANSFORM,
    GridSpec,
    GridStage,
    ace,
    grid_search,
)
from livecheck.pipeline import (
    PipelineConfig,
    PreprocessConfig,
    TransformConfig,
    fit_pipeline,
)
from livecheck.svm import SvmParams, decision_score, decision_scores, train_smo
from livecheck.synthdata import make_texture_dataset, write_dataset_tree
from livecheck.transform import fit_pca_randomized, project

import oracles


def _verdict(ok: bool, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Desk-scale benchmark pipelines, shared by the benchmark and latency tests.
# Hyperparameters were tuned once on the synthetic generator and frozen.

LBP_BENCH = PipelineConfig(
    preprocess=PreprocessConfig(),
    extractor=LbpConfig(variant="uniform", blocks=(2, 2)),
    transform=TransformConfig(pca_fraction=0.5),
    classifier=SvmParams(C=10.0, gamma=0.05),
    seed=101,
)
NET_BENCH = PipelineConfig(
    preprocess=PreprocessConfig(),
    extractor=ConvNetConfig(
        layers=(
            ConvLayerConfig(num_filters=16, filter_size=5, pool_size=3, lcn_window=9),
            ConvLayerConfig(num_filters=32, filter_size=5, pool_size=3, lcn_window=9),
        )
    ),
    transform=TransformConfig(pca_fraction=0.02),
    classifier=SvmParams(C=10.0, gamma=0.02),
    seed=101,
)
AUG_BENCH = PipelineConfig(
    preprocess=LBP_BENCH.preprocess,
    extractor=LBP_BENCH.extractor,
    transform=LBP_BENCH.transform,
    classifier=LBP_BENCH.classifier,
    augmented=True,
    seed=101,
)


@pytest.fixture(scope="module")
def benchmark_data():
    """400 synthetic 64x64 images: 100+100 train, 100+100 test."""
    images, labels = make_texture_dataset(200, size=64, seed=29)
    train_idx = list(range(0, 100)) + list(range(200, 300))
    test_idx = list(range(100, 200)) + list(range(300, 400))
    return (
        [images[i] for i in train_idx],
        labels[train_idx],
        [images[i] for i in test_idx],
        labels[test_idx],
    )


@pytest.fixture(scope="module")
def benchmark_models(benchmark_data):
    train_images, train_labels, _, _ = benchmark_data
    started = time.perf_counter()
    models = {
        "lbp": fit_pipeline(train_images, train_labels, LBP_BENCH),
        "convnet": fit_pipeline(train_images, train_labels, NET_BENCH),
        "lbp_aug": fit_pipeline(train_images, train_labels, AUG_BENCH),
    }
    return models, time.perf_counter() - started


def test_01_lbp_matches_oracles_exactly():
    rng = np.random.default_rng(7001)
    started = time.perf_counter()
    feature_grids = [
        LbpConfig(variant="uniform", blocks=(1, 1)),
        LbpConfig(variant="uniform", blocks=(2, 2)),
        LbpConfig(variant="original", blocks=(1, 1)),
        LbpConfig(variant="original", blocks=(2, 2)),
    ]
    for _ in range(200):
        img = rng.random((16, 16))
        codes = lbp_map(img)
        for row in range(1, 15):
            for col in range(1, 15):
                assert codes[row - 1, col - 1] == oracles.lbp_code_oracle(img, row, col)
        for config in feature_grids:
            expected = oracles.lbp_histogram_oracle(img, config.variant, config.blocks)
            np.testing.assert_array_equal(lbp_features(img, config), expected)

    labels = [uniform_label(code) for code in range(256)]
    assert labels == [oracles.uniform_label_oracle(code) for code in range(256)]
    uniform_codes = sum(1 for label in labels if label != 9)
    label_values = sorted(set(labels))
    elapsed = time.perf_counter() - started
    ok = uniform_codes == 58 and label_values == list(range(10)) and elapsed < 5.0
    _verdict(ok, "LBP oracle equivalence",
             f"200 images exact, {uniform_codes} uniform codes, "
             f"{len(label_values)} labels, {elapsed:.1f}s < 5s")


def test_02_convnet_stages_match_oracles():
    rng = np.random.default_rng(7002)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        channels = int(rng.integers(1, 5))
        height = int(rng.integers(5, 13))
        width = int(rng.integers(5, 13))
        x = rng.standard_normal((channels, height, width))

        size = int(rng.choice([1, 3, 5]))
        filters = int(rng.integers(1, 5))
        bank = rng.standard_normal((filters, channels, size, size))
        got = conv_forward(x, bank)
        want = oracles.conv_valid_oracle(x, bank)
        worst = max(worst, float(np.abs(got - want).max()))

        pool = int(rng.integers(2, 4))
        stride = int(rng.integers(1, 4))
        got = max_pool(x, pool, stride)
        want = oracles.max_pool_oracle(x, pool, stride)
        worst = max(worst, float(np.abs(got - want).max()))

        window = int(rng.choice([3, 5]))
        got = lcn(x, window)
        want = oracles.lcn_oracle(x, window)
        worst = max(worst, float(np.abs(got - want).max()))

    flat = lcn(np.full((3, 8, 8), 0.37), 5)
    constant_residual = float(np.abs(flat).max())

    probe = np.random.default_rng(7003).standard_normal((2, 6, 6))
    idempotent = np.array_equal(relu(relu(probe)), relu(probe))

    config = ConvNetConfig(
        layers=(
            ConvLayerConfig(num_filters=3, filter_size=3, pool_size=2, lcn_window=5, seed=11),
            ConvLayerConfig(num_filters=4, filter_size=3, pool_size=2, lcn_window=3, seed=12),
        )
    )
    img = np.random.default_rng(7004).random((20, 20))
    banks = init_banks(config)
    x = img[np.newaxis]
    for layer, bank in zip(config.layers, banks):
        x = max_pool(lcn(relu(conv_forward(x, bank)), layer.lcn_window),
                     layer.pool_size, layer.stride)
    composed = np.array_equal(convnet_features(img, config, banks), x.ravel())

    elapsed = time.perf_counter() - started
    ok = (worst <= 1e-10 and constant_residual <= 1e-10 and idempotent
          and composed and elapsed < 30.0)
    _verdict(ok, "convnet stage oracles",
             f"50 tensors, worst |err| {worst:.2e} <= 1e-10, constant LCN "
             f"{constant_residual:.1e}, relu idempotent {idempotent}, "
             f"composition exact {composed}, {elapsed:.1f}s < 30s")


def _gapped_matrix(rng, n=50, d=20, k=5):
    basis_left = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :d]
    basis_right = np.linalg.qr(rng.standard_normal((d, d)))[0]
    scales = np.concatenate([np.linspace(10.0, 5.0, k), np.full(d - k, 0.05)])
    return (basis_left * scales) @ basis_right.T


def test_03_pca_subspace_and_whitening():
    rng = np.random.default_rng(7005)
    started = time.perf_counter()
    k = 5
    worst_angle = 0.0
    worst_unit = 0.0
    for trial in range(20):
        X = _gapped_matrix(rng)
        model = fit_pca_randomized(X, k, seed=900 + trial, whiten=True)
        exact_vt, _ = oracles.pca_exact(X, k)
        worst_angle = max(worst_angle, oracles.principal_angles(model.components, exact_vt))
        variances = project(model, X).var(axis=0)
        worst_unit = max(worst_unit, float(np.abs(variances - 1.0).max()))
    elapsed = time.perf_counter() - started
    ok = worst_angle < 1e-6 and worst_unit < 1e-4 and elapsed < 10.0
    _verdict(ok, "randomized PCA and whitening",
             f"20 matrices, worst angle {worst_angle:.2e} < 1e-6, "
             f"worst |var-1| {worst_unit:.2e} < 1e-4, {elapsed:.1f}s < 10s")


def _kkt_slack(X, y, model, params):
    """Largest violation of the margin conditions over training points."""
    scores = decision_scores(model, X)
    margins = y * scores
    by_vector = {tuple(v): c for v, c in zip(model.support_vectors, model.dual_coefs)}
    worst = 0.0
    for xi, yi, margin in zip(X, y, margins):
        alpha = abs(by_vector.get(tuple(xi), 0.0))
        if alpha <= 1e-12:
            worst = max(worst, 1.0 - margin)  # must satisfy margin >= 1
        elif alpha >= params.C - 1e-9:
            worst = max(worst, margin - 1.0)  # must satisfy margin <= 1
        else:
            worst = max(worst, abs(margin - 1.0))
    return worst


def test_04_svm_training_and_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(7006)

    xor_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    xor_y = np.array([1.0, 1.0, -1.0, -1.0])
    xor_params = SvmParams(C=10.0, gamma=1.0)
    xor_model, _ = train_smo(xor_X, xor_y, xor_params, seed=1)
    xor_acc = float(np.mean(np.sign(decision_scores(xor_model, xor_X)) == xor_y))
    xor_kkt = _kkt_slack(xor_X, xor_y, xor_model, xor_params)

    blob_X = np.vstack([
        rng.normal((-1.5, 0.0), 0.4, (20, 2)),
        rng.normal((1.5, 0.0), 0.4, (20, 2)),
    ])
    blob_y = np.concatenate([np.ones(20), -np.ones(20)])
    blob_params = SvmParams(C=1.0, gamma=0.5)
    blob_model, _ = train_smo(blob_X, blob_y, blob_params, seed=2)
    blob_acc = float(np.mean(np.sign(decision_scores(blob_model, blob_X)) == blob_y))
    blob_kkt = _kkt_slack(blob_X, blob_y, blob_model, blob_params)

    worst_score = 0.0
    for _ in range(20):
        probe = rng.normal(0.0, 1.5, 2)
        want = oracles.svm_score_oracle(
            blob_model.support_vectors, blob_model.dual_coefs,
            blob_model.bias, blob_model.gamma, probe,
        )
        worst_score = max(worst_score, abs(decision_score(blob_model, probe) - want))

    elapsed = time.perf_counter() - started
    kkt_bound = 10.0 * xor_params.tol
    ok = (xor_acc == 1.0 and blob_acc == 1.0
          and xor_kkt <= kkt_bound and blob_kkt <= kkt_bound
          and worst_score <= 1e-9 and elapsed < 10.0)
    _verdict(ok, "SMO-trained RBF SVM",
             f"XOR/blob accuracy {xor_acc:.0%}/{blob_acc:.0%}, KKT slack "
             f"{max(xor_kkt, blob_kkt):.2e} <= {kkt_bound:.0e}, score oracle "
             f"{worst_score:.2e} <= 1e-9, {elapsed:.1f}s < 10s")


def test_05_augmentation_layout():
    rng = np.random.default_rng(7007)
    img = rng.random((100, 100))
    patches = make_patches(img)
    origins = [(0, 0), (0, 20), (20, 0), (20, 20), (10, 10)]
    layout_ok = len(patches) == 10
    for k, (oy, ox) in enumerate(origins):
        crop_exact = np.array_equal(patches[2 * k], img[oy : oy + 80, ox : ox + 80])
        flip_exact = np.array_equal(patches[2 * k + 1], oracles.hflip(patches[2 * k]))
        layout_ok = layout_ok and crop_exact and flip_exact

    involution = np.array_equal(oracles.hflip(oracles.hflip(img)), img)

    few = [rng.random((40, 50)) for _ in range(3)]
    expanded, labels = augment_training(few, np.array([1.0, -1.0, 1.0]))
    expansion = len(expanded) == 30 and np.array_equal(labels, np.repeat([1.0, -1.0, 1.0], 10))

    class _MeanScorer:
        def score_image(self, patch):
            return float(patch.mean() - patch.std())

    scorer = _MeanScorer()
    want = np.mean([scorer.score_image(p) for p in make_patches(img)])
    averaging = oracles.averaged_score(scorer.score_image, img) == want

    ok = layout_ok and involution and expansion and averaging
    _verdict(ok, "crop/flip augmentation",
             f"10 patches at corner/center origins {origins}, flip involution "
             f"{involution}, 10n expansion {expansion}, score averaging exact {averaging}")


def test_06_ace_arithmetic():
    truth = np.array([1.0, 1.0, -1.0, -1.0])
    perfect = ace(truth.copy(), truth).ace
    inverted = ace(-truth, truth).ace
    mixed_truth = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
    mixed_preds = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    half_fake = ace(mixed_preds, mixed_truth)
    ok = (perfect == 0.0 and inverted == 1.0
          and half_fake.fpr == 0.0 and half_fake.fnr == 0.5 and half_fake.ace == 0.25)
    _verdict(ok, "ACE arithmetic",
             f"perfect={perfect}, inverted={inverted}, half-fake={half_fake.ace} (exact)")


def test_07_grid_search_caching():
    images, labels = make_texture_dataset(6, size=16, seed=41)
    train = np.array([0, 1, 2, 6, 7, 8])
    test = np.array([3, 4, 5, 9, 10, 11])
    grid = GridSpec(
        stages=(
            GridStage(STAGE_PREPROCESS, (PreprocessConfig(),)),
            GridStage(STAGE_EXTRACT, (
                LbpConfig(variant="uniform", blocks=(1, 1)),
                LbpConfig(variant="uniform", blocks=(2, 2)),
                LbpConfig(variant="original", blocks=(1, 1)),
            )),
            GridStage(STAGE_TRANSFORM, (TransformConfig(pca_fraction=0.5),)),
            GridStage(STAGE_CLASSIFY, (
                SvmParams(C=0.5, gamma=0.1),
                SvmParams(C=1.0, gamma=0.1),
                SvmParams(C=5.0, gamma=0.1),
                SvmParams(C=10.0, gamma=0.1),
            )),
        )
    )
    cached = grid_search(images, labels, grid, seed=5, splits=[(train, test)])
    uncached = grid_search(images, labels, grid, seed=5, splits=[(train, test)], use_cache=False)

    identical = cached.best_indices == uncached.best_indices
    for a, b in zip(cached.candidates, uncached.candidates):
        identical = identical and (
            a.indices == b.indices
            and a.fold_aces == b.fold_aces
            and a.mean_ace == b.mean_ace
            and a.failed == b.failed
        )
    ok = (cached.executions[STAGE_EXTRACT] == 3
          and uncached.executions[STAGE_EXTRACT] == 12
          and identical)
    _verdict(ok, "grid-search caching",
             f"extract stage ran {cached.executions[STAGE_EXTRACT]}x cached "
             f"(3 expected) vs {uncached.executions[STAGE_EXTRACT]}x uncached, "
             f"reports identical {identical}")


def test_08_synthetic_benchmark(benchmark_data, benchmark_models):
    _, _, test_images, test_labels = benchmark_data
    models, train_seconds = benchmark_models
    started = time.perf_counter()
    results = {}
    for name, model in models.items():
        preds = np.array([model.predict(img) for img in test_images])
        results[name] = ace(preds, test_labels).ace
    elapsed = train_seconds + time.perf_counter() - started
    ok = (results["lbp"] <= 0.05
          and results["convnet"] <= 0.10
          and results["lbp_aug"] <= results["lbp"] + 0.02
          and elapsed < 600.0)
    _verdict(ok, "synthetic 400-image benchmark",
             f"LBP ACE {results['lbp']:.1%} <= 5%, convnet ACE "
             f"{results['convnet']:.1%} <= 10%, augmented LBP {results['lbp_aug']:.1%} "
             f"within 2 points of plain, {elapsed:.0f}s < 600s")


def test_09_train_evaluate_determinism(tmp_path, capsys):
    images, labels = make_texture_dataset(6, size=32, seed=43)
    data = tmp_path / "data"
    write_dataset_tree(data, images, labels)
    config = tmp_path / "run.ini"
    config.write_text(
        "[extract]\nmethod = lbp\n[transform]\npca_fraction = 0.4\n"
        "[classify]\nc = 1.0\ngamma = 0.5\n[search]\nseed = 77\n",
        encoding="utf-8",
    )
    transcripts = []
    for name in ("first.lvck", "second.lvck"):
        out = tmp_path / name
        assert main(["train", "--config", str(config), "--data", str(data), "--out", str(out)]) == 0
        train_out = capsys.readouterr().out.replace(str(out), "MODEL")
        assert main(["evaluate", "--model", str(out), "--data", str(data)]) == 0
        transcripts.append(train_out + capsys.readouterr().out)
    ok = transcripts[0] == transcripts[1]
    _verdict(ok, "train/evaluate determinism",
             f"two runs, identical digests and printed rates: {ok}")


def test_10_prediction_latency(tmp_path, capsys, benchmark_data, benchmark_models):
    _, _, test_images, _ = benchmark_data
    models, _ = benchmark_models
    targets = []
    for i, img in enumerate(test_images[:5]):
        path = tmp_path / f"probe_{i}.pgm"
        from livecheck.imageproc import write_pgm

        path.write_bytes(write_pgm(img))
        targets.append(str(path))

    def timed_mean(model_key):
        model_path = tmp_path / f"{model_key}.lvck"
        save_model(model_path, models[model_key])
        assert main(["predict", "--model", str(model_path), "--timing", *targets]) == 0
        err = capsys.readouterr().err
        match = re.search(r"# timing mean: (\d+(?:\.\d+)?) ms/image", err)
        assert match, err
        return float(match.group(1))

    lbp_ms = timed_mean("lbp")
    net_ms = timed_mean("convnet")
    ok = lbp_ms <= 300.0 and net_ms <= 600.0
    _verdict(ok, "prediction latency",
             f"LBP {lbp_ms:.1f} ms/image <= 300, convnet {net_ms:.1f} ms/image <= 600")
