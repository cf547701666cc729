"""SMO training: convergence, KKT satisfaction, kernel-expansion scoring."""

import numpy as np
import pytest

from livecheck.svm import (
    SvmParams,
    decision_score,
    decision_scores,
    predict,
    rbf_gram,
    rbf_kernel,
    train_smo,
)

from oracles import svm_score_oracle


def xor_data():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    return X, y


def blob_data(rng, n=40, gap=3.0):
    """Two round clusters separated by a clear margin."""
    a = rng.standard_normal((n // 2, 2)) * 0.5 + [gap / 2, 0.0]
    b = rng.standard_normal((n // 2, 2)) * 0.5 + [-gap / 2, 0.0]
    X = np.vstack([a, b])
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    return X, y


def kkt_violation(X, y, alphas, model, params):
    """Worst violation of the optimality conditions, in margin units."""
    scores = decision_scores(model, X)
    worst = 0.0
    for i in range(len(y)):
        margin = y[i] * scores[i]
        if alphas[i] < 1e-9:
            worst = max(worst, 1.0 - margin)  # must be >= 1
        elif alphas[i] > params.C - 1e-9:
            worst = max(worst, margin - 1.0)  # must be <= 1
        else:
            worst = max(worst, abs(margin - 1.0))  # must be == 1
    return worst


class TestKernel:
    def test_known_values(self):
        assert rbf_kernel(np.zeros(3), np.zeros(3), 0.5) == 1.0
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert rbf_kernel(a, b, 0.5) == pytest.approx(np.exp(-1.0))

    def test_gram_symmetric_unit_diagonal(self, rng):
        X = rng.standard_normal((12, 4))
        K = rbf_gram(X, X, 0.3)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-12)
        assert K.min() > 0.0

    def test_mismatched_vectors_rejected(self):
        with pytest.raises(ValueError):
            rbf_kernel(np.zeros(2), np.zeros(3), 1.0)


class TestTraining:
    def test_xor_separated(self):
        """The classic kernel-trick case: quadrants are not linearly separable."""
        X, y = xor_data()
        model, _ = train_smo(X, y, SvmParams(C=10.0, gamma=1.0), seed=0)
        labels = [predict(model, x) for x in X]
        np.testing.assert_array_equal(labels, y)

    def test_blobs_perfectly_fit(self, rng):
        X, y = blob_data(rng)
        model, _ = train_smo(X, y, SvmParams(C=10.0, gamma=0.5), seed=1)
        labels = [predict(model, x) for x in X]
        np.testing.assert_array_equal(labels, y)

    def test_kkt_conditions_hold(self, rng):
        params = SvmParams(C=5.0, gamma=0.8, tol=1e-3)
        for trial in range(3):
            X, y = blob_data(rng, n=30)
            model, diag = train_smo(X, y, params, seed=trial, collect_diagnostics=True)
            assert kkt_violation(X, y, diag.alphas, model, params) <= 10.0 * params.tol

    def test_kkt_on_xor(self):
        params = SvmParams(C=10.0, gamma=1.0, tol=1e-3)
        X, y = xor_data()
        model, diag = train_smo(X, y, params, seed=0, collect_diagnostics=True)
        assert kkt_violation(X, y, diag.alphas, model, params) <= 10.0 * params.tol

    def test_equality_constraint_preserved(self, rng):
        X, y = blob_data(rng, n=26)
        _, diag = train_smo(X, y, SvmParams(), seed=3, collect_diagnostics=True)
        assert abs(float(diag.alphas @ y)) < 1e-9

    def test_alphas_in_box(self, rng):
        params = SvmParams(C=2.0, gamma=1.0)
        X, y = blob_data(rng, n=24, gap=0.8)  # overlapping: some alphas hit C
        _, diag = train_smo(X, y, params, seed=4, collect_diagnostics=True)
        assert diag.alphas.min() >= -1e-12
        assert diag.alphas.max() <= params.C + 1e-12

    def test_dual_objective_nondecreasing(self, rng):
        X, y = blob_data(rng, n=30, gap=1.0)
        _, diag = train_smo(X, y, SvmParams(C=3.0, gamma=0.7), seed=5, collect_diagnostics=True)
        curve = np.asarray(diag.dual_objectives)
        assert curve.size >= 1
        assert np.all(np.diff(curve) >= -1e-9 * np.maximum(1.0, np.abs(curve[:-1])))

    def test_duality_gap_small(self, rng):
        """The fitted model's primal objective nearly meets the dual's."""
        cases = [
            (*xor_data(), SvmParams(C=10.0, gamma=1.0)),
            (*blob_data(rng), SvmParams(C=10.0, gamma=0.5)),
            (*blob_data(rng, n=30), SvmParams(C=5.0, gamma=0.8)),
            (*blob_data(rng, n=30, gap=1.0), SvmParams(C=3.0, gamma=0.7)),
            (*blob_data(rng, n=24, gap=0.8), SvmParams(C=2.0, gamma=1.0)),
        ]
        for X, y, params in cases:
            model, diag = train_smo(X, y, params, collect_diagnostics=True)
            ay = diag.alphas * y
            quadratic = ay @ rbf_gram(X, X, params.gamma) @ ay
            hinge = np.maximum(0.0, 1.0 - y * decision_scores(model, X))
            primal = 0.5 * quadratic + params.C * hinge.sum()
            dual = diag.alphas.sum() - 0.5 * quadratic
            assert (primal - dual) / max(1.0, abs(primal)) <= 5e-3

    def test_seeded_training_reproducible(self, rng):
        X, y = blob_data(rng, n=20, gap=1.0)
        m1, _ = train_smo(X, y, SvmParams(), seed=42)
        m2, _ = train_smo(X, y, SvmParams(), seed=42)
        np.testing.assert_array_equal(m1.dual_coefs, m2.dual_coefs)
        assert m1.bias == m2.bias
        m3, _ = train_smo(X, y, SvmParams(), seed=7)  # the solver uses no randomness
        np.testing.assert_array_equal(m1.dual_coefs, m3.dual_coefs)
        assert m1.bias == m3.bias

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_smo(np.zeros((4, 2)), np.ones(4), SvmParams())

    def test_non_finite_rejected(self):
        X = np.array([[0.0, np.nan], [1.0, 1.0]])
        with pytest.raises(ValueError):
            train_smo(X, np.array([1.0, -1.0]), SvmParams())

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            train_smo(np.zeros((3, 2)), np.array([0.0, 1.0, 2.0]), SvmParams())

    def test_bad_params_rejected(self):
        bad = [{"C": 0.0}, {"gamma": -1.0}, {"tol": 0.0}]
        bad += [{name: value} for name in ("C", "gamma", "tol") for value in (np.nan, np.inf)]
        for kwargs in bad:
            with pytest.raises(ValueError):
                SvmParams(**kwargs)


class TestScoring:
    def test_matches_kernel_expansion_oracle(self, rng):
        X, y = blob_data(rng, n=20)
        model, _ = train_smo(X, y, SvmParams(C=4.0, gamma=0.6), seed=6)
        for _ in range(20):
            x = rng.standard_normal(2) * 2.0
            want = svm_score_oracle(
                model.support_vectors, model.dual_coefs, model.bias, model.gamma, x
            )
            assert decision_score(model, x) == pytest.approx(want, abs=1e-9)

    def test_batch_matches_single(self, rng):
        X, y = blob_data(rng, n=16)
        model, _ = train_smo(X, y, SvmParams(), seed=7)
        Q = rng.standard_normal((5, 2))
        batch = decision_scores(model, Q)
        singles = [decision_score(model, q) for q in Q]
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_zero_score_counts_as_live(self, rng):
        X, y = blob_data(rng, n=12)
        model, _ = train_smo(X, y, SvmParams(), seed=8)
        model.bias -= decision_score(model, X[0])  # force an exact zero
        assert decision_score(model, X[0]) == pytest.approx(0.0, abs=1e-12)
        assert predict(model, X[0]) == 1.0

    def test_dimension_mismatch_rejected(self, rng):
        X, y = blob_data(rng, n=12)
        model, _ = train_smo(X, y, SvmParams(), seed=9)
        with pytest.raises(ValueError):
            decision_score(model, np.zeros(5))
