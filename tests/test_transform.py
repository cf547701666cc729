"""Standardization and randomized PCA against exact decompositions."""

import numpy as np
import pytest

from livecheck.transform import (
    PcaModel,
    Standardizer,
    fit_pca_randomized,
    project,
)

from oracles import pca_exact, principal_angles, project_gemm, sign_fixed_rows


def gapped_matrix(rng, n=50, d=20, k=5):
    """Random data with a clear spectral gap after the first k directions."""
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
    scales = np.concatenate([np.linspace(10.0, 5.0, k), 0.05 * np.ones(d - k)])
    return rng.standard_normal((n, d)) @ (basis * scales).T


class TestStandardizer:
    def test_zero_mean_unit_variance(self, rng):
        X = rng.standard_normal((40, 7)) * 3.0 + 5.0
        std = Standardizer.fit(X)
        Z = std.apply(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_dimension_not_blown_up(self, rng):
        X = rng.standard_normal((30, 3))
        X[:, 1] = 4.2
        Z = Standardizer.fit(X).apply(X)
        # the column's float std is ~1e-15; dividing by it would turn
        # rounding noise into a full-scale signal of magnitude one, the
        # epsilon floor keeps it well below that
        assert np.abs(Z[:, 1]).max() < 0.01
        assert np.all(np.isfinite(Z))

    def test_single_vector_application(self, rng):
        X = rng.standard_normal((10, 4))
        std = Standardizer.fit(X)
        np.testing.assert_allclose(std.apply(X[3]), std.apply(X)[3], atol=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            Standardizer.fit(np.ones((1, 5)))

    def test_dimension_mismatch_rejected(self, rng):
        std = Standardizer.fit(rng.standard_normal((5, 3)))
        with pytest.raises(ValueError):
            std.apply(np.zeros(4))


class TestRandomizedPca:
    def test_components_match_exact_svd(self, rng):
        """Subspace and per-component agreement on gapped spectra."""
        for trial in range(10):
            X = gapped_matrix(rng, n=50, d=20, k=5)
            model = fit_pca_randomized(X, k=5, seed=trial, whiten=False)
            exact_components, exact_vars = pca_exact(X, 5)
            assert principal_angles(model.components, exact_components) < 1e-6
            np.testing.assert_allclose(model.component_variances, exact_vars, rtol=1e-8)

    def test_rows_orthonormal(self, rng):
        X = gapped_matrix(rng, k=4)
        model = fit_pca_randomized(X, k=4, seed=0)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_variances_sorted_descending(self, rng):
        X = gapped_matrix(rng, k=6)
        model = fit_pca_randomized(X, k=6, seed=1)
        assert np.all(np.diff(model.component_variances) <= 1e-12)

    def test_sign_convention(self, rng):
        X = gapped_matrix(rng, k=3)
        model = fit_pca_randomized(X, k=3, seed=2)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0.0

    def test_sign_fix_matches_row_loop(self, rng, monkeypatch):
        """The sign fix gives the per-row loop's bits on the SVD's own
        rows, and on rows whose largest magnitude appears as both +x and
        -x, where the first of the two decides."""
        svd = np.linalg.svd
        seen = []

        def recording_svd(a, full_matrices=True):
            u, s, vt = svd(a, full_matrices=full_matrices)
            seen.append(vt.copy())
            return u, s, vt

        X = rng.standard_normal((30, 6))
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        for k in (1, 3, 5):
            model = fit_pca_randomized(X, k=k, seed=k)
            assert model.components.tobytes() == sign_fixed_rows(seen[-1][:k]).tobytes()

        tied = np.array([
            [0.5, -0.5, 0.5, -0.5, 0.0, 0.0],
            [-0.5, 0.5, 0.5, -0.5, 0.0, 0.0],
            [0.1, -0.6, 0.6, 0.2, 0.0, -0.3],
            [0.0, 0.3, -0.3, 0.0, 0.1, 0.2],
        ])

        def tied_svd(a, full_matrices=True):
            u, s, _ = svd(a, full_matrices=full_matrices)
            return u, s, tied

        monkeypatch.setattr(np.linalg, "svd", tied_svd)
        model = fit_pca_randomized(X, k=4, seed=0)
        assert model.components.tobytes() == sign_fixed_rows(tied).tobytes()
        assert np.signbit(model.components[1, 4:]).all()  # flipped zeros are -0.0

    def test_seed_changes_nothing_on_gapped_data(self, rng):
        """Different sketches recover the same subspace."""
        X = gapped_matrix(rng, k=4)
        a = fit_pca_randomized(X, k=4, seed=10, whiten=False)
        b = fit_pca_randomized(X, k=4, seed=99, whiten=False)
        assert principal_angles(a.components, b.components) < 1e-6

    def test_same_seed_bitwise_identical(self, rng):
        X = gapped_matrix(rng)
        a = fit_pca_randomized(X, k=5, seed=7)
        b = fit_pca_randomized(X, k=5, seed=7)
        np.testing.assert_array_equal(a.components, b.components)
        np.testing.assert_array_equal(a.component_variances, b.component_variances)

    def test_whitened_projection_unit_variance(self, rng):
        X = gapped_matrix(rng, n=80, d=20, k=8)
        model = fit_pca_randomized(X, k=8, seed=3, whiten=True)
        Z = project(model, X)
        np.testing.assert_allclose(Z.var(axis=0), 1.0, atol=1e-4)

    def test_unwhitened_variances_match_model(self, rng):
        X = gapped_matrix(rng, n=60, d=15, k=5)
        model = fit_pca_randomized(X, k=5, seed=4, whiten=False)
        Z = project(model, X)
        np.testing.assert_allclose(Z.var(axis=0), model.component_variances, rtol=1e-8)

    def test_projection_centers_training_mean(self, rng):
        X = gapped_matrix(rng) + 13.0
        model = fit_pca_randomized(X, k=3, seed=5)
        Z = project(model, X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-8)

    def test_single_vector_projection(self, rng):
        X = gapped_matrix(rng)
        model = fit_pca_randomized(X, k=4, seed=6)
        np.testing.assert_array_equal(project(model, X[2]), project(model, X)[2])

    def test_k_bounds_enforced(self, rng):
        X = rng.standard_normal((10, 5))
        with pytest.raises(ValueError):
            fit_pca_randomized(X, k=0, seed=0)
        with pytest.raises(ValueError):
            fit_pca_randomized(X, k=6, seed=0)  # k > d
        with pytest.raises(ValueError):
            fit_pca_randomized(rng.standard_normal((4, 9)), k=4, seed=0)  # k > n-1

    def test_projection_dim_mismatch(self, rng):
        model = fit_pca_randomized(gapped_matrix(rng), k=3, seed=0)
        with pytest.raises(ValueError):
            project(model, np.zeros(21))

    def test_epsilon_guards_tiny_variances(self):
        """Whitening a zero-variance direction must stay finite."""
        model = PcaModel(
            mean=np.zeros(2),
            components=np.eye(2),
            component_variances=np.array([1.0, 0.0]),
            whiten=True,
        )
        out = project(model, np.array([1.0, 1.0]))
        assert np.all(np.isfinite(out))


def random_pca(rng, d, k, whiten):
    """A PCA model with random orthonormal component rows."""
    return PcaModel(
        mean=rng.standard_normal(d),
        components=np.linalg.qr(rng.standard_normal((d, k)))[0].T.copy(),
        component_variances=rng.uniform(0.05, 3.0, size=k),
        whiten=whiten,
    )


# Feature lengths off every multiple of 4 and 8, so BLAS kernels run
# their tail code; k=1 makes each row's product a single dot.
BATCH_SHAPES = [(d, k) for d in (1, 3, 7, 13, 26, 45, 61) for k in sorted({1, (d + 1) // 2, d})]


class TestBatchInvariance:
    @pytest.mark.parametrize("rows", [1, 37])
    @pytest.mark.parametrize("d, k", BATCH_SHAPES)
    def test_batch_equals_single_rows(self, rng, rows, d, k):
        """A row projects to the same bits in a batch, as a one-row
        matrix and as a 1-D vector."""
        for whiten in (True, False):
            model = random_pca(rng, d, k, whiten)
            X = rng.standard_normal((rows, d)) * 3.0
            batch = project(model, X)
            assert batch.shape == (rows, k)
            for i in range(rows):
                np.testing.assert_array_equal(project(model, X[i]), batch[i])
                np.testing.assert_array_equal(project(model, X[i : i + 1])[0], batch[i])

    def test_strided_input_projects_like_contiguous(self, rng):
        model = random_pca(rng, 21, 5, True)
        X = rng.standard_normal((21, 37)).T  # column-major rows
        np.testing.assert_array_equal(project(model, X), project(model, np.ascontiguousarray(X)))
        np.testing.assert_array_equal(project(model, X[::2]), project(model, X)[::2])

    @pytest.mark.parametrize("d, k", BATCH_SHAPES)
    def test_matches_gemm_oracle(self, rng, d, k):
        """The row-by-row products stay within 1e-12 of one GEMM."""
        for whiten in (True, False):
            model = random_pca(rng, d, k, whiten)
            X = rng.standard_normal((37, d)) * 3.0
            np.testing.assert_allclose(project(model, X), project_gemm(model, X), rtol=0, atol=1e-12)
