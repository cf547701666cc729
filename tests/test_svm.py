"""SMO training: convergence, KKT satisfaction, kernel-expansion scoring."""

import sys
import tracemalloc

import numpy as np
import pytest

from livecheck import svm
from livecheck.imageproc import highpass
from livecheck.lbp import LbpConfig
from livecheck.pipeline import TransformConfig, _image_rows, fit_transform
from livecheck.svm import (
    SvmParams,
    decision_score,
    decision_scores,
    predict,
    rbf_gram,
    train_smo,
)
from livecheck.synthdata import make_texture_dataset

from oracles import rbf_kernel, smo_reference, svm_score_oracle, svm_scores_gemm


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


def lbp_rows(seed):
    """Augmented uniform-LBP rows of 12 highpassed 64x64 textures, ten
    per texture, and their labels."""
    images, labels = make_texture_dataset(6, size=64, seed=seed, blur_sigma=0.4)
    config = LbpConfig(variant="uniform", blocks=(2, 2))
    X = np.vstack(_image_rows([highpass(img) for img in images], True, config, None))
    return X, np.repeat(labels, 10)


def lbp_pca_rows():
    """120 augmented uniform-LBP rows of 12 highpassed textures after
    standardization and PCA, as one select-lbp-aug fold fit sees them."""
    X, labels = lbp_rows(17)
    _, _, Z = fit_transform(X, TransformConfig(pca_fraction=0.5), seed=3)
    return Z, labels


def random_model(rng, n_sv, dim):
    """An RBF expansion with random support vectors and signed weights."""
    return svm.SvmModel(
        support_vectors=rng.standard_normal((n_sv, dim)),
        dual_coefs=rng.uniform(-2.0, 2.0, size=n_sv),
        bias=float(rng.standard_normal()),
        gamma=float(rng.uniform(0.02, 0.5)),
    )


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

    def test_gram_in_place_matches_expression(self, rng):
        """The in-place Gram rounds exactly like the one-line expression."""
        gamma = 0.02
        for rows_a, rows_b, dim in ((240, 240, 5), (1, 79, 5), (10, 79, 5), (30, 17, 40)):
            A = rng.standard_normal((rows_a, dim))
            B = rng.standard_normal((rows_b, dim))
            sq = (A**2).sum(axis=1)[:, None] + (B**2).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
            np.testing.assert_array_equal(rbf_gram(A, B, gamma), np.exp(-gamma * np.maximum(sq, 0.0)))

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


def oracle_cases():
    rng = np.random.default_rng(77)
    overlap = blob_data(rng, n=40, gap=0.5)
    base = rng.standard_normal((12, 2))
    # Each row twice, once per label: the pair's curvature is exactly zero.
    duplicated = np.vstack([base, base, rng.standard_normal((6, 2))])
    duplicated_labels = np.concatenate([np.ones(12), -np.ones(12), np.ones(3), -np.ones(3)])
    unbalanced = np.vstack([rng.standard_normal((3, 2)) + 1.0, rng.standard_normal((40, 2))])
    unbalanced_labels = np.concatenate([np.ones(3), -np.ones(40)])
    return {
        "blobs": (*blob_data(rng), SvmParams(C=10.0, gamma=0.5)),
        "xor": (*xor_data(), SvmParams(C=10.0, gamma=1.0)),
        "overlap-small-C": (*overlap, SvmParams(C=0.1, gamma=1.0)),
        "duplicated-rows": (duplicated, duplicated_labels, SvmParams(C=5.0, gamma=0.5)),
        "unbalanced": (unbalanced, unbalanced_labels, SvmParams(C=10.0, gamma=0.5)),
        "two-samples": (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, -1.0]), SvmParams()),
        "no-steps": (*blob_data(rng, n=20), SvmParams(tol=100.0)),
        "lbp-pca": (*lbp_pca_rows(), SvmParams(C=10.0, gamma=0.05)),
        # 156 distinct working rows; the curvature block holds rows 0-39 at
        # n=400, and 175 of the 205 steps work on a row past it.
        "cache-overflow": (*blob_data(rng, n=400, gap=0.5), SvmParams(C=1.0, gamma=0.5)),
    }


class TestSolverOracle:
    """The live-candidate solver against the rebuild-every-step loop."""

    @pytest.mark.parametrize("case", list(oracle_cases()))
    def test_bit_identical(self, case):
        X, y, params = oracle_cases()[case]
        model, diag = train_smo(X, y, params, collect_diagnostics=True)
        alphas, bias, sweeps, objectives = smo_reference(
            rbf_gram(X, X, params.gamma), y, params, collect_objectives=True
        )
        np.testing.assert_array_equal(diag.alphas, alphas)
        assert model.bias == bias
        assert diag.sweeps == sweeps
        np.testing.assert_array_equal(diag.dual_objectives, objectives)
        if case == "no-steps":
            assert sweeps == 0 and not alphas.any()
        else:
            assert sweeps >= 1
        if case in ("overlap-small-C", "no-steps"):
            # No free alpha: the bias comes from the live candidate rows.
            assert not ((alphas > 0.0) & (alphas < params.C)).any()

    def test_bit_identical_through_the_gap_fallback(self):
        """A step whose best partner has b_j <= tol while another b is
        above tol must go on.  Only then, and at the final stopping test,
        does the solver take s_low's argmin; counting those calls shows
        the fallback ran once without stopping the solver."""
        X, y, params = oracle_cases()["unbalanced"]
        argmins = 0

        def count_argmins(frame, event, arg):
            nonlocal argmins
            if event == "c_call" and getattr(arg, "__name__", None) == "argmin":
                argmins += 1

        previous = sys.getprofile()
        sys.setprofile(count_argmins)
        try:
            model, diag = train_smo(X, y, params, collect_diagnostics=True)
        finally:
            sys.setprofile(previous)
        assert argmins == 2
        alphas, bias, sweeps, _ = smo_reference(rbf_gram(X, X, params.gamma), y, params)
        np.testing.assert_array_equal(diag.alphas, alphas)
        assert (model.bias, diag.sweeps, diag.steps) == (bias, sweeps, 47)

    @pytest.mark.parametrize("budget", ["none", "half", "default"])
    def test_bit_identical_without_curvature_cache(self, monkeypatch, budget):
        """A curvature row past the byte budget is computed on each step,
        with the bits a precomputed row has: with no rows in the block,
        with about half of each case's rows, and at the default budget."""
        for X, y, params in oracle_cases().values():
            n = len(y)
            if budget != "default":
                rows = 0 if budget == "none" else n // 2
                monkeypatch.setattr(svm, "_CURVATURE_CACHE_BYTES", 8 * n * rows)
            model, diag = train_smo(X, y, params, collect_diagnostics=True)
            alphas, bias, sweeps, objectives = smo_reference(
                rbf_gram(X, X, params.gamma), y, params, collect_objectives=True
            )
            np.testing.assert_array_equal(diag.alphas, alphas)
            assert (model.bias, diag.sweeps) == (bias, sweeps)
            np.testing.assert_array_equal(diag.dual_objectives, objectives)

    @pytest.mark.filterwarnings("ignore:SMO stopped at its cap:RuntimeWarning")
    def test_bit_identical_at_tiny_tol(self, monkeypatch):
        """At tol=1e-200 the solver's sign-folded gains still pick the
        partner that the reference's -inf mask picks; the two could part
        only where every ascent gain b^2 / a underflows to zero."""
        monkeypatch.setattr(svm, "_MAX_SWEEPS", 3)
        for X, y, params in oracle_cases().values():
            params = SvmParams(C=params.C, gamma=params.gamma, tol=1e-200)
            model, diag = train_smo(X, y, params, collect_diagnostics=True)
            alphas, bias, sweeps, _ = smo_reference(
                rbf_gram(X, X, params.gamma), y, params, max_sweeps=3
            )
            np.testing.assert_array_equal(diag.alphas, alphas)
            assert (model.bias, diag.sweeps) == (bias, sweeps)

    def test_step_cap(self, monkeypatch):
        X, y = lbp_pca_rows()
        params = SvmParams(C=10.0, gamma=0.05, tol=1e-12)
        _, _, uncapped, _ = smo_reference(rbf_gram(X, X, params.gamma), y, params)
        assert uncapped > 1  # needs more than n steps
        monkeypatch.setattr(svm, "_MAX_SWEEPS", 1)
        with pytest.warns(RuntimeWarning, match="SMO stopped at its cap"):
            model, diag = train_smo(X, y, params, collect_diagnostics=True)
        assert diag.sweeps == 1
        assert diag.alphas.min() >= 0.0 and diag.alphas.max() <= params.C
        assert abs(float(np.sum(diag.alphas * y))) <= 1e-12
        alphas, bias, sweeps, objectives = smo_reference(
            rbf_gram(X, X, params.gamma), y, params, collect_objectives=True, max_sweeps=1
        )
        np.testing.assert_array_equal(diag.alphas, alphas)
        assert (model.bias, diag.sweeps) == (bias, sweeps)
        np.testing.assert_array_equal(diag.dual_objectives, objectives)

    def test_capped_run_is_flagged(self, monkeypatch):
        """A run the step cap stops short of tol warns and reports its
        gap; the cap changes nothing else it returns."""
        X, y = lbp_pca_rows()
        params = SvmParams(C=10.0, gamma=0.05, tol=1e-12)
        monkeypatch.setattr(svm, "_MAX_SWEEPS", 1)
        with pytest.warns(RuntimeWarning, match="KKT gap"):
            model, diag = train_smo(X, y, params, collect_diagnostics=True)
        assert not diag.converged and diag.kkt_gap > params.tol
        alphas, bias, _, _ = smo_reference(rbf_gram(X, X, params.gamma), y, params, max_sweeps=1)
        np.testing.assert_array_equal(diag.alphas, alphas)
        assert model.bias == bias
        with pytest.warns(RuntimeWarning):
            quiet, none = train_smo(X, y, params)  # warns without diagnostics too
        assert none is None and quiet.bias == model.bias

    def test_converged_run_reports_its_gap(self, recwarn):
        for X, y, params in oracle_cases().values():
            _, diag = train_smo(X, y, params, collect_diagnostics=True)
            assert diag.converged and diag.kkt_gap <= params.tol
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_diagnostics_do_not_steer_training(self):
        for X, y, params in oracle_cases().values():
            quiet, _ = train_smo(X, y, params)
            traced, _ = train_smo(X, y, params, collect_diagnostics=True)
            assert quiet.support_vectors.tobytes() == traced.support_vectors.tobytes()
            assert quiet.dual_coefs.tobytes() == traced.dual_coefs.tobytes()
            assert quiet.bias == traced.bias

    def test_explicit_zero_state(self):
        """``_solve`` given every alpha at 0, no steps and no objectives
        takes the steps it takes when it starts from zero."""
        for X, y, params in oracle_cases().values():
            K = rbf_gram(X, X, params.gamma)
            s_up, s_low = np.where(y > 0, y, -np.inf), np.where(y < 0, y, np.inf)
            state = svm._SmoState([0.0] * len(y), s_up, s_low, 0, [])
            assert_same_solve(svm._solve(K, y, params, True, state), svm._solve(K, y, params, True))

    def test_solve_allocates_no_square_array(self):
        """Past the Gram, the solver holds only a handful of n-vectors."""
        n = 2000
        rng = np.random.default_rng(5)
        X = np.vstack([rng.standard_normal((n // 2, 5)) + 0.5, rng.standard_normal((n // 2, 5))])
        y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
        params = SvmParams(C=10.0, gamma=0.05)
        K = rbf_gram(X, X, params.gamma)
        tracemalloc.start()
        try:
            _, _, diag = svm._solve(K, y, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert diag.sweeps >= 1
        assert peak < 32 * n * 8  # an n x n temporary would be 31 MiB


def lockstep_batch(cases):
    """One lockstep batch from oracle cases of one size: each case under
    its own params, with C / 10 and tol x 10 on the same Gram, at tol
    1e-12, and at twice its gamma on a Gram of its own."""
    grams, problems = [], []
    for X, y, params in cases:
        variants = [
            params,
            SvmParams(C=params.C / 10, gamma=params.gamma, tol=params.tol * 10),
            SvmParams(C=params.C, gamma=params.gamma, tol=1e-12),
            SvmParams(C=params.C, gamma=2 * params.gamma, tol=params.tol),
        ]
        for variant in variants:
            if variant is params or variant.gamma != params.gamma:
                grams.append(rbf_gram(X, X, variant.gamma))
            problems.append((len(grams) - 1, y, variant))
    return np.stack(grams), problems


def assert_same_solve(got, want):
    """Two solves' alphas, bias, step count, KKT gap, convergence flag and
    objectives are byte-equal."""
    (alphas, bias, diag), (want_alphas, want_bias, want) = got, want
    assert alphas.tobytes() == want_alphas.tobytes() == diag.alphas.tobytes()
    assert np.float64(bias).tobytes() == np.float64(want_bias).tobytes()
    assert (diag.steps, diag.sweeps, diag.converged) == (want.steps, want.sweeps, want.converged)
    assert np.float64(diag.kkt_gap).tobytes() == np.float64(want.kkt_gap).tobytes()
    assert np.array(diag.dual_objectives).tobytes() == np.array(want.dual_objectives).tobytes()


def expected_handoff(finals, cap):
    """The problems the lockstep hands to ``_solve``, as (index, step)
    pairs, from the step counts each takes alone.  A problem that stops
    after f steps is live at the top of steps 0..f, and the lockstep hands
    over every live one at the first top with at most ``_HANDOFF_LIVE``
    live, unless none is live or the step cap came first."""
    for top in sorted({0, *(f + 1 for f in finals)}):
        live = [k for k, f in enumerate(finals) if f >= top]
        if top >= cap or not live:
            return []
        if len(live) <= svm._HANDOFF_LIVE:
            return [(k, top) for k in live]
    return []


def assert_lockstep_matches_solve(grams, problems, collect_objectives=True):
    """Each problem of the batch gets the bytes ``_solve`` gives it alone,
    and the lockstep hands to ``_solve`` the problems, at the step, that
    ``expected_handoff`` names.  Returns the results and those pairs."""
    resumed, solve = [], svm._solve

    def recording_solve(K, y, params, collect_objectives=False, state=None):
        resumed.append((id(y), params, state.steps))
        return solve(K, y, params, collect_objectives, state)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(svm, "_solve", recording_solve)
        solved = svm._solve_lockstep(grams, problems, collect_objectives)
    assert len(solved) == len(problems)
    finals = []
    for (g, y, params), got in zip(problems, solved, strict=True):
        want = svm._solve(grams[g], y, params, collect_objectives)
        assert_same_solve(got, want)
        finals.append(want[2].steps)
    handed = expected_handoff(finals, svm._MAX_SWEEPS * grams.shape[1])
    assert resumed == [(id(problems[k][1]), problems[k][2], top) for k, top in handed]
    return solved, handed


def cases_by_size():
    sizes: dict[int, list] = {}
    for case in oracle_cases().values():
        sizes.setdefault(len(case[1]), []).append(case)
    return sizes


HANDOFFS = {"never": 0, "default": svm._HANDOFF_LIVE, "at-once": 1000}


@pytest.fixture(params=list(HANDOFFS))
def handoff(request, monkeypatch):
    """The lockstep's handoff count: 0, where it runs every problem to its
    end, the default, and one past every batch here, where every problem
    starts in ``_solve``."""
    monkeypatch.setattr(svm, "_HANDOFF_LIVE", HANDOFFS[request.param])
    return request.param


@pytest.mark.usefixtures("handoff")
class TestLockstep:
    """Several problems of one size solved as one stack against ``_solve``
    alone: every problem's alphas, bias, step count, KKT gap,
    convergence flag and objectives, byte for byte, with the last few
    problems handed to ``_solve`` mid-solve, with every problem handed
    over at once, and with none."""

    @pytest.mark.parametrize("n", sorted(cases_by_size()))
    def test_oracle_cases_of_one_size(self, n, handoff):
        grams, problems = lockstep_batch(cases_by_size()[n])
        solved, handed = assert_lockstep_matches_solve(grams, problems)
        steps = {diag.steps for _, _, diag in solved}
        assert len(steps) > 1 or n == 2  # with two samples each problem takes one step
        if n == 20:
            assert 0 in steps  # the no-steps case stops before its first step
        if handoff == "at-once":
            assert handed == [(k, 0) for k in range(len(problems))]
        elif handoff == "never":
            assert handed == []
        elif n == 40:  # the one batch of more than five problems
            assert handed == [(0, 21), (2, 21), (3, 21)]

    def test_without_objectives(self):
        grams, problems = lockstep_batch(cases_by_size()[40])
        solved, _ = assert_lockstep_matches_solve(grams, problems, collect_objectives=False)
        assert all(diag.dual_objectives == [] for _, _, diag in solved)

    def test_problems_in_any_order_and_alone(self):
        """A problem's result does not depend on its batch: reversed, and
        as a batch of one."""
        grams, problems = lockstep_batch(cases_by_size()[40])
        assert_lockstep_matches_solve(grams, problems[::-1])
        for problem in problems:
            assert_lockstep_matches_solve(grams, [problem])

    @pytest.mark.filterwarnings("ignore:SMO stopped at its cap:RuntimeWarning")
    def test_step_cap(self, monkeypatch, handoff):
        """The cap stops every problem still stepping at 2 n steps, while
        the others stop on their own before it; at the default handoff,
        problems handed to ``_solve`` mid-solve reach the cap there."""
        monkeypatch.setattr(svm, "_MAX_SWEEPS", 2)
        X, y = lbp_pca_rows()
        cap = 2 * len(y)
        grams, problems = lockstep_batch(
            [(X, y, SvmParams(C=10.0, gamma=0.05)), (X, y, SvmParams(C=1.0, gamma=0.05))]
        )
        solved, handed = assert_lockstep_matches_solve(grams, problems)
        flags = [(diag.converged, diag.steps) for _, _, diag in solved]
        assert (False, cap) in flags
        assert any(converged and steps < cap for converged, steps in flags)
        if handoff == "default":
            assert {top for _, top in handed} == {199}
            assert sum(flags[k] == (False, cap) for k, _ in handed) == 3

    @pytest.mark.filterwarnings("ignore:SMO stopped at its cap:RuntimeWarning")
    def test_tiny_tol(self, monkeypatch):
        monkeypatch.setattr(svm, "_MAX_SWEEPS", 3)
        for cases in cases_by_size().values():
            grams, problems = lockstep_batch(cases)
            problems = [(g, y, SvmParams(C=p.C, gamma=p.gamma, tol=1e-200)) for g, y, p in problems]
            assert_lockstep_matches_solve(grams, problems)


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
        np.testing.assert_array_equal(batch, singles)

    @pytest.mark.parametrize("rows", [1, 37])
    @pytest.mark.parametrize("dim", [1, 3, 7, 13, 26, 45])
    @pytest.mark.parametrize("n_sv", [1, 2, 9, 80])
    def test_batch_invariant_bits(self, rng, rows, dim, n_sv):
        """A row's margin has the same bits in a batch as alone, for
        feature lengths off every multiple of 4 and 8 and for a single
        support vector."""
        model = random_model(rng, n_sv, dim)
        X = rng.standard_normal((rows, dim))
        batch = decision_scores(model, X)
        assert batch.shape == (rows,)
        for i in range(rows):
            assert decision_score(model, X[i]) == batch[i]
            np.testing.assert_array_equal(decision_scores(model, X[i : i + 1]), batch[i : i + 1])
        np.testing.assert_array_equal(decision_scores(model, np.asfortranarray(X)), batch)

    @pytest.mark.parametrize("dim", [1, 7, 26])
    @pytest.mark.parametrize("n_sv", [1, 80])
    def test_matches_gemm_and_expansion_oracles(self, rng, dim, n_sv):
        """Within 1e-12 of one Gram GEMM and of the term-by-term sum."""
        model = random_model(rng, n_sv, dim)
        X = rng.standard_normal((37, dim))
        scores = decision_scores(model, X)
        np.testing.assert_allclose(scores, svm_scores_gemm(model, X), rtol=0, atol=1e-12)
        want = [
            svm_score_oracle(model.support_vectors, model.dual_coefs, model.bias, model.gamma, x)
            for x in X[:5]
        ]
        np.testing.assert_allclose(scores[:5], want, rtol=0, atol=1e-12)

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
