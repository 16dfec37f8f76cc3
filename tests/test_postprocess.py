import numpy as np
import pytest

from vmpfpca.orchestrator import FitConfig, fit
from vmpfpca.postprocess import (
    DegenerateComponentError,
    FpcaFit,
    RankDeficiencyError,
    SignAmbiguityError,
    evaluate_grid,
    evaluation_grid,
    extract,
    finalize,
    orthogonalize,
    sign_align,
    trapezoid_inner,
    trapezoid_norm,
    trapezoid_weights,
)
from vmpfpca.simulate import SimConfig, generate, true_eigenfunctions
from vmpfpca.splines import build_basis
from tests_oracle_support import gram_schmidt


@pytest.fixture(scope="module")
def small_fit_state():
    dataset, _ = generate(SimConfig(num_curves=24, seed=9))
    return fit(dataset, FitConfig(max_iter=1500))


def random_inputs(rng, num_grid=201, num_eigen=2, num_curves=50):
    grid = np.linspace(0.0, 1.0, num_grid)
    funcs = rng.standard_normal((num_grid, num_eigen)).cumsum(axis=0) / 10.0
    spread = np.diag(2.0 * 0.5 ** np.arange(num_eigen))
    scores = rng.standard_normal((num_curves, num_eigen)) @ spread
    mean_curve = np.sin(np.pi * grid)
    return grid, mean_curve, funcs, scores


class TestTrapezoidHelpers:
    def test_weights_sum_to_interval(self):
        grid = np.linspace(0.0, 1.0, 101)
        assert trapezoid_weights(grid).sum() == pytest.approx(1.0)

    def test_inner_matches_numpy(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(0.0, 1.0, 101)
        f, g = rng.standard_normal(101), rng.standard_normal(101)
        assert trapezoid_inner(f, g, grid) == pytest.approx(
            float((trapezoid_weights(grid) * f * g).sum())
        )


class TestExtract:
    def test_moments_and_shapes(self, small_fit_state):
        raw = extract(small_fit_state)
        dim = 4 * 12
        assert raw.nu_mean.shape == (dim,)
        assert raw.nu_cov.shape == (dim, dim)
        assert np.allclose(raw.nu_cov, raw.nu_cov.T)
        assert np.linalg.eigvalsh(raw.nu_cov)[0] > 0
        assert raw.zeta_means.shape == (24, 3)
        assert raw.zeta_covs.shape == (24, 3, 3)
        for cov in raw.zeta_covs:
            assert np.linalg.eigvalsh(cov)[0] > 0
        assert raw.noise_precision_mean > 0

    def test_score_moments_match_per_curve_inversion(self, small_fit_state):
        # Reference: each curve's q(zeta_i) inverted on its own.
        import vmpfpca.graph as fg
        from vmpfpca.expfam import invert_spd, moore_penrose_duplication, unvec

        raw = extract(small_fit_state)
        q = fg.q_natural_params(small_fit_state.graph, small_fit_state.store, fg.ZETA)
        for i in range(q.eta1.shape[0]):
            precision = -2.0 * unvec(moore_penrose_duplication(3).T @ q.eta2[i])
            cov = invert_spd(precision)
            assert np.allclose(raw.zeta_covs[i], cov, rtol=1e-12, atol=1e-15)
            assert np.allclose(raw.zeta_means[i], cov @ q.eta1[i], rtol=1e-12, atol=1e-15)

    def test_partition_accessors(self, small_fit_state):
        raw = extract(small_fit_state)
        assert np.array_equal(raw.nu_mu(), raw.nu_mean[:12])
        assert np.array_equal(raw.nu_psi(2), raw.nu_mean[36:48])


class TestScoreCovariances:
    def test_exported_in_frame_of_scores(self):
        # Recover the linear map A from the centred pre-rotation score means to
        # the final scores by least squares; the covariances must be A C_i A'.
        dataset, _ = generate(SimConfig(num_curves=20, seed=3))
        state = fit(dataset, FitConfig(num_eigen=2, max_iter=2000))
        result = finalize(state)
        raw = extract(state)
        centred = raw.zeta_means - raw.zeta_means.mean(axis=0)
        a_t, *_ = np.linalg.lstsq(centred, result.scores, rcond=None)
        assert np.abs(centred @ a_t - result.scores).max() < 1e-10 * np.abs(result.scores).max()
        expected = a_t.T @ raw.zeta_covs @ a_t
        assert result.score_covariances.shape == (20, 2, 2)
        assert np.allclose(result.score_covariances, expected, rtol=1e-8, atol=1e-14)
        assert not np.allclose(result.score_covariances, raw.zeta_covs, rtol=1e-2)

    def test_sign_flip_carries_covariances(self):
        rng = np.random.default_rng(18)
        grid, mean_curve, funcs, scores = random_inputs(rng)
        a = rng.standard_normal((scores.shape[0], 2, 2))
        covs = a @ a.transpose(0, 2, 1)
        fit_out = orthogonalize(mean_curve, funcs, scores, grid, score_covs=covs)
        aligned = sign_align(fit_out, fit_out.eigenfunctions * [-1.0, 1.0])
        flipped = aligned.score_covariances
        assert np.array_equal(flipped[:, 0, 1], -fit_out.score_covariances[:, 0, 1])
        assert np.array_equal(np.diagonal(flipped, axis1=1, axis2=2),
                              np.diagonal(fit_out.score_covariances, axis1=1, axis2=2))


class TestEvaluateGrid:
    def test_grid_spec(self):
        grid = evaluation_grid(101)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.allclose(np.diff(grid), 0.01)
        with pytest.raises(ValueError):
            evaluation_grid(100)

    def test_pure_slope_component(self, small_fit_state):
        raw = extract(small_fit_state)
        slope_coefs = np.zeros(12)
        slope_coefs[1] = 1.0
        doctored = raw.__class__(
            nu_mean=np.concatenate([raw.nu_mu(), slope_coefs, raw.nu_psi(1), raw.nu_psi(2)]),
            nu_cov=raw.nu_cov,
            zeta_means=raw.zeta_means,
            zeta_covs=raw.zeta_covs,
            noise_precision_mean=raw.noise_precision_mean,
            num_eigen=3,
            num_splines=10,
        )
        grid, _, funcs, _ = evaluate_grid(doctored, small_fit_state.basis, 101)
        assert np.allclose(funcs[:, 0], grid, atol=1e-12)

    def test_shapes(self, small_fit_state):
        raw = extract(small_fit_state)
        grid, mean_curve, funcs, scores = evaluate_grid(raw, small_fit_state.basis, 151)
        assert grid.shape == (151,)
        assert mean_curve.shape == (151,)
        assert funcs.shape == (151, 3)
        assert scores.shape == (24, 3)


class TestOrthogonalize:
    def test_single_component_fixed_point(self):
        rng = np.random.default_rng(1)
        grid = np.linspace(0.0, 1.0, 301)
        func = np.sqrt(2.0) * np.sin(2.0 * np.pi * grid)
        func /= trapezoid_norm(func, grid)
        scores = rng.standard_normal((80, 1)) * 1.3
        scores -= scores.mean()
        variance = float(scores.var(ddof=1))
        fit_out = orthogonalize(np.zeros_like(grid), func[:, None], scores, grid)
        aligned = sign_align(fit_out, func[:, None])
        assert np.allclose(aligned.eigenfunctions[:, 0], func, atol=1e-8)
        assert fit_out.eigenvalues[0] == pytest.approx(variance, rel=1e-8)

    def test_reconstruction_identity(self):
        # The rotation must reproduce the pre-rotation fitted curves exactly.
        rng = np.random.default_rng(2)
        grid, mean_curve, funcs, scores = random_inputs(rng)
        fit_out = orthogonalize(mean_curve, funcs, scores, grid)
        before = mean_curve[:, None] + funcs @ scores.T
        after = fit_out.mean_curve[:, None] + fit_out.eigenfunctions @ fit_out.scores.T
        assert np.abs(before - after).max() < 1e-10
        assert np.abs(before - fit_out.fitted).max() < 1e-10

    def test_score_sample_identities(self):
        rng = np.random.default_rng(3)
        grid, mean_curve, funcs, scores = random_inputs(rng)
        fit_out = orthogonalize(mean_curve, funcs, scores, grid)
        n = scores.shape[0]
        sample_mean = fit_out.scores.mean(axis=0)
        assert np.abs(sample_mean).max() <= 1e-8 * np.abs(fit_out.scores).max()
        sample_cov = fit_out.scores.T @ fit_out.scores / (n - 1)
        off = sample_cov - np.diag(np.diag(sample_cov))
        assert np.abs(off).max() <= 1e-8 * np.trace(sample_cov)
        assert np.allclose(np.diag(sample_cov), fit_out.eigenvalues, rtol=1e-10)

    def test_trapezoid_orthonormal_columns(self):
        rng = np.random.default_rng(4)
        grid, mean_curve, funcs, scores = random_inputs(rng)
        fit_out = orthogonalize(mean_curve, funcs, scores, grid)
        gram = np.array(
            [
                [
                    trapezoid_inner(fit_out.eigenfunctions[:, a], fit_out.eigenfunctions[:, b], grid)
                    for b in range(2)
                ]
                for a in range(2)
            ]
        )
        assert np.abs(gram - np.eye(2)).max() < 1e-10

    def test_eigenvalues_descending_positive(self):
        rng = np.random.default_rng(5)
        grid, mean_curve, funcs, scores = random_inputs(rng)
        fit_out = orthogonalize(mean_curve, funcs, scores, grid)
        assert np.all(np.diff(fit_out.eigenvalues) <= 0)
        assert np.all(fit_out.eigenvalues > 0)

    def test_grid_orthogonality_is_quadrature_limited(self):
        # Columns are exactly orthonormal under the trapezoid inner product;
        # the plain grid inner product then differs only by the half-weighted
        # endpoint terms, of order (grid spacing) times endpoint products.
        rng = np.random.default_rng(9)
        grid, mean_curve, funcs, scores = random_inputs(rng, num_grid=1001)
        fit_out = orthogonalize(mean_curve, funcs, scores, grid)
        psi = fit_out.eigenfunctions
        gram = psi.T @ psi
        rel = np.abs(gram / np.sqrt(np.outer(np.diag(gram), np.diag(gram))) - np.eye(2))
        spacing = grid[1] - grid[0]
        endpoint_bound = 0.5 * spacing * (
            np.abs(psi[0]).max() ** 2 + np.abs(psi[-1]).max() ** 2
        )
        assert rel.max() <= endpoint_bound + 1e-12

    def test_rank_deficiency_detected(self):
        rng = np.random.default_rng(6)
        grid, mean_curve, funcs, scores = random_inputs(rng)
        funcs[:, 1] = 0.0
        with pytest.raises(RankDeficiencyError):
            orthogonalize(mean_curve, funcs, scores, grid)

    def test_degenerate_component_detected(self):
        # Two curves cannot support three components: the score sample
        # covariance has a non-positive eigenvalue.
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 1.0, 201)
        funcs = rng.standard_normal((201, 3)).cumsum(axis=0) / 10.0
        scores = rng.standard_normal((2, 3))
        with pytest.raises(DegenerateComponentError, match="naming|not positive|3"):
            orthogonalize(np.zeros_like(grid), funcs, scores, grid)

    def test_collapsed_component_tolerated(self):
        # A component shrunk to numerical zero by the fit must pass through
        # with a near-zero eigenvalue instead of raising.
        rng = np.random.default_rng(16)
        grid, mean_curve, funcs, scores = random_inputs(rng, num_eigen=3, num_curves=40)
        funcs[:, 2] = 1e-13 * rng.standard_normal(grid.size)
        scores[:, 2] = 1e-10 * rng.standard_normal(40)
        fit_out = orthogonalize(mean_curve, funcs, scores, grid)
        assert fit_out.eigenvalues[2] < 1e-12
        before = mean_curve[:, None] + funcs @ scores.T
        assert np.abs(before - fit_out.fitted).max() < 1e-9

    def test_needs_two_curves(self):
        rng = np.random.default_rng(8)
        grid, mean_curve, funcs, _ = random_inputs(rng)
        with pytest.raises(ValueError):
            orthogonalize(mean_curve, funcs, np.ones((1, 2)), grid)


class TestFittedCurves:
    def test_zero_scores_reproduce_mean(self):
        # Curves 0-3 cancel, so curve 4 sits at the score sample mean.
        rng = np.random.default_rng(16)
        grid, mean_curve, funcs, _ = random_inputs(rng)
        half = rng.standard_normal((2, 2))
        scores = np.vstack([half, -half, np.zeros((1, 2))])
        fit_out = orthogonalize(mean_curve, funcs, scores, grid)
        assert fit_out.fitted.shape == (grid.size, 5)
        assert np.allclose(fit_out.fitted[:, 4], fit_out.mean_curve, atol=1e-12)
        assert np.allclose(fit_out.fitted[:, 4], mean_curve, atol=1e-12)

    def test_unit_score_single_curve(self):
        rng = np.random.default_rng(17)
        grid, mean_curve, funcs, scores = random_inputs(rng)
        fit_out = orthogonalize(mean_curve, funcs, scores, grid)
        for i in range(scores.shape[0]):
            expected = fit_out.mean_curve + fit_out.eigenfunctions @ fit_out.scores[i]
            assert np.allclose(fit_out.fitted[:, i], expected, atol=1e-12)

    def test_matches_pre_rotation_fits_on_real_run(self, small_fit_state):
        result = finalize(small_fit_state)
        raw = extract(small_fit_state)
        grid, mean_curve, funcs, scores = evaluate_grid(
            raw, small_fit_state.basis, small_fit_state.config.grid_size
        )
        pre_rotation = mean_curve[:, None] + funcs @ scores.T
        assert np.abs(pre_rotation - result.fitted).max() < 1e-8


class TestGramSchmidt:
    def test_orthonormal_input_unchanged_up_to_sign(self):
        grid = np.linspace(0.0, 1.0, 1001)
        funcs = true_eigenfunctions(grid)
        funcs = funcs / [trapezoid_norm(funcs[:, l], grid) for l in range(2)]
        out = gram_schmidt(funcs, grid)
        for l in range(2):
            assert np.allclose(out[:, l], funcs[:, l], atol=1e-9) or np.allclose(
                out[:, l], -funcs[:, l], atol=1e-9
            )

    def test_analytically_orthogonal_pair(self):
        grid = np.linspace(0.0, 1.0, 2001)
        raw = np.column_stack([np.sin(2 * np.pi * grid), np.cos(2 * np.pi * grid)])
        out = gram_schmidt(raw, grid)
        for l in range(2):
            assert trapezoid_norm(out[:, l], grid) == pytest.approx(1.0, abs=1e-12)
        assert trapezoid_inner(out[:, 0], out[:, 1], grid) == pytest.approx(0.0, abs=1e-6)

    def test_span_preserved(self):
        rng = np.random.default_rng(10)
        grid = np.linspace(0.0, 1.0, 501)
        funcs = rng.standard_normal((501, 3)).cumsum(axis=0)
        out = gram_schmidt(funcs, grid)
        # least-squares projection of the originals onto the output span
        coefs, *_ = np.linalg.lstsq(out, funcs, rcond=None)
        residual = funcs - out @ coefs
        assert np.abs(residual).max() < 1e-10

    @staticmethod
    def _principal_angles(a, b, grid):
        # sine-based formula; the arccos of a Gram cosine cannot resolve
        # angles below ~2e-8
        weights = trapezoid_weights(grid)
        q_a, _ = np.linalg.qr(np.sqrt(weights)[:, None] * a)
        q_b, _ = np.linalg.qr(np.sqrt(weights)[:, None] * b)
        sines = np.linalg.svd(q_b - q_a @ (q_a.T @ q_b), compute_uv=False)
        return np.arcsin(np.clip(sines, -1.0, 1.0))

    def test_spans_same_space_as_weighted_svd_basis(self, small_fit_state):
        # The fit prunes the third component to numerical zero, so the span
        # comparison applies to the two supported components.
        result = finalize(small_fit_state)
        raw = extract(small_fit_state)
        grid, _, funcs, _ = evaluate_grid(raw, small_fit_state.basis, result.grid.size)
        gs = gram_schmidt(funcs[:, :2], grid)
        angles = self._principal_angles(gs, result.eigenfunctions[:, :2], grid)
        assert np.all(angles < 1e-8)

    def test_spans_match_on_full_rank_input(self):
        rng = np.random.default_rng(15)
        grid, mean_curve, funcs, scores = random_inputs(rng, num_eigen=3)
        fit_out = orthogonalize(mean_curve, funcs, scores, grid)
        gs = gram_schmidt(funcs, grid)
        angles = self._principal_angles(gs, fit_out.eigenfunctions, grid)
        assert np.all(angles < 1e-8)

    def test_dependent_columns_detected(self):
        grid = np.linspace(0.0, 1.0, 101)
        funcs = np.column_stack([np.sin(np.pi * grid), np.sin(np.pi * grid)])
        with pytest.raises(ValueError, match="dependent"):
            gram_schmidt(funcs, grid)


class TestSignAlign:
    def test_self_reference_no_flip(self):
        rng = np.random.default_rng(11)
        grid, mean_curve, funcs, scores = random_inputs(rng)
        fit_out = orthogonalize(mean_curve, funcs, scores, grid)
        aligned = sign_align(fit_out, fit_out.eigenfunctions)
        assert np.array_equal(aligned.eigenfunctions, fit_out.eigenfunctions)
        assert np.array_equal(aligned.scores, fit_out.scores)

    def test_negated_reference_flips_and_preserves_fits(self):
        rng = np.random.default_rng(12)
        grid, mean_curve, funcs, scores = random_inputs(rng)
        fit_out = orthogonalize(mean_curve, funcs, scores, grid)
        aligned = sign_align(fit_out, -fit_out.eigenfunctions)
        assert np.array_equal(aligned.eigenfunctions, -fit_out.eigenfunctions)
        assert np.array_equal(aligned.scores, -fit_out.scores)
        refit = aligned.mean_curve[:, None] + aligned.eigenfunctions @ aligned.scores.T
        assert np.abs(refit - fit_out.fitted).max() < 1e-12

    def test_true_eigenfunction_reference(self, small_fit_state):
        result = finalize(small_fit_state)
        truth = true_eigenfunctions(result.grid)
        reference = np.column_stack([truth, result.eigenfunctions[:, 2:]])
        aligned = sign_align(result, reference)
        for l in range(2):
            inner = trapezoid_inner(aligned.eigenfunctions[:, l], truth[:, l], result.grid)
            assert inner > 0

    def test_orthogonal_reference_raises(self):
        rng = np.random.default_rng(13)
        grid, mean_curve, funcs, scores = random_inputs(rng)
        fit_out = orthogonalize(mean_curve, funcs, scores, grid)
        reference = fit_out.eigenfunctions.copy()
        reference[:, 0] = fit_out.eigenfunctions[:, 1]  # orthogonal to column 0
        with pytest.raises(SignAmbiguityError):
            sign_align(fit_out, reference)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(14)
        grid, mean_curve, funcs, scores = random_inputs(rng)
        fit_out = orthogonalize(mean_curve, funcs, scores, grid)
        with pytest.raises(ValueError):
            sign_align(fit_out, fit_out.eigenfunctions[:, :1])


class TestSplineBasisIntegration:
    def test_finalize_respects_grid_size(self, small_fit_state):
        result = finalize(small_fit_state, grid_size=257)
        assert result.grid.shape == (257,)
        assert result.eigenfunctions.shape == (257, 3)

    def test_basis_reused_from_state(self, small_fit_state):
        basis = build_basis(10)
        assert np.allclose(basis.interior_knots, small_fit_state.basis.interior_knots)
