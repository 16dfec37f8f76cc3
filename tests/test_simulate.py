import numpy as np
import pytest

from vmpfpca.simulate import (
    SimConfig,
    generate,
    ise,
    true_eigenfunction_1,
    true_eigenfunction_2,
    true_mean,
)


class TestGenerate:
    def test_observation_counts_in_range(self):
        dataset, _ = generate(SimConfig(num_curves=36, seed=1))
        counts = np.diff(dataset.offsets)
        assert all(20 <= c <= 30 for c in counts)
        assert dataset.num_curves == 36

    def test_times_sorted_in_unit_interval(self):
        dataset, _ = generate(SimConfig(num_curves=10, seed=3))
        for t in np.split(dataset.times, dataset.offsets[1:-1]):
            assert np.all(np.diff(t) >= 0)
            assert t.min() >= 0.0 and t.max() <= 1.0

    def test_seeded_runs_bitwise_identical(self):
        a, scores_a = generate(SimConfig(num_curves=12, seed=99))
        b, scores_b = generate(SimConfig(num_curves=12, seed=99))
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(scores_a, scores_b)

    def test_different_seeds_differ(self):
        a, _ = generate(SimConfig(num_curves=5, seed=1))
        b, _ = generate(SimConfig(num_curves=5, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_noise_variance_law_of_large_numbers(self):
        # Reconstruct the noiseless signal from the returned true scores; the
        # residual sample variance over ~1e5 observations estimates 1.0.
        config = SimConfig(num_curves=4200, seed=7)
        dataset, scores = generate(config)
        t = dataset.times
        row_scores = np.repeat(scores, np.diff(dataset.offsets), axis=0)
        signal = (
            true_mean(t)
            + row_scores[:, 0] * true_eigenfunction_1(t)
            + row_scores[:, 1] * true_eigenfunction_2(t)
        )
        residuals = dataset.values - signal
        assert residuals.size > 100_000
        assert residuals.var() == pytest.approx(1.0, rel=0.02)

    def test_score_sample_covariance_converges(self):
        _, scores = generate(SimConfig(num_curves=10_000, seed=11))
        cov = np.cov(scores.T)
        assert cov[0, 0] == pytest.approx(1.0, rel=0.05)
        assert cov[1, 1] == pytest.approx(0.25, rel=0.05)
        assert abs(cov[0, 1]) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(num_curves=0)
        with pytest.raises(ValueError):
            SimConfig(obs_range=(1, 30))
        with pytest.raises(ValueError):
            SimConfig(score_variances=(0.25, 1.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"noise_variance": float("inf")},
            {"noise_variance": float("nan")},
            {"score_variances": (float("inf"), 1.0)},
            {"seed": -1},
        ],
    )
    def test_non_finite_variances_and_negative_seed_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class TestTrueFunctions:
    def test_eigenfunctions_orthonormal_by_quadrature(self):
        grid = np.linspace(0.0, 1.0, 1001)
        psi1 = true_eigenfunction_1(grid)
        psi2 = true_eigenfunction_2(grid)
        assert np.trapezoid(psi1 * psi1, grid) == pytest.approx(1.0, abs=1e-4)
        assert np.trapezoid(psi2 * psi2, grid) == pytest.approx(1.0, abs=1e-4)
        assert np.trapezoid(psi1 * psi2, grid) == pytest.approx(0.0, abs=1e-4)


class TestIse:
    def test_zero_for_identical(self):
        grid = np.linspace(0.0, 1.0, 1001)
        f = true_mean(grid)
        assert ise(f, f, grid) == 0.0

    def test_first_eigenfunction_energy(self):
        grid = np.linspace(0.0, 1.0, 1001)
        assert ise(true_eigenfunction_1(grid), np.zeros_like(grid), grid) == pytest.approx(
            1.0, abs=1e-4
        )

    def test_mean_energy(self):
        grid = np.linspace(0.0, 1.0, 1001)
        assert ise(true_mean(grid), np.zeros_like(grid), grid) == pytest.approx(
            4.5, abs=1e-3
        )

    def test_symmetry_and_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(0.0, 1.0, 501)
        f = rng.standard_normal(501)
        g = rng.standard_normal(501)
        assert ise(f, g, grid) == ise(g, f, grid)
        base = ise(f, f + g, grid)
        assert ise(f, f + 2.0 * g, grid) == pytest.approx(4.0 * base, rel=1e-12)

    def test_length_mismatch(self):
        grid = np.linspace(0.0, 1.0, 101)
        with pytest.raises(ValueError):
            ise(np.zeros(100), np.zeros(101), grid)
