import numpy as np
import pytest

from vmpfpca.expfam import (
    DegenerateMessageError,
    GaussianVecParams,
    InvChiSqParams,
    duplication_matrix,
    gaussian_moments_to_vec,
    gaussian_moments_to_vech,
    gaussian_vec_to_moments,
    gaussian_vech_to_moments,
    invchisq_mean_reciprocal,
    invchisq_to_shape_scale,
    invert_spd,
    moore_penrose_duplication,
    unvec,
    vec,
    vech,
)
from tests_oracle_support import (
    invchisq_from_shape_scale,
    vec_to_vech_params,
    vech_to_vec_params,
)


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


class TestVecVech:
    def test_worked_example(self):
        a = np.array([[2.0, -1.0], [-3.0, 1.0]])
        assert np.array_equal(vec(a), [2.0, -3.0, -1.0, 1.0])
        assert np.array_equal(vech(a), [2.0, -3.0, 1.0])

    def test_scalar_identity(self):
        assert np.array_equal(vec(np.array([[7.5]])), [7.5])

    def test_vec_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 2))
        assert np.array_equal(unvec(vec(a), 3, 2), a)

    def test_vech_identity(self):
        assert np.array_equal(vech(np.eye(2)), [1.0, 0.0, 1.0])

    def test_vech_requires_square(self):
        with pytest.raises(ValueError):
            vech(np.zeros((2, 3)))

    def test_unvec_rejects_non_square_length(self):
        with pytest.raises(ValueError):
            unvec(np.arange(3.0))


class TestDuplication:
    def test_order_one(self):
        assert np.array_equal(duplication_matrix(1), [[1.0]])

    def test_order_two_by_enumeration(self):
        # Rows of D_2 pick the vech entries at positions (1,1), (2,1), (2,1), (2,2).
        expected = np.array(
            [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float
        )
        assert np.array_equal(duplication_matrix(2), expected)
        rng = np.random.default_rng(1)
        s = random_spd(rng, 2)
        assert np.array_equal(duplication_matrix(2) @ vech(s), vec(s))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_identities_exact(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d))
        s = 0.5 * (a + a.T)
        dup = duplication_matrix(d)
        pinv = moore_penrose_duplication(d)
        assert np.array_equal(dup @ vech(s), vec(s))
        assert np.array_equal(pinv @ vec(s), vech(s))
        if d <= 5:
            assert np.array_equal(pinv @ dup, np.eye(d * (d + 1) // 2))


class TestGaussianVec:
    def test_standard_normal(self):
        params = GaussianVecParams(np.zeros(2), vec(-0.5 * np.eye(2)))
        mean, cov = gaussian_vec_to_moments(params)
        assert np.allclose(mean, 0.0)
        assert np.allclose(cov, np.eye(2))

    def test_scalar_arithmetic(self):
        params = gaussian_moments_to_vec(np.array([1.0]), np.array([[4.0]]))
        assert np.allclose(params.eta1, [0.25])
        assert np.allclose(params.eta2, [-0.125])
        mean, cov = gaussian_vec_to_moments(params)
        assert np.allclose(mean, [1.0])
        assert np.allclose(cov, [[4.0]])

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        mean = rng.standard_normal(4)
        cov = random_spd(rng, 4)
        back_mean, back_cov = gaussian_vec_to_moments(gaussian_moments_to_vec(mean, cov))
        assert np.allclose(back_mean, mean, atol=1e-12)
        assert np.allclose(back_cov, cov, atol=1e-12)

    def test_degenerate_precision_rejected(self):
        params = GaussianVecParams(np.zeros(2), vec(0.5 * np.eye(2)))  # negative definite prec
        with pytest.raises(DegenerateMessageError):
            gaussian_vec_to_moments(params)

    def test_eta2_length_validated(self):
        with pytest.raises(ValueError):
            GaussianVecParams(np.zeros(2), np.zeros(3))


class TestGaussianVech:
    def test_scalar(self):
        params = gaussian_moments_to_vech(np.array([2.0]), np.array([[1.0]]))
        assert np.allclose(params.eta1, [2.0])
        assert np.allclose(params.eta2, [-0.5])
        mean, cov = gaussian_vech_to_moments(params)
        assert np.allclose(mean, [2.0])
        assert np.allclose(cov, [[1.0]])

    def test_round_trip_against_vec_path(self):
        rng = np.random.default_rng(11)
        mean = rng.standard_normal(3)
        cov = random_spd(rng, 3)
        vech_params = gaussian_moments_to_vech(mean, cov)
        mean_h, cov_h = gaussian_vech_to_moments(vech_params)
        mean_v, cov_v = gaussian_vec_to_moments(gaussian_moments_to_vec(mean, cov))
        assert np.allclose(mean_h, mean_v, atol=1e-12)
        assert np.allclose(cov_h, cov_v, atol=1e-12)
        assert np.allclose(mean_h, mean, atol=1e-12)
        assert np.allclose(cov_h, cov, atol=1e-12)

    def test_convert_between_bases(self):
        rng = np.random.default_rng(13)
        mean = rng.standard_normal(3)
        cov = random_spd(rng, 3)
        vec_params = gaussian_moments_to_vec(mean, cov)
        vech_params = vec_to_vech_params(vec_params)
        m1, c1 = gaussian_vech_to_moments(vech_params)
        m2, c2 = gaussian_vec_to_moments(vec_params)
        assert np.allclose(m1, m2, atol=1e-14)
        assert np.allclose(c1, c2, atol=1e-14)
        # Exact round trip back to the vec basis.
        back = vech_to_vec_params(vech_params)
        assert np.array_equal(back.eta1, vec_params.eta1)
        assert np.array_equal(back.eta2, vec_params.eta2)


class TestInvertSpd:
    @pytest.mark.parametrize("shape", [(5,), (7, 3), (2, 4, 6)])
    def test_batched_matches_per_matrix_inverse(self, shape):
        rng = np.random.default_rng(len(shape))
        *lead, d = shape
        stack = np.stack([random_spd(rng, d) for _ in range(int(np.prod(lead, dtype=int)))])
        stack = stack.reshape(*lead, d, d)
        inverse = invert_spd(stack)
        assert inverse.shape == stack.shape
        for idx in np.ndindex(*lead):
            expected = np.linalg.inv(stack[idx])
            assert np.abs(inverse[idx] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_ill_conditioned_still_inverted(self):
        # Eigenvalues spanning 1e-12 relative factorize: no fallback is needed.
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        matrix = q @ np.diag([1.0, 1e-4, 1e-8, 1e-12]) @ q.T
        inverse = invert_spd(matrix)
        assert np.abs(inverse @ matrix - np.eye(4)).max() < 1e-3

    def test_indefinite_raises_with_eigenvalue_range(self):
        matrix = np.diag([2.0, -1.0, 3.0])
        with pytest.raises(DegenerateMessageError, match=r"q\(x\).*\[-1\.000e\+00, 3\.000e\+00\]"):
            invert_spd(matrix, context="q(x)")

    def test_stack_names_failed_rows(self):
        stack = np.stack([np.eye(2), np.diag([1.0, 0.0]), 2.0 * np.eye(2), -np.eye(2)])
        with pytest.raises(DegenerateMessageError, match=r"rows \[1, 3\]"):
            invert_spd(stack)


class TestInvChiSq:
    def test_shape_scale_examples(self):
        assert invchisq_to_shape_scale(InvChiSqParams(-1.5, -0.5)) == (1.0, 1.0)
        assert invchisq_to_shape_scale(InvChiSqParams(-2.0, -3.0)) == (2.0, 6.0)

    def test_round_trip_exact(self):
        params = invchisq_from_shape_scale(3.0, 7.0)
        assert invchisq_to_shape_scale(params) == (3.0, 7.0)

    def test_improper_flagged(self):
        assert not InvChiSqParams(-0.5, -1.0).is_proper()
        with pytest.raises(DegenerateMessageError):
            invchisq_to_shape_scale(InvChiSqParams(-0.5, -1.0))

    def test_mean_reciprocal_examples(self):
        assert invchisq_mean_reciprocal(InvChiSqParams(-3.0, -4.0)) == 0.5
        assert invchisq_mean_reciprocal(InvChiSqParams(-1.5, -0.5)) == 1.0

    def test_mean_reciprocal_equals_shape_over_scale(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            shape = float(rng.uniform(0.5, 20.0))
            scale = float(rng.uniform(0.1, 30.0))
            params = invchisq_from_shape_scale(shape, scale)
            assert invchisq_mean_reciprocal(params) == pytest.approx(shape / scale, rel=1e-14)

    def test_mean_reciprocal_monte_carlo(self):
        # x ~ Inv-chi2(5, 2) means 1/x ~ Gamma(5/2, rate 1), E(1/x) = 5/2.
        rng = np.random.default_rng(42)
        shape, scale = 5.0, 2.0
        draws = rng.gamma(shape / 2.0, 2.0 / scale, size=1_000_000)
        params = invchisq_from_shape_scale(shape, scale)
        assert invchisq_mean_reciprocal(params) == pytest.approx(draws.mean(), rel=0.01)

    def test_zero_eta2_rejected(self):
        with pytest.raises(DegenerateMessageError):
            invchisq_mean_reciprocal(InvChiSqParams(-1.5, 0.0))


class TestRoundTripSweep:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 10])
    def test_many_random_instances(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(17):
            mean = rng.standard_normal(d)
            cov = random_spd(rng, d)
            m_v, c_v = gaussian_vec_to_moments(gaussian_moments_to_vec(mean, cov))
            assert np.allclose(m_v, mean, atol=1e-12 * d)
            assert np.allclose(c_v, cov, atol=1e-12 * d)
            m_h, c_h = gaussian_vech_to_moments(gaussian_moments_to_vech(mean, cov))
            assert np.allclose(m_h, mean, atol=1e-12 * d)
            assert np.allclose(c_h, cov, atol=1e-12 * d)
