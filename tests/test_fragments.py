import numpy as np
import pytest
from scipy import integrate, stats

from vmpfpca.expfam import (
    InvChiSqParams,
    duplication_matrix,
    gaussian_moments_to_vec,
    gaussian_moments_to_vech,
    gaussian_vech_to_moments,
    invchisq_mean_reciprocal,
    vec,
)
from vmpfpca.fragments import (
    LikelihoodExpectations,
    build_likelihood_cache,
    gaussian_prior_message,
    igw_prior_message,
    iterated_igw_messages,
    likelihood_expectations,
    likelihood_expected_sq_norms,
    likelihood_message_to_nu,
    likelihood_message_to_sigsq_eps,
    likelihood_messages_to_zeta,
    penalization_messages,
    penalization_messages_to_variances,
    with_score_moments,
)
from tests_oracle_support import dense_penalization_precision


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + d * np.eye(d))


def make_cache(rng, num_curves, counts, num_coefs):
    designs = [rng.standard_normal((t, num_coefs)) for t in counts]
    responses = [rng.standard_normal(t) for t in counts]
    return build_likelihood_cache(designs, responses), designs, responses


def make_moments(rng, num_eigen, num_coefs, num_curves):
    dim = (num_eigen + 1) * num_coefs
    nu_mean = rng.standard_normal(dim)
    nu_cov = random_spd(rng, dim, scale=0.1)
    zeta_means = rng.standard_normal((num_curves, num_eigen))
    zeta_covs = np.stack([random_spd(rng, num_eigen, scale=0.2) for _ in range(num_curves)])
    return nu_mean, nu_cov, zeta_means, zeta_covs


class TestGaussianPrior:
    def test_score_prior_closed_form(self):
        num_eigen = 3
        message = gaussian_prior_message(num_eigen)
        assert np.array_equal(message.eta1, np.zeros(num_eigen))
        expected = duplication_matrix(num_eigen).T @ (-0.5 * vec(np.eye(num_eigen)))
        assert np.allclose(message.eta2, expected)

    def test_scalar(self):
        message = gaussian_prior_message(1)
        assert np.allclose(message.eta1, [0.0])
        assert np.allclose(message.eta2, [-0.5])

    def test_density_ratio_oracle(self):
        # exp{T(x)' eta} must match the normal density up to one constant, so
        # log-density differences between random points agree exactly.
        rng = np.random.default_rng(21)
        mean = rng.standard_normal(3)
        cov = random_spd(rng, 3)
        message = gaussian_moments_to_vec(mean, cov)
        dist = stats.multivariate_normal(mean, cov)
        points = rng.standard_normal((100, 3))
        base = points[0]

        def log_kernel(x):
            stats_vec = np.concatenate([x, vec(np.outer(x, x))])
            return stats_vec @ message.as_vector()

        for x in points[1:]:
            lhs = log_kernel(x) - log_kernel(base)
            rhs = dist.logpdf(x) - dist.logpdf(base)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_vech_basis_density_ratio(self):
        rng = np.random.default_rng(22)
        mean = rng.standard_normal(2)
        cov = random_spd(rng, 2)
        message = gaussian_moments_to_vech(mean, cov)
        dist = stats.multivariate_normal(mean, cov)
        points = rng.standard_normal((50, 2))

        def log_kernel(x):
            outer = np.outer(x, x)
            # sufficient statistic is (x, vech(xx')); the duplication lives in eta
            stats_vec = np.concatenate([x, [outer[0, 0], outer[1, 0], outer[1, 1]]])
            return stats_vec @ message.as_vector()

        base = points[0]
        for x in points[1:]:
            assert log_kernel(x) - log_kernel(base) == pytest.approx(
                dist.logpdf(x) - dist.logpdf(base), abs=1e-10
            )


class TestIgwPrior:
    def test_unit_hyperparameter(self):
        message = igw_prior_message(1.0)
        assert message == InvChiSqParams(-1.5, -0.5)

    def test_large_hyperparameter(self):
        message = igw_prior_message(1e5)
        assert message.eta1 == -1.5
        assert message.eta2 == pytest.approx(-5e-11)

    def test_normalizes_to_inverse_chisq_density(self):
        scale_hyper = 2.0
        message = igw_prior_message(scale_hyper)
        eta1, eta2 = message.eta1, message.eta2

        def kernel(x):
            return np.exp(eta1 * np.log(x) + eta2 / x)

        normalizer, _ = integrate.quad(kernel, 0.0, np.inf)
        shape, scale = 1.0, 1.0 / scale_hyper**2
        from scipy.special import gammaln

        analytic = np.exp(gammaln(shape / 2.0) - (shape / 2.0) * np.log(scale / 2.0))
        assert normalizer == pytest.approx(analytic, rel=1e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            igw_prior_message(0.0)


class TestIteratedIgw:
    def test_message_to_variance(self):
        # npbf on the auxiliary edge with reciprocal mean 1
        to_sigsq, _ = iterated_igw_messages(
            InvChiSqParams(-5.0, -2.0), InvChiSqParams(-3.0, -2.0)
        )
        assert to_sigsq == InvChiSqParams(-1.5, -0.5)

    def test_message_to_auxiliary(self):
        # npbf on the variance edge with reciprocal mean 2
        _, to_aux = iterated_igw_messages(
            InvChiSqParams(-5.0, -2.0), InvChiSqParams(-3.0, -2.0)
        )
        assert to_aux == InvChiSqParams(-0.5, -1.0)

    def test_fixed_point_matches_coordinate_ascent_oracle(self):
        # Two-node chain: a fixed synthetic likelihood message into sigma^2,
        # sigma^2 | a ~ Inv-chi2(1, 1/a), a ~ Inv-chi2(1, 1/A^2).  The mean
        # field updates in moment form are
        #   E(1/sigma^2) = (T + 1) / (S + E(1/a))
        #   E(1/a) = 2 / (E(1/sigma^2) + 1/A^2)
        count, sq_sum, scale_hyper = 17.0, 23.0, 1.5
        lik_message = InvChiSqParams(-count / 2.0, -sq_sum / 2.0)
        prior_message = igw_prior_message(scale_hyper)

        e_recip_sigsq, e_recip_a = 1.0, 1.0
        for _ in range(400):
            e_recip_sigsq = (count + 1.0) / (sq_sum + e_recip_a)
            e_recip_a = 2.0 / (e_recip_sigsq + scale_hyper**-2)

        to_sigsq = InvChiSqParams(-1.5, -0.5)
        to_aux = InvChiSqParams(-0.5, -0.5)
        for _ in range(400):
            to_sigsq, to_aux = iterated_igw_messages(
                to_sigsq + lik_message, to_aux + prior_message
            )
        vmp_recip_sigsq = invchisq_mean_reciprocal(to_sigsq + lik_message)
        vmp_recip_a = invchisq_mean_reciprocal(to_aux + prior_message)
        assert vmp_recip_sigsq == pytest.approx(e_recip_sigsq, abs=1e-8)
        assert vmp_recip_a == pytest.approx(e_recip_a, abs=1e-8)

    def test_degenerate_edge_named(self):
        with pytest.raises(Exception, match="iterated_eps"):
            iterated_igw_messages(
                InvChiSqParams(-5.0, -2.0),
                InvChiSqParams(-3.0, 0.0),
                edge_name="iterated_eps",
            )


class TestLikelihoodExpectations:
    def test_point_mass_scores(self):
        rng = np.random.default_rng(31)
        num_eigen, num_coefs = 2, 5
        cache, _, _ = make_cache(rng, 3, [4, 6, 5], num_coefs)
        nu_mean, nu_cov, zeta_means, _ = make_moments(rng, num_eigen, num_coefs, 3)
        zeta_covs = np.zeros((3, num_eigen, num_eigen))
        exp = likelihood_expectations(cache, nu_mean, nu_cov, zeta_means, zeta_covs)
        for i in range(3):
            zt = np.concatenate([[1.0], zeta_means[i]])
            assert np.allclose(exp.zt_second[i], np.outer(zt, zt))

    def test_point_mass_coefficients(self):
        rng = np.random.default_rng(32)
        num_eigen, num_coefs = 2, 4
        cache, _, _ = make_cache(rng, 2, [5, 7], num_coefs)
        nu_mean = rng.standard_normal((num_eigen + 1) * num_coefs)
        nu_cov = np.zeros(((num_eigen + 1) * num_coefs,) * 2)
        zeta_means = rng.standard_normal((2, num_eigen))
        zeta_covs = np.zeros((2, num_eigen, num_eigen))
        exp = likelihood_expectations(cache, nu_mean, nu_cov, zeta_means, zeta_covs)
        v_psi = nu_mean.reshape(num_eigen + 1, num_coefs).T[:, 1:]
        for i in range(2):
            gram = cache.gram[i]
            assert np.allclose(exp.h_psi[i], v_psi.T @ gram @ v_psi)
            nu_mu = nu_mean[:num_coefs]
            assert np.allclose(exp.h_cross[i], v_psi.T @ gram @ nu_mu)
            assert np.allclose(exp.h_full[i, 0, 0], nu_mu @ gram @ nu_mu)

    def test_monte_carlo_oracle(self):
        # Trace formulas for E(h), E(H) and the expected squared norm match
        # plain averages over Gaussian draws of nu and the scores.
        rng = np.random.default_rng(33)
        num_eigen, num_coefs, count = 2, 5, 4
        cache, designs, responses = make_cache(rng, 1, [count], num_coefs)
        nu_mean, nu_cov, zeta_means, zeta_covs = make_moments(rng, num_eigen, num_coefs, 1)
        exp = likelihood_expectations(cache, nu_mean, nu_cov, zeta_means, zeta_covs)

        draws = 100_000
        nu_draws = rng.multivariate_normal(nu_mean, nu_cov, size=draws)
        zeta_draws = rng.multivariate_normal(zeta_means[0], zeta_covs[0], size=draws)
        v_draws = nu_draws.reshape(draws, num_eigen + 1, num_coefs).transpose(0, 2, 1)
        gram = cache.gram[0]

        h_full_mc = np.einsum("spa,pq,sqb->ab", v_draws, gram, v_draws) / draws
        assert np.allclose(exp.h_full[0], h_full_mc, rtol=0.01, atol=0.01 * np.abs(h_full_mc).max())

        zt_draws = np.column_stack([np.ones(draws), zeta_draws])
        fits = np.einsum("tp,spa,sa->st", designs[0], v_draws, zt_draws)
        sq_mc = ((responses[0][None, :] - fits) ** 2).sum(axis=1).mean()
        sq = likelihood_expected_sq_norms(cache, exp)[0]
        assert sq == pytest.approx(sq_mc, rel=0.01)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(34)
        cache, _, _ = make_cache(rng, 1, [4], 5)
        with pytest.raises(ValueError):
            likelihood_expectations(
                cache,
                np.zeros(7),
                np.zeros((7, 7)),
                np.zeros((1, 2)),
                np.zeros((1, 2, 2)),
            )

    def test_h_full_symmetric_psd(self):
        rng = np.random.default_rng(35)
        cache, _, _ = make_cache(rng, 4, [5, 6, 7, 8], 6)
        nu_mean, nu_cov, zeta_means, zeta_covs = make_moments(rng, 2, 6, 4)
        exp = likelihood_expectations(cache, nu_mean, nu_cov, zeta_means, zeta_covs)
        for i in range(4):
            assert np.allclose(exp.h_full[i], exp.h_full[i].T)
            assert np.linalg.eigvalsh(exp.h_full[i])[0] > -1e-10


    def test_score_update_reuses_nu_part(self):
        rng = np.random.default_rng(36)
        cache, _, _ = make_cache(rng, 3, [5, 6, 7], 5)
        nu_mean, nu_cov, zeta_means, zeta_covs = make_moments(rng, 2, 5, 3)
        _, _, new_means, new_covs = make_moments(rng, 2, 5, 3)
        exp = likelihood_expectations(cache, nu_mean, nu_cov, zeta_means, zeta_covs)
        updated = with_score_moments(exp, new_means, new_covs)
        fresh = likelihood_expectations(cache, nu_mean, nu_cov, new_means, new_covs)
        assert updated.h_full is exp.h_full
        for name in LikelihoodExpectations.__dataclass_fields__:
            assert np.array_equal(getattr(updated, name), getattr(fresh, name)), name


class TestLikelihoodMessageToNu:
    def test_zero_response_zeroes_first_block(self):
        rng = np.random.default_rng(41)
        num_coefs = 4
        designs = [rng.standard_normal((5, num_coefs))]
        cache = build_likelihood_cache(designs, [np.zeros(5)])
        nu_mean, nu_cov, zeta_means, zeta_covs = make_moments(rng, 1, num_coefs, 1)
        exp = likelihood_expectations(cache, nu_mean, nu_cov, zeta_means, zeta_covs)
        message = likelihood_message_to_nu(cache, exp, 1.3)
        assert np.allclose(message.eta1, 0.0)
        assert not np.allclose(message.eta2, 0.0)

    def test_kronecker_identity(self):
        # (zeta-tilde' kron C) nu equals C (nu_mu + sum_l zeta_l nu_psi_l)
        rng = np.random.default_rng(42)
        num_eigen, num_coefs, count = 3, 4, 6
        design = rng.standard_normal((count, num_coefs))
        nu = rng.standard_normal((num_eigen + 1) * num_coefs)
        zeta = rng.standard_normal(num_eigen)
        zt = np.concatenate([[1.0], zeta])
        lhs = np.kron(zt[None, :], design) @ nu
        blocks = nu.reshape(num_eigen + 1, num_coefs)
        rhs = design @ (blocks[0] + zeta @ blocks[1:])
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_point_mass_multi_curve_matches_complete_conditional(self):
        # L=1, K=3, n=2 at point masses: the message must equal the exact
        # Gaussian conditional naturals of the stacked linear model.
        rng = np.random.default_rng(44)
        num_coefs = 5
        designs = [rng.standard_normal((4, num_coefs)), rng.standard_normal((3, num_coefs))]
        responses = [rng.standard_normal(4), rng.standard_normal(3)]
        cache = build_likelihood_cache(designs, responses)
        zeta = rng.standard_normal((2, 1))
        nu_mean = rng.standard_normal(2 * num_coefs)
        e_recip = 1.9
        exp = likelihood_expectations(
            cache, nu_mean, np.zeros((10, 10)), zeta, np.zeros((2, 1, 1))
        )
        message = likelihood_message_to_nu(cache, exp, e_recip)
        eta1 = np.zeros(2 * num_coefs)
        eta2 = np.zeros((2 * num_coefs) ** 2)
        for i in range(2):
            stacked = np.kron(np.array([[1.0, zeta[i, 0]]]), designs[i])
            eta1 += e_recip * stacked.T @ responses[i]
            eta2 += -0.5 * e_recip * vec(stacked.T @ stacked)
        assert np.allclose(message.eta1, eta1, atol=1e-12)
        assert np.allclose(message.eta2, eta2, atol=1e-12)

    def test_point_mass_matches_scripted_expansion(self):
        # n=1, T=3, L=1, K=3 (so 2+K=5 columns); with point-mass moments the
        # message must equal the Gaussian natural parameters of the exact
        # linear model y = (zt' kron C) nu + noise.
        rng = np.random.default_rng(43)
        num_coefs, count = 5, 3
        design = rng.standard_normal((count, num_coefs))
        response = rng.standard_normal(count)
        cache = build_likelihood_cache([design], [response])
        zeta = rng.standard_normal((1, 1))
        nu_mean = rng.standard_normal(2 * num_coefs)
        e_recip = 0.7
        exp = likelihood_expectations(
            cache, nu_mean, np.zeros((10, 10)), zeta, np.zeros((1, 1, 1))
        )
        message = likelihood_message_to_nu(cache, exp, e_recip)

        design_full = np.kron(np.array([[1.0, zeta[0, 0]]]), design)  # (zt' kron C)
        eta1_expected = e_recip * design_full.T @ response
        eta2_expected = -0.5 * e_recip * vec(design_full.T @ design_full)
        assert np.allclose(message.eta1, eta1_expected, atol=1e-12)
        assert np.allclose(message.eta2, eta2_expected, atol=1e-12)


class TestLikelihoodMessageToZeta:
    def test_zero_noise_precision_gives_flat_message(self):
        rng = np.random.default_rng(51)
        cache, _, _ = make_cache(rng, 2, [4, 5], 4)
        nu_mean, nu_cov, zeta_means, zeta_covs = make_moments(rng, 2, 4, 2)
        exp = likelihood_expectations(cache, nu_mean, nu_cov, zeta_means, zeta_covs)
        message = likelihood_messages_to_zeta(cache, exp, 0.0)
        assert np.allclose(message.as_vector(), 0.0)
        # the flat message is flagged when a density is requested from it
        with pytest.raises(Exception):
            gaussian_vech_to_moments(message)

    def test_point_mass_matches_conjugate_conditional(self):
        # With nu and sigma^2 fixed, q(zeta_i) must be the exact Gaussian
        # conditional of the linear model y_i - C nu_mu = C V_psi zeta + eps.
        rng = np.random.default_rng(52)
        num_eigen, num_coefs, count = 2, 5, 9
        design = rng.standard_normal((count, num_coefs))
        response = rng.standard_normal(count)
        cache = build_likelihood_cache([design], [response])
        nu_mean = rng.standard_normal((num_eigen + 1) * num_coefs)
        e_recip = 1.7
        exp = likelihood_expectations(
            cache,
            nu_mean,
            np.zeros((nu_mean.size, nu_mean.size)),
            np.zeros((1, num_eigen)),
            np.zeros((1, num_eigen, num_eigen)),
        )
        message = likelihood_messages_to_zeta(cache, exp, e_recip)

        prior = gaussian_prior_message(num_eigen)
        (q_mean,), (q_cov,) = gaussian_vech_to_moments(message + prior)

        blocks = nu_mean.reshape(num_eigen + 1, num_coefs)
        v_psi = blocks[1:].T
        precision = np.eye(num_eigen) + e_recip * v_psi.T @ design.T @ design @ v_psi
        cov_expected = np.linalg.inv(precision)
        mean_expected = cov_expected @ (
            e_recip * v_psi.T @ design.T @ (response - design @ blocks[0])
        )
        assert np.allclose(q_cov, cov_expected, atol=1e-10)
        assert np.allclose(q_mean, mean_expected, atol=1e-10)

    def test_single_component_precision_identity(self):
        rng = np.random.default_rng(53)
        num_coefs, count = 4, 8
        design = rng.standard_normal((count, num_coefs))
        cache = build_likelihood_cache([design], [rng.standard_normal(count)])
        nu_mean, nu_cov, zeta_means, zeta_covs = make_moments(rng, 1, num_coefs, 1)
        e_recip = 0.9
        exp = likelihood_expectations(cache, nu_mean, nu_cov, zeta_means, zeta_covs)
        message = likelihood_messages_to_zeta(cache, exp, e_recip)
        prior = gaussian_prior_message(1)
        q = message + prior
        precision = -2.0 * q.eta2[0, 0]
        # E(psi' C'C psi) includes the covariance correction
        psi_block = slice(num_coefs, 2 * num_coefs)
        expected = (
            nu_mean[psi_block] @ cache.gram[0] @ nu_mean[psi_block]
            + np.trace(nu_cov[psi_block, psi_block] @ cache.gram[0])
        )
        assert precision == pytest.approx(e_recip * expected + 1.0, rel=1e-12)


class TestLikelihoodMessageToSigsqEps:
    def test_count_component(self):
        rng = np.random.default_rng(61)
        cache, _, _ = make_cache(rng, 2, [3, 4], 4)
        nu_mean, nu_cov, zeta_means, zeta_covs = make_moments(rng, 1, 4, 2)
        exp = likelihood_expectations(cache, nu_mean, nu_cov, zeta_means, zeta_covs)
        message = likelihood_message_to_sigsq_eps(cache, exp)
        assert message.eta1 == -3.5

    def test_count_component_is_iteration_invariant(self):
        rng = np.random.default_rng(62)
        cache, _, _ = make_cache(rng, 3, [5, 6, 7], 4)
        first = None
        for trial in range(3):
            nu_mean, nu_cov, zeta_means, zeta_covs = make_moments(rng, 2, 4, 3)
            exp = likelihood_expectations(cache, nu_mean, nu_cov, zeta_means, zeta_covs)
            message = likelihood_message_to_sigsq_eps(cache, exp)
            if first is None:
                first = message.eta1
            assert message.eta1 == first == -9.0

    def test_point_mass_residual(self):
        rng = np.random.default_rng(63)
        num_eigen, num_coefs = 2, 4
        designs = [rng.standard_normal((6, num_coefs))]
        responses = [rng.standard_normal(6)]
        cache = build_likelihood_cache(designs, responses)
        nu_mean = rng.standard_normal((num_eigen + 1) * num_coefs)
        zeta = rng.standard_normal((1, num_eigen))
        exp = likelihood_expectations(
            cache,
            nu_mean,
            np.zeros((nu_mean.size, nu_mean.size)),
            zeta,
            np.zeros((1, num_eigen, num_eigen)),
        )
        message = likelihood_message_to_sigsq_eps(cache, exp)
        blocks = nu_mean.reshape(num_eigen + 1, num_coefs)
        fitted = designs[0] @ (blocks[0] + zeta[0] @ blocks[1:])
        residual = responses[0] - fitted
        assert message.eta2 == pytest.approx(-0.5 * residual @ residual, rel=1e-12)


class TestPenalizationFragment:
    def test_variance_message_arithmetic(self):
        # K = 10, E(u'u) = 2 for the mean-function block
        nu_mean = np.zeros(24)
        nu_mean[2] = nu_mean[3] = 1.0  # mean-block spline coefficients with u'u = 2
        nu_cov = np.zeros((24, 24))
        to_sigsq_mu, _ = penalization_messages_to_variances(nu_mean, nu_cov, 10)
        assert to_sigsq_mu == InvChiSqParams(-5.0, -1.0)

    def test_identity_expected_precision(self):
        dim = 15
        to_nu = penalization_messages(1.0, np.ones(3), num_splines=3)
        assert np.array_equal(to_nu.eta1, np.zeros(dim))
        assert np.array_equal(to_nu.eta2, -0.5 * vec(np.eye(dim)))

    def test_expected_sq_norm_monte_carlo(self):
        rng = np.random.default_rng(71)
        num_eigen, num_splines = 2, 4
        dim = (num_eigen + 1) * (2 + num_splines)
        nu_mean = rng.standard_normal(dim)
        nu_cov = random_spd(rng, dim, scale=0.05)
        messages = penalization_messages_to_variances(nu_mean, nu_cov, num_splines)
        assert len(messages) == num_eigen + 1
        draws = rng.multivariate_normal(nu_mean, nu_cov, size=200_000)
        num_coefs = 2 + num_splines
        for block, message in enumerate(messages):
            spline = slice(block * num_coefs + 2, (block + 1) * num_coefs)
            mc = (draws[:, spline] ** 2).sum(axis=1).mean()
            assert -2.0 * message.eta2 == pytest.approx(mc, rel=0.01)
            assert message.eta1 == -0.5 * num_splines

    def test_blockdiag_structure_of_expected_precision(self):
        dim = 10
        to_nu = penalization_messages(4.0, np.array([2.0, 3.0]), num_splines=3)
        precision = -2.0 * to_nu.eta2.reshape(dim, dim, order="F")
        expected = np.zeros((dim, dim))
        expected[:2, :2] = 0.25 * np.eye(2)
        expected[2:5, 2:5] = 2.0 * np.eye(3)
        expected[5:7, 5:7] = 0.25 * np.eye(2)
        expected[7:10, 7:10] = 3.0 * np.eye(3)
        assert np.allclose(precision, expected)

    @pytest.mark.parametrize("num_eigen, num_splines", [(1, 3), (3, 10), (4, 7)])
    def test_matches_dense_expected_precision(self, num_eigen, num_splines):
        rng = np.random.default_rng(72 + num_eigen)
        prior_beta_var = 1e10
        e_recip = rng.uniform(0.1, 5.0, num_eigen + 1)
        precision = dense_penalization_precision(
            prior_beta_var * np.eye(2), e_recip, num_splines
        )
        to_nu = penalization_messages(prior_beta_var, e_recip, num_splines)
        assert np.array_equal(to_nu.eta1, np.zeros(precision.shape[0]))
        assert np.allclose(to_nu.eta2, -0.5 * vec(precision), rtol=1e-14, atol=0.0)


class TestShapeAudit:
    @pytest.mark.parametrize("num_eigen", [1, 2, 3])
    @pytest.mark.parametrize("num_splines", [3, 5, 10])
    def test_message_dimensions(self, num_eigen, num_splines):
        rng = np.random.default_rng(num_eigen * 100 + num_splines)
        num_coefs = 2 + num_splines
        counts = [4, 7]
        cache, _, _ = make_cache(rng, 2, counts, num_coefs)
        nu_mean, nu_cov, zeta_means, zeta_covs = make_moments(rng, num_eigen, num_coefs, 2)
        exp = likelihood_expectations(cache, nu_mean, nu_cov, zeta_means, zeta_covs)
        dim = (num_eigen + 1) * num_coefs

        to_nu = likelihood_message_to_nu(cache, exp, 1.0)
        assert to_nu.eta1.shape == (dim,)
        assert to_nu.eta2.shape == (dim * dim,)

        to_zeta = likelihood_messages_to_zeta(cache, exp, 1.0)
        assert to_zeta.eta1.shape == (2, num_eigen)
        assert to_zeta.eta2.shape == (2, num_eigen * (num_eigen + 1) // 2)

        to_nu_pen = penalization_messages(1e10, np.ones(num_eigen + 1), num_splines)
        assert to_nu_pen.eta1.shape == (dim,)
        assert to_nu_pen.eta2.shape == (dim * dim,)
        to_variances = penalization_messages_to_variances(nu_mean, nu_cov, num_splines)
        assert len(to_variances) == num_eigen + 1

        assert exp.zt_mean.shape == (2, num_eigen + 1)
        assert exp.zt_second.shape == (2, num_eigen + 1, num_eigen + 1)
        assert exp.vpsi_mean.shape == (num_coefs, num_eigen)
        assert exp.h_cross.shape == (2, num_eigen)
        assert exp.h_psi.shape == (2, num_eigen, num_eigen)
        assert exp.h_full.shape == (2, num_eigen + 1, num_eigen + 1)


class TestPriorConstancy:
    def test_prior_messages_bitwise_stable(self):
        a = igw_prior_message(12.5)
        b = igw_prior_message(12.5)
        assert a== b
        first = gaussian_prior_message(2)
        second = gaussian_prior_message(2)
        assert np.array_equal(first.eta1, second.eta1)
        assert np.array_equal(first.eta2, second.eta2)
