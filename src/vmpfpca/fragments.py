"""The five fragment updates driving the FPCA variational scheme.

Three are standard building blocks (Gaussian prior, scalar inverse G-Wishart
prior, scalar iterated inverse G-Wishart); the other two carry the model:
the functional-principal-component Gaussian likelihood fragment and the
Gaussian penalization fragment.  The likelihood fragment is fully batched
across curves: the per-curve Gram matrices C_i'C_i and projections C_i'y_i
are cached once per fit and every per-iteration quantity is an einsum over
the curve axis.  The fragments are specialised to the model's fixed priors.
The Gaussian prior fragment emits the N(0, I) score prior in the vech
basis.  The penalization fragment's message to nu depends only on the
N(0, sigma^2_beta I) prior of the linear parts and on the smoothing
variances, so it needs no q(nu) moments; a second function forms the
variance messages from q(nu).  Every fragment returns natural-parameter
objects from :mod:`expfam`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .expfam import (
    GaussianVecParams,
    GaussianVechParams,
    InvChiSqParams,
    duplication_matrix,
    gaussian_moments_to_vech,
    invchisq_mean_reciprocal,
    vec,
)

# ---------------------------------------------------------------------------
# Prior fragments


def gaussian_prior_message(dim: int) -> GaussianVechParams:
    """Constant message of the N(0, I) score prior, in the vech basis (x, vech(xx'))."""
    return gaussian_moments_to_vech(np.zeros(dim), np.eye(dim))


def igw_prior_message(scale_hyper: float) -> InvChiSqParams:
    """Constant message of the scalar inverse G-Wishart prior with hyperparameter A.

    The auxiliary variable has an inverse chi-squared density with shape 1 and
    scale 1/A^2, so the natural parameters are (-3/2, -1/(2 A^2)).
    """
    if scale_hyper <= 0:
        raise ValueError("scale hyperparameter must be positive")
    return InvChiSqParams(-1.5, -0.5 / scale_hyper**2)


def iterated_igw_messages(
    npbf_sigsq: InvChiSqParams,
    npbf_a: InvChiSqParams,
    edge_name: str = "iterated inverse G-Wishart",
) -> tuple[InvChiSqParams, InvChiSqParams]:
    """Scalar iterated inverse G-Wishart fragment for sigma^2 | a ~ Inv-chi^2(1, 1/a).

    Returns (message to sigma^2, message to a).  Each outgoing message uses the
    reciprocal mean computed from the combined natural parameters on the
    opposite edge.
    """
    try:
        e_recip_a = invchisq_mean_reciprocal(npbf_a)
        e_recip_sigsq = invchisq_mean_reciprocal(npbf_sigsq)
    except Exception as err:
        raise type(err)(f"{edge_name}: {err}") from err
    return InvChiSqParams(-1.5, -0.5 * e_recip_a), InvChiSqParams(-0.5, -0.5 * e_recip_sigsq)


# ---------------------------------------------------------------------------
# Likelihood fragment


@dataclass(frozen=True)
class LikelihoodCache:
    """Iteration-invariant per-curve quantities derived from the design matrices."""

    gram: np.ndarray  # (n, P, P) with P = 2 + K; C_i' C_i
    proj: np.ndarray  # (n, P); C_i' y_i
    sq_norm: np.ndarray  # (n,); y_i' y_i
    counts: np.ndarray  # (n,); number of observations per curve

    @property
    def num_curves(self) -> int:
        return self.gram.shape[0]

    @property
    def num_coefs(self) -> int:
        return self.gram.shape[1]


def build_likelihood_cache(design_matrices, responses) -> LikelihoodCache:
    """Precompute C_i'C_i, C_i'y_i, y_i'y_i and T_i for every curve."""
    grams, projs, sq_norms, counts = [], [], [], []
    for design, y in zip(design_matrices, responses):
        y = np.asarray(y, dtype=float).reshape(-1)
        if design.shape[0] != y.size:
            raise ValueError("design matrix and response length disagree")
        grams.append(design.T @ design)
        projs.append(design.T @ y)
        sq_norms.append(float(y @ y))
        counts.append(y.size)
    return LikelihoodCache(
        gram=np.stack(grams),
        proj=np.stack(projs),
        sq_norm=np.asarray(sq_norms),
        counts=np.asarray(counts, dtype=float),
    )


@dataclass(frozen=True)
class LikelihoodExpectations:
    """Cached optimal-posterior expectations used by the likelihood messages.

    The score moments (``zt_*``) and the spline-coefficient moments (the
    rest) are independent blocks; :func:`with_score_moments` swaps the first
    and keeps the second.
    """

    zt_mean: np.ndarray  # (n, L+1); E(zeta-tilde_i) = (1, E(zeta_i)')'
    zt_second: np.ndarray  # (n, L+1, L+1); E(zeta-tilde zeta-tilde')
    v_mean: np.ndarray  # (P, L+1); columns E(nu_mu), E(nu_psi_1), ...
    vpsi_mean: np.ndarray  # (P, L)
    h_cross: np.ndarray  # (n, L); E of V_psi' C_i'C_i nu_mu
    h_psi: np.ndarray  # (n, L, L); E of V_psi' C_i'C_i V_psi
    h_full: np.ndarray  # (n, L+1, L+1); same with the mean-function column included


def _score_moments(zeta_means: np.ndarray, zeta_covs: np.ndarray) -> dict[str, np.ndarray]:
    zt_mean = np.column_stack([np.ones(zeta_means.shape[0]), zeta_means])
    zt_second = zt_mean[:, :, None] * zt_mean[:, None, :]
    zt_second[:, 1:, 1:] += zeta_covs
    return {"zt_mean": zt_mean, "zt_second": zt_second}


def likelihood_expectations(
    cache: LikelihoodCache,
    nu_mean: np.ndarray,
    nu_cov: np.ndarray,
    zeta_means: np.ndarray,
    zeta_covs: np.ndarray,
) -> LikelihoodExpectations:
    """All moment summaries the likelihood messages need, batched over curves."""
    num_coefs = cache.num_coefs
    blocks = zeta_means.shape[1] + 1
    if nu_mean.size != blocks * num_coefs:
        raise ValueError(
            f"nu has length {nu_mean.size}, expected {blocks}*{num_coefs}"
        )

    v_mean = nu_mean.reshape(blocks, num_coefs).T

    # E(H_i)[a, b] = tr{E(nu_b nu_a') C_i'C_i}; one einsum covers every curve
    # and block pair, with a = b = 0 giving the mean-function term.
    second_moment = nu_cov + np.outer(nu_mean, nu_mean)
    block_tensor = second_moment.reshape(blocks, num_coefs, blocks, num_coefs)
    h_full = np.einsum("bqap,ipq->iab", block_tensor, cache.gram)
    h_full = 0.5 * (h_full + h_full.transpose(0, 2, 1))

    return LikelihoodExpectations(
        **_score_moments(zeta_means, zeta_covs),
        v_mean=v_mean,
        vpsi_mean=v_mean[:, 1:],
        h_cross=h_full[:, 1:, 0],
        h_psi=h_full[:, 1:, 1:],
        h_full=h_full,
    )


def with_score_moments(
    expectations: LikelihoodExpectations, zeta_means: np.ndarray, zeta_covs: np.ndarray
) -> LikelihoodExpectations:
    """The same expectations under new score moments; the nu-dependent part is reused."""
    return replace(expectations, **_score_moments(zeta_means, zeta_covs))


def likelihood_message_to_nu(
    cache: LikelihoodCache, expectations: LikelihoodExpectations, e_recip_eps: float
) -> GaussianVecParams:
    """Likelihood message to the stacked spline coefficients, in the vec basis."""
    blocks = expectations.zt_mean.shape[1]
    num_coefs = cache.num_coefs
    dim = blocks * num_coefs
    eta1 = e_recip_eps * np.einsum(
        "ia,ip->ap", expectations.zt_mean, cache.proj
    ).reshape(dim)
    precision = np.einsum("iab,ipq->apbq", expectations.zt_second, cache.gram).reshape(dim, dim)
    eta2 = -0.5 * e_recip_eps * vec(precision)
    return GaussianVecParams(eta1, eta2)


def likelihood_messages_to_zeta(
    cache: LikelihoodCache, expectations: LikelihoodExpectations, e_recip_eps: float
) -> GaussianVechParams:
    """Likelihood message to the stacked score vectors, one vech-basis row per curve."""
    num_eigen = expectations.vpsi_mean.shape[1]
    eta1 = e_recip_eps * (
        np.einsum("pl,ip->il", expectations.vpsi_mean, cache.proj) - expectations.h_cross
    )
    # Column-major vec of each (L, L) slice, then apply D_L'.
    vec_h = expectations.h_psi.transpose(0, 2, 1).reshape(-1, num_eigen * num_eigen)
    eta2 = -0.5 * e_recip_eps * vec_h @ duplication_matrix(num_eigen)
    return GaussianVechParams(eta1, eta2)


def likelihood_expected_sq_norms(
    cache: LikelihoodCache, expectations: LikelihoodExpectations
) -> np.ndarray:
    """Per-curve E||y_i - C_i V zeta-tilde_i||^2 under the optimal posterior."""
    cross = np.einsum("pa,ip->ia", expectations.v_mean, cache.proj)
    return (
        cache.sq_norm
        - 2.0 * np.einsum("ia,ia->i", expectations.zt_mean, cross)
        + np.einsum("iab,iba->i", expectations.zt_second, expectations.h_full)
    )


def likelihood_message_to_sigsq_eps(
    cache: LikelihoodCache, expectations: LikelihoodExpectations
) -> InvChiSqParams:
    """Likelihood message to the noise variance."""
    eta1 = -0.5 * float(cache.counts.sum())
    eta2 = -0.5 * float(likelihood_expected_sq_norms(cache, expectations).sum())
    return InvChiSqParams(eta1, eta2)


# ---------------------------------------------------------------------------
# Penalization fragment


def penalization_messages(
    prior_beta_var: float, e_recip_sigsq: np.ndarray, num_splines: int
) -> GaussianVecParams:
    """Message to nu (vec basis) from the N(0, sigma^2_beta I) linear parts and penalties.

    ``e_recip_sigsq`` holds E(1/sigma^2_mu) followed by each E(1/sigma^2_psi_l).
    The expected prior precision of nu is diagonal: 1/sigma^2_beta on the two
    linear coefficients of every block and the block's E(1/sigma^2) on its
    spline coefficients.  The prior mean is zero, so eta1 is zero.
    """
    diagonal = np.empty((len(e_recip_sigsq), 2 + num_splines))
    diagonal[:, :2] = 1.0 / prior_beta_var
    diagonal[:, 2:] = np.asarray(e_recip_sigsq, dtype=float)[:, None]
    return GaussianVecParams(np.zeros(diagonal.size), -0.5 * vec(np.diag(diagonal.ravel())))


def penalization_messages_to_variances(
    nu_mean: np.ndarray, nu_cov: np.ndarray, num_splines: int
) -> list[InvChiSqParams]:
    """Messages to sigma^2_mu and to each sigma^2_psi_l, in block order.

    Each carries the expected squared norm of its block's spline coefficients.
    """
    num_coefs = 2 + num_splines
    blocks = nu_mean.size // num_coefs
    spline_means = nu_mean.reshape(blocks, num_coefs)[:, 2:]
    spline_vars = np.diagonal(nu_cov).reshape(blocks, num_coefs)[:, 2:]
    return [
        InvChiSqParams(-0.5 * num_splines, -0.5 * float(mean @ mean + var.sum()))
        for mean, var in zip(spline_means, spline_vars)
    ]
