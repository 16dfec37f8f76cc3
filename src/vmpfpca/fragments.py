"""The five fragment updates driving the FPCA variational scheme.

Three are standard building blocks (Gaussian prior, scalar inverse G-Wishart
prior, scalar iterated inverse G-Wishart); the other two carry the model:
the functional-principal-component Gaussian likelihood fragment and the
Gaussian penalization fragment, specialised to the model's fixed priors.
The likelihood fragment alone reads the data, through each curve's C_i'C_i,
C_i'y_i and y_i'y_i, cached once per fit with no loop over curves.  Its two
contractions with the (L+1)^2 block pairs are one BLAS matrix product each.
Its message to nu needs the score moments only, and the penalization
fragment's message to nu only the smoothing variances; neither needs q(nu).
The fragments return every message in the store's form: to nu and to the
scores as (eta1, precision) array pairs (the streamlined form of Wand,
2017), to a variance as an (eta1, eta2) pair of floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# Prior fragments


def gaussian_prior_message(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Constant message of the N(0, I) score prior, as (eta1, precision) = (0, I)."""
    return np.zeros(dim), np.eye(dim)


def igw_prior_message(scale_hyper: float) -> tuple[float, float]:
    """Constant message of the scalar inverse G-Wishart prior with hyperparameter A.

    The auxiliary variable has an inverse chi-squared density with shape 1 and
    scale 1/A^2, so the natural parameters are (-3/2, -1/(2 A^2)), as floats.
    """
    return -1.5, float(-0.5 / scale_hyper**2)


def iterated_igw_messages(
    e_recip_sigsq: float, e_recip_a: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Scalar iterated inverse G-Wishart fragment for sigma^2 | a ~ Inv-chi^2(1, 1/a).

    Returns (message to sigma^2, message to a), each as (eta1, eta2).  Each
    outgoing message uses the reciprocal mean on the opposite edge: E(1/a)
    for the message to sigma^2, E(1/sigma^2) for the message to a.
    """
    return (-1.5, -0.5 * e_recip_a), (-0.5, -0.5 * e_recip_sigsq)


# ---------------------------------------------------------------------------
# Likelihood fragment


@dataclass(frozen=True)
class LikelihoodCache:
    """Iteration-invariant per-curve quantities derived from the design matrices."""

    gram: np.ndarray  # (n, P, P) with P = 2 + K; C_i' C_i
    proj: np.ndarray  # (n, P); C_i' y_i
    sq_norm: np.ndarray  # (n,); y_i' y_i
    num_observations: int  # sum of T_i over the curves

    @property
    def num_curves(self) -> int:
        return self.gram.shape[0]

    @property
    def num_coefs(self) -> int:
        return self.gram.shape[1]


def build_likelihood_cache(design: np.ndarray, values: np.ndarray, offsets) -> LikelihoodCache:
    """C_i'C_i, C_i'y_i and y_i'y_i for every curve i, rows ``offsets[i]:offsets[i+1]``.

    ``design`` and ``values`` hold ``offsets[-1]`` rows, as a dataset's columns
    do.  Batched products over curves zero-padded to the longest in their class
    of lengths [2^k, 2^(k+1)), so padding at most doubles the rows."""
    counts = np.diff(offsets)
    curve = np.repeat(np.arange(counts.size), counts)
    position = np.arange(curve.size) - offsets[curve]
    length_class = np.frexp(counts)[1]
    num_curves, num_coefs = counts.size, design.shape[1]
    gram, proj = np.empty((num_curves, num_coefs, num_coefs)), np.empty((num_curves, num_coefs))
    sq_norm = np.empty(num_curves)
    for members in (length_class == c for c in np.flatnonzero(np.bincount(length_class))):
        rows = members[curve]
        index = (np.cumsum(members) - 1)[curve[rows]], position[rows]
        padded = np.zeros((members.sum(), counts[members].max(), num_coefs))
        padded[index] = design[rows]
        padded_values = np.zeros(padded.shape[:2])
        padded_values[index] = values[rows]
        gram[members] = padded.mT @ padded
        proj[members] = (padded.mT @ padded_values[..., None])[..., 0]
        sq_norm[members] = np.einsum("it,it->i", padded_values, padded_values)
    return LikelihoodCache(gram, proj, sq_norm, num_observations=curve.size)


@dataclass(frozen=True)
class ScoreMoments:
    """Moments of the augmented scores zeta-tilde_i = (1, zeta_i')', batched over curves."""

    zt_mean: np.ndarray  # (n, L+1); E(zeta-tilde_i) = (1, E(zeta_i)')'
    zt_second: np.ndarray  # (n, L+1, L+1); E(zeta-tilde zeta-tilde')


def score_moments(zeta_means: np.ndarray, zeta_covs: np.ndarray) -> ScoreMoments:
    """Augmented-score moments from the (n, L) means and (n, L, L) covariances."""
    zt_mean = np.empty((zeta_means.shape[0], zeta_means.shape[1] + 1))
    zt_mean[:, 0] = 1.0
    zt_mean[:, 1:] = zeta_means
    zt_second = zt_mean[:, :, None] * zt_mean[:, None, :]
    zt_second[:, 1:, 1:] += zeta_covs
    return ScoreMoments(zt_mean, zt_second)


@dataclass(frozen=True)
class LikelihoodExpectations:
    """The spline-coefficient moments the likelihood messages need, batched over curves."""

    v_mean: np.ndarray  # (P, L+1); columns E(nu_mu), E(nu_psi_1), ...
    h_full: np.ndarray  # (n, L+1, L+1); E of V' C_i'C_i V, V = (nu_mu, nu_psi_1, ...)


def likelihood_expectations(
    cache: LikelihoodCache, nu_mean: np.ndarray, nu_cov: np.ndarray
) -> LikelihoodExpectations:
    """E(V) and each curve's E(V' C_i'C_i V) under q(nu), whose mean has (L+1) P entries."""
    num_coefs = cache.num_coefs
    blocks = nu_mean.size // num_coefs
    v_mean = nu_mean.reshape(blocks, num_coefs).T

    # E(H_i)[a, b] = tr{E(nu_b nu_a') C_i'C_i}; one matrix product of the
    # flattened Grams with E(nu nu') in (p, q) x (a, b) order covers every
    # curve and block pair, with a = b = 0 giving the mean-function term.
    second_moment = nu_cov + nu_mean[:, None] * nu_mean
    by_coef_pair = (
        second_moment.reshape(blocks, num_coefs, blocks, num_coefs)
        .transpose(3, 1, 2, 0)
        .reshape(num_coefs * num_coefs, blocks * blocks)
    )
    num_curves = cache.num_curves
    h_full = (cache.gram.reshape(num_curves, -1) @ by_coef_pair).reshape(
        num_curves, blocks, blocks
    )
    h_full = 0.5 * (h_full + h_full.transpose(0, 2, 1))

    return LikelihoodExpectations(v_mean, h_full)


def likelihood_message_to_nu(
    cache: LikelihoodCache, scores: ScoreMoments, e_recip_eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Likelihood message to the stacked spline coefficients, as (eta1, precision).

    It depends on the score moments only, not on q(nu).  The precision, scaled
    by E(1/sigma^2_eps), is averaged with its transpose: it is exactly symmetric.
    """
    num_curves, blocks = scores.zt_mean.shape
    num_coefs = cache.num_coefs
    dim = blocks * num_coefs
    eta1 = e_recip_eps * (scores.zt_mean.T @ cache.proj).reshape(dim)
    # sum_i E(zeta-tilde zeta-tilde')[a, b] C_i'C_i[p, q] as one (a, b) x (p, q)
    # product over the curves, reordered to (a, p) x (b, q)
    by_block_pair = scores.zt_second.reshape(num_curves, -1).T @ cache.gram.reshape(
        num_curves, -1
    )
    precision = e_recip_eps * (
        by_block_pair.reshape(blocks, blocks, num_coefs, num_coefs)
        .transpose(0, 2, 1, 3)
        .reshape(dim, dim)
    )
    return eta1, 0.5 * (precision + precision.T)


def likelihood_messages_to_zeta(
    cache: LikelihoodCache, expectations: LikelihoodExpectations, e_recip_eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Likelihood message to the stacked score vectors: (n, L) eta1, (n, L, L) precisions."""
    eta1 = cache.proj @ expectations.v_mean[:, 1:] - expectations.h_full[:, 1:, 0]
    return e_recip_eps * eta1, e_recip_eps * expectations.h_full[:, 1:, 1:]


def likelihood_expected_sq_norms(
    cache: LikelihoodCache, expectations: LikelihoodExpectations, scores: ScoreMoments
) -> np.ndarray:
    """Per-curve E||y_i - C_i V zeta-tilde_i||^2 under the optimal posterior."""
    cross = cache.proj @ expectations.v_mean
    return (
        cache.sq_norm
        - 2.0 * np.einsum("ia,ia->i", scores.zt_mean, cross)
        + np.einsum("iab,iba->i", scores.zt_second, expectations.h_full)
    )


def likelihood_message_to_sigsq_eps(
    cache: LikelihoodCache, expectations: LikelihoodExpectations, scores: ScoreMoments
) -> tuple[float, float]:
    """Likelihood message to the noise variance, as (eta1, eta2)."""
    eta1 = -0.5 * cache.num_observations
    eta2 = -0.5 * float(likelihood_expected_sq_norms(cache, expectations, scores).sum())
    return eta1, eta2


# ---------------------------------------------------------------------------
# Penalization fragment


def penalization_messages(
    prior_beta_var: float, e_recip_sigsq, num_splines: int
) -> tuple[np.ndarray, np.ndarray]:
    """Message to nu, as (eta1, precision), from the linear parts' prior and the penalties.

    ``e_recip_sigsq`` holds E(1/sigma^2_mu) followed by each E(1/sigma^2_psi_l).
    The expected prior precision of nu is diagonal: 1/sigma^2_beta on the two
    linear coefficients of every block and the block's E(1/sigma^2) on its
    spline coefficients.  The prior mean is zero, so eta1 is zero.
    """
    diagonal = np.empty((len(e_recip_sigsq), 2 + num_splines))
    diagonal[:, :2] = 1.0 / prior_beta_var
    diagonal[:, 2:] = np.asarray(e_recip_sigsq, dtype=float)[:, None]
    return np.zeros(diagonal.size), np.diag(diagonal.ravel())


def penalization_messages_to_variances(
    nu_mean: np.ndarray, nu_cov: np.ndarray, num_splines: int
) -> list[tuple[float, float]]:
    """Messages to sigma^2_mu and to each sigma^2_psi_l, in block order, as (eta1, eta2).

    Each carries the expected squared norm of its block's spline coefficients.
    """
    num_coefs = 2 + num_splines
    blocks = nu_mean.size // num_coefs
    spline_means = nu_mean.reshape(blocks, num_coefs)[:, 2:]
    spline_vars = np.diagonal(nu_cov).reshape(blocks, num_coefs)[:, 2:]
    spline_sq = np.einsum("lk,lk->l", spline_means, spline_means) + spline_vars.sum(axis=1)
    return [penalization_message_to_variance(sq, num_splines) for sq in spline_sq.tolist()]


def penalization_message_to_variance(spline_sq: float, num_splines: int) -> tuple[float, float]:
    """Message to one sigma^2, as (eta1, eta2), from its block's expected squared
    spline-coefficient norm."""
    return -0.5 * num_splines, -0.5 * spline_sq
