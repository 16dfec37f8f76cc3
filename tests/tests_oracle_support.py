"""Independent oracles and builders shared by the unit and acceptance suites.

These deliberately avoid the message-passing code paths: plain moment-form
coordinate ascent and direct linear algebra only; each loops over the
curves split from the dataset's flat rows (:func:`curve_arrays`).  Three
exceptions replay package arithmetic in an earlier form, to check the
current form against it: :func:`reference_likelihood_cache` builds the
likelihood cache with a loop over curves, :func:`dict_q_snapshot` with
:func:`dict_convergence_metric` is the convergence check as it read the
message store's natural-parameter view, and :func:`object_start_store`
writes the starting messages through that view.  :func:`zero_store` builds
a store for a test to fill, and :func:`stack_curves` stacks per-curve
arrays into rows and offsets.
"""

import numpy as np
from scipy.special import digamma, gammaln

from vmpfpca.expfam import (
    DegenerateMessageError,
    GaussianVecParams,
    GaussianVechParams,
    InvChiSqParams,
    duplication_matrix,
    gaussian_moments_to_vech,
    moore_penrose_duplication,
    vec,
)
from vmpfpca.fragments import LikelihoodCache
from vmpfpca.graph import (
    LIKELIHOOD,
    NU,
    PENALIZATION,
    PRIOR_ZETA,
    ZETA,
    MessageStore,
    q_natural_params,
    variance_chains,
)
from vmpfpca.orchestrator import _initial_guess
from vmpfpca.postprocess import trapezoid_inner
from vmpfpca.splines import build_basis, design_matrix


def vec_to_vech_params(params: GaussianVecParams) -> GaussianVechParams:
    """Re-express vec-basis Gaussian parameters in the vech basis."""
    return GaussianVechParams(params.eta1, duplication_matrix(params.dim).T @ params.eta2)


def vech_to_vec_params(params: GaussianVechParams) -> GaussianVecParams:
    """Re-express vech-basis Gaussian parameters in the vec basis."""
    return GaussianVecParams(params.eta1, moore_penrose_duplication(params.dim).T @ params.eta2)


def invchisq_mean_reciprocal(params: InvChiSqParams) -> float:
    """E(1/x) under the inverse chi-squared density with the given natural parameters.

    Equals shape/scale; computed directly as (eta1 + 1)/eta2.
    """
    if params.eta2 == 0.0:
        raise DegenerateMessageError("inverse chi-squared parameters with eta2 = 0")
    return (params.eta1 + 1.0) / params.eta2


def zero_store(num_curves: int, num_eigen: int, num_coefs: int) -> MessageStore:
    """A store of the given sizes whose every message is zero, for a test to fill."""
    dim = (num_eigen + 1) * num_coefs
    return MessageStore(
        nu_eta1=np.zeros((2, dim)),
        nu_precision=np.zeros((2, dim, dim)),
        zeta_eta1=np.zeros((num_curves, num_eigen)),
        zeta_precision=np.zeros((num_curves, num_eigen, num_eigen)),
        prior_eta1=np.zeros(num_eigen),
        prior_precision=np.zeros((num_eigen, num_eigen)),
        chains=[[(0.0, 0.0)] * 4 for _ in range(num_eigen + 2)],
    )


def object_start_store(cache, config) -> MessageStore:
    """The starting messages of a fit, written as natural-parameter objects through
    ``set_to_node`` on the package's starting values.

    nu gets an empty message (zero eta1 and eta2) from the likelihood and
    N(0, 100 I) from the penalization; every curve's scores get their
    starting values as eta1 and the N(0, I) prior's eta2; every non-prior
    inverse chi-squared edge gets (-3/2, -1/2), and each auxiliary prior
    (-3/2, -1/(2 A^2)).
    """
    n, L, num_coefs = cache.num_curves, config.num_eigen, cache.num_coefs
    dim = (L + 1) * num_coefs
    store = zero_store(n, L, num_coefs)
    score_guess = _initial_guess(cache, L)
    store.set_to_node(LIKELIHOOD, NU, GaussianVecParams(np.zeros(dim), np.zeros(dim * dim)))
    vague = GaussianVecParams(np.zeros(dim), -0.5 * vec(np.eye(dim) / 100.0))
    store.set_to_node(PENALIZATION, NU, vague)
    score_prior = gaussian_moments_to_vech(np.zeros(L), np.eye(L))
    rows = GaussianVechParams(score_guess, np.tile(score_prior.eta2, (n, 1)))
    store.set_to_node(LIKELIHOOD, ZETA, rows)
    store.set_to_node(PRIOR_ZETA, ZETA, score_prior)
    unit = InvChiSqParams(-1.5, -0.5)
    for chain in variance_chains(L):
        store.set_to_node(chain.source, chain.sigsq, unit)
        store.set_to_node(chain.iterated, chain.sigsq, unit)
        store.set_to_node(chain.iterated, chain.aux, unit)
        hyper = getattr(config, f"hyper_a_{chain.family}")
        store.set_to_node(chain.prior, chain.aux, InvChiSqParams(-1.5, -0.5 / hyper**2))
    return store


def trapezoid_norm(f: np.ndarray, grid: np.ndarray) -> float:
    """Composite-trapezoid approximation of the L2 norm on the grid."""
    return float(np.sqrt(trapezoid_inner(f, f, grid)))


def invchisq_from_shape_scale(shape: float, scale: float) -> InvChiSqParams:
    """Natural parameters of an inverse chi-squared density with given shape and scale."""
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    return InvChiSqParams(-0.5 * (shape + 2.0), -0.5 * scale)


def transform_nu_moments(
    nu_mean: np.ndarray, nu_cov: np.ndarray, score_map: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """q(nu) moments in the frame with augmented scores ``score_map`` (1, zeta')'."""
    forward = np.kron(np.linalg.inv(score_map).T, np.eye(nu_mean.size // score_map.shape[0]))
    return forward @ nu_mean, forward @ nu_cov @ forward.T


VARIANCES = "variances"  # dict_q_snapshot key of the inverse chi-squared q-densities


def dict_q_snapshot(graph, store, num_eigen: int) -> dict:
    """The q natural parameters the convergence check compares, read through the store's view.

    nu and the stacked scores have one array entry each, in the vec and vech
    bases; the 2(2 + L) variance and auxiliary q-densities are one list of
    (eta1, eta2) floats.
    """
    variances = []
    for chain in variance_chains(num_eigen):
        for node in (chain.sigsq, chain.aux):
            first_factor, second_factor = graph[node]
            first = store.get_to_node(first_factor, node)
            second = store.get_to_node(second_factor, node)
            variances.append((first.eta1 + second.eta1, first.eta2 + second.eta2))
    return {
        NU: q_natural_params(graph, store, NU).as_vector(),
        ZETA: q_natural_params(graph, store, ZETA).as_vector(),
        VARIANCES: variances,
    }


def dict_convergence_metric(previous: dict, current: dict) -> float:
    """Largest relative change, over nodes, of two :func:`dict_q_snapshot` dicts.

    A two-dimensional array entry is a stacked node: each row counts as its
    own node.  A list entry holds scalar nodes as (eta1, eta2) pairs of
    floats, one node each.
    """
    worst = 0.0
    for node, old in previous.items():
        new = current[node]
        if isinstance(old, list):
            for (old1, old2), (new1, new2) in zip(old, new):
                change = max(abs(new1 - old1), abs(new2 - old2)) / (
                    1.0 + max(abs(old1), abs(old2))
                )
                worst = max(worst, change)
        else:
            change = np.abs(new - old).max(axis=-1) / (1.0 + np.abs(old).max(axis=-1))
            worst = max(worst, change.max())
    return float(worst)


def _invchisq_terms(params: InvChiSqParams) -> tuple[float, float, float]:
    """E(1/x), E(log x) and the entropy of an inverse chi-squared q-density."""
    shape, rate = -params.eta1 - 1.0, -params.eta2  # the inverse-gamma form
    entropy = shape + np.log(rate) + gammaln(shape) - (1.0 + shape) * digamma(shape)
    return shape / rate, np.log(rate) - digamma(shape), entropy


def snap_objective(
    config, nu_mean, nu_cov, zeta_means, zeta_covs, q_sigsq, q_aux
) -> float:
    """The mean-field ELBO terms the snap's moves change, up to constants.

    The score prior and the q(zeta_i) entropies; the penalization (the
    N(0, prior_beta_var I) linear parts and the N(0, sigma^2 I) spline parts of
    every nu block) and the q(nu) entropy; and, for the mean-function chain
    and each eigenfunction chain, E log p(sigma^2 | a) + E log p(a) plus the
    entropies of q(sigma^2) and q(a).  ``q_sigsq`` and ``q_aux`` hold those
    inverse chi-squared q-densities in nu's block order.  The expected
    log-likelihood and the noise chain are left out: no move changes them.
    Written from the model's densities, not from the fragments.
    """
    num_splines = config.num_splines
    blocks = len(q_sigsq)
    total = -0.5 * (np.sum(zeta_means**2) + np.trace(zeta_covs, axis1=1, axis2=2).sum())
    total += 0.5 * np.linalg.slogdet(zeta_covs)[1].sum()

    second = (nu_mean**2 + np.diag(nu_cov)).reshape(blocks, 2 + num_splines)
    total += 0.5 * np.linalg.slogdet(nu_cov)[1]
    hypers = [config.hyper_a_mu] + [config.hyper_a_psi] * (blocks - 1)
    for block, (sigsq, aux, hyper) in enumerate(zip(q_sigsq, q_aux, hypers)):
        e_recip, e_log, entropy = _invchisq_terms(sigsq)
        e_recip_aux, e_log_aux, entropy_aux = _invchisq_terms(aux)
        total += (
            -0.5 * second[block, :2].sum() / config.prior_beta_var
            - 0.5 * num_splines * e_log
            - 0.5 * e_recip * second[block, 2:].sum()
        )
        # sigma^2 | a ~ Inv-chi^2(1, 1/a) and a ~ Inv-chi^2(1, 1/A^2)
        total += -0.5 * e_log_aux - 1.5 * e_log - 0.5 * e_recip_aux * e_recip
        total += -1.5 * e_log_aux - 0.5 * e_recip_aux / hyper**2
        total += entropy + entropy_aux
    return float(total)


def dense_penalization_precision(
    beta_cov: np.ndarray, e_recip: np.ndarray, num_splines: int
) -> np.ndarray:
    """Expected prior precision of nu, assembled block by block as a dense matrix.

    Each block stacks inv(beta_cov) on its two linear coefficients on top of
    E(1/sigma^2) times the identity on its spline coefficients.
    """
    num_coefs = 2 + num_splines
    dim = len(e_recip) * num_coefs
    precision = np.zeros((dim, dim))
    for block, value in enumerate(e_recip):
        start = block * num_coefs
        precision[start : start + 2, start : start + 2] = np.linalg.inv(beta_cov)
        spline = slice(start + 2, start + num_coefs)
        precision[spline, spline] = value * np.eye(num_splines)
    return precision


def gram_schmidt(columns: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Orthonormalize function columns under the trapezoid inner product.

    Used as an independent check that the SVD construction spans the same
    space as a direct orthogonalization.
    """
    columns = np.asarray(columns, dtype=float)
    out = np.empty_like(columns)
    for j in range(columns.shape[1]):
        candidate = columns[:, j].copy()
        for k in range(j):
            candidate -= trapezoid_inner(out[:, k], columns[:, j], grid) * out[:, k]
        norm = trapezoid_norm(candidate, grid)
        if norm < 1e-12:
            raise ValueError(f"column {j + 1} is linearly dependent on earlier columns")
        out[:, j] = candidate / norm
    return out


def curve_arrays(dataset, basis):
    """Each curve's design matrix and responses, split from the dataset's flat rows."""
    cuts = dataset.offsets[1:-1]
    return (
        np.split(design_matrix(dataset.times, basis), cuts),
        np.split(dataset.values, cuts),
    )


def stack_curves(designs, responses):
    """Per-curve design matrices and responses as stacked rows with curve offsets."""
    offsets = np.concatenate([[0], np.cumsum([len(y) for y in responses])]).astype(int)
    return np.vstack(designs), np.concatenate(responses), offsets


def reference_likelihood_cache(design, values, offsets):
    """The likelihood cache by a loop over curves: each C_i'C_i, C_i'y_i and y_i'y_i."""
    grams, projs, sq_norms = [], [], []
    cuts = np.asarray(offsets)[1:-1]
    for c, y in zip(np.split(design, cuts), np.split(values, cuts)):
        grams.append(c.T @ c)
        projs.append(c.T @ y)
        sq_norms.append(float(y @ y))
    return LikelihoodCache(
        gram=np.stack(grams),
        proj=np.stack(projs),
        sq_norm=np.asarray(sq_norms),
        num_observations=values.size,
    )


def full_model_mfvb_oracle(dataset, config, sweeps=4000):
    """Direct mean-field coordinate ascent for the complete model.

    Plain moment-form updates, batched over curves, with each Kronecker
    product written as an explicit broadcast product; shares no code with
    the message-passing path.  Returns the coefficient posterior mean, the
    per-curve score means, the expected noise precision, and the per-curve
    fitted values at the observation points (which are invariant to the
    internal component rotation and therefore comparable across
    implementations).
    """
    designs, responses = curve_arrays(dataset, build_basis(config.num_splines))
    n = len(responses)
    num_eigen, num_splines = config.num_eigen, config.num_splines
    blocks, num_coefs = num_eigen + 1, 2 + num_splines
    dim = blocks * num_coefs
    gram = np.stack([d.T @ d for d in designs])  # (n, P, P)
    proj = np.stack([d.T @ y for d, y in zip(designs, responses)])  # (n, P)
    total = sum(y.size for y in responses)
    sq_norm = sum(y @ y for y in responses)

    # same rough start as the package: ridge mean fit plus residual PCA
    mean_block = np.linalg.solve(sum(gram) + np.eye(num_coefs), sum(proj))
    residual = [
        np.linalg.solve(gram[i] + np.eye(num_coefs), proj[i] - gram[i] @ mean_block)
        for i in range(n)
    ]
    second = sum(np.outer(r, r) for r in residual) / n
    vals, vecs = np.linalg.eigh(second)
    vals, vecs = vals[::-1][:num_eigen], vecs[:, ::-1][:, :num_eigen]
    vals = np.maximum(vals, 1e-4 * max(vals[0], 1e-12))
    coef_mean = np.concatenate([mean_block, (vecs * np.sqrt(vals)).T.ravel()])
    coef_cov = np.eye(dim)
    score_mean = np.stack([r @ (vecs / np.sqrt(vals)) for r in residual])
    score_cov = np.stack([np.eye(num_eigen)] * n)
    e_noise, e_a_noise = 1.0, 1.0
    e_smooth = np.ones(blocks)
    e_a_smooth = np.ones(blocks)
    hypers = np.array([config.hyper_a_mu] + [config.hyper_a_psi] * num_eigen)
    prior_precision = np.zeros((blocks, num_coefs))
    prior_precision[:, :2] = 1.0 / config.prior_beta_var

    def augmented_moments():
        """E(zeta-tilde_i) and E(zeta-tilde_i zeta-tilde_i'), stacked over curves."""
        zt = np.column_stack([np.ones(n), score_mean])
        ztzt = zt[:, :, None] * zt[:, None, :]
        ztzt[:, 1:, 1:] += score_cov
        return zt, ztzt

    for _ in range(sweeps):
        # sum_i kron(E(zt zt'), C_i'C_i) and sum_i kron(E(zt), C_i'y_i)
        zt, ztzt = augmented_moments()
        kron_sum = (ztzt[:, :, None, :, None] * gram[:, None, :, None, :]).sum(axis=0)
        precision = e_noise * kron_sum.reshape(dim, dim)
        linear = e_noise * (zt[:, :, None] * proj[:, None, :]).sum(axis=0).reshape(dim)
        prior_precision[:, 2:] = e_smooth[:, None]
        precision += np.diag(prior_precision.ravel())
        coef_cov = np.linalg.inv(precision)
        coef_mean = coef_cov @ linear

        # cross[i, a, c] = tr(E(nu_a nu_c') C_i'C_i)
        moment = (coef_cov + np.outer(coef_mean, coef_mean)).reshape(
            blocks, num_coefs, blocks, num_coefs
        )
        cross = (moment[None] * gram[:, None, :, None, :]).sum(axis=(2, 4))
        v_mean = coef_mean.reshape(blocks, num_coefs).T
        score_prec = np.eye(num_eigen) + e_noise * cross[:, 1:, 1:]
        score_cov = np.linalg.inv(score_prec)
        rhs = e_noise * (proj @ v_mean[:, 1:] - cross[:, 1:, 0])
        score_mean = (score_cov @ rhs[:, :, None])[:, :, 0]

        zt, ztzt = augmented_moments()
        sq_sum = sq_norm - 2.0 * np.sum(zt * (proj @ v_mean)) + np.sum(ztzt * cross)
        e_noise = (total + 1.0) / (sq_sum + e_a_noise)
        e_a_noise = 2.0 / (e_noise + config.hyper_a_eps**-2)

        spline_mean = coef_mean.reshape(blocks, num_coefs)[:, 2:]
        spline_var = np.diag(coef_cov).reshape(blocks, num_coefs)[:, 2:]
        expected_uu = (spline_mean**2).sum(axis=1) + spline_var.sum(axis=1)
        e_smooth = (num_splines + 1.0) / (expected_uu + e_a_smooth)
        e_a_smooth = 2.0 / (e_smooth + hypers**-2)

    v_mean = coef_mean.reshape(blocks, num_coefs).T
    fitted = [
        designs[i] @ (v_mean[:, 0] + v_mean[:, 1:] @ score_mean[i]) for i in range(n)
    ]
    return coef_mean, score_mean, e_noise, fitted


def penalized_spline_mfvb_oracle(dataset, config, sweeps=5000):
    """Posterior mean of a Bayesian penalized-spline regression.

    Direct mean-field coordinate ascent in moment form for the model
    y = C nu + noise with a flat prior on the linear part, an isotropic
    shrinkage prior with unknown variance on the spline part, and half-Cauchy
    style hierarchical priors on both variances.
    """
    designs, responses = curve_arrays(dataset, build_basis(config.num_splines))
    gram = sum(d.T @ d for d in designs)
    proj = sum(d.T @ y for d, y in zip(designs, responses))
    sq_sum = sum(float(y @ y) for y in responses)
    total = sum(y.size for y in responses)
    num_coefs = 2 + config.num_splines

    prior_prec = np.zeros((num_coefs, num_coefs))
    prior_prec[:2, :2] = np.eye(2) / config.prior_beta_var

    e_noise_prec, e_smooth_prec = 1.0, 1.0
    e_recip_a_noise, e_recip_a_smooth = 1.0, 1.0
    mean = np.zeros(num_coefs)
    for _ in range(sweeps):
        precision = e_noise_prec * gram + prior_prec
        precision[2:, 2:] += e_smooth_prec * np.eye(config.num_splines)
        cov = np.linalg.inv(precision)
        mean = cov @ (e_noise_prec * proj)
        expected_sq = (
            sq_sum - 2.0 * mean @ proj + np.trace((cov + np.outer(mean, mean)) @ gram)
        )
        e_noise_prec = (total + 1.0) / (expected_sq + e_recip_a_noise)
        e_recip_a_noise = 2.0 / (e_noise_prec + config.hyper_a_eps**-2)
        expected_uu = mean[2:] @ mean[2:] + np.trace(cov[2:, 2:])
        e_smooth_prec = (config.num_splines + 1.0) / (expected_uu + e_recip_a_smooth)
        e_recip_a_smooth = 2.0 / (e_smooth_prec + config.hyper_a_mu**-2)
    return mean
