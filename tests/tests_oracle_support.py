"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the message-passing code paths: plain moment-form
coordinate ascent and direct linear algebra only.
"""

import numpy as np

from vmpfpca.expfam import (
    GaussianVecParams,
    GaussianVechParams,
    InvChiSqParams,
    duplication_matrix,
    moore_penrose_duplication,
)
from vmpfpca.postprocess import trapezoid_inner, trapezoid_norm
from vmpfpca.splines import build_basis, design_matrix


def vec_to_vech_params(params: GaussianVecParams) -> GaussianVechParams:
    """Re-express vec-basis Gaussian parameters in the vech basis."""
    return GaussianVechParams(params.eta1, duplication_matrix(params.dim).T @ params.eta2)


def vech_to_vec_params(params: GaussianVechParams) -> GaussianVecParams:
    """Re-express vech-basis Gaussian parameters in the vec basis."""
    return GaussianVecParams(params.eta1, moore_penrose_duplication(params.dim).T @ params.eta2)


def invchisq_from_shape_scale(shape: float, scale: float) -> InvChiSqParams:
    """Natural parameters of an inverse chi-squared density with given shape and scale."""
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    return InvChiSqParams(-0.5 * (shape + 2.0), -0.5 * scale)


def kronecker_rotate_nu(params: GaussianVecParams, rotation: np.ndarray) -> GaussianVecParams:
    """Rotate the eigenfunction blocks of a nu message through the full Kronecker map.

    With B = blockdiag(1, rotation) and F = B' kron I_P, the rotated message
    has eta1 = F eta1 and precision F Lambda F'.
    """
    blocks = rotation.shape[0] + 1
    block_rotation = np.eye(blocks)
    block_rotation[1:, 1:] = rotation
    full_rotation = np.kron(block_rotation.T, np.eye(params.dim // blocks))
    precision = -2.0 * params.eta2.reshape(params.dim, params.dim, order="F")
    precision = full_rotation @ precision @ full_rotation.T
    return GaussianVecParams(
        full_rotation @ params.eta1, -0.5 * precision.reshape(-1, order="F")
    )


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


def full_model_mfvb_oracle(dataset, config, sweeps=4000):
    """Direct mean-field coordinate ascent for the complete model.

    Plain moment-form updates with naive per-curve loops and explicit
    Kronecker products; shares no code with the message-passing path.
    Returns the coefficient posterior mean, the per-curve score means, the
    expected noise precision, and the per-curve fitted values at the
    observation points (which are invariant to the internal component
    rotation and therefore comparable across implementations).
    """
    basis = build_basis(config.num_splines)
    designs = [design_matrix(t, basis) for t in dataset.times]
    responses = dataset.values
    n = len(responses)
    num_eigen, num_splines = config.num_eigen, config.num_splines
    num_coefs = 2 + num_splines
    dim = (num_eigen + 1) * num_coefs
    gram = [d.T @ d for d in designs]
    proj = [d.T @ y for d, y in zip(designs, responses)]

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
    e_smooth = np.ones(num_eigen + 1)
    e_a_smooth = np.ones(num_eigen + 1)
    hypers = np.array(
        [config.hyper_a_mu] + [config.hyper_a_psi] * num_eigen
    )

    def block(moment, row, col):
        return moment[
            row * num_coefs : (row + 1) * num_coefs, col * num_coefs : (col + 1) * num_coefs
        ]

    for _ in range(sweeps):
        precision = np.zeros((dim, dim))
        linear = np.zeros(dim)
        for i in range(n):
            zt = np.concatenate([[1.0], score_mean[i]])
            ztzt = np.outer(zt, zt)
            ztzt[1:, 1:] += score_cov[i]
            precision += e_noise * np.kron(ztzt, gram[i])
            linear += e_noise * np.kron(zt, proj[i])
        for idx in range(num_eigen + 1):
            start = idx * num_coefs
            precision[start : start + 2, start : start + 2] += (
                np.eye(2) / config.prior_beta_var
            )
            spline = slice(start + 2, start + num_coefs)
            precision[spline, spline] += e_smooth[idx] * np.eye(num_splines)
        coef_cov = np.linalg.inv(precision)
        coef_mean = coef_cov @ linear

        moment = coef_cov + np.outer(coef_mean, coef_mean)
        v_mean = coef_mean.reshape(num_eigen + 1, num_coefs).T
        for i in range(n):
            cross = np.empty((num_eigen + 1, num_eigen + 1))
            for a in range(num_eigen + 1):
                for c in range(num_eigen + 1):
                    cross[a, c] = np.sum(block(moment, a, c) * gram[i])
            score_prec = np.eye(num_eigen) + e_noise * cross[1:, 1:]
            score_cov[i] = np.linalg.inv(score_prec)
            score_mean[i] = score_cov[i] @ (
                e_noise * (v_mean[:, 1:].T @ proj[i] - cross[1:, 0])
            )

        total, sq_sum = 0.0, 0.0
        for i in range(n):
            zt = np.concatenate([[1.0], score_mean[i]])
            ztzt = np.outer(zt, zt)
            ztzt[1:, 1:] += score_cov[i]
            cross = np.empty((num_eigen + 1, num_eigen + 1))
            for a in range(num_eigen + 1):
                for c in range(num_eigen + 1):
                    cross[a, c] = np.sum(block(moment, a, c) * gram[i])
            total += responses[i].size
            sq_sum += (
                responses[i] @ responses[i]
                - 2.0 * zt @ (v_mean.T @ proj[i])
                + np.sum(ztzt * cross)
            )
        e_noise = (total + 1.0) / (sq_sum + e_a_noise)
        e_a_noise = 2.0 / (e_noise + config.hyper_a_eps**-2)

        for idx in range(num_eigen + 1):
            spline = slice(idx * num_coefs + 2, (idx + 1) * num_coefs)
            expected_uu = coef_mean[spline] @ coef_mean[spline] + np.trace(
                coef_cov[spline, spline]
            )
            e_smooth[idx] = (num_splines + 1.0) / (expected_uu + e_a_smooth[idx])
            e_a_smooth[idx] = 2.0 / (e_smooth[idx] + hypers[idx] ** -2)

    v_mean = coef_mean.reshape(num_eigen + 1, num_coefs).T
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
    basis = build_basis(config.num_splines)
    designs = [design_matrix(t, basis) for t in dataset.times]
    gram = sum(d.T @ d for d in designs)
    proj = sum(d.T @ y for d, y in zip(designs, dataset.values))
    sq_sum = sum(float(y @ y) for y in dataset.values)
    total = sum(t.size for t in dataset.times)
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
