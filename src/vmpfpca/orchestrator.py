"""Initialization, the fixed-order fragment sweep and convergence detection.

A sweep visits the fragments in a fixed order: the component-rotation snap;
likelihood; the iterated fragment for the noise variance; penalization; the
iterated fragments for the mean-function and eigenfunction smoothing
variances.  The prior fragments emit constant messages, so they are written
once at initialization.  A fragment reads the message each neighboring node
sends it from the other factor's current message (see :mod:`graph`), so
every update sees the freshest available moments.  Convergence is declared
on the stability of the per-node q-density natural parameters, with each
curve's score vector counted as its own node.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import graph as fg
from .data import FunctionalDataset
from .expfam import (
    DegenerateMessageError,
    GaussianVecParams,
    GaussianVechParams,
    InvChiSqParams,
    duplication_matrix,
    gaussian_vec_to_moments,
    gaussian_vech_to_moments,
    invchisq_mean_reciprocal,
    moore_penrose_duplication,
    vec,
)
from .fragments import (
    LikelihoodCache,
    build_likelihood_cache,
    gaussian_prior_message,
    igw_prior_message,
    iterated_igw_messages,
    likelihood_expectations,
    likelihood_message_to_nu,
    likelihood_message_to_sigsq_eps,
    likelihood_messages_to_zeta,
    penalization_messages,
    penalization_messages_to_variances,
    with_score_moments,
)
from .splines import SplineBasis, build_basis, design_matrix

logger = logging.getLogger(__name__)

_INIT_GAUSS_VARIANCE = 100.0  # weakly informative N(0, 10^2 I) starting messages


@dataclass(frozen=True)
class FitConfig:
    """Model size, convergence controls and hyperparameters for one fit."""

    num_eigen: int = 3
    num_splines: int = 10
    tol: float = 1e-5
    max_iter: int = 500
    grid_size: int = 1001
    prior_beta_var: float = 1e10
    hyper_a_eps: float = 1e5
    hyper_a_mu: float = 1e5
    hyper_a_psi: float = 1e5
    seed: int | None = None  # provenance only; initialization is deterministic
    freeze_scores_at_zero: bool = False  # diagnostic mode: clamp every score at 0

    def __post_init__(self):
        for name in ("num_eigen", "num_splines", "max_iter", "grid_size"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if self.num_eigen < 1:
            raise ValueError("num_eigen must be >= 1")
        if self.num_splines < 3:
            raise ValueError("num_splines must be >= 3")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.grid_size < 101:
            raise ValueError("grid_size must be >= 101")
        for name in ("prior_beta_var", "hyper_a_eps", "hyper_a_mu", "hyper_a_psi"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class VmpState:
    """Message store plus everything needed to keep iterating or to post-process."""

    config: FitConfig
    dataset: FunctionalDataset
    basis: SplineBasis
    graph: fg.FactorGraph
    store: fg.MessageStore
    cache: LikelihoodCache
    iterations: int = 0
    converged: bool = False
    history: list[float] = field(default_factory=list)


def _initial_guess(
    cache: LikelihoodCache, num_eigen: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic starting values from ridge fits and a coefficient-space PCA.

    All-zero starting means are an exact fixed point of the message updates
    (every score/eigenfunction cross moment vanishes identically), so the
    start must break that symmetry; a rough PCA of per-curve ridge
    coefficients also lands near the identified component rotation, which is
    otherwise the slowest direction of the coordinate scheme.
    """
    num_coefs = cache.num_coefs
    ridge = np.eye(num_coefs)
    mean_coefs = np.linalg.solve(cache.gram.sum(axis=0) + ridge, cache.proj.sum(axis=0))
    rhs = cache.proj - np.einsum("ipq,q->ip", cache.gram, mean_coefs)
    residual_coefs = np.linalg.solve(cache.gram + ridge, rhs[..., None])[..., 0]
    second_moment = residual_coefs.T @ residual_coefs / cache.num_curves
    eigvals, eigvecs = np.linalg.eigh(second_moment)
    eigvals = eigvals[::-1][:num_eigen]
    eigvecs = eigvecs[:, ::-1][:, :num_eigen]
    eigvals = np.maximum(eigvals, 1e-4 * max(eigvals[0], 1e-12))
    component_coefs = eigvecs * np.sqrt(eigvals)
    scores = residual_coefs @ (eigvecs / np.sqrt(eigvals))
    return mean_coefs, component_coefs, scores


def initialize(dataset: FunctionalDataset, config: FitConfig) -> VmpState:
    """Build the graph, cache the design products and set every factor-to-node message."""
    dataset.validate()
    basis = build_basis(config.num_splines)
    designs = [design_matrix(t, basis) for t in dataset.times]
    cache = build_likelihood_cache(designs, dataset.values)
    n, L = dataset.num_curves, config.num_eigen
    num_coefs = 2 + config.num_splines
    dim_nu = (L + 1) * num_coefs
    graph = fg.fpca_factor_graph(L)
    store = fg.MessageStore()

    mean_coefs, component_coefs, score_guess = _initial_guess(cache, L)
    nu_init_mean = np.concatenate([mean_coefs, component_coefs.T.ravel()])
    store.set_to_node(
        fg.LIKELIHOOD, fg.NU, GaussianVecParams(nu_init_mean, -0.5 * vec(np.eye(dim_nu)))
    )
    store.set_to_node(
        fg.PENALIZATION,
        fg.NU,
        GaussianVecParams(np.zeros(dim_nu), -0.5 * vec(np.eye(dim_nu) / _INIT_GAUSS_VARIANCE)),
    )

    # Unit covariance for every curve, so eta1 is the starting mean.
    zeta_eta2 = moore_penrose_duplication(L) @ (-0.5 * vec(np.eye(L)))
    store.set_to_node(
        fg.LIKELIHOOD, fg.ZETA, GaussianVechParams(score_guess, np.tile(zeta_eta2, (n, 1)))
    )
    store.set_to_node(
        fg.PRIOR_ZETA,
        fg.ZETA,
        gaussian_prior_message(L),
    )

    # Every non-prior inverse chi-squared edge starts at the proper density with
    # unit reciprocal mean (shape 1, scale 1).
    unit_invchisq = InvChiSqParams(-1.5, -0.5)
    store.set_to_node(fg.LIKELIHOOD, fg.SIGSQ_EPS, unit_invchisq)
    store.set_to_node(fg.ITERATED_EPS, fg.SIGSQ_EPS, unit_invchisq)
    store.set_to_node(fg.ITERATED_EPS, fg.A_EPS, unit_invchisq)
    store.set_to_node(fg.PRIOR_A_EPS, fg.A_EPS, igw_prior_message(config.hyper_a_eps))
    store.set_to_node(fg.PENALIZATION, fg.SIGSQ_MU, unit_invchisq)
    store.set_to_node(fg.ITERATED_MU, fg.SIGSQ_MU, unit_invchisq)
    store.set_to_node(fg.ITERATED_MU, fg.A_MU, unit_invchisq)
    store.set_to_node(fg.PRIOR_A_MU, fg.A_MU, igw_prior_message(config.hyper_a_mu))
    for l in range(L):
        store.set_to_node(fg.PENALIZATION, fg.sigsq_psi_node(l), unit_invchisq)
        store.set_to_node(fg.iterated_psi_factor(l), fg.sigsq_psi_node(l), unit_invchisq)
        store.set_to_node(fg.iterated_psi_factor(l), fg.a_psi_node(l), unit_invchisq)
        store.set_to_node(
            fg.a_psi_prior_factor(l), fg.a_psi_node(l), igw_prior_message(config.hyper_a_psi)
        )

    return VmpState(
        config=config,
        dataset=dataset,
        basis=basis,
        graph=graph,
        store=store,
        cache=cache,
    )


def _nu_moments(state: VmpState, factor: str) -> tuple[np.ndarray, np.ndarray]:
    params = fg.npbf(state.graph, state.store, factor, fg.NU)
    try:
        return gaussian_vec_to_moments(params)
    except DegenerateMessageError as err:
        raise DegenerateMessageError(f"edge ({factor}, {fg.NU}): {err}") from err


def _zeta_moments(state: VmpState) -> tuple[np.ndarray, np.ndarray]:
    """(n, L) means and (n, L, L) covariances of every q(zeta_i)."""
    params = fg.q_natural_params(state.graph, state.store, fg.ZETA)
    try:
        return gaussian_vech_to_moments(params)
    except DegenerateMessageError as err:
        raise DegenerateMessageError(f"edge ({fg.LIKELIHOOD}, {fg.ZETA}): {err}") from err


def _reciprocal_mean(state: VmpState, factor: str, node: str) -> float:
    params = fg.npbf(state.graph, state.store, factor, node)
    try:
        return invchisq_mean_reciprocal(params)
    except DegenerateMessageError as err:
        raise DegenerateMessageError(f"edge ({factor}, {node}): {err}") from err


def _update_likelihood_fragment(state: VmpState) -> None:
    """Update the likelihood messages one block at a time.

    Each message is computed from moments that reflect all messages written
    before it (exact coordinate ascent).  Writing the nu, score and noise
    messages simultaneously from one stale snapshot couples the bilinear
    nu/score blocks into a two-cycle instead of a fixed point.
    """
    frozen = state.config.freeze_scores_at_zero
    n, L = state.dataset.num_curves, state.config.num_eigen
    e_recip_eps = _reciprocal_mean(state, fg.LIKELIHOOD, fg.SIGSQ_EPS)

    nu_mean, nu_cov = _nu_moments(state, fg.LIKELIHOOD)
    if frozen:
        zeta_means, zeta_covs = np.zeros((n, L)), np.zeros((n, L, L))
    else:
        zeta_means, zeta_covs = _zeta_moments(state)
    expectations = likelihood_expectations(
        state.cache, nu_mean, nu_cov, zeta_means, zeta_covs
    )
    state.store.set_to_node(
        fg.LIKELIHOOD, fg.NU, likelihood_message_to_nu(state.cache, expectations, e_recip_eps)
    )

    nu_mean, nu_cov = _nu_moments(state, fg.LIKELIHOOD)
    expectations = likelihood_expectations(
        state.cache, nu_mean, nu_cov, zeta_means, zeta_covs
    )
    if not frozen:
        state.store.set_to_node(
            fg.LIKELIHOOD,
            fg.ZETA,
            likelihood_messages_to_zeta(state.cache, expectations, e_recip_eps),
        )
        expectations = with_score_moments(expectations, *_zeta_moments(state))

    state.store.set_to_node(
        fg.LIKELIHOOD, fg.SIGSQ_EPS, likelihood_message_to_sigsq_eps(state.cache, expectations)
    )


def _update_penalization_fragment(state: VmpState) -> None:
    """Write the message to nu, then the variance messages from the q(nu) it implies."""
    config = state.config
    variances = [fg.SIGSQ_MU] + [fg.sigsq_psi_node(l) for l in range(config.num_eigen)]
    e_recip = np.array(
        [_reciprocal_mean(state, fg.PENALIZATION, node) for node in variances]
    )
    state.store.set_to_node(
        fg.PENALIZATION,
        fg.NU,
        penalization_messages(config.prior_beta_var, e_recip, config.num_splines),
    )
    nu_mean, nu_cov = _nu_moments(state, fg.PENALIZATION)
    messages = penalization_messages_to_variances(nu_mean, nu_cov, config.num_splines)
    for node, message in zip(variances, messages):
        state.store.set_to_node(fg.PENALIZATION, node, message)


def _align_component_rotation(state: VmpState) -> None:
    """Snap the internal component rotation to its stationary frame.

    The likelihood is invariant under jointly rotating the scores and the
    eigenfunction coefficient blocks, and so is the N(0, I) score prior, so
    this changes no fitted curve.  Along that rotation orbit the objective
    varies only through the component-specific smoothing priors, and its
    stationary points diagonalize the second-moment Gram of the per-component
    spline coefficients; the coordinate updates reach that frame arbitrarily
    slowly when component scales are close, so it is snapped directly.  An
    aligned, fragment-stationary state is a fixed point of the plain sweep.
    The snap runs on every sweep; at an aligned state its rotation is the
    identity up to round-off.
    """
    L = state.config.num_eigen
    if L < 2 or state.config.freeze_scores_at_zero:
        return
    num_coefs = 2 + state.config.num_splines
    nu_mean, nu_cov = _nu_moments(state, fg.LIKELIHOOD)
    second = (nu_cov + np.outer(nu_mean, nu_mean)).reshape(L + 1, num_coefs, L + 1, num_coefs)
    gram = np.einsum("kplp->kl", second[1:, 2:, 1:, 2:])
    _, rotation = np.linalg.eigh(gram)
    rotation = rotation[:, ::-1]
    # Deterministic column signs keep the rotation from flapping between sweeps.
    anchor = np.argmax(np.abs(rotation), axis=0)
    rotation = rotation * np.sign(rotation[anchor, np.arange(L)])

    store = state.store
    store.set_to_node(
        fg.LIKELIHOOD, fg.ZETA, _rotate_scores(store.get_to_node(fg.LIKELIHOOD, fg.ZETA), rotation)
    )
    for factor in (fg.LIKELIHOOD, fg.PENALIZATION):
        store.set_to_node(
            factor, fg.NU, _rotate_coefficients(store.get_to_node(factor, fg.NU), rotation)
        )


def _rotate_coefficients(params: GaussianVecParams, rotation: np.ndarray) -> GaussianVecParams:
    """nu message re-expressed for eigenfunction blocks mixed by ``rotation``.

    The mean-function block is fixed and block l of the rotated nu is
    sum_k rotation[k, l] nu_psi_k; the (L+1) x (L+1) block rotation acts on
    both block axes of the (L+1, P, L+1, P) view of eta2.
    """
    blocks = rotation.shape[0] + 1
    block_rotation = np.eye(blocks)
    block_rotation[1:, 1:] = rotation
    eta1 = block_rotation.T @ params.eta1.reshape(blocks, -1)
    eta2 = params.eta2.reshape(blocks, eta1.shape[1], blocks, eta1.shape[1])
    eta2 = np.einsum("ba,bpdq,dc->apcq", block_rotation, eta2, block_rotation, optimize=True)
    return GaussianVecParams(eta1.ravel(), eta2.ravel())


def _rotate_scores(params: GaussianVechParams, rotation: np.ndarray) -> GaussianVechParams:
    """Stacked score message re-expressed for the rotated scores rotation' zeta_i."""
    n, L = params.eta1.shape
    precisions = -2.0 * (params.eta2 @ moore_penrose_duplication(L)).reshape(n, L, L)
    precisions = precisions.transpose(0, 2, 1)  # row-wise unvec
    precisions = rotation.T @ (0.5 * (precisions + precisions.transpose(0, 2, 1))) @ rotation
    return GaussianVechParams(
        # a stack of (L, 1) products rounds exactly like per-curve matrix-vector products
        (rotation.T @ params.eta1[:, :, None])[:, :, 0],
        (-0.5 * precisions.transpose(0, 2, 1).reshape(n, L * L)) @ duplication_matrix(L),
    )


def _update_iterated_fragment(state: VmpState, factor: str, sigsq: str, aux: str) -> None:
    to_sigsq, to_aux = iterated_igw_messages(
        fg.npbf(state.graph, state.store, factor, sigsq),
        fg.npbf(state.graph, state.store, factor, aux),
        edge_name=factor,
    )
    state.store.set_to_node(factor, sigsq, to_sigsq)
    state.store.set_to_node(factor, aux, to_aux)


def _sweep(state: VmpState) -> None:
    """One full pass through the fragments in the fixed update order."""
    _align_component_rotation(state)
    _update_likelihood_fragment(state)
    _update_iterated_fragment(state, fg.ITERATED_EPS, fg.SIGSQ_EPS, fg.A_EPS)
    _update_penalization_fragment(state)
    _update_iterated_fragment(state, fg.ITERATED_MU, fg.SIGSQ_MU, fg.A_MU)
    for l in range(state.config.num_eigen):
        _update_iterated_fragment(
            state, fg.iterated_psi_factor(l), fg.sigsq_psi_node(l), fg.a_psi_node(l)
        )


def _q_snapshot(state: VmpState) -> dict[str, np.ndarray]:
    return {
        node: fg.q_natural_params(state.graph, state.store, node).as_vector()
        for node in state.graph.nodes
    }


def convergence_metric(
    previous: dict[str, np.ndarray], current: dict[str, np.ndarray]
) -> float:
    """Largest relative change, over nodes, of the q natural-parameter vectors.

    A two-dimensional entry is a stacked node: each row counts as its own
    node, so every curve's score vector is measured on its own scale.
    """
    worst = 0.0
    for node, old in previous.items():
        change = np.max(np.abs(current[node] - old), axis=-1) / (
            1.0 + np.max(np.abs(old), axis=-1)
        )
        worst = max(worst, float(np.max(change)))
    return worst


def fit_state(state: VmpState) -> VmpState:
    """Iterate sweeps until the convergence metric drops below tolerance."""
    previous = _q_snapshot(state)
    if state.history and state.history[-1] < state.config.tol:
        state.converged = True
        return state
    for _ in range(state.config.max_iter - len(state.history)):
        try:
            _sweep(state)
        except DegenerateMessageError as err:
            raise DegenerateMessageError(
                f"iteration {state.iterations + 1}: {err}"
            ) from err
        current = _q_snapshot(state)
        metric = convergence_metric(previous, current)
        state.history.append(metric)
        state.iterations += 1
        previous = current
        if state.iterations % 50 == 0:
            logger.debug("iteration %d, metric %.3e", state.iterations, metric)
        if metric < state.config.tol:
            state.converged = True
            break
    if not state.converged:
        logger.warning(
            "no convergence after %d iterations (last metric %.3e)",
            state.iterations,
            state.history[-1] if state.history else float("nan"),
        )
    return state


def fit(dataset: FunctionalDataset, config: FitConfig | None = None) -> VmpState:
    """Initialize and run the message-passing scheme on a dataset."""
    config = config or FitConfig()
    return fit_state(initialize(dataset, config))
