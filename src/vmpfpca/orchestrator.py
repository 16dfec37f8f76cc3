"""Initialization, the fixed-order fragment sweep and convergence detection.

A sweep visits the fragments in a fixed order: the snap; likelihood; the
iterated fragment of the noise-variance chain; penalization; the iterated
fragments of the mean-function and eigenfunction chains (see
:func:`graph.variance_chains`).  The prior fragments emit constant messages,
so the store's starting state (``graph.MessageStore.starting``) holds them
and no sweep writes them.  From initialization on, every message of a fit
lives in the store (see :class:`graph.MessageStore`), behind its methods;
the fit builds no message object and names no slot.

The snap (:func:`_align_component_rotation`) moves the fit along
directions that change no curve: it rotates the components into their
stationary frame, moves mass between the scores and the mean function, and
maps the scores by an L x L matrix and the eigenfunctions by its inverse,
jointly with their smoothing chains; the last two go to the highest
objective along their directions.  It runs from a fit's second sweep on.
Plain sweeps crawl along these directions; at a fixed point of the plain
sweep every move is the identity, so the sweeps reach the same fixed point
in fewer steps.

What the snap cannot reach, mostly surplus components collapsing, the fit
crosses by extrapolating the messages between sweeps (:func:`_jump`).
Convergence is still one plain sweep's change against the tolerance, so a
fit stops at a fixed point of the plain sweep; the jumps only shorten the
way there.

Each q-density is inverted once per write to its node, by the store
(``MessageStore.read_q_nu``, ``read_q_zeta``): q(nu) after each of the two
writes to nu, q(zeta) after the likelihood fragment writes the scores, and the
proposal's, when a jump is kept.  The likelihood fragment's message to nu needs
only the score moments; the snap reads what the sweep before left, hands the
moved score moments to the likelihood fragment and writes only the
eigenfunctions' chains.  The convergence check compares the store's own
snapshots (``MessageStore.q_snapshot``), which sum messages and invert nothing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import graph as fg
from .data import FunctionalDataset
from .expfam import DegenerateMessageError
from .fragments import (
    LikelihoodCache,
    ScoreMoments,
    build_likelihood_cache,
    iterated_igw_messages,
    likelihood_expectations,
    likelihood_message_to_nu,
    likelihood_message_to_sigsq_eps,
    likelihood_messages_to_zeta,
    penalization_message_to_variance,
    penalization_messages,
    penalization_messages_to_variances,
    score_moments,
)
from .splines import MAX_NUM_BASIS, SplineBasis, build_basis, design_matrix

logger = logging.getLogger(__name__)

# The snap's linear move takes Newton steps until the next would move its map
# by less than _MOVE_RTOL_PER_TOL times the convergence tolerance; _MOVE_STEPS
# bounds the steps and _BACKTRACKS the halvings of one step.
_MOVE_STEPS = 50
_MOVE_RTOL_PER_TOL = 0.1
_BACKTRACKS = 40
# The jump between sweeps (_jump, an over-relaxed step; Salakhutdinov & Roweis 2003).
# On the 56 inputs of tools/compare_fits.py (8105 plain sweeps) these values take
# 3454 sweeps, and no input takes more than its plain fit.  A radius of 0.2 lost a
# random 3-curve fit that the plain sweep converges (357 sweeps, none in 1000);
# without the radius, two took 1893 and 572 sweeps instead of 144 and 231.  A cap of
# 20 took 3209 sweeps but 3 of 300 random fits took more than their plain fits (none
# at 10); without the cap, dense-1-6 did not converge.  A spacing of 3 took 613 sweeps
# on a 50-curve fit with five components (116 at 5).  Without the cosine test the 56
# inputs take 3358 sweeps instead of 3454, but SimConfig(3, obs_range=(29, 33),
# seed=9217) does not converge in 500 (78 with it, 144 plain).
_JUMP_SPACING = 5
_JUMP_ALIGNMENT = 0.99
_JUMP_CAP = 10.0
_JUMP_RADIUS = 0.1


@dataclass(frozen=True)
class FitConfig:
    """Model size, convergence controls and hyperparameters for one fit.

    ``num_splines`` is at most 603 (:data:`splines.MAX_NUM_BASIS`), the
    largest basis whose roughness penalty keeps full rank."""

    num_eigen: int = 3
    num_splines: int = 10
    tol: float = 1e-5
    max_iter: int = 500
    grid_size: int = 1001
    prior_beta_var: float = 1e10
    hyper_a_eps: float = 1e5
    hyper_a_mu: float = 1e5
    hyper_a_psi: float = 1e5
    freeze_scores_at_zero: bool = False  # diagnostic mode: clamp every score at 0

    def __post_init__(self):
        if not isinstance(self.freeze_scores_at_zero, (bool, np.bool_)):
            raise ValueError("freeze_scores_at_zero must be a boolean")
        for name in ("tol", "prior_beta_var", "hyper_a_eps", "hyper_a_mu", "hyper_a_psi"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a boolean")
        for name in ("num_eigen", "num_splines", "max_iter", "grid_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
            # a Python int keeps the sweep's float arithmetic in Python floats
            object.__setattr__(self, name, int(value))
        if self.num_eigen < 1:
            raise ValueError("num_eigen must be >= 1")
        if not 3 <= self.num_splines <= MAX_NUM_BASIS:
            raise ValueError(
                f"num_splines must be from 3 to {MAX_NUM_BASIS}, where the spline penalty "
                "has full rank"
            )
        if self.num_eigen > self.num_splines + 2:
            raise ValueError("num_eigen must be <= num_splines + 2, the coefficients per function")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.grid_size < 101:
            raise ValueError("grid_size must be >= 101")
        # The fragments use the prior precisions 1/prior_beta_var and 1/hyper_a_*^2.
        for name in ("prior_beta_var", "hyper_a_eps", "hyper_a_mu", "hyper_a_psi"):
            value = getattr(self, name)
            try:
                precision = 1.0 / (value if name == "prior_beta_var" else value**2)
            except (OverflowError, ZeroDivisionError):
                precision = 0.0
            if not (value > 0 and 0.0 < precision < np.inf):
                raise ValueError(f"{name} must be positive, with a finite, nonzero precision")


@dataclass
class VmpState:
    """The fit's message store, its fixed inputs and its progress; n is ``cache.num_curves``.

    :func:`initialize` builds it, :func:`fit_state` runs it once, and
    post-processing reads it.
    """

    config: FitConfig
    basis: SplineBasis
    store: fg.MessageStore
    cache: LikelihoodCache
    iterations: int = 0  # sweeps run; each _sweep advances it
    converged: bool = False
    history: list[float] = field(default_factory=list)

    @property
    def graph(self) -> fg.Neighbors:
        """The fit's neighbor table, for the store's natural-parameter view."""
        return fg.fpca_factor_graph(self.config.num_eigen)


def _initial_guess(cache: LikelihoodCache, num_eigen: int) -> np.ndarray:
    """Deterministic starting score means from ridge fits and a coefficient-space PCA.

    All-zero starting means are an exact fixed point of the message updates
    (every score/eigenfunction cross moment vanishes identically), so the
    start must break that symmetry.  The scores' frame carries no information:
    from a fit's second sweep on, the snap rotates the components into their own.
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
    return residual_coefs @ (eigvecs / np.sqrt(eigvals))


def initialize(dataset: FunctionalDataset, config: FitConfig) -> VmpState:
    """Validate the dataset, build the basis, cache the design products and start the
    store (``graph.MessageStore.starting``) from :func:`_initial_guess`."""
    dataset.validate()
    basis = build_basis(config.num_splines)
    design = design_matrix(dataset.times, basis)
    cache = build_likelihood_cache(design, dataset.values, dataset.offsets)
    try:
        score_guess = _initial_guess(cache, config.num_eigen)
    except np.linalg.LinAlgError as err:
        raise DegenerateMessageError(f"starting values: {err}") from err
    return VmpState(config, basis, fg.MessageStore.starting(score_guess, config), cache)


def _update_likelihood_fragment(state: VmpState, scores: ScoreMoments) -> None:
    """Update the likelihood messages one block at a time.

    Each message is computed from moments that reflect all messages written
    before it (exact coordinate ascent).  Writing the nu, score and noise
    messages simultaneously from one stale snapshot couples the bilinear
    nu/score blocks into a two-cycle instead of a fixed point.  ``scores``
    are the current q(zeta) moments, which the snap hands on.
    """
    store = state.store
    e_recip_eps = store.e_recip(0)
    store.set_nu(fg.LIKELIHOOD, likelihood_message_to_nu(state.cache, scores, e_recip_eps))

    expectations = likelihood_expectations(state.cache, *store.read_q_nu(fg.LIKELIHOOD))
    if not state.config.freeze_scores_at_zero:
        store.set_scores(likelihood_messages_to_zeta(state.cache, expectations, e_recip_eps))
        scores = score_moments(*store.read_q_zeta())

    store.set_source(0, likelihood_message_to_sigsq_eps(state.cache, expectations, scores))


def _update_penalization_fragment(state: VmpState) -> None:
    """Write the message to nu, then the variance messages from the q(nu) it implies."""
    config, store = state.config, state.store
    # the mean-function and eigenfunction chains, 1 to L + 1, are in nu's block order
    e_recip = [store.e_recip(c) for c in range(1, config.num_eigen + 2)]
    message = penalization_messages(config.prior_beta_var, e_recip, config.num_splines)
    store.set_nu(fg.PENALIZATION, message)
    nu_moments = store.read_q_nu(fg.PENALIZATION)
    variances = penalization_messages_to_variances(*nu_moments, config.num_splines)
    for c, to_sigsq in enumerate(variances, 1):
        store.set_source(c, to_sigsq)


def _align_component_rotation(
    state: VmpState,
    nu_mean: np.ndarray,
    nu_cov: np.ndarray,
    zeta_means: np.ndarray,
    zeta_covs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Reparameterize the fit along three directions that leave every curve unchanged.

    Each curve is V (1, zeta_i')' with V = (nu_mu, nu_psi_1, ...), so a
    change of frame that maps the augmented scores by N and the coefficient
    blocks by inv(N) leaves the likelihood alone.  Under mean field each
    move maps q(nu) and every q(zeta_i) through a fixed linear map, so the
    expected log-likelihood is unchanged too, and the objective changes only
    through the N(0, I) score prior, the smoothing priors, their chains and
    the two entropies.  The snap applies, in this order:

    1. the rotation that diagonalizes the second-moment Gram of the
       components' spline coefficients, with the largest eigenvalue under the
       smallest penalty weight E(1/sigma^2_psi_l), and so on in order, which
       maximizes the expected penalty over rotations
       (:func:`_component_rotation`);
    2. the objective-optimal translation zeta_i -> zeta_i - b,
       nu_mu -> nu_mu + sum_l b_l nu_psi_l, with (n I + G) b =
       sum_i E(zeta_i) - g, where G and g are the second moments of the
       component blocks with each other and with the mean block, weighted
       by the mean function's penalty;
    3. the objective-optimal linear move zeta_i -> A zeta_i, with the
       eigenfunction blocks (nu_psi_1, ...) mapped by inv(A), jointly with
       every q(sigma^2_psi_l) and q(a_psi_l) (see :func:`_linear_move`).
       The rotation and a scale per component are special cases of it; a
       tied reparametrisation that is neither is the slow mode of dense fits.

    At a fixed point of the plain sweep all three are the identity, so the
    sweeps reach the same fixed point, in fewer steps.  The arguments are
    the store's q(nu) and q(zeta) moments; the return value is q(zeta)'s
    (means, covariances) in the new frame.  The snap writes only the
    eigenfunctions' chains: the likelihood fragment writes its messages to
    nu and to the scores from the moved moments, and the penalization
    message to nu stays until that fragment runs again later in the sweep.
    """
    config = state.config
    n, L = state.cache.num_curves, config.num_eigen
    num_coefs = 2 + config.num_splines
    # E(1/sigma^2) of the mean function and of each component, in nu's block order
    e_recip = [state.store.e_recip(c) for c in range(1, L + 2)]
    # (L+1) x (L+1) block Grams of E(nu nu') over the linear coefficients,
    # over prior_beta_var, and over the spline coefficients: the block
    # diagonals of the covariance plus the mean's products, summed per class
    blocks = nu_cov.reshape(L + 1, num_coefs, L + 1, num_coefs)
    mean_blocks = nu_mean.reshape(L + 1, num_coefs)
    products = np.diagonal(blocks, axis1=1, axis2=3) + mean_blocks[:, None] * mean_blocks
    grams = np.add.reduceat(products.transpose(2, 0, 1), [0, 2])
    grams[0] /= config.prior_beta_var

    rotation = _component_rotation(grams[1, 1:, 1:], e_recip[1:])
    zeta_means = zeta_means @ rotation
    block_rotation = np.eye(L + 1)
    block_rotation[1:, 1:] = rotation
    grams = block_rotation.T @ grams @ block_rotation
    mean_weighted = grams[0] + grams[1] * e_recip[0]
    shift = np.linalg.solve(
        n * np.eye(L) + mean_weighted[1:, 1:], zeta_means.sum(axis=0) - mean_weighted[1:, 0]
    )
    zeta_means = zeta_means - shift

    # the second moment of the scores, summed over the curves, in the rotated frame
    score_second = zeta_means.T @ zeta_means + rotation.T @ zeta_covs.sum(axis=0) @ rotation
    score_map = _linear_move(state, score_second, grams[:, 1:, 1:])
    # the covariances move once, by the rotation and the linear move together
    total_map = rotation @ score_map.T
    return zeta_means @ score_map.T, total_map.T @ zeta_covs @ total_map


def _component_rotation(spline_gram: np.ndarray, e_recip: list[float]) -> np.ndarray:
    """The snap's rotation: the eigenvectors of the components' spline Gram, from the
    largest eigenvalue down, go to the components from the smallest E(1/sigma^2_psi) up.

    Each has its largest entry positive, so the rotation does not flap
    between sweeps.  In floats: L is small.  Without it, the dense inputs of
    ``tools/compare_fits.py`` took 1447 sweeps, not 1342, and the fit of
    ``SimConfig(3, obs_range=(29, 33), seed=9217)`` none in 500 (78 with it).
    """
    _, eigvecs = np.linalg.eigh(spline_gram)
    columns = [None] * len(e_recip)
    order = sorted(range(len(e_recip)), key=e_recip.__getitem__)
    for vector, k in zip(eigvecs.T.tolist()[::-1], order):
        columns[k] = vector if max(vector, key=abs) > 0 else [-x for x in vector]
    return np.array(list(zip(*columns)))


def _chain_profiles(spline_sq, num_splines: int, aux_precision: float):
    """The smoothing chain at its optimum for each block's expected squared spline norm.

    With s = ``spline_sq``, K = ``num_splines`` and c = 1/A^2 =
    ``aux_precision``, the chain's fixed point has E(1/sigma^2) = w, the
    positive root of s w^2 + (s c + 1 - K) w - (K + 1) c, and E(1/a) =
    2/(w + c).  Returns lists of w, dw/ds and the chain's terms of the
    objective there, -(K + 1)/2 log beta_sigma - log beta_a - w s/2 up to a
    constant, with beta_sigma = (s + E(1/a))/2 and beta_a = (w + c)/2; the
    objective's slope in s is -w/2.
    """
    e_recips, slopes, values = [], [], []
    for s in spline_sq:
        linear = s * aux_precision + 1.0 - num_splines
        root = math.sqrt(linear * linear + 4.0 * s * (num_splines + 1) * aux_precision)
        # the cancellation-free form of the positive root for each sign of the linear term
        if linear < 0.0:
            w = (root - linear) / (2.0 * s)
        else:
            w = 2.0 * (num_splines + 1) * aux_precision / (root + linear)
        e_recips.append(w)
        slopes.append(-w * (w + aux_precision) / root)
        values.append(
            -0.5 * (num_splines + 1) * math.log(0.5 * (s + 2.0 / (w + aux_precision)))
            - math.log(0.5 * (w + aux_precision))
            - 0.5 * w * s
        )
    return e_recips, slopes, values


def _linear_move(state: VmpState, score_second: np.ndarray, grams: np.ndarray) -> np.ndarray:
    """The objective-optimal map zeta_i -> A zeta_i, psi -> psi inv(A), jointly with the
    eigenfunctions' smoothing chains, whose messages it writes; returns A.

    ``score_second`` is S = sum_i E(zeta_i zeta_i'), and ``grams`` holds the
    components' linear-part Gram over prior_beta_var, H, and their spline
    Gram, G.  With psi -> psi B (B = inv(A)) and each chain at its optimum
    for s_l = (B'GB)_ll (:func:`_chain_profiles`), the objective along the
    move is -tr(inv(B) S inv(B)')/2 + (P - n) log det B - tr(B'HB)/2 plus
    the chains' terms, which rise by -w_l/2 per unit of s_l.

    Newton steps on B's L^2 entries climb it, each taken at B = I in the
    frame the last step reached.  Each move forms minus the Hessian
    (:func:`_move_curvature`) afresh at its first step; its inverse serves
    the move's next steps while they shrink fourfold, and is formed again
    at the step that does not (on ``tools/compare_fits.py``'s inputs, 1.85
    curvatures a move, not 3.18).  Where the Hessian is not negative
    definite, the step follows the gradient (stopping there took dense 2097
    sweeps, not 1342).  A step halves until the objective rises, or changes
    by round-off only.  The loop stops before a step that would move B by
    less than a tenth of the convergence tolerance, and then writes each
    chain's three messages at its optimum.  A move whose first step is that
    small, or whose objective has no maximum (a component with no score mass
    or no spline mass), keeps A = I and the chains.
    """
    config = state.config
    L, num_splines = config.num_eigen, config.num_splines
    identity = np.eye(L)
    linear_sq, spline_sq = np.diagonal(grams, axis1=1, axis2=2).tolist()
    if not (min(spline_sq) > 0.0 and min(np.diagonal(score_second).tolist()) > 0.0):
        return identity
    excess = state.cache.num_curves - state.cache.num_coefs  # n - P
    shift = excess * identity
    aux_precision = 1.0 / config.hyper_a_psi**2  # c = 1/A^2 of the eigenfunctions' prior on a
    rtol = _MOVE_RTOL_PER_TOL * config.tol
    e_recip, slope, value = _chain_profiles(spline_sq, num_splines, aux_precision)
    trace = score_second.trace()
    score_map, inverse_curvature, last_size = identity, None, math.inf
    for _ in range(_MOVE_STEPS):
        gradient = (score_second - shift - grams[0] - grams[1] * e_recip).ravel()
        step = None
        if inverse_curvature is not None:
            step = inverse_curvature @ gradient
            size = max(map(abs, step.tolist()))
            if size > max(rtol, 0.25 * last_size):  # the kept curvature no longer serves
                step = None
        if step is None:
            curvature = _move_curvature(score_second, shift, grams, e_recip, slope)
            try:
                np.linalg.cholesky(curvature)
                inverse_curvature = np.linalg.inv(curvature)
                step = inverse_curvature @ gradient
            except np.linalg.LinAlgError:  # the Hessian is not negative definite
                inverse_curvature = None
                along = gradient @ curvature @ gradient
                step = gradient * (gradient @ gradient / along if along > 0.0 else 1.0)
            size = max(map(abs, step.tolist()))
        if size <= rtol:
            break
        last_size = size
        floor = -1e-13 * (trace + abs(excess) + math.fsum(map(abs, value)))  # round-off
        for _ in range(_BACKTRACKS):
            B = identity + step.reshape(L, L)
            det = np.linalg.det(B)
            if det > 0.0:
                B_inv = np.linalg.inv(B)
                moved_second = B_inv @ score_second @ B_inv.T
                moved_grams = B.T @ grams @ B
                moved_sq = np.diagonal(moved_grams, axis1=1, axis2=2).tolist()
                if min(moved_sq[1]) > 0.0:
                    profiles = _chain_profiles(moved_sq[1], num_splines, aux_precision)
                    moved_trace = moved_second.trace()
                    gain = (
                        0.5 * (trace - moved_trace)
                        - excess * math.log(det)
                        - 0.5 * (math.fsum(moved_sq[0]) - math.fsum(linear_sq))
                        + math.fsum(profiles[2]) - math.fsum(value)
                    )  # fmt: skip
                    if gain > floor:
                        break
            step = 0.5 * step
            inverse_curvature = None
        else:
            break
        score_second, grams, trace = moved_second, moved_grams, moved_trace
        (linear_sq, spline_sq), (e_recip, slope, value) = moved_sq, profiles
        score_map = B_inv @ score_map
    if score_map is identity:
        return identity
    for c, s, w in zip(range(2, L + 2), spline_sq, e_recip):
        state.store.set_source(c, penalization_message_to_variance(s, num_splines))
        state.store.set_iterated(c, *iterated_igw_messages(w, 2.0 / (w + aux_precision)))
    return score_map


def _move_curvature(score_second, shift, grams, e_recip, slope) -> np.ndarray:
    """Minus the Hessian of :func:`_linear_move`'s objective in B's entries at B = I.

    Entry [(p, q), (r, s)] pairs B_pq with B_rs.  The trace term gives
    delta_qr S_ps + delta_ps S_qr + delta_pr S_qs, the log-determinant
    -(n - P) delta_ps delta_qr (``shift`` is (n - P) I), and column q's
    penalties and chain profile delta_qs (H + w_q G + 2 w_q' (G e_q)(G e_q)')_pr.
    """
    L = score_second.shape[0]
    identity = np.eye(L)
    spline_t = grams[1].T
    columns = (
        grams[0]
        + np.array(e_recip)[:, None, None] * grams[1]
        + 2.0 * np.array(slope)[:, None, None] * spline_t[:, :, None] * spline_t[:, None, :]
    )
    return (
        identity[None, :, :, None] * score_second[:, None, None, :]
        + identity[:, None, None, :] * (score_second - shift)[None, :, :, None]
        + identity[:, None, :, None] * score_second[None, :, None, :]
        + identity[None, :, None, :] * columns.transpose(1, 0, 2)[:, :, :, None]
    ).reshape(L * L, L * L)


def _update_iterated_fragment(store: fg.MessageStore, c: int) -> None:
    """The iterated fragment of chain c of :func:`graph.variance_chains`."""
    e_recips = store.e_recip(c, "iterated"), store.e_recip(c, "iterated", "aux")
    store.set_iterated(c, *iterated_igw_messages(*e_recips))


def _sweep(state: VmpState) -> np.ndarray:
    """One full pass through the fragments in the fixed update order; returns the store's
    ``q_snapshot`` after advancing ``state.iterations``."""
    store, n, L = state.store, state.cache.num_curves, state.config.num_eigen
    zeta = store.read_q_zeta()  # in every mode, so a degenerate one raises here
    if state.config.freeze_scores_at_zero:
        zeta = np.zeros((n, L)), np.zeros((n, L, L))
    elif state.iterations:
        # No snap in a fit's first sweep: the translation and the move optimize the
        # smoothing penalty, which the vague starting message to nu is not, and the
        # second sweep's rotation sets the frame, whatever the starting scores' frame.
        zeta = _align_component_rotation(state, *store.read_q_nu(fg.LIKELIHOOD), *zeta)
    _update_likelihood_fragment(state, score_moments(*zeta))
    _update_iterated_fragment(store, 0)
    _update_penalization_fragment(state)
    for c in range(1, L + 2):
        _update_iterated_fragment(store, c)
    state.iterations += 1
    return store.q_snapshot()


def convergence_metric(previous: np.ndarray, current: np.ndarray, starts: np.ndarray) -> float:
    """Largest relative change, over nodes, of two ``MessageStore.q_snapshot`` vectors.

    ``starts`` are the nodes' first entries (``MessageStore.node_starts``).
    Each node's change is max|new - old| / (1 + max|old|), so each curve's
    scores, their own node, are measured on their own scale.
    """
    change = np.maximum.reduceat(np.abs(current - previous), starts)
    return float((change / (1.0 + np.maximum.reduceat(np.abs(previous), starts))).max())


def _jump(store: fg.MessageStore, metric: float, older, old, current):
    """Propose a store extrapolated from ``current`` along the last sweep's change.

    The three vectors are the fit's ``message_vector`` after the last three
    sweeps, and ``store`` holds ``current``; ``metric`` is the last sweep's
    :func:`convergence_metric`.  With the change D = current - old and rho =
    |D| / |old - older|, a jump needs cos(D, old - older) > ``_JUMP_ALIGNMENT``
    and rho < 1; it then proposes current + t D, with t the geometric series'
    limit rho / (1 - rho) capped at ``_JUMP_CAP`` and at ``_JUMP_RADIUS`` /
    metric, when q(nu), every q(zeta_i) and every variance and auxiliary
    q-density it implies is proper.  The q-densities are linear in the messages, so t
    times the metric is about the largest relative change the jump makes in
    any of them: the radius keeps a jump far from the fixed point, where the
    fit's path still bends, from changing a q-density by more than a tenth.
    Returns (t, the proposal), whose q(nu) and q(zeta) are read, or None; it
    writes no store.
    """
    change, last = current - old, old - older
    size, last_size = math.sqrt(change @ change), math.sqrt(last @ last)
    if not (size < last_size and change @ last > _JUMP_ALIGNMENT * size * last_size):
        return None
    rho = size / last_size
    step = min(rho / (1.0 - rho), _JUMP_CAP, _JUMP_RADIUS / metric)
    proposal = store.with_messages(current + step * change)
    if not proposal.q_variances_proper():
        return None
    try:
        proposal.read_q_nu(fg.LIKELIHOOD)
        proposal.read_q_zeta()
    except DegenerateMessageError:
        return None
    return step, proposal


def fit_state(state: VmpState) -> VmpState:
    """Run sweeps on a state fresh from :func:`initialize` until the convergence
    metric drops below tolerance or ``max_iter`` sweeps have run.

    After every ``_JUMP_SPACING``-th sweep but the last, the fit tries a jump along
    its slow mode: :func:`_jump` proposes a store, and the fit keeps either the
    proposal or its own store.  The next sweep is compared with the store kept,
    so a fit stops only where one plain sweep changes the q-densities by less
    than ``tol``, at a fixed point of the plain sweep.  ``state.iterations``
    and ``state.history`` count sweeps.

    A degenerate message or a ``LinAlgError`` in a sweep, such as an ``eigh``
    that does not converge on overflowed moments, raises
    :class:`DegenerateMessageError` naming the iteration.
    """
    starts = state.store.node_starts()
    previous = state.store.q_snapshot()  # the snapshot the next sweep's is compared with
    recent = []  # the message vectors of the three sweeps that end at a try
    for _ in range(state.config.max_iter):
        try:
            current = _sweep(state)
        except (DegenerateMessageError, np.linalg.LinAlgError) as err:
            raise DegenerateMessageError(f"iteration {state.iterations + 1}: {err}") from err
        metric = convergence_metric(previous, current, starts)
        state.history.append(metric)
        previous = current
        if state.iterations % 50 == 0:
            logger.debug("iteration %d, metric %.3e", state.iterations, metric)
        if metric < state.config.tol:
            state.converged = True
            break
        if -state.iterations % _JUMP_SPACING < 3:  # one of the three sweeps a try reads
            recent = [*recent[-2:], state.store.message_vector()]
        if state.iterations % _JUMP_SPACING == 0 and state.iterations < state.config.max_iter:
            jump = _jump(state.store, metric, *recent)
            if jump is not None:
                step, state.store = jump
                previous = state.store.q_snapshot()
                logger.debug("iteration %d: jump of %.3g last changes", state.iterations, step)
    if not state.converged:
        logger.info(
            "no convergence after %d iterations (last metric %.3e)",
            state.iterations,
            state.history[-1],
        )
    return state


def fit(dataset: FunctionalDataset, config: FitConfig | None = None) -> VmpState:
    """Initialize and run the message-passing scheme on a dataset."""
    config = config or FitConfig()
    return fit_state(initialize(dataset, config))
