"""The snap's translation and scale moves: objective, invariance, fixed point, sweep counts.

The snap (``orchestrator._align_component_rotation``) rotates, translates
and scales the internal frame of the fit.  These tests check that no move
lowers the objective the moves optimize, that no move changes the
likelihood's expectations or any expected curve, that the sweeps still
reach the plain coordinate-ascent fixed point, that the first snap of a fit
only rotates, and the sweep counts the moves buy on the benchmark's dense
inputs.
"""

import copy
import functools
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vmpfpca.graph as fg
import vmpfpca.orchestrator as orchestrator
from vmpfpca import cli
from vmpfpca.data import read_dataset_csv, write_dataset_csv
from vmpfpca.expfam import DegenerateMessageError, InvChiSqParams
from vmpfpca.fragments import (
    likelihood_expectations,
    likelihood_expected_sq_norms,
    score_moments,
)
from vmpfpca.orchestrator import FitConfig, fit
from vmpfpca.postprocess import extract, finalize, trapezoid_inner
from vmpfpca.simulate import SimConfig, generate
from vmpfpca.splines import design_matrix
from tests_oracle_support import (
    invchisq_mean_reciprocal,
    full_model_mfvb_oracle,
    reference_scale_alternation,
    snap_objective,
    transform_nu_moments,
)

ROOT = Path(__file__).resolve().parent.parent


def _load_benchmark_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_dataset(tmp_path, num_curves, obs):
    """Dataset 0 of the benchmark's generator with seed 1, read back from its CSV."""
    path = tmp_path / f"bench-{num_curves}-{obs[0]}-{obs[1]}.csv"
    inputs = _load_benchmark_inputs()
    inputs.write_dataset(path, seed=1, index=0, num_curves=num_curves, obs=obs)
    return read_dataset_csv(path)


BENCHMARK_CONFIG = dict(num_eigen=3, num_splines=10)  # the benchmark's fit flags


def recovered_score_map(zeta_means, zeta_covs, moved_means, moved_covs):
    """The snap's score map [[1, 0], [-c b, diag(c) R']], read off the q(zeta) moments it moves.

    An exact affine least-squares fit of the moved means on the input means
    (it needs n >= L + 1 curves); the moved covariances must be the
    pushforward of the input ones under its linear part.
    """
    num_curves, num_eigen = zeta_means.shape
    assert num_curves >= num_eigen + 1
    design = np.column_stack([np.ones(num_curves), zeta_means])
    coefs = np.linalg.lstsq(design, moved_means, rcond=None)[0]
    assert_same(design @ coefs, moved_means)
    score_map = np.eye(num_eigen + 1)
    score_map[1:] = coefs.T
    linear = score_map[1:, 1:]
    assert_same(linear @ zeta_covs @ linear.T, moved_covs)
    return score_map


def capture_score_maps(monkeypatch):
    """Record the score map of every snap."""
    maps = []
    original = orchestrator._align_component_rotation

    def capturing(state, nu_mean, nu_cov, *zeta):
        result = original(state, nu_mean, nu_cov, *zeta)
        maps.append(recovered_score_map(*zeta, *result))
        return result

    monkeypatch.setattr(orchestrator, "_align_component_rotation", capturing)
    return maps


def split_moves(score_map):
    """(rotation R, shift b, scale c) of a score map, in the order the snap applies them."""
    linear = score_map[1:, 1:]
    scale = np.linalg.norm(linear, axis=1)
    return (linear / scale[:, None]).T, -score_map[1:, 0] / scale, scale


def stage_maps(score_map):
    """Score maps after the rotation, after the translation and after the scale move."""
    rotation, shift, _ = split_moves(score_map)
    L = rotation.shape[0]
    rotated = np.eye(L + 1)
    rotated[1:, 1:] = rotation.T
    translated = rotated.copy()
    translated[1:, 0] = -shift
    return rotated, translated, score_map


def moved_scores(zeta_means, zeta_covs, score_map):
    linear, offset = score_map[1:, 1:], score_map[1:, 0]
    return zeta_means @ linear.T + offset, linear @ zeta_covs @ linear.T


def chain_densities(state):
    """q(sigma^2) and q(a) of the mean-function and eigenfunction chains, in block order."""
    _, *smoothing = fg.variance_chains(state.config.num_eigen)
    return (
        [fg.q_natural_params(state.graph, state.store, chain.sigsq) for chain in smoothing],
        [fg.q_natural_params(state.graph, state.store, chain.aux) for chain in smoothing],
    )


def curve_expectations(dataset, state, nu_mean, nu_cov, zeta_means, zeta_covs):
    """Per-curve E||y_i - C_i V zeta-tilde_i||^2 and the expected curves at the observations."""
    expectations = likelihood_expectations(state.cache, nu_mean, nu_cov)
    scores = score_moments(zeta_means, zeta_covs)
    coefs = scores.zt_mean @ expectations.v_mean.T  # (n, P): E(V) E(zeta-tilde_i)
    rows = np.repeat(coefs, np.diff(dataset.offsets), axis=0)
    curves = np.einsum("rp,rp->r", design_matrix(dataset.times, state.basis), rows)
    return likelihood_expected_sq_norms(state.cache, expectations, scores), curves


def assert_same(after, before, rtol=1e-10):
    assert np.abs(after - before).max() <= rtol * np.abs(before).max()


class TestSnapObjective:
    def test_moves_raise_objective_and_keep_every_curve(self, monkeypatch):
        dataset, _ = generate(SimConfig(num_curves=36, seed=1))
        original = orchestrator._align_component_rotation
        snaps = []

        def checked(state, nu_mean, nu_cov, *zeta):
            config = state.config
            store = state.store
            score_message = store.zeta_eta1.copy(), store.zeta_precision.copy()
            chains_before = chain_densities(state)
            result = original(state, nu_mean, nu_cov, *zeta)
            chains_after = chain_densities(state)
            # the snap returns the moved score moments: an affine map of the
            # means, with the covariances its pushforward
            score_map = recovered_score_map(*zeta, *result)

            objective = [snap_objective(config, nu_mean, nu_cov, *zeta, *chains_before)]
            for stage, stage_map in enumerate(stage_maps(score_map)):
                moved = (
                    *transform_nu_moments(nu_mean, nu_cov, stage_map),
                    *moved_scores(*zeta, stage_map),
                )
                chains = chains_after if stage == 2 else chains_before
                objective.append(snap_objective(config, *moved, *chains))
            initial, rotated, translated, scaled = objective
            assert rotated >= initial - 1e-10 * abs(initial)
            assert translated >= rotated - 1e-10 * abs(rotated)
            assert scaled >= translated - 1e-10 * abs(translated)

            # the likelihood fragment rewrites the score message from the
            # returned moments, so the snap leaves it
            assert np.array_equal(store.zeta_eta1, score_message[0])
            assert np.array_equal(store.zeta_precision, score_message[1])
            for after, before in zip(
                curve_expectations(dataset, state, *moved),
                curve_expectations(dataset, state, nu_mean, nu_cov, *zeta),
            ):
                assert_same(after, before)
            snaps.append(result)
            return result

        monkeypatch.setattr(orchestrator, "_align_component_rotation", checked)
        state = fit(dataset, FitConfig())
        assert state.converged
        assert len(snaps) == state.iterations


class TestFirstSweep:
    def test_first_snap_only_rotates(self, monkeypatch):
        # The starting message to nu is a vague N(0, 100 I), not the model's
        # penalty, so the translation and the scale wait for penalization.
        dataset, _ = generate(SimConfig(num_curves=10, seed=3))
        maps = capture_score_maps(monkeypatch)
        fit(dataset, FitConfig(max_iter=2))
        (_, first_shift, first_scale), (_, shift, scale) = map(split_moves, maps)
        # the maps are read off the moved moments, so they carry round-off
        assert np.abs(first_shift).max() < 1e-14 and np.abs(first_scale - 1.0).max() < 1e-14
        assert np.abs(shift).max() > 1e-6 and np.abs(scale - 1.0).max() > 1e-6

    def test_tiny_linear_prior_variance_stays_nonconvergent(self, tmp_path):
        # Against the N(0, 100 I) start, a linear-part penalty of about 1e300
        # would scale every component by about 7e74 and collapse the scores.
        path = tmp_path / "dataset.csv"
        write_dataset_csv(generate(SimConfig(num_curves=10, seed=3))[0], path)
        hyper = ["--hyper-a-eps", "1", "--hyper-a-mu", "1", "--hyper-a-psi", "1"]
        code = cli.main(
            [
                "fit", str(path), "--prior-beta-var", "1e-300", *hyper,
                "--max-iter", "50", "--grid-size", "101", "--out", str(tmp_path / "fit.json"),
            ]
        )  # fmt: skip
        assert code == cli.EXIT_NONCONVERGENCE


class TestSingleComponent:
    def test_translation_and_scale_run_and_finalize_holds(self, monkeypatch):
        # With one component the rotation is the identity; the other two moves are not.
        dataset, _ = generate(SimConfig(num_curves=20, seed=6))
        maps = capture_score_maps(monkeypatch)
        state = fit(dataset, FitConfig(num_eigen=1, max_iter=1000))
        assert state.converged
        assert len(maps) == state.iterations
        rotations, shifts, scales = (np.array(m) for m in zip(*map(split_moves, maps)))
        assert np.all(rotations == 1.0)
        assert np.all(np.isfinite(shifts)) and np.abs(shifts).max() > 1e-3
        assert np.all(scales > 0) and np.abs(scales - 1.0).max() > 1e-3

        result = finalize(state)
        func = result.eigenfunctions[:, 0]
        assert trapezoid_inner(func, func, result.grid) == pytest.approx(1.0, abs=1e-3)
        assert abs(result.scores.mean()) <= 1e-8 * np.abs(result.scores).max()
        assert result.eigenvalues[0] > 0
        assert np.all(np.isfinite(result.fitted))


class TestSweepCounts:
    def test_dense_fit_takes_at_most_half_the_plain_sweeps(self, tmp_path):
        # half the 765 sweeps that the rotation alone takes
        dataset = benchmark_dataset(tmp_path, 20, (150, 300))
        state = fit(dataset, FitConfig(**BENCHMARK_CONFIG, max_iter=3000))
        assert state.converged
        assert state.iterations <= 382

    def test_dense_curve_stall_converges(self, tmp_path):
        # the rotation alone does not converge within 3000 sweeps
        dataset = benchmark_dataset(tmp_path, 20, (1000, 2000))
        state = fit(dataset, FitConfig(**BENCHMARK_CONFIG, max_iter=3000))
        assert state.converged


class TestDenseFixedPoint:
    def test_matches_direct_coordinate_ascent(self, tmp_path):
        # The oracle runs plain moment-form coordinate ascent, with no snap,
        # so agreement at a tight tolerance shows the moves keep its fixed
        # point.  The quantities compared are rotation-invariant.
        dataset = benchmark_dataset(tmp_path, 8, (150, 300))
        config = FitConfig(num_eigen=2, num_splines=5, tol=1e-11, max_iter=6000)
        state = fit(dataset, config)
        assert state.converged
        _, _, oracle_noise_prec, oracle_fitted = full_model_mfvb_oracle(
            dataset, config, sweeps=6000
        )
        raw = extract(state)
        _, fitted = curve_expectations(
            dataset, state, raw.nu_mean, raw.nu_cov, raw.zeta_means, raw.zeta_covs
        )
        assert np.abs(fitted - np.concatenate(oracle_fitted)).max() < 1e-6
        assert raw.noise_precision_mean == pytest.approx(oracle_noise_prec, rel=1e-7)


@functools.cache
def _initial_state():
    """The initialized state of a 10-curve fit; copy its store before writing."""
    dataset, _ = generate(SimConfig(num_curves=10, seed=3))
    return orchestrator.initialize(dataset, FitConfig())


_POSITIVE = st.floats(-8.0, 8.0).map(lambda exponent: 10.0**exponent)


class TestScaleComponent:
    """The scale root at the edges (no score mass, no penalty, n < P), and the
    float loop against the same alternation in message objects."""

    CHAIN = 2  # the first eigenfunction's, in graph.variance_chains order

    @classmethod
    def chain_state(cls):
        """A fresh state, one eigenfunction chain and its E(1/sigma^2)."""
        state, chain = cls.copied_state()
        q_sigsq = fg.q_natural_params(state.graph, state.store, chain.sigsq)
        return state, chain, invchisq_mean_reciprocal(q_sigsq)

    @pytest.mark.parametrize(
        "score_sq, excess, penalty",
        [(0.0, 40, 1.0), (5.0, -2, 0.0)],
        ids=["no-score-mass", "no-penalty"],
    )
    def test_degenerate_root_keeps_component_and_chain(self, score_sq, excess, penalty):
        # Neither objective has a maximum at a positive finite scale.
        state, chain, e_recip = self.chain_state()
        edges = self.chain_edges(chain)
        before = [state.store.get_to_node(*edge) for edge in edges]
        scale = orchestrator._scale_component(
            state, self.CHAIN, e_recip, score_sq, excess, penalty, penalty
        )
        assert scale == 1.0
        assert [state.store.get_to_node(*edge) for edge in edges] == before

    @pytest.mark.parametrize(
        "score_sq, excess", [(5.0, -2), (5.0, 0), (5.0, 40), (0.0, -2)]
    )
    def test_tiny_penalty_gives_a_positive_scale(self, score_sq, excess):
        # n - P = -2 is the study's n = 10 fits with P = 12 coefficients a block
        state, chain, e_recip = self.chain_state()
        scale = orchestrator._scale_component(
            state, self.CHAIN, e_recip, score_sq, excess, 1e-30, 1e-30
        )
        assert 0.0 < scale < np.inf

    @staticmethod
    def chain_edges(chain):
        """The three edges the scale step writes."""
        return [
            (chain.source, chain.sigsq),
            (chain.iterated, chain.sigsq),
            (chain.iterated, chain.aux),
        ]

    @staticmethod
    def copied_state(tol=1e-5):
        """The initialized state with its own store, one eigenfunction chain."""
        base = _initial_state()
        state = replace(
            base, store=copy.deepcopy(base.store), config=replace(base.config, tol=tol)
        )
        return state, fg.variance_chains(3)[TestScaleComponent.CHAIN]

    def outcomes(self, state, chain, *args):
        """(c, chain messages) of the float loop and of the reference, or each one's error."""
        store = state.store
        prior = store.get_to_node(chain.prior, chain.aux)
        e_recip_aux = invchisq_mean_reciprocal(
            prior + store.get_to_node(chain.iterated, chain.aux)
        )
        before = [store.get_to_node(*edge) for edge in self.chain_edges(chain)]
        try:
            scale, messages = reference_scale_alternation(
                prior,
                e_recip_aux,
                *args,
                state.config.num_splines,
                orchestrator._SCALE_RTOL_PER_TOL * state.config.tol,
                orchestrator._SCALE_STEPS,
            )
            expected = (scale, before if messages is None else list(messages))
        except DegenerateMessageError as err:
            expected = str(err)
        try:
            scale = orchestrator._scale_component(state, self.CHAIN, *args)
            actual = (scale, [store.get_to_node(*edge) for edge in self.chain_edges(chain)])
        except DegenerateMessageError as err:
            actual = str(err)
        return actual, expected

    @settings(max_examples=300, deadline=None)
    @given(
        e_recip=_POSITIVE,
        score_sq=st.one_of(st.just(0.0), _POSITIVE),
        excess=st.integers(-40, 400),
        linear_sq=st.one_of(st.just(0.0), _POSITIVE),
        spline_sq=st.one_of(st.just(0.0), _POSITIVE),
        aux_recip=_POSITIVE,
        tol=st.sampled_from([1e-3, 1e-5, 1e-9]),
    )
    def test_float_loop_matches_message_alternation(
        self, e_recip, score_sq, excess, linear_sq, spline_sq, aux_recip, tol
    ):
        # bit for bit: the same c and the same three chain messages
        state, chain = self.copied_state(tol)
        state.store.set_to_node(chain.iterated, chain.aux, InvChiSqParams(-0.5, -0.5 * aux_recip))
        actual, expected = self.outcomes(
            state, chain, e_recip, score_sq, excess, linear_sq, spline_sq
        )
        assert actual == expected

    def test_zero_scale_sum_raises_like_the_messages(self):
        # With eta2 = 0 in the prior on a and E(1/a) = inf, the first step's
        # E(1/sigma^2) is 0, so q(a)'s eta2 sums to 0.
        state, chain = self.copied_state()
        state.store.set_to_node(chain.prior, chain.aux, InvChiSqParams(-1.5, 0.0))
        state.store.set_to_node(chain.iterated, chain.aux, InvChiSqParams(-0.5, -5e-324))
        # The scale step names the edge of the read, like every read of the sweep.
        actual, expected = self.outcomes(state, chain, 1.0, 5.0, 40, 1.0, 1.0)
        assert expected == "inverse chi-squared parameters with eta2 = 0"
        assert actual == f"edge (iterated_psi[0], a_psi[0]): {expected}"
