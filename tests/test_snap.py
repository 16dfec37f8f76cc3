"""The snap's translation and linear moves: objective, invariance, fixed point, sweep counts.

The snap (``orchestrator._align_component_rotation``) rotates and translates
the internal frame of the fit, then maps it by a general L x L move solved
jointly with the eigenfunctions' smoothing chains.  These tests check that
no move lowers the objective the moves optimize, that no move changes the
likelihood's expectations or any expected curve, that the move's chains
sit at the fragments' own fixed point, that the sweeps still reach the
plain coordinate-ascent fixed point, that a fit's first sweep does not snap
and its second runs every stage, and the sweep counts the moves buy on the
benchmark's dense inputs.
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
    igw_prior_message,
    iterated_igw_messages,
    likelihood_expectations,
    likelihood_expected_sq_norms,
    penalization_message_to_variance,
    score_moments,
)
from vmpfpca.orchestrator import FitConfig, fit
from vmpfpca.postprocess import extract, finalize, trapezoid_inner
from vmpfpca.simulate import SimConfig, generate
from vmpfpca.splines import design_matrix
from tests_oracle_support import (
    invchisq_mean_reciprocal,
    full_model_mfvb_oracle,
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


def benchmark_dataset(tmp_path, num_curves, obs, index=0):
    """Dataset ``index`` of the benchmark's generator with seed 1, read back from its CSV."""
    path = tmp_path / f"bench-{num_curves}-{obs[0]}-{obs[1]}-{index}.csv"
    inputs = _load_benchmark_inputs()
    inputs.write_dataset(path, seed=1, index=index, num_curves=num_curves, obs=obs)
    return read_dataset_csv(path)


BENCHMARK_CONFIG = dict(num_eigen=3, num_splines=10)  # the benchmark's fit flags


def recording(name, records):
    """``orchestrator.<name>``, appending each value it returns to ``records``."""
    original = getattr(orchestrator, name)

    def recorded(*args):
        records.append(original(*args))
        return records[-1]

    return recorded


SNAP = orchestrator._align_component_rotation  # unpatched, for tests that patch the sweep's


def run_snap(state, nu_mean, nu_cov, zeta_means, zeta_covs):
    """Run the snap; return its result and its stages (rotation R, shift b, linear move A).

    R and A are the ones the snap computes (A is I where the move does not
    run).  The snap maps each curve's scores by zeta -> A (R' zeta - b), so
    -A b is read off the moved means, which must be the input means under
    that map, with the moved covariances their pushforward.
    """
    rotations, moves = [], []
    with pytest.MonkeyPatch.context() as patch:
        for name, records in [("_component_rotation", rotations), ("_linear_move", moves)]:
            patch.setattr(orchestrator, name, recording(name, records))
        result = SNAP(state, nu_mean, nu_cov, zeta_means, zeta_covs)
    (rotation,) = rotations
    move = moves[0] if moves else np.eye(len(rotation))
    linear = move @ rotation.T
    moved_means, moved_covs = result
    offset = (moved_means - zeta_means @ linear.T).mean(axis=0)
    assert_same(zeta_means @ linear.T + offset, moved_means)
    assert_same(linear @ zeta_covs @ linear.T, moved_covs)
    return result, (rotation, -np.linalg.solve(move, offset), move)


def capture_snaps(monkeypatch):
    """Record the stages (R, b, A) of every snap of a fit."""
    snaps = []

    def capturing(state, *moments):
        result, stages = run_snap(state, *moments)
        snaps.append(stages)
        return result

    monkeypatch.setattr(orchestrator, "_align_component_rotation", capturing)
    return snaps


def stage_maps(rotation, shift, move):
    """Score maps [[1, 0], [offset, linear]] after the rotation, the translation and the move."""
    L = len(move)
    rotated = np.eye(L + 1)
    rotated[1:, 1:] = rotation.T
    translated = rotated.copy()
    translated[1:, 0] = -shift
    moved = np.eye(L + 1)
    moved[1:] = move @ translated[1:]
    return rotated, translated, moved


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


def checked_snap(dataset, state, nu_mean, nu_cov, zeta_means, zeta_covs):
    """Run the snap, check that no stage lowers the objective or moves a curve, return its result.

    The stages are the rotation, the translation and the linear move; the
    move's chains enter with the last stage only.
    """
    config, store = state.config, state.store
    zeta = zeta_means, zeta_covs
    score_message = store.zeta_eta1.copy(), store.zeta_precision.copy()
    chains_before = chain_densities(state)
    result, stages = run_snap(state, nu_mean, nu_cov, *zeta)
    chains_after = chain_densities(state)

    objective = [snap_objective(config, nu_mean, nu_cov, *zeta, *chains_before)]
    for stage, stage_map in enumerate(stage_maps(*stages)):
        moved = (
            *transform_nu_moments(nu_mean, nu_cov, stage_map),
            *moved_scores(*zeta, stage_map),
        )
        chains = chains_after if stage == 2 else chains_before
        objective.append(snap_objective(config, *moved, *chains))
    for before, after in zip(objective, objective[1:]):
        assert after >= before - 1e-10 * abs(before)

    # the likelihood fragment rewrites the score message from the
    # returned moments, so the snap leaves it
    assert np.array_equal(store.zeta_eta1, score_message[0])
    assert np.array_equal(store.zeta_precision, score_message[1])
    for after, before in zip(
        curve_expectations(dataset, state, *moved),
        curve_expectations(dataset, state, nu_mean, nu_cov, *zeta),
    ):
        assert_same(after, before)
    return result


class TestSnapObjective:
    def test_moves_raise_objective_and_keep_every_curve(self, monkeypatch):
        dataset, _ = generate(SimConfig(num_curves=36, seed=1))
        snaps = []

        def checked(state, *moments):
            snaps.append(checked_snap(dataset, state, *moments))
            return snaps[-1]

        monkeypatch.setattr(orchestrator, "_align_component_rotation", checked)
        state = fit(dataset, FitConfig())
        assert state.converged
        assert len(snaps) == state.iterations - 1  # the first sweep does not snap

    @settings(max_examples=40, deadline=None)
    @given(
        num_curves=st.sampled_from([5, 8, 10, 30]),
        seed=st.integers(0, 2**16),
        num_eigen=st.integers(1, 3),
        num_splines=st.sampled_from([5, 10]),
        sweeps=st.integers(1, 30),
    )
    def test_move_never_lowers_objective_on_small_states(
        self, num_curves, seed, num_eigen, num_splines, sweeps
    ):
        # n < P = K + 2 coefficients a block for most of these: the move's
        # log-determinant term then pushes the eigenfunctions outward
        dataset, _ = generate(SimConfig(num_curves=num_curves, seed=seed))
        config = FitConfig(num_eigen=num_eigen, num_splines=num_splines, max_iter=sweeps)
        state = fit(dataset, config)
        moments = (
            state.store.read_q_nu(fg.LIKELIHOOD),
            state.store.read_q_zeta(),
        )
        checked_snap(dataset, state, *moments[0], *moments[1])


class TestFirstSweep:
    def test_first_sweep_does_not_snap_and_the_second_runs_every_stage(self, monkeypatch):
        # The starting message to nu is a vague N(0, 100 I), not the model's
        # penalty, so the snap waits for the penalization fragment: the first
        # sweep's likelihood fragment gets the store's own q(zeta) moments.
        dataset, _ = generate(SimConfig(num_curves=10, seed=3))
        snaps = capture_snaps(monkeypatch)
        handed = []
        original = orchestrator._update_likelihood_fragment

        def recording(state, scores):
            fresh = score_moments(*state.store.read_q_zeta())
            handed.append(all(map(np.array_equal, vars(scores).values(), vars(fresh).values())))
            return original(state, scores)

        monkeypatch.setattr(orchestrator, "_update_likelihood_fragment", recording)
        fit(dataset, FitConfig(max_iter=2))
        assert handed == [True, False]
        ((_, shift, move),) = snaps
        L = move.shape[0]
        assert np.abs(shift).max() > 1e-6
        assert np.abs(move - np.eye(L)).max() > 1e-6

    def test_tiny_linear_prior_variance_stays_nonconvergent(self, tmp_path):
        # Against the N(0, 100 I) start, a linear-part penalty of about 1e300
        # would shrink every eigenfunction by about 7e74 and collapse the scores.
        path = tmp_path / "dataset.csv"
        write_dataset_csv(generate(SimConfig(num_curves=10, seed=3))[0], path)
        hyper = ["--hyper-a-eps", "1", "--hyper-a-mu", "1", "--hyper-a-psi", "1"]
        with pytest.warns(RuntimeWarning, match="tied eigenvalues"):  # the collapsed scores
            code = cli.main(
                [
                    "fit", str(path), "--prior-beta-var", "1e-300", *hyper,
                    "--max-iter", "50", "--grid-size", "101", "--out", str(tmp_path / "fit.json"),
                ]
            )  # fmt: skip
        assert code == cli.EXIT_NONCONVERGENCE


class TestSingleComponent:
    def test_translation_and_scale_run_and_finalize_holds(self, monkeypatch):
        # With one component the rotation is the identity and the linear move a
        # scale; the translation and the scale are not the identity.
        dataset, _ = generate(SimConfig(num_curves=20, seed=6))
        snaps = capture_snaps(monkeypatch)
        state = fit(dataset, FitConfig(num_eigen=1, max_iter=1000))
        assert state.converged
        assert len(snaps) == state.iterations - 1  # the first sweep does not snap
        rotations, shifts, moves = (np.array(m) for m in zip(*snaps))
        scales = moves[:, 0, 0]
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
    # With the snap's linear move and plain sweeps, dense indices 0 and 1 took
    # 91 and 95 sweeps and the stall 120; the jump between sweeps (ROADMAP
    # item 5) takes at most half of each.
    @staticmethod
    def dense_sweeps(tmp_path, index):
        dataset = benchmark_dataset(tmp_path, 20, (150, 300), index)
        state = fit(dataset, FitConfig(**BENCHMARK_CONFIG, max_iter=3000))
        assert state.converged
        return state.iterations

    def test_dense_fit_takes_at_most_half_the_plain_sweeps(self, tmp_path):
        assert self.dense_sweeps(tmp_path, 0) <= 45

    def test_second_dense_fit_takes_at_most_half_the_plain_sweeps(self, tmp_path):
        assert self.dense_sweeps(tmp_path, 1) <= 47

    def test_dense_curve_stall_converges(self, tmp_path):
        # the stall's slow mode is a tied linear map of the components
        dataset = benchmark_dataset(tmp_path, 20, (1000, 2000))
        state = fit(dataset, FitConfig(**BENCHMARK_CONFIG, max_iter=3000))
        assert state.converged
        assert state.iterations <= 60

    def test_slowest_study_cell_converges_within_the_default_budget(self):
        # study-0-10 of tools/compare_fits.py: 803 plain sweeps, over max_iter = 500
        dataset, _ = generate(SimConfig(num_curves=10, seed=0))
        state = fit(dataset, FitConfig())
        assert state.converged
        assert state.iterations <= FitConfig().max_iter


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


def copied_state():
    """The initialized state with its own store: n = 10 curves, P = 12 coefficients a block."""
    base = _initial_state()
    return replace(base, store=copy.deepcopy(base.store))


_POWERS = st.floats(-8.0, 8.0).map(lambda exponent: 10.0**exponent)


class TestLinearMove:
    """The closed-form chains against the fragments, and the move at its edges."""

    @settings(max_examples=300, deadline=None)
    @given(
        spline_sq=_POWERS,
        num_splines=st.integers(3, 40),
        hyper=st.floats(-3.0, 6.0).map(lambda exponent: 10.0**exponent),
    )
    def test_closed_form_chain_is_the_fragments_fixed_point(self, spline_sq, num_splines, hyper):
        # The chain's own coordinate updates, as message objects, iterated to
        # their fixed point: penalization message to sigma^2, then the
        # iterated fragment's messages to sigma^2 and to a.
        prior = InvChiSqParams(*igw_prior_message(hyper))
        source = InvChiSqParams(*penalization_message_to_variance(spline_sq, num_splines))
        e_recip, e_recip_aux = 1.0, 1.0
        for _ in range(5000):
            to_sigsq = InvChiSqParams(*iterated_igw_messages(e_recip, e_recip_aux)[0])
            updated = invchisq_mean_reciprocal(source + to_sigsq)
            to_aux = InvChiSqParams(*iterated_igw_messages(updated, e_recip_aux)[1])
            updated_aux = invchisq_mean_reciprocal(prior + to_aux)
            # settled once neither expectation moves; a start at the fixed
            # point of E(1/sigma^2) alone is not one
            done = abs(updated - e_recip) <= 1e-15 * updated and abs(
                updated_aux - e_recip_aux
            ) <= 1e-15 * updated_aux
            e_recip, e_recip_aux = updated, updated_aux
            if done:
                break
        else:
            pytest.fail("the fragments' updates did not settle")
        (closed_form,), _, _ = orchestrator._chain_profiles(
            [spline_sq], num_splines, -2.0 * prior.eta2
        )
        assert closed_form == pytest.approx(e_recip, rel=1e-12)

    @pytest.mark.parametrize("edge", ["collapsed-component", "no-penalty", "no-score-mass"])
    def test_edges_keep_the_identity_and_the_chains(self, edge):
        # With a component whose spline block is zero (alone, or with no
        # penalty at all, here at n = 10 <= P = 12), or whose scores carry no
        # mass, the objective along the move has no maximum.
        state = copied_state()
        factor = np.random.default_rng(0).standard_normal((3, 5))
        score_second, spline = factor @ factor.T, factor @ factor.T
        grams = np.stack([1e-10 * spline, spline])
        if edge == "collapsed-component":
            grams[:, 1, :] = grams[:, :, 1] = 0.0
        elif edge == "no-penalty":
            grams[:] = 0.0
        else:
            score_second[2, :] = score_second[:, 2] = 0.0
        chains = copy.deepcopy(state.store.chains)
        move = orchestrator._linear_move(state, score_second, grams)
        assert np.array_equal(move, np.eye(3))
        assert state.store.chains == chains

    def test_move_writes_each_chain_at_its_optimum(self):
        # After a move, each eigenfunction chain's E(1/sigma^2) and E(1/a) are
        # the fragments' fixed point for the moved spline block.
        state = copied_state()
        factor = np.random.default_rng(1).standard_normal((3, 5))
        score_second = 10.0 * factor @ factor.T
        grams = np.stack([1e-10 * np.eye(3), np.diag([2.0, 0.5, 0.1])])
        move = orchestrator._linear_move(state, score_second, grams)
        assert np.abs(move - np.eye(3)).max() > 1e-3
        inverse = np.linalg.inv(move)
        spline_sq = np.diagonal(inverse.T @ grams[1] @ inverse)
        K = state.config.num_splines
        for chain, s in zip(fg.variance_chains(3)[2:], spline_sq):
            q_sigsq = fg.q_natural_params(state.graph, state.store, chain.sigsq)
            q_aux = fg.q_natural_params(state.graph, state.store, chain.aux)
            e_recip, e_recip_aux = map(invchisq_mean_reciprocal, (q_sigsq, q_aux))
            assert e_recip == pytest.approx((K + 1) / (s + e_recip_aux), rel=1e-9)
            assert e_recip_aux == pytest.approx(
                2.0 / (e_recip + state.config.hyper_a_psi**-2), rel=1e-12
            )

    def test_zero_eta2_read_names_the_edge(self):
        # q(sigma^2_psi[0])'s eta2 sums to 0, so the snap's read of
        # E(1/sigma^2) has no value; it names the edge, like every read of the sweep.
        state = copied_state()
        chain = fg.variance_chains(3)[2]
        state.store.set_to_node(chain.source, chain.sigsq, InvChiSqParams(-5.0, 0.25))
        state.store.set_to_node(chain.iterated, chain.sigsq, InvChiSqParams(-1.5, -0.25))
        moments = (
            state.store.read_q_nu(fg.LIKELIHOOD),
            state.store.read_q_zeta(),
        )
        with pytest.raises(DegenerateMessageError) as raised:
            orchestrator._align_component_rotation(state, *moments[0], *moments[1])
        assert str(raised.value) == (
            f"edge ({chain.source}, {chain.sigsq}): inverse chi-squared parameters with eta2 = 0"
        )
