import copy

import numpy as np
import pytest

import vmpfpca.graph as fg
from vmpfpca.data import FunctionalDataset
from vmpfpca.expfam import (
    DegenerateMessageError,
    GaussianVecParams,
    GaussianVechParams,
    duplication_matrix,
    moore_penrose_duplication,
    symmetrize,
    unvec,
    vec,
)
from vmpfpca.fragments import gaussian_prior_message, igw_prior_message
from vmpfpca.orchestrator import (
    FitConfig,
    _align_component_rotation,
    _q_snapshot,
    _rotate_coefficients,
    _rotate_scores,
    _sweep,
    convergence_metric,
    fit,
    fit_state,
    initialize,
)
from vmpfpca.simulate import SimConfig, generate
from tests_oracle_support import kronecker_rotate_nu


@pytest.fixture(scope="module")
def reference_dataset():
    dataset, _ = generate(SimConfig(num_curves=36, seed=1))
    return dataset


@pytest.fixture(scope="module")
def converged_state(reference_dataset):
    return fit(reference_dataset, FitConfig())


class TestFitConfig:
    def test_defaults(self):
        config = FitConfig()
        assert config.num_eigen == 3
        assert config.num_splines == 10
        assert config.tol == 1e-5
        assert config.max_iter == 500
        assert config.grid_size == 1001

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_eigen": 0},
            {"num_splines": 2},
            {"tol": 0.0},
            {"max_iter": 0},
            {"grid_size": 100},
            {"hyper_a_eps": 0.0},
            {"prior_beta_var": -1.0},
            {"num_eigen": 2.5},
            {"max_iter": 1e3},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)


class TestInitialize:
    def test_every_node_has_complete_q(self, reference_dataset):
        state = initialize(reference_dataset, FitConfig())
        for node in state.graph.nodes:
            params = fg.q_natural_params(state.graph, state.store, node)
            assert np.all(np.isfinite(params.as_vector()))

    def test_prior_messages_match_closed_forms(self, reference_dataset):
        config = FitConfig()
        state = initialize(reference_dataset, config)
        expected_score_prior = gaussian_prior_message(3)
        # one prior message shared by every curve's scores
        stored = state.store.get_to_node(fg.PRIOR_ZETA, fg.ZETA)
        assert np.array_equal(stored.eta1, expected_score_prior.eta1)
        assert np.array_equal(stored.eta2, expected_score_prior.eta2)
        expected_aux_prior = igw_prior_message(config.hyper_a_eps)
        stored = state.store.get_to_node(fg.PRIOR_A_EPS, fg.A_EPS)
        assert stored == expected_aux_prior

    def test_score_likelihood_message_has_one_row_per_curve(self, reference_dataset):
        state = initialize(reference_dataset, FitConfig())
        n = reference_dataset.num_curves
        stored = state.store.get_to_node(fg.LIKELIHOOD, fg.ZETA)
        assert stored.eta1.shape == (n, 3)
        assert stored.eta2.shape == (n, 6)
        snapshot = _q_snapshot(state)
        assert snapshot[fg.ZETA].shape == (n, 3 + 6)

    def test_initialization_deterministic(self, reference_dataset):
        state_a = initialize(reference_dataset, FitConfig(seed=4))
        state_b = initialize(reference_dataset, FitConfig(seed=4))
        for factor in state_a.graph.factors:
            for node in state_a.graph.factor_neighbors(factor):
                m_a = state_a.store.get_to_node(factor, node).as_vector()
                m_b = state_b.store.get_to_node(factor, node).as_vector()
                assert np.array_equal(m_a, m_b)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            initialize(FunctionalDataset([], [], []), FitConfig())


class TestFit:
    def test_reference_run_converges_within_default_budget(self, converged_state):
        assert converged_state.converged
        assert converged_state.iterations <= 500
        assert converged_state.history[-1] < 1e-5

    def test_history_is_finite_and_bounded(self, converged_state):
        history = np.asarray(converged_state.history)
        assert history.size <= 500
        assert np.all(np.isfinite(history))
        assert np.all(history >= 0.0)

    def test_metric_tail_non_increasing(self, converged_state):
        tail = np.asarray(converged_state.history[-10:])
        assert np.all(np.diff(tail) <= 1e-12)

    def test_refit_converged_state_is_noop(self, converged_state):
        before = list(converged_state.history)
        again = fit_state(converged_state)
        assert again.converged
        assert again.history == before

    def test_fixed_point_under_one_more_sweep(self, converged_state):
        snapshot = _q_snapshot(converged_state)
        _sweep(converged_state)
        after = _q_snapshot(converged_state)
        assert convergence_metric(snapshot, after) < converged_state.config.tol

    def test_nonconvergence_flagged_not_raised(self, reference_dataset):
        state = fit(reference_dataset, FitConfig(max_iter=3))
        assert not state.converged
        assert state.iterations == 3

    def test_degenerate_message_names_edge_and_iteration(self, reference_dataset):
        state = initialize(reference_dataset, FitConfig())
        dim = 4 * 12
        bad = GaussianVecParams(np.zeros(dim), 0.5 * vec(np.eye(dim)))
        state.store.set_to_node(fg.LIKELIHOOD, fg.NU, bad)
        state.store.set_to_node(fg.PENALIZATION, fg.NU, bad)
        with pytest.raises(DegenerateMessageError, match=r"iteration 1.*nu"):
            fit_state(state)

    def test_misspecified_single_component_still_converges(self):
        dataset, _ = generate(SimConfig(num_curves=20, seed=6))
        state = fit(dataset, FitConfig(num_eigen=1, max_iter=1000))
        assert state.converged


class TestRotateScores:
    @pytest.mark.parametrize("num_eigen", [2, 3, 4, 6])
    def test_matches_per_curve_loop_bitwise(self, num_eigen):
        rng = np.random.default_rng(num_eigen)
        n, L = 200, num_eigen
        a = rng.standard_normal((n, L, L))
        precisions = a @ a.transpose(0, 2, 1) + np.eye(L)
        eta2 = np.stack([duplication_matrix(L).T @ (-0.5 * vec(p)) for p in precisions])
        params = GaussianVechParams(rng.standard_normal((n, L)), eta2)
        rotation, _ = np.linalg.qr(rng.standard_normal((L, L)))
        rotated = _rotate_scores(params, rotation)
        for i in range(n):
            precision = -2.0 * unvec(moore_penrose_duplication(L).T @ params.eta2[i])
            precision = rotation.T @ symmetrize(precision) @ rotation
            assert np.array_equal(rotated.eta1[i], rotation.T @ params.eta1[i])
            assert np.array_equal(
                rotated.eta2[i], duplication_matrix(L).T @ (-0.5 * vec(precision))
            )


class TestRotateCoefficients:
    @pytest.mark.parametrize("num_eigen, num_splines", [(2, 3), (3, 10), (4, 6)])
    def test_matches_kronecker_rotation(self, num_eigen, num_splines):
        rng = np.random.default_rng(10 * num_eigen + num_splines)
        dim = (num_eigen + 1) * (2 + num_splines)
        a = rng.standard_normal((dim, dim))
        precision = a @ a.T + np.eye(dim)
        params = GaussianVecParams(rng.standard_normal(dim), -0.5 * vec(precision))
        rotation, _ = np.linalg.qr(rng.standard_normal((num_eigen, num_eigen)))
        rotated = _rotate_coefficients(params, rotation)
        expected = kronecker_rotate_nu(params, rotation)
        scale = np.abs(expected.as_vector()).max()
        assert np.abs(rotated.as_vector() - expected.as_vector()).max() <= 1e-12 * scale
        # the mean-function block is left alone
        num_coefs = 2 + num_splines
        assert np.array_equal(rotated.eta1[:num_coefs], params.eta1[:num_coefs])

    def test_snap_at_aligned_state_is_near_identity(self, converged_state):
        # The snap always writes both nu messages; at a converged state the
        # frame is aligned up to the convergence tolerance, so the messages
        # move by far less than the tolerance.
        state = copy.deepcopy(converged_state)
        before = {
            factor: state.store.get_to_node(factor, fg.NU)
            for factor in (fg.LIKELIHOOD, fg.PENALIZATION)
        }
        _align_component_rotation(state)
        for factor, old in before.items():
            new = state.store.get_to_node(factor, fg.NU)
            assert new is not old
            change = np.abs(new.as_vector() - old.as_vector()).max()
            assert change / (1.0 + np.abs(old.as_vector()).max()) < 1e-2 * state.config.tol


class TestConvergenceMetric:
    def test_identical_states(self):
        snapshot = {"x": np.array([1.0, -2.0]), "y": np.array([0.5])}
        assert convergence_metric(snapshot, dict(snapshot)) == 0.0

    def test_scalar_doubling(self):
        assert convergence_metric({"x": np.array([1.0])}, {"x": np.array([2.0])}) == 0.5

    def test_max_over_nodes(self):
        prev = {"x": np.array([1.0]), "y": np.array([3.0])}
        curr = {"x": np.array([1.1]), "y": np.array([7.0])}
        assert convergence_metric(prev, curr) == pytest.approx(1.0)

    def test_stacked_rows_count_as_nodes(self):
        # Row 0 changes by half its own scale; pooled with row 1 it would be ~1%.
        prev = {"zeta": np.array([[1.0, 1.0], [100.0, 100.0]])}
        curr = {"zeta": np.array([[2.0, 1.0], [100.0, 100.0]])}
        assert convergence_metric(prev, curr) == 0.5
        rows = {f"zeta[{i}]": prev["zeta"][i] for i in range(2)}
        assert convergence_metric(rows, {f"zeta[{i}]": curr["zeta"][i] for i in range(2)}) == 0.5


class TestFullModelOracle:
    def test_fixed_point_matches_direct_coordinate_ascent(self):
        # Same model, two independent implementations.  The internal
        # component rotation is not identified, so the comparison uses
        # rotation-invariant quantities: per-curve fitted values at the
        # observation points and the expected noise precision.
        from tests_oracle_support import full_model_mfvb_oracle

        dataset, _ = generate(SimConfig(num_curves=8, seed=13))
        config = FitConfig(num_eigen=2, num_splines=5, tol=1e-11, max_iter=6000)
        state = fit(dataset, config)
        assert state.converged

        _, _, oracle_noise_prec, oracle_fitted = full_model_mfvb_oracle(
            dataset, config, sweeps=6000
        )

        from vmpfpca.postprocess import extract
        from vmpfpca.splines import design_matrix

        raw = extract(state)
        worst = 0.0
        for i, t in enumerate(dataset.times):
            design = design_matrix(t, state.basis)
            fitted = design @ raw.nu_mu()
            for l in range(config.num_eigen):
                fitted = fitted + raw.zeta_means[i, l] * (design @ raw.nu_psi(l))
            worst = max(worst, float(np.abs(fitted - oracle_fitted[i]).max()))
        assert worst < 1e-6
        assert raw.noise_precision_mean == pytest.approx(oracle_noise_prec, rel=1e-7)


class TestFrozenScoreOracle:
    def test_matches_conjugate_coordinate_ascent(self):
        # With the scores clamped at zero and a single component, the
        # mean-function block must solve the Bayesian penalized-spline
        # regression that a direct moment-form coordinate ascent solves.
        from tests_oracle_support import penalized_spline_mfvb_oracle

        dataset, _ = generate(SimConfig(num_curves=12, seed=5))
        config = FitConfig(
            num_eigen=1, num_splines=8, freeze_scores_at_zero=True, tol=1e-12, max_iter=3000
        )
        state = fit(dataset, config)
        assert state.converged
        params = fg.q_natural_params(state.graph, state.store, fg.NU)
        from vmpfpca.expfam import gaussian_vec_to_moments

        nu_mean, _ = gaussian_vec_to_moments(params)
        vmp_mean_block = nu_mean[:10]

        oracle_mean = penalized_spline_mfvb_oracle(dataset, config)
        assert np.allclose(vmp_mean_block, oracle_mean, atol=1e-6)
