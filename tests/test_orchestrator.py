import collections
import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vmpfpca.graph as fg
import vmpfpca.orchestrator as orchestrator
from vmpfpca.data import FunctionalDataset
from vmpfpca.expfam import (
    DegenerateMessageError,
    GaussianVecParams,
    GaussianVechParams,
    InvChiSqParams,
    duplication_matrix,
    gaussian_precision_to_moments,
    unvec,
    vec,
)
from vmpfpca.fragments import gaussian_prior_message, igw_prior_message
from vmpfpca.orchestrator import (
    FitConfig,
    _align_component_rotation,
    _sweep,
    convergence_metric,
    fit,
    fit_state,
    initialize,
)
from vmpfpca.postprocess import finalize
from vmpfpca.simulate import SimConfig, generate
from vmpfpca.splines import build_basis
from tests_oracle_support import object_start_store, zero_store


def fresh_moments(state):
    """q(nu)'s and q(zeta)'s (mean, covariance), inverted afresh from the store's messages,
    not the moments the store keeps."""
    store = state.store
    return tuple(
        gaussian_precision_to_moments(*q(), "q-density precision") for q in (store.q_nu, store.q_zeta)
    )


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
            # past 603 columns the spline penalty loses rank to round-off
            {"num_splines": 604},
            # more components than coefficients per function: 2 + num_splines
            {"num_eigen": 13, "num_splines": 10},
            {"num_eigen": 6, "num_splines": 3},
            {"tol": 0.0},
            {"max_iter": 0},
            {"grid_size": 100},
            {"hyper_a_eps": 0.0},
            {"prior_beta_var": -1.0},
            {"num_eigen": 2.5},
            {"max_iter": 1e3},
            {"hyper_a_psi": 1e-300},
            {"hyper_a_eps": 1e200},
            {"prior_beta_var": 1e-320},
            {"hyper_a_mu": -1.0},
            # bool is an int subclass: True would pass as 1
            {"num_eigen": True},
            {"grid_size": False},
            {"tol": True},
            {"prior_beta_var": True},
            {"hyper_a_eps": True},
            {"hyper_a_psi": np.True_},
            # a string's truth would freeze the scores
            {"freeze_scores_at_zero": "false"},
            {"freeze_scores_at_zero": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)

    def test_largest_spline_basis_is_allowed(self):
        config = FitConfig(num_splines=603)
        assert build_basis(config.num_splines).transform.shape == (605, 603)

    def test_one_component_per_coefficient_is_allowed(self):
        assert FitConfig(num_eigen=12, num_splines=10).num_eigen == 12

    def test_integer_sizes_become_python_ints(self):
        # The sweep's inverse chi-squared messages are Python floats, where a
        # zero eta2 raises; -0.5 * np.int64(K) would make them numpy floats.
        config = FitConfig(num_eigen=np.int64(2), num_splines=np.int32(8), max_iter=np.int64(9))
        sizes = (config.num_eigen, config.num_splines, config.max_iter)
        assert all(type(size) is int for size in sizes)


class TestInitialize:
    def test_every_node_has_complete_q(self, reference_dataset):
        state = initialize(reference_dataset, FitConfig())
        for node in state.graph:
            params = fg.q_natural_params(state.graph, state.store, node)
            assert np.all(np.isfinite(params.as_vector()))

    def test_prior_messages_match_closed_forms(self, reference_dataset):
        config = FitConfig()
        state = initialize(reference_dataset, config)
        eta1, precision = gaussian_prior_message(3)
        # one prior message shared by every curve's scores
        assert np.array_equal(state.store.prior_eta1, eta1)
        assert np.array_equal(state.store.prior_precision, precision)
        # each chain's auxiliary prior carries its own hyper_a_* scale
        config = FitConfig(hyper_a_eps=2.0, hyper_a_mu=3.0, hyper_a_psi=4.0)
        state = initialize(reference_dataset, config)
        scales = {"eps": 2.0, "mu": 3.0, "psi": 4.0}
        for chain in fg.variance_chains(config.num_eigen):
            stored = state.store.get_to_node(chain.prior, chain.aux)
            assert stored == InvChiSqParams(*igw_prior_message(scales[chain.family]))

    def test_score_likelihood_message_has_one_row_per_curve(self, reference_dataset):
        state = initialize(reference_dataset, FitConfig())
        n = reference_dataset.num_curves
        stored = state.store.get_to_node(fg.LIKELIHOOD, fg.ZETA)
        assert stored.eta1.shape == (n, 3)
        assert stored.eta2.shape == (n, 6)
        eta1, precision = state.store.q_zeta()
        assert eta1.shape == (n, 3) and precision.shape == (n, 3, 3)
        # after q(nu), the convergence check counts one node per curve
        sizes = np.diff(state.store.node_starts())
        assert sizes[1 : n + 1].tolist() == [3 + 9] * n

    def test_initialization_deterministic(self, reference_dataset):
        state_a = initialize(reference_dataset, FitConfig())
        state_b = initialize(reference_dataset, FitConfig())
        for node, factors in state_a.graph.items():
            for factor in factors:
                m_a = state_a.store.get_to_node(factor, node).as_vector()
                m_b = state_b.store.get_to_node(factor, node).as_vector()
                assert np.array_equal(m_a, m_b)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            initialize(FunctionalDataset([], [], []), FitConfig())

    @pytest.mark.parametrize("num_curves", [2, 300])
    def test_design_matrix_evaluated_once(self, num_curves, monkeypatch):
        # one design over all observation times, not one per curve
        calls = []
        original = orchestrator.design_matrix

        def counted(times, basis):
            calls.append(len(times))
            return original(times, basis)

        monkeypatch.setattr(orchestrator, "design_matrix", counted)
        dataset, _ = generate(SimConfig(num_curves=num_curves, seed=4))
        initialize(dataset, FitConfig(num_eigen=1))
        assert calls == [dataset.num_observations]

    @pytest.mark.parametrize("num_eigen", [1, 3, 5])
    def test_start_equals_object_path(self, reference_dataset, num_eigen):
        # the store built from arrays against the same start written as objects
        config = FitConfig(num_eigen=num_eigen, hyper_a_eps=2.0, hyper_a_mu=3.7)
        state = initialize(reference_dataset, config)
        expected = object_start_store(state.cache, config)
        for field in dataclasses.fields(fg.MessageStore):
            actual, wanted = getattr(state.store, field.name), getattr(expected, field.name)
            assert np.array_equal(actual, wanted), field.name
        assert state.store.chains == expected.chains
        assert {type(x) for chain in state.store.chains for pair in chain for x in pair} == {float}


class TestRunPath:
    def test_fit_and_finalize_use_no_message_objects(self, monkeypatch):
        calls = collections.Counter()

        def counting(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for cls in (GaussianVecParams, GaussianVechParams, InvChiSqParams):
            monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
        for name in ("get_to_node", "set_to_node"):
            monkeypatch.setattr(
                fg.MessageStore, name, counting(name, getattr(fg.MessageStore, name))
            )
        dataset, _ = generate(SimConfig(num_curves=12, seed=2))
        state = fit(dataset, FitConfig(num_eigen=2, max_iter=30))
        finalize(state)
        assert state.iterations > 1
        assert calls == {}
        # the counters see a read through the view
        state.store.get_to_node(fg.LIKELIHOOD, fg.NU)
        assert calls == {"get_to_node": 1, "GaussianVecParams": 1}


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

    def test_fixed_point_under_one_more_sweep(self, converged_state):
        state = copy.deepcopy(converged_state)  # the fixture is shared
        snapshot = state.store.q_snapshot()
        after = _sweep(state)
        assert np.array_equal(after, state.store.q_snapshot())
        starts = state.store.node_starts()
        assert convergence_metric(snapshot, after, starts) < state.config.tol

    def test_nonconvergence_flagged_not_raised(self, reference_dataset):
        state = fit(reference_dataset, FitConfig(max_iter=3))
        assert not state.converged
        assert state.iterations == 3

    @pytest.mark.parametrize(
        "edges, bad, message",
        [
            (
                [(fg.LIKELIHOOD, fg.NU), (fg.PENALIZATION, fg.NU)],
                GaussianVecParams(np.zeros(48), 0.5 * vec(np.eye(48))),
                r"iteration 1: edge \(likelihood, nu\)",
            ),
            (
                # q(zeta)'s precision -I in every row, read as the first sweep starts
                [(fg.LIKELIHOOD, fg.ZETA)],
                GaussianVechParams(
                    np.zeros((36, 3)), np.tile(vec(np.eye(3)) @ duplication_matrix(3), (36, 1))
                ),
                r"iteration 1: edge \(likelihood, zeta\)",
            ),
            (
                # a prior that cancels the scale of q(a_eps)
                [("prior_a_eps", "a_eps")],
                InvChiSqParams(-1.5, 0.5),
                r"iteration 1: edge \(iterated_eps, a_eps\): .*eta2 = 0",
            ),
        ],
        ids=["nu", "zeta", "iterated"],
    )
    def test_degenerate_message_names_edge_and_iteration(
        self, reference_dataset, edges, bad, message
    ):
        state = initialize(reference_dataset, FitConfig())
        for factor, node in edges:
            state.store.set_to_node(factor, node, bad)
        with pytest.raises(DegenerateMessageError, match=message):
            fit_state(state)

    def test_misspecified_single_component_still_converges(self):
        dataset, _ = generate(SimConfig(num_curves=20, seed=6))
        state = fit(dataset, FitConfig(num_eigen=1, max_iter=1000))
        assert state.converged


class TestFrameFreeStart:
    # The fit is identified only up to a rotation of its components until
    # post-processing, and the second sweep's snap rotates them into their own
    # frame, so the starting scores' frame carries no information: rotated by
    # a fixed random orthogonal matrix, they take the fit the same way.
    @pytest.mark.parametrize(
        "num_eigen, num_curves, seed", [(2, 20, 1), (3, 30, 2), (4, 40, 3), (3, 10, 4)]
    )
    def test_rotated_start_takes_the_same_sweeps_to_the_same_fit(
        self, num_eigen, num_curves, seed, monkeypatch
    ):
        dataset, _ = generate(SimConfig(num_curves=num_curves, seed=seed))
        config = FitConfig(num_eigen=num_eigen)
        plain = fit(dataset, config)
        random = np.random.default_rng(num_eigen).standard_normal((num_eigen, num_eigen))
        rotation, _ = np.linalg.qr(random)
        original = orchestrator._initial_guess
        monkeypatch.setattr(
            orchestrator, "_initial_guess", lambda cache, L: original(cache, L) @ rotation
        )
        rotated = fit(dataset, config)
        assert plain.converged and rotated.converged
        assert rotated.iterations == plain.iterations
        expected, actual = finalize(plain).fitted, finalize(rotated).fitted
        assert np.abs(actual - expected).max() <= 1e-10 * np.abs(expected).max()


class TestSweepItself:
    """What every caller of ``_sweep`` gets, not only ``fit_state``."""

    SWEEPS = 5

    @staticmethod
    def stores_equal(first, second):
        return all(
            np.array_equal(getattr(first, f.name), getattr(second, f.name))
            for f in dataclasses.fields(first)
        )

    def test_every_stored_precision_is_exactly_symmetric(self, reference_dataset):
        # invert_spd inverts what it is given, so each message is formed symmetric
        state = initialize(reference_dataset, FitConfig())
        for sweep in range(self.SWEEPS + 1):
            if sweep:
                _sweep(state)
            store = state.store
            for precision in (store.nu_precision, store.zeta_precision, store.prior_precision):
                symmetric = np.array_equal(precision, precision.swapaxes(-1, -2))
                assert symmetric, f"after sweep {sweep}"

    def test_hand_driven_sweeps_match_fit_state(self, reference_dataset):
        # the sweep counts itself, so the snap runs from the second sweep on,
        # by hand as in fit_state
        config = FitConfig(max_iter=self.SWEEPS)
        fitted = fit(reference_dataset, config)
        state = initialize(reference_dataset, config)
        for _ in range(self.SWEEPS):
            _sweep(state)
        assert state.iterations == fitted.iterations == self.SWEEPS
        assert self.stores_equal(state.store, fitted.store)


class TestSnapshot:
    def test_variance_rows_are_q_of_every_variance_node(self, reference_dataset):
        state = initialize(reference_dataset, FitConfig())
        for _ in range(3):
            snapshot = _sweep(state)
        graph, store = state.graph, state.store
        starts = store.node_starts()
        nodes = np.split(snapshot, starts[1:])
        n, L = reference_dataset.num_curves, 3
        assert len(nodes) == 1 + n + 2 * (L + 2)
        # q(nu): eta1 and |eta2| in the vec basis, the matrix row by row
        q = fg.q_natural_params(graph, store, fg.NU)
        assert np.array_equal(nodes[0], np.concatenate([q.eta1, -unvec(q.eta2).ravel()]))
        # each curve: eta1 and |eta2| in the vech basis, each off-diagonal entry twice
        q = fg.q_natural_params(graph, store, fg.ZETA)
        rows = np.stack(nodes[1 : n + 1])
        assert np.array_equal(rows[:, :L], q.eta1)
        assert np.array_equal(rows[:, L:], -q.eta2 @ duplication_matrix(L).T)
        expected = [
            fg.q_natural_params(graph, store, node).as_vector()
            for chain in fg.variance_chains(L)
            for node in (chain.sigsq, chain.aux)
        ]
        assert np.array_equal(np.stack(nodes[n + 1 :]), np.array(expected))


class TestSweepWork:
    SWEEPS = 6

    @staticmethod
    def count_q_reads(monkeypatch):
        """Count the store's inversions of q(nu) and of the stacked q(zeta), by node."""
        calls = {fg.NU: 0, fg.ZETA: 0}
        original = fg.gaussian_precision_to_moments

        def counted(eta1, precision, context):
            calls[fg.NU if eta1.ndim == 1 else fg.ZETA] += 1
            return original(eta1, precision, context)

        monkeypatch.setattr(fg, "gaussian_precision_to_moments", counted)
        return calls

    def test_q_nu_read_twice_and_expectations_once_per_sweep(self, reference_dataset, monkeypatch):
        reads = self.count_q_reads(monkeypatch)
        expectations = []
        original = orchestrator.likelihood_expectations

        def counted(*args):
            expectations.append(1)
            return original(*args)

        monkeypatch.setattr(orchestrator, "likelihood_expectations", counted)
        state = fit(reference_dataset, FitConfig(max_iter=self.SWEEPS))
        assert state.iterations == self.SWEEPS
        assert reads[fg.NU] == 2 * self.SWEEPS  # after each of the two writes to nu
        assert len(expectations) == self.SWEEPS

    def test_q_zeta_read_twice_per_sweep(self, reference_dataset, monkeypatch):
        # once when the first sweep starts, then once per sweep, after the likelihood
        # fragment writes the scores; the next sweep's snap reads what the store kept
        reads = self.count_q_reads(monkeypatch)
        state = fit(reference_dataset, FitConfig(max_iter=self.SWEEPS))
        assert state.iterations == self.SWEEPS
        assert reads[fg.ZETA] == self.SWEEPS + 1
    def test_snap_gets_current_q_nu(self, reference_dataset, monkeypatch):
        # both q(nu) and q(zeta), as handed on, equal a fresh inversion of the store
        original = orchestrator._align_component_rotation
        checked = []

        def checking(state, *moments):
            fresh = [array for pair in fresh_moments(state) for array in pair]
            checked.append(all(map(np.array_equal, moments, fresh)))
            return original(state, *moments)

        monkeypatch.setattr(orchestrator, "_align_component_rotation", checking)
        fit(reference_dataset, FitConfig(max_iter=self.SWEEPS))
        assert checked == [True] * (self.SWEEPS - 1)  # the first sweep does not snap


class TestSnapMoves:
    def test_snap_leaves_both_nu_messages(self, reference_dataset, monkeypatch):
        # only the likelihood and penalization fragments write nu
        original = orchestrator._align_component_rotation
        kept = []

        def checking(state, *moments):
            store = state.store
            before = store.nu_eta1.copy(), store.nu_precision.copy()
            result = original(state, *moments)
            kept.append(all(map(np.array_equal, (store.nu_eta1, store.nu_precision), before)))
            return result

        monkeypatch.setattr(orchestrator, "_align_component_rotation", checking)
        state = fit(reference_dataset, FitConfig())
        assert state.converged
        assert kept == [True] * (state.iterations - 1)  # the first sweep does not snap

    def test_snap_at_aligned_state_is_near_identity(self, converged_state):
        # At a converged state the frame is aligned up to the convergence
        # tolerance, so the snap moves q(zeta) by far less than the tolerance
        # (about 1.4e-2 tol on this fit, in proportion to tol).
        # The likelihood message to the scores is rewritten from the moved
        # moments before it is read, so the snap leaves it.
        state = copy.deepcopy(converged_state)
        store = state.store
        scores = store.zeta_eta1.copy(), store.zeta_precision.copy()
        (nu_mean, nu_cov), zeta = fresh_moments(state)
        moved = _align_component_rotation(state, nu_mean, nu_cov, *zeta)
        assert all(map(np.array_equal, (store.zeta_eta1, store.zeta_precision), scores))
        for new, old in zip(moved, zeta):
            change = np.abs(new - old).max()
            assert change / (1.0 + np.abs(old).max()) < 5e-2 * state.config.tol


class TestConvergenceMetric:
    def test_identical_states(self):
        snapshot = np.array([1.0, -2.0, 0.5])
        assert convergence_metric(snapshot, snapshot.copy(), np.array([0, 2])) == 0.0

    def test_scalar_doubling(self):
        assert convergence_metric(np.array([1.0]), np.array([2.0]), np.array([0])) == 0.5

    def test_max_over_nodes(self):
        prev, curr = np.array([1.0, 3.0]), np.array([1.1, 7.0])
        assert convergence_metric(prev, curr, np.array([0, 1])) == pytest.approx(1.0)

    def test_stacked_rows_count_as_nodes(self):
        # Row 0 changes by half its own scale; pooled with row 1 it would be ~1%.
        prev = np.array([1.0, 1.0, 100.0, 100.0])
        curr = np.array([2.0, 1.0, 100.0, 100.0])
        assert convergence_metric(prev, curr, np.array([0, 2])) == 0.5
        assert convergence_metric(prev, curr, np.array([0])) == pytest.approx(1.0 / 101.0)


def random_store(rng, num_curves, num_eigen, num_coefs):
    """A store with a random message of the right family and shape on every edge."""
    store = zero_store(num_curves, num_eigen, num_coefs)
    dim, half = (num_eigen + 1) * num_coefs, num_eigen * (num_eigen + 1) // 2
    for node, factors in fg.fpca_factor_graph(num_eigen).items():
        for factor in factors:
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            if node == fg.NU:
                message = GaussianVecParams(
                    scale * rng.standard_normal(dim), scale * rng.standard_normal(dim * dim)
                )
            elif node == fg.ZETA:
                rows = (num_curves,) if factor == fg.LIKELIHOOD else ()
                message = GaussianVechParams(
                    scale * rng.standard_normal((*rows, num_eigen)),
                    scale * rng.standard_normal((*rows, half)),
                )
            else:
                message = InvChiSqParams(*(scale * rng.standard_normal(2)))
            store.set_to_node(factor, node, message)
    return store


def perturbed(rng, store, share):
    """A copy of the store with a random share of its entries moved, by random amounts."""
    moved = copy.deepcopy(store)
    for array in (moved.nu_eta1, moved.nu_precision, moved.zeta_eta1, moved.zeta_precision):
        change = rng.standard_normal(array.shape) * 10.0 ** rng.uniform(-12.0, 1.0, array.shape)
        array += np.where(rng.uniform(size=array.shape) < share, change, 0.0)
    # the score precisions stay symmetric, as every write to them leaves them
    moved.zeta_precision[...] = 0.5 * (moved.zeta_precision + moved.zeta_precision.swapaxes(1, 2))
    for messages in moved.chains:
        for k in range(3):  # the prior messages are constant
            if rng.uniform() < share:
                messages[k] = tuple(x * (1.0 + rng.standard_normal()) for x in messages[k])
    return moved


class TestMetricOracle:
    """The array-native convergence check against the object-based one it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        num_curves=st.integers(1, 6),
        num_eigen=st.integers(1, 5),
        num_coefs=st.integers(3, 6),
        seed=st.integers(0, 2**32 - 1),
        share=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    )
    @example(num_curves=1, num_eigen=1, num_coefs=3, seed=0, share=0.3)
    @example(num_curves=4, num_eigen=5, num_coefs=3, seed=1, share=0.3)
    def test_matches_dict_metric(self, num_curves, num_eigen, num_coefs, seed, share):
        from tests_oracle_support import dict_convergence_metric, dict_q_snapshot

        rng = np.random.default_rng(seed)
        old = random_store(rng, num_curves, num_eigen, num_coefs)
        new = perturbed(rng, old, share)
        graph = fg.fpca_factor_graph(num_eigen)
        expected = dict_convergence_metric(
            dict_q_snapshot(graph, old, num_eigen), dict_q_snapshot(graph, new, num_eigen)
        )
        actual = convergence_metric(old.q_snapshot(), new.q_snapshot(), old.node_starts())
        assert actual == expected


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
        mean_coefs, *component_coefs = raw.nu_mean.reshape(config.num_eigen + 1, -1)
        design = design_matrix(dataset.times, state.basis)
        coefs = mean_coefs + raw.zeta_means @ np.stack(component_coefs)  # (n, P)
        fitted = np.einsum("rp,rp->r", design, np.repeat(coefs, np.diff(dataset.offsets), axis=0))
        assert np.abs(fitted - np.concatenate(oracle_fitted)).max() < 1e-6
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
