import numpy as np
import pytest

import vmpfpca.graph as fg
from vmpfpca.expfam import (
    GaussianVecParams,
    GaussianVechParams,
    InvChiSqParams,
    gaussian_vec_to_moments,
    gaussian_vech_to_moments,
)
from vmpfpca.graph import (
    MessageStore,
    TopologyError,
    UninitializedMessageError,
    fpca_factor_graph,
    npbf,
    q_natural_params,
    stochastic_to_factor,
    variance_chains,
)
from vmpfpca.orchestrator import FitConfig, _edge_moments, _sweep, initialize
from vmpfpca.simulate import SimConfig, generate


def invchisq_message(rng):
    return InvChiSqParams(-rng.uniform(1, 5), -rng.uniform(0.1, 5))


class TestTopology:
    @pytest.mark.parametrize("L", [1, 3, 5])
    def test_every_node_has_two_distinct_factors(self, L):
        graph = fpca_factor_graph(L)
        assert len(graph) == 2 + 2 * (L + 2)  # nu, zeta, then sigsq and aux per chain
        factors = {f for pair in graph.values() for f in pair}
        assert factors.isdisjoint(graph)  # bipartite
        for node, pair in graph.items():
            assert len(pair) == 2 and pair[0] != pair[1], node

    def test_fpca_graph_matches_model_structure(self):
        graph = fpca_factor_graph(2)
        assert graph[fg.NU] == (fg.LIKELIHOOD, fg.PENALIZATION)
        assert graph[fg.ZETA] == (fg.LIKELIHOOD, fg.PRIOR_ZETA)
        assert graph["sigsq_eps"] == (fg.LIKELIHOOD, "iterated_eps")
        assert graph["a_eps"] == ("iterated_eps", "prior_a_eps")
        assert graph["sigsq_mu"] == (fg.PENALIZATION, "iterated_mu")
        assert graph["a_mu"] == ("iterated_mu", "prior_a_mu")
        for l in range(2):
            assert graph[f"sigsq_psi[{l}]"] == (fg.PENALIZATION, f"iterated_psi[{l}]")
            assert graph[f"a_psi[{l}]"] == (f"iterated_psi[{l}]", f"prior_a_psi[{l}]")

    def test_likelihood_touches_every_score(self):
        # all curves' scores are one stacked node, next to nu and the noise variance
        graph = fpca_factor_graph(1)
        assert {n for n, pair in graph.items() if fg.LIKELIHOOD in pair} == {
            fg.NU,
            fg.ZETA,
            fg.SIGSQ_EPS,
        }

    def test_variance_chains(self):
        chains = variance_chains(3)
        assert [c.family for c in chains] == ["eps", "mu", "psi", "psi", "psi"]
        assert chains[0].sigsq == fg.SIGSQ_EPS and chains[0].source == fg.LIKELIHOOD
        assert all(c.source == fg.PENALIZATION for c in chains[1:])
        assert chains[4] == (
            "psi",
            fg.PENALIZATION,
            "sigsq_psi[2]",
            "iterated_psi[2]",
            "a_psi[2]",
            "prior_a_psi[2]",
        )

    def test_no_components_rejected(self):
        with pytest.raises(ValueError):
            fpca_factor_graph(0)


class TestMessageRules:
    def setup_method(self):
        self.graph = {"x": ("f1", "f2"), "y": ("f2", "f3")}
        self.store = MessageStore()
        self.rng = np.random.default_rng(0)

    def test_two_neighbor_node_forwards_other_message(self):
        m1 = invchisq_message(self.rng)
        m2 = invchisq_message(self.rng)
        self.store.set_to_node("f1", "x", m1)
        self.store.set_to_node("f2", "x", m2)
        assert stochastic_to_factor(self.graph, self.store, "x", "f2") is m1
        assert stochastic_to_factor(self.graph, self.store, "x", "f1") is m2

    def test_q_params_sum_all_neighbors(self):
        m1 = invchisq_message(self.rng)
        m2 = invchisq_message(self.rng)
        self.store.set_to_node("f1", "x", m1)
        self.store.set_to_node("f2", "x", m2)
        total = q_natural_params(self.graph, self.store, "x")
        assert np.array_equal(total.as_vector(), m1.as_vector() + m2.as_vector())

    def test_npbf_equals_q_for_two_neighbor_node(self):
        self.store.set_to_node("f1", "x", invchisq_message(self.rng))
        self.store.set_to_node("f2", "x", invchisq_message(self.rng))
        for factor in ("f1", "f2"):
            assert np.array_equal(
                npbf(self.graph, self.store, factor, "x").as_vector(),
                q_natural_params(self.graph, self.store, "x").as_vector(),
            )

    def test_npbf_is_directional_sum(self):
        # factor-to-node message plus the node-to-factor message formed on the fly
        m1 = invchisq_message(self.rng)
        m2 = invchisq_message(self.rng)
        self.store.set_to_node("f1", "x", m1)
        self.store.set_to_node("f2", "x", m2)
        combined = npbf(self.graph, self.store, "f2", "x")
        assert combined.eta1 == m2.eta1 + m1.eta1
        assert combined.eta2 == m2.eta2 + m1.eta2

    def test_consistency_of_rules(self):
        # q(node) = message(node -> f) + message(f -> node) for both neighbors f
        messages = {f: invchisq_message(self.rng) for f in ("f1", "f2")}
        for f, m in messages.items():
            self.store.set_to_node(f, "x", m)
        q_vec = q_natural_params(self.graph, self.store, "x").as_vector()
        for f, m in messages.items():
            partial = stochastic_to_factor(self.graph, self.store, "x", f)
            assert np.array_equal(partial.as_vector() + m.as_vector(), q_vec)

    def test_summation_order_independent(self):
        # Pairwise commutativity is exact in floating point; it is what makes
        # npbf and q_natural_params agree bitwise on every edge.
        a = GaussianVecParams(self.rng.standard_normal(2), self.rng.standard_normal(4))
        b = GaussianVecParams(self.rng.standard_normal(2), self.rng.standard_normal(4))
        assert np.array_equal((a + b).as_vector(), (b + a).as_vector())

    def test_npbf_zero_messages(self):
        self.store.set_to_node("f1", "x", InvChiSqParams(0.0, 0.0))
        self.store.set_to_node("f2", "x", InvChiSqParams(0.0, 0.0))
        assert npbf(self.graph, self.store, "f2", "x").as_vector().tolist() == [0.0, 0.0]

    def test_factor_not_adjacent_rejected(self):
        self.store.set_to_node("f1", "x", invchisq_message(self.rng))
        self.store.set_to_node("f2", "x", invchisq_message(self.rng))
        with pytest.raises(TopologyError, match="not a neighbor"):
            stochastic_to_factor(self.graph, self.store, "x", "f3")
        # a message stored on a non-edge does not make it an edge
        self.store.set_to_node("f3", "x", invchisq_message(self.rng))
        with pytest.raises(TopologyError, match="not a neighbor"):
            npbf(self.graph, self.store, "f3", "x")

    def test_unknown_node_rejected(self):
        with pytest.raises(TopologyError, match="unknown stochastic node"):
            stochastic_to_factor(self.graph, self.store, "w", "f1")
        with pytest.raises(TopologyError, match="unknown stochastic node"):
            q_natural_params(self.graph, self.store, "w")

    def test_missing_neighbor_message_is_hard_error(self):
        self.store.set_to_node("f1", "x", invchisq_message(self.rng))
        with pytest.raises(UninitializedMessageError):
            stochastic_to_factor(self.graph, self.store, "x", "f1")
        with pytest.raises(UninitializedMessageError):
            q_natural_params(self.graph, self.store, "x")
        with pytest.raises(UninitializedMessageError):
            MessageStore().get_to_node("f1", "x")

    def test_stacked_node_adds_shared_message_to_every_row(self):
        # The score node: one likelihood row per curve plus one shared prior.
        graph = {"z": ("lik", "prior")}
        store = MessageStore()
        rows = GaussianVechParams(self.rng.standard_normal((4, 2)), self.rng.standard_normal((4, 3)))
        prior = GaussianVechParams(np.zeros(2), np.array([-0.5, 0.0, -0.5]))
        store.set_to_node("lik", "z", rows)
        store.set_to_node("prior", "z", prior)
        q = q_natural_params(graph, store, "z")
        assert q.eta1.shape == (4, 2) and q.eta2.shape == (4, 3)
        for i in range(4):
            single = GaussianVechParams(rows.eta1[i], rows.eta2[i]) + prior
            assert np.array_equal(q.as_vector()[i], single.as_vector())
        assert np.array_equal(npbf(graph, store, "prior", "z").as_vector(), q.as_vector())


class TestFpcaEdges:
    def test_npbf_equals_q_on_every_edge_after_sweeps(self):
        dataset, _ = generate(SimConfig(num_curves=12, seed=3))
        state = initialize(dataset, FitConfig(num_eigen=3))
        moments = (
            _edge_moments(state, fg.LIKELIHOOD, fg.NU, gaussian_vec_to_moments),
            _edge_moments(state, fg.LIKELIHOOD, fg.ZETA, gaussian_vech_to_moments),
        )
        for _ in range(3):
            moments = _sweep(state, *moments)
        for node, factors in state.graph.items():
            q = q_natural_params(state.graph, state.store, node).as_vector()
            for factor in factors:
                assert np.array_equal(npbf(state.graph, state.store, factor, node).as_vector(), q)


class TestMessageCombination:
    def test_family_mismatch_rejected(self):
        gauss = GaussianVecParams(np.zeros(1), -0.5 * np.ones(1))
        invchisq = InvChiSqParams(-1.5, -0.5)
        with pytest.raises(TypeError):
            gauss + invchisq
