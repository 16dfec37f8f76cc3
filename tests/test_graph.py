import numpy as np
import pytest

import vmpfpca.graph as fg
from vmpfpca.expfam import GaussianVecParams, GaussianVechParams, InvChiSqParams
from vmpfpca.graph import (
    FactorGraph,
    MessageStore,
    UninitializedMessageError,
    fpca_factor_graph,
    npbf,
    q_natural_params,
    stochastic_to_factor,
)


def invchisq_message(rng):
    return InvChiSqParams(-rng.uniform(1, 5), -rng.uniform(0.1, 5))


class TestTopology:
    def test_fpca_graph_matches_model_structure(self):
        L = 2
        graph = fpca_factor_graph(L)
        degree = {node: len(graph.node_neighbors(node)) for node in graph.nodes}
        assert degree[fg.NU] == 2
        assert set(graph.node_neighbors(fg.NU)) == {fg.LIKELIHOOD, fg.PENALIZATION}
        assert set(graph.node_neighbors(fg.ZETA)) == {fg.LIKELIHOOD, fg.PRIOR_ZETA}
        assert set(graph.node_neighbors(fg.SIGSQ_EPS)) == {fg.LIKELIHOOD, fg.ITERATED_EPS}
        assert set(graph.node_neighbors(fg.A_EPS)) == {fg.ITERATED_EPS, fg.PRIOR_A_EPS}
        assert set(graph.node_neighbors(fg.SIGSQ_MU)) == {fg.PENALIZATION, fg.ITERATED_MU}
        assert set(graph.node_neighbors(fg.A_MU)) == {fg.ITERATED_MU, fg.PRIOR_A_MU}
        for l in range(L):
            assert set(graph.node_neighbors(fg.sigsq_psi_node(l))) == {
                fg.PENALIZATION,
                fg.iterated_psi_factor(l),
            }
            assert set(graph.node_neighbors(fg.a_psi_node(l))) == {
                fg.iterated_psi_factor(l),
                fg.a_psi_prior_factor(l),
            }
        # every stochastic node in the model has degree 2
        assert all(d == 2 for d in degree.values())
        assert len(graph.nodes) == 6 + 2 * L
        # bipartite: factor neighbor lists only contain stochastic nodes
        factor_names = set(graph.factors)
        for factor in graph.factors:
            assert factor_names.isdisjoint(graph.factor_neighbors(factor))

    def test_likelihood_touches_every_score(self):
        # all curves' scores are one stacked node
        graph = fpca_factor_graph(1)
        assert set(graph.factor_neighbors(fg.LIKELIHOOD)) == {fg.NU, fg.ZETA, fg.SIGSQ_EPS}


class TestMessageRules:
    def setup_method(self):
        self.graph = FactorGraph({"f1": ("x",), "f2": ("x",), "f3": ("x", "y")})
        self.store = MessageStore()
        self.rng = np.random.default_rng(0)

    def test_two_neighbor_node_forwards_other_message(self):
        graph = FactorGraph({"f1": ("x",), "f2": ("x",)})
        store = MessageStore()
        m1 = invchisq_message(self.rng)
        m2 = invchisq_message(self.rng)
        store.set_to_node("f1", "x", m1)
        store.set_to_node("f2", "x", m2)
        out = stochastic_to_factor(graph, store, "x", "f2")
        assert out == m1

    def test_three_neighbor_sum_matches_direct_summation(self):
        messages = {f: invchisq_message(self.rng) for f in ("f1", "f2", "f3")}
        for f, m in messages.items():
            self.store.set_to_node(f, "x", m)
        out = stochastic_to_factor(self.graph, self.store, "x", "f3")
        expected = messages["f1"].as_vector() + messages["f2"].as_vector()
        assert np.allclose(out.as_vector(), expected)

    def test_missing_neighbor_message_is_hard_error(self):
        self.store.set_to_node("f1", "x", invchisq_message(self.rng))
        with pytest.raises(UninitializedMessageError):
            stochastic_to_factor(self.graph, self.store, "x", "f3")

    def test_q_params_single_neighbor_node(self):
        message = invchisq_message(self.rng)
        self.store.set_to_node("f3", "y", message)
        assert q_natural_params(self.graph, self.store, "y") == message

    def test_q_params_sum_all_neighbors(self):
        messages = {f: invchisq_message(self.rng) for f in ("f1", "f2", "f3")}
        for f, m in messages.items():
            self.store.set_to_node(f, "x", m)
        total = q_natural_params(self.graph, self.store, "x")
        expected = sum(m.as_vector() for m in messages.values())
        assert np.allclose(total.as_vector(), expected)

    def test_npbf_is_directional_sum(self):
        # factor-to-node message plus the node-to-factor message formed on the fly
        messages = {f: invchisq_message(self.rng) for f in ("f1", "f2", "f3")}
        for f, m in messages.items():
            self.store.set_to_node(f, "x", m)
        combined = npbf(self.graph, self.store, "f3", "x")
        to_factor = stochastic_to_factor(self.graph, self.store, "x", "f3")
        assert combined.eta1 == messages["f3"].eta1 + to_factor.eta1
        assert combined.eta2 == messages["f3"].eta2 + to_factor.eta2

    def test_npbf_zero_messages(self):
        graph = FactorGraph({"f1": ("x",), "f2": ("x",)})
        store = MessageStore()
        store.set_to_node("f1", "x", InvChiSqParams(0.0, 0.0))
        store.set_to_node("f2", "x", InvChiSqParams(0.0, 0.0))
        assert npbf(graph, store, "f2", "x").as_vector().tolist() == [0.0, 0.0]

    def test_npbf_equals_q_for_two_neighbor_node(self):
        graph = FactorGraph({"f1": ("x",), "f2": ("x",)})
        store = MessageStore()
        store.set_to_node("f1", "x", invchisq_message(self.rng))
        store.set_to_node("f2", "x", invchisq_message(self.rng))
        for factor in ("f1", "f2"):
            assert np.array_equal(
                npbf(graph, store, factor, "x").as_vector(),
                q_natural_params(graph, store, "x").as_vector(),
            )

    def test_stacked_node_adds_shared_message_to_every_row(self):
        # The score node: one likelihood row per curve plus one shared prior.
        graph = FactorGraph({"lik": ("z",), "prior": ("z",)})
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

    def test_consistency_of_rules(self):
        # q(node) = message(node -> f) + message(f -> node) for every neighbor f
        messages = {f: invchisq_message(self.rng) for f in ("f1", "f2", "f3")}
        for f, m in messages.items():
            self.store.set_to_node(f, "x", m)
        q_vec = q_natural_params(self.graph, self.store, "x").as_vector()
        for f in ("f1", "f2", "f3"):
            partial = stochastic_to_factor(self.graph, self.store, "x", f)
            total = partial.as_vector() + messages[f].as_vector()
            assert np.allclose(total, q_vec)

    def test_summation_order_independent(self):
        # Pairwise commutativity is exact in floating point.
        rng = np.random.default_rng(4)
        a = GaussianVecParams(rng.standard_normal(2), rng.standard_normal(4))
        b = GaussianVecParams(rng.standard_normal(2), rng.standard_normal(4))
        assert np.array_equal((a + b).as_vector(), (b + a).as_vector())
        # Arbitrary reorderings are exact on integer-valued parameters, where
        # addition has no rounding at all.
        factors = {f"f{k}": ("x",) for k in range(6)}
        graph = FactorGraph(factors)
        store = MessageStore()
        params = []
        for f in factors:
            p = GaussianVecParams(
                rng.integers(-100, 100, size=2).astype(float),
                rng.integers(-100, 100, size=4).astype(float),
            )
            params.append(p)
            store.set_to_node(f, "x", p)
        total = q_natural_params(graph, store, "x").as_vector()
        for _ in range(5):
            order = rng.permutation(len(params))
            shuffled = params[order[0]]
            for idx in order[1:]:
                shuffled = shuffled + params[idx]
            assert np.array_equal(shuffled.as_vector(), total)


class TestMessageCombination:
    def test_family_mismatch_rejected(self):
        gauss = GaussianVecParams(np.zeros(1), -0.5 * np.ones(1))
        invchisq = InvChiSqParams(-1.5, -0.5)
        with pytest.raises(TypeError):
            gauss + invchisq
