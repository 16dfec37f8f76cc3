import copy
import dataclasses
import functools
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vmpfpca.graph as fg
from vmpfpca.expfam import (
    DegenerateMessageError,
    GaussianVecParams,
    GaussianVechParams,
    InvChiSqParams,
    duplication_matrix,
    gaussian_precision_to_moments,
    vec,
)
from vmpfpca.graph import (
    TopologyError,
    fpca_factor_graph,
    npbf,
    q_natural_params,
    stochastic_to_factor,
    variance_chains,
)
from vmpfpca.orchestrator import (
    FitConfig,
    _initial_guess,
    _sweep,
    convergence_metric,
    initialize,
)
from vmpfpca.simulate import SimConfig, generate
from test_properties import derandomised
from tests_oracle_support import zero_store


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


class TestMessageRules:
    # sigsq_eps sits between the likelihood and the noise chain's iterated factor
    NODE, FIRST, SECOND, OTHER = fg.SIGSQ_EPS, fg.LIKELIHOOD, "iterated_eps", fg.PENALIZATION

    def setup_method(self):
        self.graph = fpca_factor_graph(1)
        self.store = zero_store(num_curves=4, num_eigen=1, num_coefs=5)
        self.rng = np.random.default_rng(0)

    def set_both(self):
        messages = invchisq_message(self.rng), invchisq_message(self.rng)
        self.store.set_to_node(self.FIRST, self.NODE, messages[0])
        self.store.set_to_node(self.SECOND, self.NODE, messages[1])
        return messages

    def test_two_neighbor_node_forwards_other_message(self):
        m1, m2 = self.set_both()
        assert stochastic_to_factor(self.graph, self.store, self.NODE, self.SECOND) == m1
        assert stochastic_to_factor(self.graph, self.store, self.NODE, self.FIRST) == m2

    def test_q_params_sum_all_neighbors(self):
        m1, m2 = self.set_both()
        total = q_natural_params(self.graph, self.store, self.NODE)
        assert np.array_equal(total.as_vector(), m1.as_vector() + m2.as_vector())

    def test_npbf_equals_q_for_two_neighbor_node(self):
        self.set_both()
        for factor in (self.FIRST, self.SECOND):
            assert np.array_equal(
                npbf(self.graph, self.store, factor, self.NODE).as_vector(),
                q_natural_params(self.graph, self.store, self.NODE).as_vector(),
            )

    def test_npbf_is_directional_sum(self):
        # factor-to-node message plus the node-to-factor message formed on the fly
        m1, m2 = self.set_both()
        combined = npbf(self.graph, self.store, self.SECOND, self.NODE)
        assert combined.eta1 == m2.eta1 + m1.eta1
        assert combined.eta2 == m2.eta2 + m1.eta2

    def test_consistency_of_rules(self):
        # q(node) = message(node -> f) + message(f -> node) for both neighbors f
        messages = dict(zip((self.FIRST, self.SECOND), self.set_both()))
        q_vec = q_natural_params(self.graph, self.store, self.NODE).as_vector()
        for f, m in messages.items():
            partial = stochastic_to_factor(self.graph, self.store, self.NODE, f)
            assert np.array_equal(partial.as_vector() + m.as_vector(), q_vec)

    def test_summation_order_independent(self):
        # Pairwise commutativity is exact in floating point; it is what makes
        # npbf and q_natural_params agree bitwise on every edge.
        a = GaussianVecParams(self.rng.standard_normal(2), self.rng.standard_normal(4))
        b = GaussianVecParams(self.rng.standard_normal(2), self.rng.standard_normal(4))
        assert np.array_equal((a + b).as_vector(), (b + a).as_vector())

    def test_npbf_zero_messages(self):
        self.store.set_to_node(self.FIRST, self.NODE, InvChiSqParams(0.0, 0.0))
        self.store.set_to_node(self.SECOND, self.NODE, InvChiSqParams(0.0, 0.0))
        assert npbf(self.graph, self.store, self.SECOND, self.NODE).as_vector().tolist() == [
            0.0,
            0.0,
        ]

    def test_factor_not_adjacent_rejected(self):
        self.set_both()
        with pytest.raises(TopologyError, match="not a neighbor"):
            stochastic_to_factor(self.graph, self.store, self.NODE, self.OTHER)
        # the store has no slot for a non-edge, so it cannot be made one
        with pytest.raises(TopologyError, match="no edge"):
            self.store.set_to_node(self.OTHER, self.NODE, invchisq_message(self.rng))
        with pytest.raises(TopologyError, match="no edge"):
            npbf(self.graph, self.store, self.OTHER, self.NODE)

    def test_unknown_node_rejected(self):
        with pytest.raises(TopologyError, match="unknown stochastic node"):
            stochastic_to_factor(self.graph, self.store, "w", self.FIRST)
        with pytest.raises(TopologyError, match="unknown stochastic node"):
            q_natural_params(self.graph, self.store, "w")

    def test_stacked_node_adds_shared_message_to_every_row(self):
        # The score node: one likelihood row per curve plus one shared prior.
        store = zero_store(num_curves=4, num_eigen=2, num_coefs=3)
        rows = GaussianVechParams(self.rng.standard_normal((4, 2)), self.rng.standard_normal((4, 3)))
        prior = GaussianVechParams(np.zeros(2), np.array([-0.5, 0.0, -0.5]))
        store.set_to_node(fg.LIKELIHOOD, fg.ZETA, rows)
        store.set_to_node(fg.PRIOR_ZETA, fg.ZETA, prior)
        graph = fpca_factor_graph(2)
        q = q_natural_params(graph, store, fg.ZETA)
        assert q.eta1.shape == (4, 2) and q.eta2.shape == (4, 3)
        for i in range(4):
            single = GaussianVechParams(rows.eta1[i], rows.eta2[i]) + prior
            assert np.array_equal(q.as_vector()[i], single.as_vector())
        assert np.array_equal(npbf(graph, store, fg.PRIOR_ZETA, fg.ZETA).as_vector(), q.as_vector())


def fpca_edges(graph):
    return [(factor, node) for node, factors in graph.items() for factor in factors]


def random_message(rng, store, factor, node):
    """A random message of the right family and shape for one edge of the FPCA graph."""
    if node == fg.NU:
        dim = store.nu_eta1.shape[1]
        return GaussianVecParams(rng.standard_normal(dim), rng.standard_normal(dim * dim))
    if node == fg.ZETA:
        n, L = store.zeta_eta1.shape
        rows = (n,) if factor == fg.LIKELIHOOD else ()
        return GaussianVechParams(
            rng.standard_normal((*rows, L)), rng.standard_normal((*rows, L * (L + 1) // 2))
        )
    return invchisq_message(rng)


class TestArrayStore:
    """The store's NaturalParams view against the arrays the sweep reads and writes."""

    @pytest.mark.parametrize("num_curves, num_eigen", [(1, 1), (3, 2), (5, 5)])
    def test_every_edge_round_trips(self, num_curves, num_eigen):
        rng = np.random.default_rng([num_curves, num_eigen])
        store = zero_store(num_curves, num_eigen, num_coefs=4)
        edges = fpca_edges(fpca_factor_graph(num_eigen))
        # every edge has a slot of its own: no write overwrites another edge's
        written = {edge: random_message(rng, store, *edge) for edge in edges}
        for edge, message in written.items():
            store.set_to_node(*edge, message)
        for edge, message in written.items():
            back = store.get_to_node(*edge)
            assert type(back) is type(message)
            assert np.array_equal(back.as_vector(), message.as_vector()), edge

    def test_view_is_a_copy(self):
        state = initialize(generate(SimConfig(num_curves=5, seed=3))[0], FitConfig(num_eigen=2))
        read = state.store.get_to_node(fg.LIKELIHOOD, fg.NU)
        before = read.as_vector().copy()
        state.store.nu_eta1[0] += 1.0
        state.store.nu_precision[0] += 1.0
        assert np.array_equal(read.as_vector(), before)

    def test_wrong_shape_rejected(self):
        store = zero_store(num_curves=3, num_eigen=2, num_coefs=4)
        with pytest.raises(ValueError, match="holds shape"):
            store.set_to_node(
                fg.LIKELIHOOD, fg.ZETA, GaussianVechParams(np.zeros((2, 2)), np.zeros((2, 3)))
            )

    def test_q_arrays_match_q_natural_params(self):
        dataset, _ = generate(SimConfig(num_curves=7, seed=3))
        state = initialize(dataset, FitConfig(num_eigen=3))
        for _ in range(3):
            _sweep(state)
        graph, store = state.graph, state.store
        eta1, precision = store.q_nu()
        q = q_natural_params(graph, store, fg.NU)
        assert np.array_equal(eta1, q.eta1)
        assert np.array_equal(-0.5 * vec(precision), q.eta2)
        eta1, precision = store.q_zeta()
        q = q_natural_params(graph, store, fg.ZETA)
        assert np.array_equal(eta1, q.eta1)
        assert np.array_equal(-0.5 * precision.reshape(7, 9) @ duplication_matrix(3), q.eta2)
        expected = [
            value
            for chain in variance_chains(3)
            for node in (chain.sigsq, chain.aux)
            for value in q_natural_params(graph, store, node).as_vector().tolist()
        ]
        assert store.q_variances() == expected


def bitwise_equal(first: fg.MessageStore, second: fg.MessageStore) -> bool:
    """Every array of the two stores holds the same bytes, and every chain the same floats."""
    for field in dataclasses.fields(fg.MessageStore):
        a, b = getattr(first, field.name), getattr(second, field.name)
        if field.name == "chains":
            if a != b or {type(x) for chain in a for pair in chain for x in pair} != {float}:
                return False
        elif a.shape != b.shape or a.tobytes() != b.tobytes():
            return False
    return True


def snapshot_from_q(store: fg.MessageStore) -> np.ndarray:
    """The convergence snapshot composed from ``q_nu`` and ``q_zeta``: eta1 and half the
    precision of q(nu), each curve's eta1 and precision with its diagonal halved, then
    the variance and auxiliary q-densities."""
    (nu_eta1, nu_precision), (zeta_eta1, zeta_precision) = store.q_nu(), store.q_zeta()
    n, L = zeta_eta1.shape
    weights = np.where(np.eye(L, dtype=bool), 0.5, 1.0)
    rows = np.concatenate([zeta_eta1, (weights * zeta_precision).reshape(n, L * L)], axis=1)
    return np.concatenate([nu_eta1, 0.5 * nu_precision.ravel(), rows.ravel(), store.q_variances()])


def check_starting_store(state, config):
    """The store ``initialize`` builds holds the starting messages, slot by slot."""
    store, n, L = state.store, state.cache.num_curves, config.num_eigen
    dim = (L + 1) * state.cache.num_coefs
    score_guess = _initial_guess(state.cache, L)
    # the likelihood's empty message, then the penalization's vague N(0, 100 I)
    assert np.array_equal(store.nu_eta1, np.zeros((2, dim)))
    assert np.array_equal(store.nu_precision, np.stack([np.zeros((dim, dim)), np.eye(dim) / 100.0]))
    # each curve's starting scores with unit precision, and the N(0, I) prior
    assert np.array_equal(store.zeta_eta1, score_guess)
    assert np.array_equal(store.zeta_precision, np.broadcast_to(np.eye(L), (n, L, L)))
    assert np.array_equal(store.prior_eta1, np.zeros(L))
    assert np.array_equal(store.prior_precision, np.eye(L))
    # unit shape and scale on the swept edges, the hyper_a_* prior on the last
    hypers = {"eps": config.hyper_a_eps, "mu": config.hyper_a_mu, "psi": config.hyper_a_psi}
    priors = [(-1.5, -0.5 / hypers[chain.family] ** 2) for chain in variance_chains(L)]
    assert store.chains == [[(-1.5, -0.5)] * 3 + [prior] for prior in priors]
    assert {type(x) for chain in store.chains for pair in chain for x in pair} == {float}
    assert bitwise_equal(store, fg.MessageStore.starting(score_guess, config))


@derandomised(30)
@given(
    num_eigen=st.integers(1, 5),
    num_curves=st.sampled_from([2, 3, 12, 40]),  # n < P = K + 2 coefficients a block included
    num_splines=st.sampled_from([5, 10]),
    sweeps=st.integers(0, 4),
    seed=st.integers(0, 10_000),
    hypers=st.sampled_from([(1e5, 1e5, 1e5), (2.0, 3.7, 0.5)]),  # hyper_a_eps, _mu, _psi
)
def test_store_layout(num_eigen, num_curves, num_splines, sweeps, seed, hypers):
    # the starting store, and the store's vector, snapshot and node starts a few sweeps into a fit
    dataset, _ = generate(SimConfig(num_curves=num_curves, seed=seed))
    eps, mu, psi = hypers
    config = FitConfig(
        num_eigen=num_eigen,
        num_splines=num_splines,
        hyper_a_eps=eps,
        hyper_a_mu=mu,
        hyper_a_psi=psi,
    )
    state = initialize(dataset, config)
    check_starting_store(state, config)
    store = state.store
    try:
        for _ in range(sweeps):
            # the sweep's snapshot is the store's own after the sweep
            snapshot = _sweep(state)
            assert snapshot.tobytes() == snapshot_from_q(store).tobytes()
    except (DegenerateMessageError, np.linalg.LinAlgError):
        pass  # the layout holds for the store the failed sweep left
    n, L = num_curves, num_eigen
    assert store.q_snapshot().tobytes() == snapshot_from_q(store).tobytes()
    # a store built from the store's vector holds every slot bitwise, in arrays of its own
    vector = store.message_vector()
    built = store.with_messages(vector)
    assert bitwise_equal(built, store)
    assert built.message_vector().tobytes() == vector.tobytes()
    names = [field.name for field in dataclasses.fields(fg.MessageStore) if field.name != "chains"]
    sources = [getattr(store, name) for name in names] + [vector]
    assert not any(np.shares_memory(getattr(built, name), b) for name in names for b in sources)
    assert built.chains is not store.chains
    assert not any(a is b for a, b in zip(built.chains, store.chains))
    # the node starts split the snapshot into q(nu), each curve's scores and each
    # chain's q(sigsq) and q(aux)
    dim = (L + 1) * (num_splines + 2)
    snapshot = store.q_snapshot()
    starts = store.node_starts()
    sizes = [node.size for node in np.split(snapshot, starts[1:])]
    assert sizes == [dim * (1 + dim)] + [L * (1 + L)] * n + [2] * (2 * (L + 2))
    assert convergence_metric(snapshot, snapshot.copy(), starts) == 0.0


@functools.cache
def small_store() -> fg.MessageStore:
    dataset, _ = generate(SimConfig(num_curves=4, seed=2))
    return initialize(dataset, FitConfig(num_eigen=2, num_splines=5)).store


# every write that changes q(nu) or q(zeta), and the reads; each write scales what it writes
STORE_STEPS = st.one_of(
    st.tuples(st.just("set_nu"), st.sampled_from([fg.LIKELIHOOD, fg.PENALIZATION])),
    st.tuples(st.just("set_scores"), st.none()),
    st.tuples(st.just("propose"), st.booleans()),  # True: kept, as a jump
    st.tuples(
        st.just("set_to_node"),
        st.sampled_from(
            [(fg.LIKELIHOOD, fg.NU), (fg.PENALIZATION, fg.NU)]
            + [(fg.LIKELIHOOD, fg.ZETA), (fg.PRIOR_ZETA, fg.ZETA)]
        ),
    ),
    st.tuples(st.just("read"), st.sampled_from([fg.NU, fg.ZETA])),
)


def write(store: fg.MessageStore, step, scale: float) -> fg.MessageStore:
    """One write: the messages it names, scaled by ``scale``, eta1 shifted by 1, or a proposal
    built from the scaled message vector; returns the store the sequence goes on with."""
    kind, target = step
    if kind == "set_nu":
        k = (fg.LIKELIHOOD, fg.PENALIZATION).index(target)
        store.set_nu(target, (scale * store.nu_eta1[k] + 1.0, scale * store.nu_precision[k]))
    elif kind == "set_scores":
        store.set_scores((scale * store.zeta_eta1 + 1.0, scale * store.zeta_precision))
    elif kind == "propose":
        # the proposal's reads are fresh, and its source keeps the moments it read
        reads = store.read_q_nu(fg.LIKELIHOOD), store.read_q_zeta()
        proposal = store.with_messages(scale * store.message_vector())
        for node in (fg.NU, fg.ZETA):
            check_read(proposal, node)
        assert store.read_q_nu(fg.LIKELIHOOD) is reads[0] and store.read_q_zeta() is reads[1]
        return proposal if target else store
    else:
        message = store.get_to_node(*target)
        store.set_to_node(*target, type(message)(scale * message.eta1 + 1.0, scale * message.eta2))
    return store


def check_read(store: fg.MessageStore, node: str) -> None:
    """The store's read is a fresh inversion of its q-density, bit for bit, and read-only."""
    if node == fg.NU:
        read, q = store.read_q_nu(fg.LIKELIHOOD), store.q_nu()
    else:
        read, q = store.read_q_zeta(), store.q_zeta()
    for array, fresh in zip(read, gaussian_precision_to_moments(*q, "q-density precision")):
        assert not array.flags.writeable
        assert array.tobytes() == fresh.tobytes(), node


@derandomised(200)
@given(steps=st.lists(st.tuples(STORE_STEPS, st.sampled_from([0.5, 0.8, 1.25, 2.0])), max_size=12))
def test_reads_are_fresh_until_the_next_write(steps):
    # each q-density is inverted on the first read after a write to its node, by the store
    store = copy.deepcopy(small_store())
    for node in (fg.NU, fg.ZETA):
        check_read(store, node)
    for (kind, target), scale in steps:
        if kind == "read":
            check_read(store, target)
        else:
            store = write(store, (kind, target), scale)
    for node in (fg.NU, fg.ZETA):
        check_read(store, node)


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda store: pickle.loads(pickle.dumps(store))])
def test_a_copy_reads_afresh(duplicate):
    # a copied store keeps none of the moments its original read, so its reads stay read-only
    store = copy.deepcopy(small_store())
    for node in (fg.NU, fg.ZETA):
        check_read(store, node)
    copied = duplicate(store)
    for node in (fg.NU, fg.ZETA):
        check_read(copied, node)
    write(copied, ("set_nu", fg.LIKELIHOOD), 2.0)
    check_read(copied, fg.NU)
    check_read(store, fg.NU)


class TestFpcaEdges:
    def test_npbf_equals_q_on_every_edge_after_sweeps(self):
        dataset, _ = generate(SimConfig(num_curves=12, seed=3))
        state = initialize(dataset, FitConfig(num_eigen=3))
        for _ in range(3):
            _sweep(state)
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
