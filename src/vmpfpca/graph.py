"""The FPCA factor graph and its message-combination rules.

Stochastic nodes and factors are identified by strings.  Every stochastic
node of the FPCA graph has exactly two neighboring factors, so the message a
node sends to one factor is the message it receives from the other.  The
store therefore keeps factor-to-node messages only, and the node-to-factor
half of an edge is formed on the fly when a fragment needs it.  The n score
vectors form one stacked node whose likelihood message holds one row per
curve.  Messages are the natural-parameter objects of :mod:`expfam`; reading
an edge that was never written is a hard error rather than an implicit zero.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .expfam import NaturalParams


class UninitializedMessageError(KeyError):
    """A message was read before any value was stored on its edge."""


class TopologyError(ValueError):
    """A node or factor is not part of the graph, or an edge does not exist."""


class FactorGraph:
    """Bipartite graph between factors and stochastic nodes."""

    def __init__(self, factor_neighbors: Mapping[str, Iterable[str]]):
        self._factor_neighbors = {f: tuple(nodes) for f, nodes in factor_neighbors.items()}
        node_neighbors: dict[str, list[str]] = {}
        for factor, nodes in self._factor_neighbors.items():
            for node in nodes:
                node_neighbors.setdefault(node, []).append(factor)
        self._node_neighbors = {n: tuple(fs) for n, fs in node_neighbors.items()}

    @property
    def factors(self) -> tuple[str, ...]:
        return tuple(self._factor_neighbors)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._node_neighbors)

    def factor_neighbors(self, factor: str) -> tuple[str, ...]:
        try:
            return self._factor_neighbors[factor]
        except KeyError:
            raise TopologyError(f"unknown factor {factor!r}") from None

    def node_neighbors(self, node: str) -> tuple[str, ...]:
        try:
            return self._node_neighbors[node]
        except KeyError:
            raise TopologyError(f"unknown stochastic node {node!r}") from None

    def has_edge(self, factor: str, node: str) -> bool:
        return node in self._factor_neighbors.get(factor, ())


class MessageStore:
    """Holds the current message on every factor-to-node edge."""

    def __init__(self):
        self._to_node: dict[tuple[str, str], NaturalParams] = {}

    def set_to_node(self, factor: str, node: str, message: NaturalParams) -> None:
        self._to_node[(factor, node)] = message

    def get_to_node(self, factor: str, node: str) -> NaturalParams:
        try:
            return self._to_node[(factor, node)]
        except KeyError:
            raise UninitializedMessageError(
                f"no message stored on edge {factor} -> {node}"
            ) from None


def _sum_messages(messages: list[NaturalParams], context: str) -> NaturalParams:
    if not messages:
        raise TopologyError(f"no messages to combine for {context}")
    total = messages[0]
    for message in messages[1:]:
        total = total + message
    return total


def stochastic_to_factor(
    graph: FactorGraph, store: MessageStore, node: str, target: str
) -> NaturalParams:
    """Message a stochastic node sends to one neighboring factor.

    Sum of the stored messages from all of the node's other neighboring
    factors; requires every one of those messages to be present.
    """
    if not graph.has_edge(target, node):
        raise TopologyError(f"factor {target!r} is not a neighbor of node {node!r}")
    others = [f for f in graph.node_neighbors(node) if f != target]
    return _sum_messages([store.get_to_node(f, node) for f in others], f"{node} -> {target}")


def q_natural_params(graph: FactorGraph, store: MessageStore, node: str) -> NaturalParams:
    """Natural parameters of the optimal q-density: sum over all incident factor messages."""
    messages = [store.get_to_node(f, node) for f in graph.node_neighbors(node)]
    return _sum_messages(messages, f"q({node})")


def npbf(graph: FactorGraph, store: MessageStore, factor: str, node: str) -> NaturalParams:
    """Combined natural parameters on one edge: factor-to-node plus node-to-factor."""
    return store.get_to_node(factor, node) + stochastic_to_factor(graph, store, node, factor)


# ---------------------------------------------------------------------------
# Node and factor naming for the FPCA model topology.

NU = "nu"
ZETA = "zeta"  # all n score vectors, one row per curve
SIGSQ_EPS = "sigsq_eps"
A_EPS = "a_eps"
SIGSQ_MU = "sigsq_mu"
A_MU = "a_mu"

LIKELIHOOD = "likelihood"
PENALIZATION = "penalization"
PRIOR_ZETA = "prior_zeta"
ITERATED_EPS = "iterated_eps"
PRIOR_A_EPS = "prior_a_eps"
ITERATED_MU = "iterated_mu"
PRIOR_A_MU = "prior_a_mu"


def sigsq_psi_node(l: int) -> str:
    return f"sigsq_psi[{l}]"


def a_psi_node(l: int) -> str:
    return f"a_psi[{l}]"


def iterated_psi_factor(l: int) -> str:
    return f"iterated_psi[{l}]"


def a_psi_prior_factor(l: int) -> str:
    return f"prior_a_psi[{l}]"


def fpca_factor_graph(num_eigen: int) -> FactorGraph:
    """Factor graph for the FPCA model with ``num_eigen`` components.

    The curve count does not enter: the scores of all curves are one node.
    """
    if num_eigen < 1:
        raise ValueError("num_eigen must be >= 1")
    factor_neighbors: dict[str, tuple[str, ...]] = {
        LIKELIHOOD: (NU, ZETA, SIGSQ_EPS),
        PENALIZATION: (NU, SIGSQ_MU, *[sigsq_psi_node(l) for l in range(num_eigen)]),
        PRIOR_ZETA: (ZETA,),
        ITERATED_EPS: (SIGSQ_EPS, A_EPS),
        PRIOR_A_EPS: (A_EPS,),
        ITERATED_MU: (SIGSQ_MU, A_MU),
        PRIOR_A_MU: (A_MU,),
    }
    for l in range(num_eigen):
        factor_neighbors[iterated_psi_factor(l)] = (sigsq_psi_node(l), a_psi_node(l))
        factor_neighbors[a_psi_prior_factor(l)] = (a_psi_node(l),)
    return FactorGraph(factor_neighbors)
