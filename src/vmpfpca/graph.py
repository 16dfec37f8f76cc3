"""The FPCA factor graph and its message-combination rules.

Stochastic nodes and factors are identified by strings.  Every stochastic
node of the FPCA graph has exactly two neighboring factors, so the graph is a
table from each node to its two factors: the message a node sends to one
factor is the stored message from the other, and its q-density is the sum of
the two.  The store therefore keeps factor-to-node messages only, and the
node-to-factor half of an edge is formed on the fly when a fragment needs it.
The n score vectors form one stacked node whose likelihood message holds one
row per curve.  Messages are the natural-parameter objects of :mod:`expfam`;
reading an edge that was never written is a hard error rather than an
implicit zero.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .expfam import NaturalParams


class UninitializedMessageError(KeyError):
    """A message was read before any value was stored on its edge."""


class TopologyError(ValueError):
    """A node is not part of the graph, or an edge does not exist."""


# Each stochastic node and its two neighboring factors.
Neighbors = dict[str, tuple[str, str]]


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


def _neighbors(graph: Neighbors, node: str) -> tuple[str, str]:
    try:
        return graph[node]
    except KeyError:
        raise TopologyError(f"unknown stochastic node {node!r}") from None


def stochastic_to_factor(
    graph: Neighbors, store: MessageStore, node: str, target: str
) -> NaturalParams:
    """Message a stochastic node sends to one neighboring factor: the other factor's message."""
    first, second = _neighbors(graph, node)
    if target == first:
        return store.get_to_node(second, node)
    if target == second:
        return store.get_to_node(first, node)
    raise TopologyError(f"factor {target!r} is not a neighbor of node {node!r}")


def q_natural_params(graph: Neighbors, store: MessageStore, node: str) -> NaturalParams:
    """Natural parameters of the optimal q-density: the sum of the node's two messages."""
    first, second = _neighbors(graph, node)
    return store.get_to_node(first, node) + store.get_to_node(second, node)


def npbf(graph: Neighbors, store: MessageStore, factor: str, node: str) -> NaturalParams:
    """Combined natural parameters on one edge: factor-to-node plus node-to-factor.

    With two messages per node this equals ``q_natural_params(node)`` bit for
    bit, since floating-point addition is commutative.
    """
    return store.get_to_node(factor, node) + stochastic_to_factor(graph, store, node, factor)


# ---------------------------------------------------------------------------
# Node and factor naming for the FPCA model topology.

NU = "nu"
ZETA = "zeta"  # all n score vectors, one row per curve

LIKELIHOOD = "likelihood"
PENALIZATION = "penalization"
PRIOR_ZETA = "prior_zeta"


class VarianceChain(NamedTuple):
    """One variance's chain: source -> sigsq -> iterated -> aux -> prior.

    The source factor (likelihood or penalization) and the iterated inverse
    G-Wishart factor are the two neighbors of the variance node sigsq; the
    iterated factor and the constant prior are the two neighbors of the
    auxiliary node.
    """

    family: str  # "eps", "mu" or "psi"; names the prior's hyper_a_* setting
    source: str
    sigsq: str
    iterated: str
    aux: str
    prior: str


def _chain(family: str, source: str, index: int | None = None) -> VarianceChain:
    name = family if index is None else f"{family}[{index}]"
    return VarianceChain(
        family, source, f"sigsq_{name}", f"iterated_{name}", f"a_{name}", f"prior_a_{name}"
    )


_NOISE_CHAIN = _chain("eps", LIKELIHOOD)
SIGSQ_EPS = _NOISE_CHAIN.sigsq


@lru_cache(maxsize=None)
def variance_chains(num_eigen: int) -> tuple[VarianceChain, ...]:
    """The 2 + L chains in update order: noise, mean function, then each eigenfunction.

    Built once per ``num_eigen``; every sweep reads the same tuple.
    """
    return (
        _NOISE_CHAIN,
        _chain("mu", PENALIZATION),
        *(_chain("psi", PENALIZATION, l) for l in range(num_eigen)),
    )


def fpca_factor_graph(num_eigen: int) -> Neighbors:
    """The neighbor table of the FPCA model with ``num_eigen`` components.

    The curve count does not enter: the scores of all curves are one node.
    """
    if num_eigen < 1:
        raise ValueError("num_eigen must be >= 1")
    chains = variance_chains(num_eigen)
    graph = {NU: (LIKELIHOOD, PENALIZATION), ZETA: (LIKELIHOOD, PRIOR_ZETA)}
    graph.update({chain.sigsq: (chain.source, chain.iterated) for chain in chains})
    graph.update({chain.aux: (chain.iterated, chain.prior) for chain in chains})
    return graph
