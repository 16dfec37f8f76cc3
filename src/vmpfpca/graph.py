"""The FPCA factor graph and its message store.

Every stochastic node has exactly two neighboring factors, so the graph is a
table from each node (a string) to its two factors: the message a node sends
to one factor is the stored message from the other, and its q-density is the
sum of the two.  The store keeps the factor-to-node messages in slots whose
layout only it knows: it builds the starting messages, snapshots its own
q-densities, inverts q(nu) and q(zeta), and the sweep reads and writes the
messages through its methods, by node and role: a Gaussian message as eta1
and a precision matrix (the streamlined form of Wand, 2017), the n score
vectors as one stacked node with one likelihood row per curve, an inverse
chi-squared message as an (eta1, eta2) pair of floats.  ``get_to_node`` and
``set_to_node`` view the slots as the natural-parameter objects of
:mod:`expfam` for ``q_natural_params`` and its kin; the fit never calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .expfam import (
    DegenerateMessageError,
    GaussianVecParams,
    GaussianVechParams,
    InvChiSqParams,
    NaturalParams,
    duplication_matrix,
    gaussian_precision_to_moments,
    moore_penrose_duplication,
    unvec,
    vec,
)
from .fragments import gaussian_prior_message, igw_prior_message


class TopologyError(ValueError):
    """A node is not part of the graph, or an edge does not exist."""


# Each stochastic node and its two neighboring factors.
Neighbors = dict[str, tuple[str, str]]


@dataclass(eq=False)
class MessageStore:
    """The current message on every factor-to-node edge of the FPCA graph.

    With D = (L + 1)(2 + K): ``nu_eta1`` (2, D) and ``nu_precision``
    (2, D, D) hold the likelihood and the penalization message to nu;
    ``zeta_eta1`` (n, L) and ``zeta_precision`` (n, L, L) the likelihood
    message to the scores; ``prior_eta1`` and ``prior_precision`` the score
    prior every row shares; ``chains[c]`` the (eta1, eta2) pairs of chain c
    of :func:`variance_chains` on source -> sigsq, iterated -> sigsq,
    iterated -> aux and prior -> aux.

    :meth:`read_q_nu` and :meth:`read_q_zeta` invert a q-density on the first
    read after a write to its node and return the same read-only moments until
    the next, so nu's and the scores' slots are written only through :meth:`set_nu`,
    :meth:`set_scores` and :meth:`set_to_node`.
    """

    nu_eta1: np.ndarray
    nu_precision: np.ndarray
    zeta_eta1: np.ndarray
    zeta_precision: np.ndarray
    prior_eta1: np.ndarray
    prior_precision: np.ndarray
    chains: list[list[tuple[float, float]]]

    @classmethod
    def starting(cls, score_means: np.ndarray, config) -> MessageStore:
        """A fit's starting messages: zero from the likelihood to nu, which the first sweep
        writes before it reads q(nu), and the vague N(0, 100 I) from the penalization; the
        (n, L) ``score_means``, kept as the scores' likelihood rows, with unit precision,
        and the N(0, I) prior; shape 1, scale 1 (unit reciprocal mean) on each chain's
        three swept edges, and on its prior edge the prior of ``config.hyper_a_<family>``."""
        n, L = score_means.shape
        dim = (L + 1) * (config.num_splines + 2)
        prior_eta1, prior_precision = gaussian_prior_message(L)
        hypers = [getattr(config, f"hyper_a_{chain.family}") for chain in variance_chains(L)]
        return cls(
            nu_eta1=np.zeros((2, dim)),  # likelihood, penalization
            nu_precision=np.stack([np.zeros((dim, dim)), np.eye(dim) / 100.0]),
            zeta_eta1=score_means,
            zeta_precision=np.tile(prior_precision, (n, 1, 1)),
            prior_eta1=prior_eta1,
            prior_precision=prior_precision,
            chains=[[(-1.5, -0.5)] * 3 + [igw_prior_message(hyper)] for hyper in hypers],
        )

    def __post_init__(self):
        self._moments = {}  # node -> its q-density's moments until the next write; not a field

    def __getstate__(self):  # a copy or a pickle keeps no moments: its first reads invert
        return {**self.__dict__, "_moments": {}}

    def q_nu(self) -> tuple[np.ndarray, np.ndarray]:
        """q(nu)'s eta1 and precision: the sums of its two messages'."""
        return self.nu_eta1[0] + self.nu_eta1[1], self.nu_precision[0] + self.nu_precision[1]

    def q_zeta(self) -> tuple[np.ndarray, np.ndarray]:
        """The stacked q(zeta)'s (n, L) eta1 and (n, L, L) precisions."""
        return self.zeta_eta1 + self.prior_eta1, self.zeta_precision + self.prior_precision

    def q_variances(self) -> list[float]:
        """eta1, eta2 of q(sigsq), then of q(aux), of every chain in chain order."""
        out = []
        for (s1, s2), (i1, i2), (a1, a2), (p1, p2) in self.chains:
            out += [s1 + i1, s2 + i2, a1 + p1, a2 + p2]
        return out

    def q_variances_proper(self) -> bool:
        """Whether every chain's q(sigsq) and q(aux) is a proper inverse chi-squared density."""
        variances = self.q_variances()
        return max(variances[0::2]) < -1.0 and max(variances[1::2]) < 0.0

    def read_q_nu(self, reader: str) -> tuple[np.ndarray, np.ndarray]:
        """q(nu)'s (mean, covariance); an error names the edge (``reader``, nu)."""
        return self._read(NU, self.q_nu, f"edge ({reader}, nu): q-density precision")

    def read_q_zeta(self) -> tuple[np.ndarray, np.ndarray]:
        """q(zeta)'s (means, covariances); an error names the edge (likelihood, zeta)."""
        return self._read(ZETA, self.q_zeta, "edge (likelihood, zeta): q-density precision")

    def _read(self, node: str, q, context: str) -> tuple[np.ndarray, np.ndarray]:
        if node not in self._moments:
            self._moments[node] = gaussian_precision_to_moments(*q(), context)
            for array in self._moments[node]:
                array.flags.writeable = False
        return self._moments[node]

    def set_nu(self, factor: str, message) -> None:
        """Write the (eta1, precision) message from ``factor`` to nu."""
        k = (LIKELIHOOD, PENALIZATION).index(factor)
        self.nu_eta1[k], self.nu_precision[k] = message
        self._moments.pop(NU, None)

    def set_scores(self, message) -> None:
        """Write the likelihood's (eta1, precisions) message to the scores, one row per curve."""
        self.zeta_eta1[...], self.zeta_precision[...] = message
        self._moments.pop(ZETA, None)

    def e_recip(self, c: int, reader: str = "source", node: str = "sigsq") -> float:
        """E(1/x) of chain c's variance ("sigsq") or auxiliary ("aux"), for its ``reader`` factor
        ("source" or "iterated").  The messages are pairs of Python floats, so a zero eta2
        raises instead of giving inf; the error names the edge the read is for."""
        (a1, a2), (b1, b2) = self.chains[c][:2] if node == "sigsq" else self.chains[c][2:]
        try:
            return (a1 + b1 + 1.0) / (a2 + b2)
        except ZeroDivisionError:
            chain = variance_chains(self.prior_eta1.size)[c]
            edge = f"{getattr(chain, reader)}, {getattr(chain, node)}"
            raise DegenerateMessageError(
                f"edge ({edge}): inverse chi-squared parameters with eta2 = 0"
            ) from None

    def set_source(self, c: int, to_sigsq: tuple[float, float]) -> None:
        """Write the message from chain c's source factor to its variance."""
        self.chains[c][0] = to_sigsq

    def set_iterated(self, c: int, to_sigsq, to_aux) -> None:
        """Write the messages from chain c's iterated factor to its variance and auxiliary."""
        self.chains[c][1:3] = to_sigsq, to_aux

    def message_vector(self) -> np.ndarray:
        """The messages a sweep writes, as one vector: both messages to nu, the scores'
        likelihood rows and each chain's first three pairs; the constant priors stay out."""
        chains = [x for chain in self.chains for message in chain[:3] for x in message]
        arrays = (self.nu_eta1, self.nu_precision, self.zeta_eta1, self.zeta_precision)
        return np.concatenate([*(array.ravel() for array in arrays), chains])

    def with_messages(self, vector: np.ndarray) -> MessageStore:
        """A new store holding a :meth:`message_vector` and this store's constant priors; it
        shares no array with this store or with ``vector``, and its first reads invert."""
        arrays, start = [], 0
        for array in (self.nu_eta1, self.nu_precision, self.zeta_eta1, self.zeta_precision):
            arrays.append(vector[start : start + array.size].reshape(array.shape).copy())
            start += array.size
        pairs = iter(vector[start:].reshape(-1, 2).tolist())
        chains = [[tuple(next(pairs)) for _ in range(3)] + chain[3:] for chain in self.chains]
        return MessageStore(*arrays, self.prior_eta1.copy(), self.prior_precision.copy(), chains)

    def q_snapshot(self) -> np.ndarray:
        """The q natural parameters the convergence check compares, up to their signs, node by node.

        First q(nu) (:meth:`q_nu`): eta1, then half the precision, which is
        |eta2| in the vec basis.  Then each curve (:meth:`q_zeta`): eta1, then
        W * precision with W = 1/2 on the diagonal and 1 off it, which is
        |eta2| in the vech basis with each off-diagonal entry twice.  Then
        (eta1, eta2) of q(sigsq) and q(aux) of each chain.  It sums the
        messages and inverts nothing.
        """
        (nu_eta1, nu_precision), (zeta_eta1, zeta_precision) = self.q_nu(), self.q_zeta()
        n, L = zeta_eta1.shape
        rows = np.concatenate([zeta_eta1, zeta_precision.reshape(n, L * L)], axis=1)
        rows[:, L :: L + 1] *= 0.5  # the diagonal of each precision
        return np.concatenate(
            [nu_eta1, 0.5 * nu_precision.reshape(-1), rows.reshape(-1), self.q_variances()]
        )

    def node_starts(self) -> np.ndarray:
        """Where each node's entries begin in a :meth:`q_snapshot`: q(nu) has D(1 + D), each
        curve's scores L(1 + L), and each chain's q(sigsq) and q(aux) 2 each."""
        n, L = self.zeta_eta1.shape
        sizes = [self.nu_eta1[0].size * (1 + self.nu_eta1[0].size)]
        sizes += [L * (1 + L)] * n + [2] * (2 * len(self.chains))
        return np.cumsum([0] + sizes[:-1])

    def _slot(self, factor: str, node: str):
        """The edge's (eta1, precision) arrays, or (chain, position) of a chain message."""
        num_eigen = self.prior_eta1.size
        factors = fpca_factor_graph(num_eigen).get(node, ())
        if factor not in factors:
            raise TopologyError(f"no edge between factor {factor!r} and node {node!r}")
        k = factors.index(factor)
        if node == NU:
            return self.nu_eta1[k], self.nu_precision[k]
        if node == ZETA:
            if k == 0:
                return self.zeta_eta1, self.zeta_precision
            return self.prior_eta1, self.prior_precision
        for c, chain in enumerate(variance_chains(num_eigen)):
            if node in (chain.sigsq, chain.aux):
                return c, k if node == chain.sigsq else 2 + k

    def set_to_node(self, factor: str, node: str, message: NaturalParams) -> None:
        slot = self._slot(factor, node)
        if node in (NU, ZETA):
            eta1, precision = slot
            if node == NU:
                new_precision = -2.0 * unvec(message.eta2)
            else:  # the vech basis: D+ maps each eta2 row to the vec of its matrix
                full = message.eta2 @ moore_penrose_duplication(eta1.shape[-1])
                new_precision = -2.0 * full.reshape(full.shape[:-1] + precision.shape[-2:])
            if message.eta1.shape != eta1.shape or new_precision.shape != precision.shape:
                raise ValueError(f"edge ({factor}, {node}) holds shape {eta1.shape}")
            eta1[...], precision[...] = message.eta1, new_precision
            self._moments.pop(node, None)
        else:
            c, k = slot
            self.chains[c][k] = (float(message.eta1), float(message.eta2))

    def get_to_node(self, factor: str, node: str) -> NaturalParams:
        slot = self._slot(factor, node)
        if node == NU:
            return GaussianVecParams(slot[0].copy(), -0.5 * vec(slot[1]))
        if node == ZETA:  # D' sums each off-diagonal pair of the vec of each matrix
            eta1, precision = slot
            flat = precision.reshape(precision.shape[:-2] + (-1,))
            return GaussianVechParams(eta1.copy(), -0.5 * flat @ duplication_matrix(eta1.shape[-1]))
        c, k = slot
        return InvChiSqParams(*self.chains[c][k])


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


def variance_chains(num_eigen: int) -> tuple[VarianceChain, ...]:
    """The 2 + L chains in update order: noise, mean function, then each eigenfunction."""
    return (
        _NOISE_CHAIN,
        _chain("mu", PENALIZATION),
        *(_chain("psi", PENALIZATION, l) for l in range(num_eigen)),
    )


def fpca_factor_graph(num_eigen: int) -> Neighbors:
    """The neighbor table of the FPCA model with ``num_eigen`` components.

    The curve count does not enter: the scores of all curves are one node.
    """
    chains = variance_chains(num_eigen)
    graph = {NU: (LIKELIHOOD, PENALIZATION), ZETA: (LIKELIHOOD, PRIOR_ZETA)}
    graph.update({chain.sigsq: (chain.source, chain.iterated) for chain in chains})
    graph.update({chain.aux: (chain.iterated, chain.prior) for chain in chains})
    return graph
