"""Species-replication lift: node balance becomes complex balance.

Every node of a reaction graph gets its own copy of the species; graph
edges act on their node's copies and fast exchange reactions shuttle
each species between copies. Complex balance of the lifted network at
the replicated state is then equivalent to node balance of the original,
which makes the lift an independent oracle for the balance machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .balance import node_balance_residual, residual_is_zero
from .graphs import ReactionGraph, canonical_complex_graph
from .network import ReactionNetwork, mass_action_rates, numeric_kappa


class LiftError(ValueError):
    """Raised when the construction cannot keep lifted complexes distinct."""


@dataclass(frozen=True)
class LiftedNetwork:
    """The replicated network with maps to and from the base."""

    base: ReactionNetwork
    graph: ReactionGraph
    epsilon: int
    network: ReactionNetwork
    node_complex_index: tuple[int, ...]

    @property
    def copies(self) -> int:
        return self.graph.m

    @property
    def n_exchange(self) -> int:
        return self.network.p - self.base.p

    def species_index(self, i: int, j: int) -> int:
        """0-based lifted index of copy j (1-based node) of base species i."""
        if not 0 <= i < self.base.n:
            raise ValueError(f"species {i} out of range 0..{self.base.n - 1}")
        if not 1 <= j <= self.copies:
            raise ValueError(f"node {j} out of range 1..{self.copies}")
        return i * self.copies + (j - 1)

    def replicate(self, x: Sequence) -> tuple:
        """The state with every copy of species i set to x_i."""
        if len(x) != self.base.n:
            raise ValueError(f"state has {len(x)} entries for {self.base.n} species")
        return tuple(v for v in x for _ in range(self.copies))

    def project(self, lifted_x: Sequence) -> tuple:
        """Per-species sum over copies; project(replicate(x)) = copies * x."""
        if len(lifted_x) != self.network.n:
            raise ValueError(
                f"state has {len(lifted_x)} entries for {self.network.n} species"
            )
        m = self.copies
        return tuple(sum(lifted_x[i * m : (i + 1) * m]) for i in range(self.base.n))

    def lifted_kappa(self, kappa: Sequence | None = None) -> list:
        """Rate constants for the lifted network: inherited, then exchange rate 1."""
        return list(numeric_kappa(self.base, kappa)) + [Fraction(1)] * self.n_exchange


def lift_network(net: ReactionNetwork, g: ReactionGraph) -> LiftedNetwork:
    """Build the lifted network of a reaction graph.

    Species are ordered copy-within-species ("X.1", "X.2", ...); edge
    reactions come first with inherited rates, then the exchange
    reactions eps*(X_i copy j) -> eps*(X_i copy j') for every species and
    ordered copy pair, all with rate 1. eps exceeds every complex total,
    which keeps exchange complexes disjoint from the lifted edge
    complexes.

    Raises:
        LiftError: two nodes labeled by the empty complex would collapse
            to one lifted complex.
    """
    if g.network != net:
        raise ValueError("graph belongs to a different network")
    zero_nodes = [
        node for node in range(1, g.m + 1) if net.complexes[g.labels[node - 1]].is_zero
    ]
    if len(zero_nodes) > 1:
        raise LiftError(
            f"nodes {zero_nodes} all carry the empty complex; their lifted "
            "complexes coincide"
        )
    m = g.m
    epsilon = 1 + max(cx.total for cx in net.complexes)
    species = tuple(
        f"{name}.{j}" for name in net.species for j in range(1, m + 1)
    )
    nvars = net.n * m

    def node_complex(j: int) -> tuple[int, ...]:
        label = g.label_vector(j)
        coeffs = [0] * nvars
        for i, coeff in enumerate(label):
            coeffs[i * m + (j - 1)] = coeff
        return tuple(coeffs)

    triples = [
        (node_complex(a), node_complex(b), net.reactions[k].rate)
        for k, (a, b) in enumerate(g.edges)
    ]
    for i in range(net.n):
        for j in range(1, m + 1):
            for j2 in range(1, m + 1):
                if j2 == j:
                    continue
                src = [0] * nvars
                src[i * m + (j - 1)] = epsilon
                tgt = [0] * nvars
                tgt[i * m + (j2 - 1)] = epsilon
                triples.append((src, tgt, Fraction(1)))
    lifted = ReactionNetwork.assemble(species, triples)
    node_index = [0] * m  # every node ends an edge; its lifted complex ends that reaction
    for r, (a, b) in zip(lifted.reactions, g.edges):
        node_index[a - 1], node_index[b - 1] = r.source, r.target
    return LiftedNetwork(net, g, epsilon, lifted, tuple(node_index))


@dataclass(frozen=True)
class LiftVerification:
    """Node balance upstairs vs complex balance downstairs, plus the row map."""

    base_balanced: bool
    lift_balanced: bool
    rows_match: bool

    @property
    def equivalent(self) -> bool:
        return self.base_balanced == self.lift_balanced

    @property
    def holds(self) -> bool:
        return self.equivalent and self.rows_match


def verify_lift(
    net: ReactionNetwork,
    g: ReactionGraph,
    kappa: Sequence | None,
    x: Sequence,
) -> LiftVerification:
    """Check the lift correspondence at one positive state.

    Node balance of x for g must coincide with complex balance of the
    replicated state in the lifted network, and the lifted complex-graph
    residual must reproduce the node residual on lifted node complexes
    while vanishing on exchange complexes. Each residual vector is judged
    by the zero rule of ``balance.residual_is_zero``.
    """
    lift = lift_network(net, g)
    base_residual = node_balance_residual(g, mass_action_rates(net, x, kappa))
    lifted_graph = canonical_complex_graph(lift.network)
    lifted_residual = node_balance_residual(
        lifted_graph,
        mass_action_rates(lift.network, lift.replicate(x), lift.lifted_kappa(kappa)),
    )
    row_errors = [
        lifted_residual[cx] - base_residual[node - 1]
        for node, cx in enumerate(lift.node_complex_index, start=1)
    ]
    node_rows = set(lift.node_complex_index)
    row_errors += [r for cx, r in enumerate(lifted_residual) if cx not in node_rows]
    return LiftVerification(
        residual_is_zero(base_residual),
        residual_is_zero(lifted_residual),
        residual_is_zero(row_errors),
    )
