"""Decomposition of a balanced graph along a partition of the reactions.

Splitting the reaction set R into disjoint subsets induces subnetworks
(species and complexes inferred from the kept reactions), per-subset
reaction graphs, and one refined graph of the full network whose balance
is equivalent to simultaneous balance of all the pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .balance import node_balance_residual, residual_is_zero
from .graphs import ReactionGraph, graph_from_partition
from .network import ReactionNetwork, mass_action_rates
from .partitions import AdmissiblePartition


class SplitError(ValueError):
    """Raised on overlapping, empty or out-of-range reaction subsets."""


@dataclass(frozen=True)
class SubnetworkSplit:
    """Disjoint 1-based reaction subsets; the unnamed rest forms the complement."""

    network: ReactionNetwork
    subsets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "subsets", tuple(tuple(sorted(s)) for s in self.subsets)
        )
        seen: set[int] = set()
        for subset in self.subsets:
            if not subset:
                raise SplitError("empty reaction subset")
            for j in subset:
                if not 1 <= j <= self.network.p:
                    raise SplitError(f"reaction index {j} outside 1..{self.network.p}")
                if j in seen:
                    raise SplitError(f"reaction r{j} appears in two subsets")
                seen.add(j)

    @cached_property
    def complement(self) -> tuple[int, ...]:
        named = {j for s in self.subsets for j in s}
        return tuple(j for j in range(1, self.network.p + 1) if j not in named)

    @cached_property
    def parts(self) -> tuple[tuple[int, ...], ...]:
        """The subsets plus the complement (when nonempty), in order."""
        if self.complement:
            return self.subsets + (self.complement,)
        return self.subsets


@dataclass(frozen=True)
class Subnetwork:
    """Network generated by a reaction subset, with maps back to the parent."""

    parent: ReactionNetwork
    network: ReactionNetwork
    reaction_indices: tuple[int, ...]
    species_indices: tuple[int, ...]


def subnetwork(net: ReactionNetwork, reactions: Sequence[int]) -> Subnetwork:
    """The subnetwork generated by the given 1-based reaction indices."""
    indices = tuple(sorted(set(reactions)))
    if not indices:
        raise SplitError("a subnetwork needs at least one reaction")
    for j in indices:
        if not 1 <= j <= net.p:
            raise SplitError(f"reaction index {j} outside 1..{net.p}")
    kept = [net.reactions[j - 1] for j in indices]
    species_indices = tuple(
        i
        for i in range(net.n)
        if any(net.complexes[c].coeffs[i] for r in kept for c in (r.source, r.target))
    )

    def project(c: int) -> tuple[int, ...]:
        return tuple(net.complexes[c].coeffs[i] for i in species_indices)

    sub = ReactionNetwork.assemble(
        tuple(net.species[i] for i in species_indices),
        ((project(r.source), project(r.target), r.rate) for r in kept),
    )
    return Subnetwork(net, sub, indices, species_indices)


@dataclass(frozen=True)
class InducedPart:
    """One reaction subset with its subnetwork and induced reaction graph."""

    reactions: tuple[int, ...]
    subnetwork: Subnetwork
    graph: ReactionGraph


@dataclass(frozen=True)
class InducedGraphs:
    """Per-part graphs plus the refined union graph on the full network."""

    parts: tuple[InducedPart, ...]
    union_graph: ReactionGraph

    @property
    def non_reversible_parts(self) -> tuple[int, ...]:
        """1-based indices of parts whose induced graph blocks joint balance."""
        return tuple(
            i for i, part in enumerate(self.parts, start=1)
            if not part.graph.is_weakly_reversible
        )

    @property
    def jointly_balanceable(self) -> bool:
        """False forces C_{G_i} v > 0 somewhere: no positive state can be
        balanced for every part simultaneously, whatever kappa is."""
        return not self.non_reversible_parts


def induced_graphs(g: ReactionGraph, split: SubnetworkSplit) -> InducedGraphs:
    """Subset-induced reaction graphs and the refined union graph.

    The union graph's partition intersects each block of g's partition
    with the split indices of one part, so the original graph is always
    a coarsening of it.
    """
    net = g.network
    if split.network != net:
        raise SplitError("split belongs to a different network")
    block_of = g.partition.block_of
    parts: list[InducedPart] = []
    refined: dict[tuple[int, int], list[int]] = {}
    for i, subset in enumerate(split.parts):
        sub = subnetwork(net, subset)
        block_map: dict[int, list[int]] = {}
        for k, j in enumerate(sub.reaction_indices):
            # translate roles, not positions: a reversible pair may lose its partner
            roles = (
                (net.split_sources[j - 1], sub.network.split_sources[k]),
                (net.split_targets[j - 1], sub.network.split_targets[k]),
            )
            for original, translated in roles:
                node = block_of[original]
                block_map.setdefault(node, []).append(translated)
                refined.setdefault((node, i), []).append(original)
        blocks = tuple(tuple(block_map[b]) for b in sorted(block_map))
        part_graph = graph_from_partition(
            sub.network, AdmissiblePartition(sub.network, blocks)
        )
        parts.append(InducedPart(sub.reaction_indices, sub, part_graph))

    blocks = tuple(tuple(sorted(b)) for b in refined.values())
    union = graph_from_partition(
        net, AdmissiblePartition(net, blocks).canonical()
    )
    return InducedGraphs(tuple(parts), union)


@dataclass(frozen=True)
class DecompositionCheck:
    """Three views of simultaneous balance; they agree identically."""

    whole_and_subsets: bool
    union_graph: bool
    all_parts: bool

    @property
    def agree(self) -> bool:
        return self.whole_and_subsets == self.union_graph == self.all_parts

    @property
    def balanced(self) -> bool:
        return self.union_graph


def decomposition_check(
    net: ReactionNetwork,
    g: ReactionGraph,
    split: SubnetworkSplit,
    kappa: Sequence | None,
    x: Sequence,
) -> DecompositionCheck:
    """Equivalent balance verdicts for a state under a reaction split.

    Checks (a) balance of the whole graph plus each named subset's graph,
    (b) balance of the refined union graph, (c) balance of every part
    including the complement, all at one rate vector v(x). Each verdict
    follows the zero rule of ``balance.residual_is_zero``.
    """
    if g.network != net:  # v is read with net's reactions, the residuals with g's
        raise ValueError("graph belongs to a different network")
    induced = induced_graphs(g, split)
    v = mass_action_rates(net, x, kappa)

    def balanced(graph: ReactionGraph, rates: Sequence) -> bool:
        return residual_is_zero(node_balance_residual(graph, rates))

    whole = balanced(g, v)
    part_balanced = [
        balanced(part.graph, [v[j - 1] for j in part.reactions]) for part in induced.parts
    ]
    named = part_balanced[: len(split.subsets)]
    union = balanced(induced.union_graph, v)
    return DecompositionCheck(
        whole_and_subsets=whole and all(named),
        union_graph=union,
        all_parts=all(part_balanced),
    )
