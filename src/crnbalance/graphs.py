"""Reaction graphs: labeled digraphs with one edge per reaction.

A graph is determined by an admissible partition; nodes are the blocks
in order, labels are the shared complex of each block, and reaction r_j
contributes the edge from the node holding its source split index to the
node holding its target split index. Node and reaction indices are
1-based throughout the public surface (matrix rows/columns are the usual
0-based Python lists).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .network import ReactionNetwork
from .partitions import AdmissiblePartition, refines


class StepKind(Enum):
    SAME_COMPONENT = "SameComponent"
    DIFFERENT_COMPONENTS = "DifferentComponents"


@dataclass(frozen=True)
class ReactionGraph:
    network: ReactionNetwork
    partition: AdmissiblePartition
    labels: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        """Node count."""
        return len(self.labels)

    def label_vector(self, node: int) -> tuple[int, ...]:
        """Coefficient vector of the complex labeling a (1-based) node."""
        return self.network.complexes[self.labels[node - 1]].coeffs

    @cached_property
    def incidence_matrix(self) -> tuple[tuple[int, ...], ...]:
        """m x p matrix C_G; column j has -1 at the source node, +1 at the target."""
        rows = [[0] * self.network.p for _ in range(self.m)]
        for j, (a, b) in enumerate(self.edges):
            rows[a - 1][j] -= 1
            rows[b - 1][j] += 1
        return tuple(tuple(r) for r in rows)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Weakly connected components as sorted node tuples, ordered by smallest node."""
        # union-find whose root is each set's smallest node, so every parent
        # is below its child: one ascending pass resolves all roots, and
        # groups come out sorted and in order of their smallest node
        m = self.m
        root = list(range(m + 1))
        for a, b in self.edges:
            while root[a] != a:
                root[a] = root[root[a]]
                a = root[a]
            while root[b] != b:
                root[b] = root[root[b]]
                b = root[b]
            if a < b:
                root[b] = a
            elif b < a:
                root[a] = b
        groups: dict[int, list[int]] = {}
        for node in range(1, m + 1):
            r = root[root[node]]
            root[node] = r
            groups.setdefault(r, []).append(node)
        return tuple(map(tuple, groups.values()))

    @property
    def n_components(self) -> int:
        return len(self.components)

    @cached_property
    def component_of(self) -> tuple[int, ...]:
        """1-based component id per node (index node-1)."""
        out = [0] * self.m
        for cid, comp in enumerate(self.components, start=1):
            for node in comp:
                out[node - 1] = cid
        return tuple(out)

    @cached_property
    def strong_components(self) -> tuple[tuple[int, ...], ...]:
        """Strongly connected components as sorted node tuples, ordered by smallest node.

        The component of a node is what it reaches along the edges
        intersected with what it reaches against them; taking the nodes in
        ascending order, each new component starts at its smallest node.
        """
        succ: list[list[int]] = [[] for _ in range(self.m + 1)]
        pred: list[list[int]] = [[] for _ in range(self.m + 1)]
        for a, b in self.edges:
            succ[a].append(b)
            pred[b].append(a)

        def reach(start: int, adjacent: list[list[int]]) -> set[int]:
            seen = {start}
            stack = [start]
            while stack:
                for nxt in adjacent[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return seen

        placed: set[int] = set()
        comps = []
        for node in range(1, self.m + 1):
            if node not in placed:
                comp = reach(node, succ) & reach(node, pred)
                placed |= comp
                comps.append(tuple(sorted(comp)))
        return tuple(comps)

    @cached_property
    def is_weakly_reversible(self) -> bool:
        """True iff every connected component is strongly connected.

        Every node has an edge and no edge is a loop, so a node without an
        in-edge or an out-edge lies on no cycle and splits its component:
        that degree test answers most graphs without the SCC pass. Past
        it, each weak component is a union of strong ones, so the counts
        agree exactly when no weak component splits.
        """
        m = self.m
        if len({a for a, _ in self.edges}) < m or len({b for _, b in self.edges}) < m:
            return False
        return len(self.strong_components) == self.n_components

    @cached_property
    def deficiency(self) -> int:
        value = self.m - self.n_components - self.network.rank
        assert value >= 0, f"negative deficiency {value}"
        return value

    def join_kind(self, i1: int, i2: int) -> StepKind:
        """The step kind of joining nodes i1 and i2; raises unless they can join."""
        for i in (i1, i2):
            if not 1 <= i <= self.m:
                raise ValueError(f"node {i} out of range 1..{self.m}")
        if i1 == i2:
            raise ValueError(f"cannot join node {i1} with itself")
        if self.labels[i1 - 1] != self.labels[i2 - 1]:
            a = self.network.complexes[self.labels[i1 - 1]].format(self.network.species)
            b = self.network.complexes[self.labels[i2 - 1]].format(self.network.species)
            raise ValueError(f"nodes {i1} ({a}) and {i2} ({b}) have different labels")
        if self.component_of[i1 - 1] == self.component_of[i2 - 1]:
            return StepKind.SAME_COMPONENT
        return StepKind.DIFFERENT_COMPONENTS


@dataclass(frozen=True)
class GraphMorphism:
    """Node map from a finer graph onto a coarser one (label and edge preserving)."""

    source: ReactionGraph
    target: ReactionGraph
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        src, tgt = self.source, self.target
        if len(self.mapping) != src.m:
            raise ValueError(f"mapping has {len(self.mapping)} entries for {src.m} nodes")
        if set(self.mapping) != set(range(1, tgt.m + 1)):
            raise ValueError("morphism is not onto the target nodes")
        for node in range(1, src.m + 1):
            if src.labels[node - 1] != tgt.labels[self.mapping[node - 1] - 1]:
                raise ValueError(f"morphism breaks the label of node {node}")
        for j, (a, b) in enumerate(src.edges):
            image = (self.mapping[a - 1], self.mapping[b - 1])
            if image != tgt.edges[j]:
                raise ValueError(f"morphism breaks edge r{j + 1}: {image} != {tgt.edges[j]}")

    def __call__(self, node: int) -> int:
        return self.mapping[node - 1]

    @cached_property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """0/1 matrix B with C_target = B C_source."""
        rows = [[0] * self.source.m for _ in range(self.target.m)]
        for node, image in enumerate(self.mapping, start=1):
            rows[image - 1][node - 1] = 1
        return tuple(tuple(r) for r in rows)


def graph_from_partition(net: ReactionNetwork, partition: AdmissiblePartition) -> ReactionGraph:
    """The reaction graph named by an admissible partition (blocks in given order)."""
    if partition.network != net:
        raise ValueError("partition belongs to a different network")
    labels_by_index = net.split_labels
    node_labels = tuple(labels_by_index[block[0] - 1] for block in partition.blocks)
    lookup = partition.block_of
    edges = tuple((lookup[s], lookup[t]) for s, t in zip(net.split_sources, net.split_targets))
    return ReactionGraph(net, partition, node_labels, edges)


def canonical_split_graph(net: ReactionNetwork) -> ReactionGraph:
    """Finest graph: every split index its own node (2p nodes, p components)."""
    blocks = tuple((i,) for i in range(1, 2 * net.p + 1))
    return graph_from_partition(net, AdmissiblePartition(net, blocks))


def canonical_complex_graph(net: ReactionNetwork) -> ReactionGraph:
    """Coarsest graph: one node per complex, in network numbering."""
    return graph_from_partition(net, AdmissiblePartition(net, net.split_classes))


def detailed_graph(net: ReactionNetwork) -> ReactionGraph:
    """One 2-node component per reversible pair, one per irreversible reaction."""
    # a reverse reaction's source joins the target of the reaction it reverses
    root = list(range(2 * net.p + 1))
    for b, rev in enumerate(net.reverse_index):
        if rev is not None:
            root[net.split_sources[b]] = net.split_targets[rev]
            root[net.split_targets[b]] = net.split_sources[rev]
    blocks: dict[int, list[int]] = {}
    for idx in range(1, 2 * net.p + 1):
        blocks.setdefault(root[idx], []).append(idx)
    ordered = tuple(tuple(b) for b in blocks.values())  # entered at their smallest index
    return graph_from_partition(net, AdmissiblePartition(net, ordered))


def equivalent(g1: ReactionGraph, g2: ReactionGraph) -> bool:
    """Graph equivalence: same network and same partition up to block order."""
    return g1.partition.same_partition(g2.partition)


def inclusion_morphism(g_small: ReactionGraph, g_big: ReactionGraph) -> GraphMorphism:
    """The collapse map V(g_big) -> V(g_small) when g_small <= g_big.

    g_small <= g_big means g_big's partition refines g_small's; the map
    sends each block of g_big to the block of g_small containing it.
    """
    if not refines(g_big.partition, g_small.partition):
        raise ValueError("not ordered: the bigger graph's partition must refine the smaller's")
    lookup = g_small.partition.block_of
    mapping = tuple(lookup[block[0]] for block in g_big.partition.blocks)
    return GraphMorphism(g_big, g_small, mapping)


def join_nodes(g: ReactionGraph, i1: int, i2: int) -> tuple[ReactionGraph, StepKind]:
    """Merge two equally labeled nodes; returns the coarser graph and the step kind.

    SAME_COMPONENT drops the deficiency by one, DIFFERENT_COMPONENTS
    keeps it. The resulting graph's blocks are canonically reordered.
    """
    kind = g.join_kind(i1, i2)
    merged = tuple(sorted(g.partition.blocks[i1 - 1] + g.partition.blocks[i2 - 1]))
    rest = [b for k, b in enumerate(g.partition.blocks) if k not in (i1 - 1, i2 - 1)]
    blocks = tuple(sorted(rest + [merged], key=min))
    return graph_from_partition(g.network, AdmissiblePartition(g.network, blocks)), kind
