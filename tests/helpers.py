"""Seeded random generators shared by the unit and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction

from crnbalance import (
    AdmissiblePartition,
    Complex,
    Reaction,
    ReactionGraph,
    ReactionNetwork,
    graph_from_partition,
    positive_kernel_flux,
)


def random_fraction(rng: random.Random, max_num: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_kappa(rng: random.Random, p: int) -> list[Fraction]:
    return [random_fraction(rng) for _ in range(p)]


def _random_complex_pool(rng: random.Random, n_species: int, count: int) -> list[tuple[int, ...]]:
    pool: set[tuple[int, ...]] = set()
    guard = 0
    while len(pool) < count:
        guard += 1
        if guard > 1000:
            break
        pool.add(tuple(rng.randint(0, 3) for _ in range(n_species)))
    return sorted(pool)


def _network_from_labeled_edges(
    n_species: int,
    node_labels: list[tuple[int, ...]],
    edges: list[tuple[int, int]],
) -> tuple[ReactionNetwork, list[tuple[int, int]]]:
    """Build the network whose j-th reaction realizes the j-th node edge."""
    used_species = [
        i for i in range(n_species) if any(lab[i] for lab in node_labels)
    ]
    species = tuple(f"S{i + 1}" for i in range(len(used_species)))
    complexes: list[Complex] = []
    index: dict[tuple[int, ...], int] = {}

    def intern(label: tuple[int, ...]) -> int:
        key = tuple(label[i] for i in used_species)
        if key not in index:
            index[key] = len(complexes)
            complexes.append(Complex(key))
        return index[key]

    reactions = [
        Reaction(intern(node_labels[a - 1]), intern(node_labels[b - 1]), Fraction(1))
        for a, b in edges
    ]
    net = ReactionNetwork(species, tuple(complexes), tuple(reactions))
    return net, edges


def random_wr_graph(
    rng: random.Random, max_species: int = 3, max_nodes: int = 8
) -> ReactionGraph:
    """A random weakly reversible reaction graph.

    Nodes are split into groups, each wired as a directed cycle plus a
    few chords, so every weak component is strongly connected by
    construction. Labels may repeat across nodes as long as no edge
    becomes a self-loop and no two edges carry the same complex pair.
    """
    while True:
        n_species = rng.randint(1, max_species)
        m = rng.randint(2, max_nodes)
        nodes = list(range(1, m + 1))
        rng.shuffle(nodes)
        groups: list[list[int]] = []
        while nodes:
            if len(nodes) < 4:
                take = len(nodes)
            else:
                take = rng.randint(2, len(nodes))
                if len(nodes) - take == 1:
                    take += 1
            groups.append(nodes[:take])
            nodes = nodes[take:]

        pool = _random_complex_pool(rng, n_species, max(2, rng.randint(2, m + 1)))
        if len(pool) < 2:
            continue
        labels = [pool[rng.randrange(len(pool))] for _ in range(m)]

        edges: list[tuple[int, int]] = []
        for group in groups:
            cycle = [(group[i], group[(i + 1) % len(group)]) for i in range(len(group))]
            edges.extend(cycle)
            for _ in range(rng.randint(0, 2)):
                if len(group) < 3:
                    break
                a, b = rng.sample(group, 2)
                if (a, b) not in edges:
                    edges.append((a, b))

        pairs = [(labels[a - 1], labels[b - 1]) for a, b in edges]
        if any(src == tgt for src, tgt in pairs) or len(set(pairs)) != len(pairs):
            continue

        net, _ = _network_from_labeled_edges(n_species, labels, edges)
        blocks: dict[int, list[int]] = {v: [] for v in range(1, m + 1)}
        for j, (a, b) in enumerate(edges, start=1):
            blocks[a].append(net.split_sources[j - 1])
            blocks[b].append(net.split_targets[j - 1])
        part = AdmissiblePartition(net, tuple(tuple(sorted(v)) for v in blocks.values()))
        graph = graph_from_partition(net, part)
        assert graph.edges == tuple(edges)
        return graph


def random_network(
    rng: random.Random, max_species: int = 4, max_reactions: int = 8
) -> ReactionNetwork:
    """A random valid network, not necessarily weakly reversible."""
    while True:
        n_species = rng.randint(1, max_species)
        pool = _random_complex_pool(rng, n_species, rng.randint(2, 6))
        if len(pool) < 2:
            continue
        n_reactions = rng.randint(1, max_reactions)
        possible = [
            (a, b)
            for a in range(len(pool))
            for b in range(len(pool))
            if a != b
        ]
        rng.shuffle(possible)
        chosen = possible[:n_reactions]
        if not chosen:
            continue
        used = sorted({c for pair in chosen for c in pair})
        relabel = {c: i for i, c in enumerate(used)}
        labels = [pool[c] for c in used]
        used_species = [i for i in range(n_species) if any(lab[i] for lab in labels)]
        if not used_species:
            continue
        species = tuple(f"S{i + 1}" for i in range(len(used_species)))
        complexes = tuple(
            Complex(tuple(lab[i] for i in used_species)) for lab in labels
        )
        reactions = tuple(
            Reaction(relabel[a], relabel[b], Fraction(1)) for a, b in chosen
        )
        return ReactionNetwork(species, complexes, reactions)


def random_reversible_network(
    rng: random.Random, max_species: int = 3, max_pairs: int = 5
) -> ReactionNetwork:
    """A random fully reversible network: each reaction is followed by its reverse."""
    while True:
        n_species = rng.randint(1, max_species)
        pool = _random_complex_pool(rng, n_species, rng.randint(2, 6))
        candidates = [(a, b) for a in range(len(pool)) for b in range(a + 1, len(pool))]
        if not candidates:
            continue
        chosen = rng.sample(candidates, rng.randint(1, min(max_pairs, len(candidates))))
        used = sorted({c for pair in chosen for c in pair})
        used_species = [i for i in range(n_species) if any(pool[c][i] for c in used)]
        if not used_species:
            continue
        relabel = {c: k for k, c in enumerate(used)}
        complexes = tuple(Complex(tuple(pool[c][i] for i in used_species)) for c in used)
        reactions = []
        for a, b in chosen:
            reactions.append(Reaction(relabel[a], relabel[b], Fraction(1)))
            reactions.append(Reaction(relabel[b], relabel[a], Fraction(1)))
        species = tuple(f"S{i + 1}" for i in range(len(used_species)))
        return ReactionNetwork(species, complexes, tuple(reactions))


def random_partition(rng: random.Random, net: ReactionNetwork) -> AdmissiblePartition:
    """A random admissible partition of the network's split indices."""
    labels = net.split_labels
    by_label: dict[int, list[int]] = {}
    for idx, lab in enumerate(labels, start=1):
        by_label.setdefault(lab, []).append(idx)
    blocks: list[list[int]] = []
    for members in by_label.values():
        class_blocks: list[list[int]] = []
        for idx in members:
            pick = rng.randrange(len(class_blocks) + 1)
            if pick == len(class_blocks):
                class_blocks.append([idx])
            else:
                class_blocks[pick].append(idx)
        blocks.extend(class_blocks)
    part = AdmissiblePartition(net, tuple(tuple(b) for b in blocks))
    return part.canonical()


def random_coarsening(
    rng: random.Random, net: ReactionNetwork, part: AdmissiblePartition
) -> AdmissiblePartition:
    """Merge a few same-class block pairs of part (possibly none)."""
    labels = net.split_labels
    blocks = [list(b) for b in part.blocks]
    for _ in range(rng.randint(0, 3)):
        by_label: dict[int, list[int]] = {}
        for i, block in enumerate(blocks):
            by_label.setdefault(labels[block[0] - 1], []).append(i)
        mergeable = [v for v in by_label.values() if len(v) >= 2]
        if not mergeable:
            break
        group = mergeable[rng.randrange(len(mergeable))]
        i, j = rng.sample(group, 2)
        blocks[i] = sorted(blocks[i] + blocks[j])
        del blocks[j]
    part2 = AdmissiblePartition(net, tuple(tuple(b) for b in blocks))
    return part2.canonical()


def _kappa_at_random_state(
    rng: random.Random, net: ReactionNetwork, flux: list[Fraction]
) -> tuple[list[Fraction], tuple[Fraction, ...]]:
    """A positive rational state x* and kappa_j = flux_j / x*^(source_j), so
    that the mass-action rates at x* equal the flux."""
    x_star = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(net.n))
    kappa = []
    for j, r in enumerate(net.reactions):
        denom = Fraction(1)
        for xv, e in zip(x_star, net.complexes[r.source].coeffs):
            denom *= xv**e
        kappa.append(flux[j] / denom)
    return kappa, x_star


def balanced_kappa(
    rng: random.Random, graph: ReactionGraph
) -> tuple[list[Fraction], tuple[Fraction, ...]]:
    """Exact rate constants node balanced for graph, plus their witness state.

    Draws a positive kernel flux of the incidence matrix and a positive
    rational state x*, then sets kappa_j = flux_j / x*^(source_j) so the
    mass-action rates at x* equal the flux.
    """
    weights = [random_fraction(rng) for _ in range(graph.network.p)]
    return _kappa_at_random_state(rng, graph.network, positive_kernel_flux(graph, weights))


def long_cycle(graph: ReactionGraph) -> list[int] | None:
    """Edge indices of a directed cycle of length >= 3, or None if there is none."""
    for j, (a, b) in enumerate(graph.edges):
        # breadth-first path b -> a that does not take an edge b -> a
        via: dict[int, int | None] = {b: None}
        queue = [b]
        while queue and a not in via:
            node = queue.pop(0)
            for k, (s, t) in enumerate(graph.edges):
                if s == node and t not in via and (s, t) != (b, a):
                    via[t] = k
                    queue.append(t)
        if a in via:
            cycle, node = [j], a
            while node != b:
                cycle.append(via[node])
                node = graph.edges[via[node]][0]
            return cycle
    return None


def circulating_kappa(
    rng: random.Random, graph: ReactionGraph
) -> tuple[list[Fraction], tuple[Fraction, ...]] | None:
    """Like balanced_kappa, with a positive multiple of a directed cycle of
    length >= 3 added to the flux; None when graph has no such cycle.

    On the complex graph of a reversible network the flux is then no
    longer symmetric, so kappa is complex balanced but in general not
    detailed balanced (balanced_kappa's flux there is symmetric).
    """
    cycle = long_cycle(graph)
    if cycle is None:
        return None
    weights = [random_fraction(rng) for _ in range(graph.network.p)]
    flux = positive_kernel_flux(graph, weights)
    extra = random_fraction(rng)
    for j in cycle:
        flux[j] += extra
    return _kappa_at_random_state(rng, graph.network, flux)
