"""Seeded inputs for the four workloads.

Nothing here imports crnbalance: networks are produced as ``.crn`` text
plus the benchmark's own description of them (complex vectors per
reaction), graphs as lists of split-index blocks, and rate vectors as
exact Fractions. The same seed always gives the same inputs.

Split-index convention (the input format of a partition): reaction j
(1-based) owns split indices 2j-1 and 2j. If reaction j reverses an
earlier reaction, 2j-1 carries its target and 2j its source; otherwise
2j-1 carries the source and 2j the target.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

# ---------------------------------------------------------------- networks


@dataclass(frozen=True)
class Net:
    """A network as the benchmark knows it: reactions as complex vectors."""

    species: tuple[str, ...]
    reactions: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def n(self) -> int:
        return len(self.species)

    @property
    def p(self) -> int:
        return len(self.reactions)

    def reverse_of(self, j: int) -> int | None:
        """0-based index of the earlier reaction that reaction j reverses."""
        src, tgt = self.reactions[j]
        for f in range(j):
            if self.reactions[f] == (tgt, src):
                return f
        return None

    def source_index(self, j: int) -> int:
        """1-based split index of reaction j's source (j 0-based)."""
        return 2 * j + 2 if self.reverse_of(j) is not None else 2 * j + 1

    def target_index(self, j: int) -> int:
        return 2 * j + 1 if self.reverse_of(j) is not None else 2 * j + 2

    def split_labels(self) -> list[tuple[int, ...]]:
        """Complex vector carried by split index i, at position i-1."""
        labels: list[tuple[int, ...]] = [()] * (2 * self.p)
        for j, (src, tgt) in enumerate(self.reactions):
            labels[self.source_index(j) - 1] = src
            labels[self.target_index(j) - 1] = tgt
        return labels

    def text(self) -> str:
        """The network in the .crn format, one reaction per line, rates k1..kp."""
        lines = ["species: " + " ".join(self.species)]
        for j, (src, tgt) in enumerate(self.reactions, start=1):
            lines.append(f"r{j}: {self._fmt(src)} -> {self._fmt(tgt)} @ k{j}")
        return "\n".join(lines) + "\n"

    def _fmt(self, vec: tuple[int, ...]) -> str:
        parts = [s if c == 1 else f"{c} {s}" for s, c in zip(self.species, vec) if c]
        return " + ".join(parts) if parts else "0"

    def stoichiometry(self) -> list[list[int]]:
        """n x p integer matrix, column j = target_j - source_j."""
        return [
            [tgt[i] - src[i] for src, tgt in self.reactions] for i in range(self.n)
        ]


def _mono(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(n))


def _net(species: str, reactions: list[tuple[tuple[int, ...], tuple[int, ...]]]) -> Net:
    return Net(tuple(species.split()), tuple(reactions))


# The three fixed networks of the package's examples, kept here so that a
# change to the test data cannot change a workload.
AB = _net("A B", [((1, 0), (0, 1)), ((0, 1), (1, 0))])
RUNNING = _net(
    "X1 X2",
    [
        ((3, 0), (1, 2)),
        ((1, 2), (0, 3)),
        ((0, 3), (2, 1)),
        ((2, 1), (3, 0)),
        ((3, 0), (0, 3)),
        ((0, 3), (3, 0)),
    ],
)
_X = [_mono(4, i) for i in range(4)]
FIG2 = _net(
    "X1 X2 X3 X4",
    [
        (_X[0], _X[1]), (_X[1], _X[0]),
        (_X[2], _X[0]), (_X[0], _X[2]),
        (_X[1], _X[2]), (_X[2], _X[1]),
        (_X[1], _X[3]),
        (_X[3], _X[2]),
    ],
)
# Graph p4 of the running example, used by a fixed dynamics fault case.
P4_BLOCKS = ((1, 8), (2, 3), (4, 5, 10, 12), (6, 7), (9, 11))


# ------------------------------------------------------------------ graphs


@dataclass(frozen=True)
class Graph:
    """A reaction graph as split-index blocks, with its node structure."""

    net: Net
    blocks: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.blocks)

    def node_of(self) -> dict[int, int]:
        return {i: k for k, block in enumerate(self.blocks) for i in block}

    def edges(self) -> list[tuple[int, int]]:
        """0-based (source node, target node) per reaction."""
        node = self.node_of()
        return [
            (node[self.net.source_index(j)], node[self.net.target_index(j)])
            for j in range(self.net.p)
        ]

    def labels(self) -> list[tuple[int, ...]]:
        lab = self.net.split_labels()
        return [lab[block[0] - 1] for block in self.blocks]


def components_and_reversibility(m: int, edges: list[tuple[int, int]]) -> tuple[list[list[int]], bool]:
    """Weak components (sorted node lists, by smallest node), and whether
    every one is strongly connected: each node has an edge in and an edge
    out, and forward and backward search from a node reach its component."""
    parent = list(range(m))
    has_in = [False] * m
    has_out = [False] * m
    for a, b in edges:
        has_out[a] = has_in[b] = True
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[b] = a
    groups: dict[int, list[int]] = {}
    for v in range(m):
        root = v
        while parent[root] != root:
            root = parent[root]
        groups.setdefault(root, []).append(v)
    components = sorted(groups.values())
    if not (all(has_in) and all(has_out)):
        return components, False
    succ: list[list[int]] = [[] for _ in range(m)]
    pred: list[list[int]] = [[] for _ in range(m)]
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)
    strong = all(
        len(_search(comp[0], succ)) == len(comp) == len(_search(comp[0], pred))
        for comp in components
    )
    return components, strong


def _search(start: int, adjacency: list[list[int]]) -> set[int]:
    seen = {start}
    todo = [start]
    while todo:
        for w in adjacency[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]


def weakly_reversible_graphs(net: Net) -> list[Graph]:
    """Every weakly reversible graph of net, blocks ordered by smallest index.

    A node of a weakly reversible graph has an edge out and an edge in, so
    each block must hold a source index and a target index; only those
    label-class partitions are combined and then tested in full.
    """
    sources = {net.source_index(j) for j in range(net.p)}
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, lab in enumerate(net.split_labels(), start=1):
        classes.setdefault(lab, []).append(i)
    options = []
    for members in classes.values():
        options.append([
            part for part in _set_partitions(members)
            if all(any(i in sources for i in b) and any(i not in sources for i in b) for b in part)
        ])
    out = []
    for combo in product(*options):
        blocks = tuple(sorted((tuple(sorted(b)) for part in combo for b in part), key=min))
        g = Graph(net, blocks)
        if components_and_reversibility(g.m, g.edges())[1]:
            out.append(g)
    return out


def cycle_through(g: Graph, j: int) -> list[int]:
    """Reactions of a shortest directed cycle through reaction j."""
    edges = g.edges()
    a, b = edges[j]
    succ: dict[int, list[tuple[int, int]]] = {}
    for k, (s, t) in enumerate(edges):
        succ.setdefault(s, []).append((t, k))
    prev: dict[int, tuple[int, int]] = {}
    queue = deque([b])
    seen = {b}
    while queue:
        node = queue.popleft()
        if node == a:
            break
        for nxt, k in succ.get(node, []):
            if nxt not in seen:
                seen.add(nxt)
                prev[nxt] = (node, k)
                queue.append(nxt)
    cycle = [j]
    cur = a
    while cur != b:
        node, k = prev[cur]
        cycle.append(k)
        cur = node
    return cycle


def rand_fraction(rng: random.Random, top: int = 9) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, top))


def balanced_kappa(
    g: Graph, cycles: list[list[int]], rng: random.Random
) -> tuple[list[Fraction], list[Fraction]]:
    """A rate vector with a known node balanced witness x*.

    A positive combination of directed cycles is a positive flux f with
    C_G f = 0; kappa_j = f_j / x*^(source_j) makes v(x*) = f.
    """
    x_star = [rand_fraction(rng) for _ in range(g.net.n)]
    flux = [Fraction(0)] * g.net.p
    for cycle in cycles:
        w = rng.randint(1, 5)
        for k in cycle:
            flux[k] += w
    kappa = []
    for j, (src, _) in enumerate(g.net.reactions):
        mono = Fraction(1)
        for xi, e in zip(x_star, src):
            mono *= xi**e
        kappa.append(flux[j] / mono)
    return kappa, x_star


# --------------------------------------------------------- lattice inputs

# Label-class sizes (reaction ends per species) of the fig2-shaped
# networks of one lattice round. The admissible count of a shape is the
# product of the Bell numbers of its sizes; the seed only changes which
# species meet and how reactions pair up and are ordered.
LATTICE_SHAPES = (
    (5, 3, 2, 2),       # 1040 graphs
    (4, 4, 3, 1),       # 1125
    (5, 3, 3, 1),       # 1300
    (4, 3, 3, 2, 2),    # 1500
    (4, 4, 2, 2, 2),    # 1800
    (5, 3, 2, 2, 2),    # 2080
    (4, 4, 3, 2, 1),    # 2250
    (4, 4, 4, 2),       # 6750
)


def monomolecular_network(degrees: tuple[int, ...], rng: random.Random) -> Net:
    """A network of single-species complexes with the given end counts.

    Ends are paired at random; a pair of species met twice becomes a
    reversible pair, met once an irreversible reaction of random direction.
    """
    k = len(degrees)
    while True:
        ends = [s for s, d in enumerate(degrees) for _ in range(d)]
        rng.shuffle(ends)
        pairs = [tuple(sorted(ends[i:i + 2])) for i in range(0, len(ends), 2)]
        if any(a == b for a, b in pairs):
            continue
        counts: dict[tuple[int, int], int] = {}
        for pair in pairs:
            counts[pair] = counts.get(pair, 0) + 1
        if max(counts.values()) > 2:
            continue
        reactions = []
        order = list(counts)
        rng.shuffle(order)
        for a, b in order:
            if rng.random() < 0.5:
                a, b = b, a
            reactions.append((_mono(k, a), _mono(k, b)))
            if counts[(min(a, b), max(a, b))] == 2:
                reactions.append((_mono(k, b), _mono(k, a)))
        species = tuple(f"X{i + 1}" for i in range(k))
        return Net(species, tuple(reactions))


def lattice_round(seed: int, rnd: int) -> list[Net]:
    rng = random.Random(f"lattice/{seed}/{rnd}")
    return [monomolecular_network(shape, rng) for shape in LATTICE_SHAPES]


# ----------------------------------------------------- check_batch inputs

@dataclass(frozen=True)
class CheckCase:
    graph: int                      # index into the fixed graph list
    kappa: tuple[Fraction, ...]
    witness: tuple[Fraction, ...] | None   # x* for constructed-balanced kappas


def check_round(
    graphs: list[Graph], cycles: list[list[list[int]]], seed: int, rnd: int
) -> list[CheckCase]:
    rng = random.Random(f"check/{seed}/{rnd}")
    cases = []
    for gi, g in enumerate(graphs):
        kappa, x_star = balanced_kappa(g, cycles[gi], rng)
        cases.append(CheckCase(gi, tuple(kappa), tuple(x_star)))
        random_kappa = tuple(rand_fraction(rng) for _ in range(g.net.p))
        cases.append(CheckCase(gi, random_kappa, None))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------- fresh_graphs inputs

# Graphs of one fresh_graphs round: (species, component sizes, chords per
# component of three or more nodes, distinct complexes to label from). A
# small label pool repeats complexes, which raises the deficiency and the
# number of same-label node pairs; large components have many in-trees.
FRESH_SHAPES = (
    (2, (4,), 1, 4),
    (2, (3, 2), 1, 4),
    (2, (6,), 2, 5),
    (3, (3, 2), 1, 5),
    (2, (7,), 2, 5),
    (3, (4, 3), 1, 6),
    (2, (8,), 3, 6),
    (3, (5, 3), 2, 7),
)


@dataclass(frozen=True)
class FreshCase:
    graph: Graph
    kappa_balanced: tuple[Fraction, ...]
    witness: tuple[Fraction, ...]
    kappa_random: tuple[Fraction, ...]
    split: tuple[int, ...]          # 1-based reactions of the named subset


def random_wr_graph(n_species: int, sizes: tuple[int, ...], chords: int, pool_size: int,
                    rng: random.Random) -> Graph:
    """A weakly reversible graph whose components are directed cycles with chords.

    Labels are drawn from a pool of distinct nonzero complexes with
    coefficients 0..2; a draw is rejected when an edge would be a
    self-loop, two edges would carry the same complex pair, or a species
    would appear in no label.
    """
    m = sum(sizes)
    complexes = [c for c in product(range(3), repeat=n_species) if any(c)]
    while True:
        nodes = list(range(m))
        rng.shuffle(nodes)
        groups = []
        for size in sizes:
            groups.append(nodes[:size])
            nodes = nodes[size:]
        pool = rng.sample(complexes, pool_size)
        labels = [pool[rng.randrange(pool_size)] for _ in range(m)]
        edges = []
        for group in groups:
            edges += [(group[i], group[(i + 1) % len(group)]) for i in range(len(group))]
            added = 0
            while len(group) >= 3 and added < chords:
                a, b = rng.sample(group, 2)
                if (a, b) not in edges:
                    edges.append((a, b))
                    added += 1
        pairs = [(labels[a], labels[b]) for a, b in edges]
        if any(s == t for s, t in pairs) or len(set(pairs)) != len(pairs):
            continue
        if not all(any(lab[i] for lab in labels) for i in range(n_species)):
            continue
        species = tuple(f"S{i + 1}" for i in range(n_species))
        net = Net(species, tuple(pairs))
        blocks: list[list[int]] = [[] for _ in range(m)]
        for j, (a, b) in enumerate(edges):
            blocks[a].append(net.source_index(j))
            blocks[b].append(net.target_index(j))
        ordered = tuple(sorted((tuple(sorted(b)) for b in blocks), key=min))
        return Graph(net, ordered)


def fresh_round(seed: int, rnd: int) -> list[FreshCase]:
    rng = random.Random(f"fresh/{seed}/{rnd}")
    cases = []
    for n_species, sizes, chords, pool_size in FRESH_SHAPES:
        g = random_wr_graph(n_species, sizes, chords, pool_size, rng)
        cycles = [cycle_through(g, j) for j in range(g.net.p)]
        kappa, x_star = balanced_kappa(g, cycles, rng)
        random_kappa = tuple(rand_fraction(rng) for _ in range(g.net.p))
        p = g.net.p
        size = rng.randint(1, p - 1)
        split = tuple(sorted(rng.sample(range(1, p + 1), size)))
        cases.append(FreshCase(g, tuple(kappa), tuple(x_star), random_kappa, split))
    return cases


# -------------------------------------------------------- dynamics inputs

# Seeded systems per round on each network, then the fixed fault cases.
# ``simulate`` raises "step size underflow" when t_end is a whole number of
# its default fixed steps and the summed steps fall a rounding error short
# of t_end; seeded systems end half a step past a whole number, and one
# fixed case keeps the fault in view.
SEEDED_STEPS = 1000.5
DYNAMICS_MIX = (("ab", 8), ("running", 16), ("fig2", 24))
DYNAMICS_NETS = {"ab": AB, "running": RUNNING, "fig2": FIG2}


@dataclass(frozen=True)
class DynCase:
    name: str
    graph: Graph
    kappa: tuple[Fraction, ...]
    x0: tuple[float, ...]
    expect_balanced: bool   # False: the exact verdict is "not balanced"
    fault: str | None       # the fault a fixed case waits on, None if seeded
    steps: float = SEEDED_STEPS  # t_end in default fixed steps (1e-3 / scale)


def dynamics_round(wr: dict[str, list[Graph]], seed: int, rnd: int) -> list[DynCase]:
    rng = random.Random(f"dynamics/{seed}/{rnd}")
    cases = []
    for name, count in DYNAMICS_MIX:
        for _ in range(count):
            g = wr[name][rng.randrange(len(wr[name]))]
            cycles = [cycle_through(g, j) for j in range(g.net.p)]
            kappa, _ = balanced_kappa(g, cycles, rng)
            x0 = tuple(rng.uniform(0.5, 2.0) for _ in range(g.net.n))
            cases.append(DynCase(name, g, tuple(kappa), x0, True, None))
    rng.shuffle(cases)
    return cases + fault_cases()


def fault_cases() -> list[DynCase]:
    """Fixed inputs that fail every time today; they do not depend on the seed.

    The balanced kappa of the running example's complex graph (witness
    x* = (1, 1), unit cycle weights) scaled by 1e200 and by 1e-200; a
    kappa that is 1e-12 away from balance on graph p4; and the unscaled
    kappa simulated for exactly 1000 default fixed steps.
    """
    complex_graph = Graph(RUNNING, _complex_blocks(RUNNING))
    cycles = [cycle_through(complex_graph, j) for j in range(RUNNING.p)]
    flux = [Fraction(0)] * RUNNING.p
    for cycle in cycles:
        for k in cycle:
            flux[k] += 1
    big, tiny = Fraction(10) ** 200, Fraction(1, 10**200)
    p4 = Graph(RUNNING, P4_BLOCKS)
    near = (Fraction(1000000000001, 1000000000000), 1, 1, 1, 2, 2)
    x0 = (1.0, 2.0)
    return [
        DynCase("running", complex_graph, tuple(f * big for f in flux), x0, True,
                "kappa x 1e200: birch_point raises OverflowError"),
        DynCase("running", complex_graph, tuple(f * tiny for f in flux), x0, True,
                "kappa x 1e-200: birch_point raises ValueError (math domain error)"),
        DynCase("running", p4, tuple(Fraction(k) for k in near), x0, False,
                "kappa 1e-12 off balance on p4: birch_point returns a point"),
        DynCase("running", complex_graph, tuple(flux), x0, True,
                "t_end of 1000 fixed steps: simulate raises SimulationError", 1000.0),
    ]


def _complex_blocks(net: Net) -> tuple[tuple[int, ...], ...]:
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, lab in enumerate(net.split_labels(), start=1):
        classes.setdefault(lab, []).append(i)
    return tuple(sorted((tuple(v) for v in classes.values()), key=min))
