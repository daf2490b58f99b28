"""Reaction graphs: construction, components, deficiency, morphisms."""

from __future__ import annotations

import random

import pytest

import helpers
import oracles
from crnbalance import (
    AdmissiblePartition,
    GraphMorphism,
    ReactionGraph,
    StepKind,
    canonical_complex_graph,
    canonical_split_graph,
    detailed_graph,
    enumerate_admissible_partitions,
    equivalent,
    graph_from_partition,
    inclusion_morphism,
    join_nodes,
    lift_network,
    parse_network,
    ratmat,
)


def test_table1_edges(table1):
    assert table1[1].edges == ((1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (3, 1))
    assert table1[2].edges == ((1, 2), (2, 3), (3, 4), (4, 5), (5, 3), (3, 1))
    assert table1[3].edges == ((1, 2), (2, 3), (6, 4), (4, 5), (5, 6), (3, 1))
    assert table1[4].edges == ((1, 2), (2, 3), (3, 4), (4, 1), (5, 3), (3, 5))


def test_table1_deficiency_and_reversibility(table1):
    assert [table1[i].deficiency for i in range(1, 8)] == [2, 3, 3, 3, 5, 4, 5]
    assert [table1[i].is_weakly_reversible for i in range(1, 8)] == [
        True, True, True, True, False, False, False,
    ]


def test_named_graphs_match_table1(running, table1):
    assert equivalent(canonical_complex_graph(running), table1[1])
    assert equivalent(detailed_graph(running), table1[6])
    assert equivalent(canonical_split_graph(running), table1[7])
    assert not equivalent(table1[2], table1[4])


def test_label_vectors(running, table1):
    g4 = table1[4]
    assert g4.label_vector(1) == (3, 0)
    assert g4.label_vector(2) == (1, 2)
    assert g4.label_vector(3) == (0, 3)
    assert g4.label_vector(4) == (2, 1)
    assert g4.label_vector(5) == (3, 0)


def test_incidence_matrix_columns(table1):
    g1 = table1[1]
    cols = ratmat.transpose(g1.incidence_matrix)
    for j, (a, b) in enumerate(g1.edges):
        expected = [0] * g1.m
        expected[a - 1] -= 1
        expected[b - 1] += 1
        assert [int(v) for v in cols[j]] == expected


def test_stoichiometric_matrix_factors_through_incidence(table1):
    # N = Y C_G for every graph of the same network
    for g in table1.values():
        y = [
            [g.label_vector(node)[i] for node in range(1, g.m + 1)]
            for i in range(g.network.n)
        ]
        prod = [ratmat.matvec(ratmat.transpose(g.incidence_matrix), row) for row in y]
        expected = [list(row) for row in g.network.stoichiometric_matrix]
        assert [[int(v) for v in row] for row in prod] == expected


def test_incidence_rank_is_nodes_minus_components():
    rng = random.Random(41)
    for _ in range(20):
        g = helpers.random_wr_graph(rng)
        assert ratmat.rank(g.incidence_matrix) == g.m - g.n_components
        assert g.deficiency == g.m - g.n_components - g.network.rank


def test_components_against_reachability_oracle():
    rng = random.Random(42)
    for _ in range(25):
        net = helpers.random_network(rng)
        part = helpers.random_partition(rng, net)
        g = graph_from_partition(net, part)
        weak, strong = oracles.weak_and_strong_components(g.m, g.edges)
        assert {frozenset(c) for c in g.components} == weak
        assert {frozenset(c) for c in g.strong_components} == strong
        assert g.is_weakly_reversible == (weak == strong)


def test_weak_reversibility_matches_linprog_oracle():
    rng = random.Random(43)
    seen_wr = seen_not = 0
    for _ in range(30):
        net = helpers.random_network(rng)
        g = graph_from_partition(net, helpers.random_partition(rng, net))
        expected = oracles.positive_kernel_exists(g.incidence_matrix)
        assert g.is_weakly_reversible == expected
        seen_wr += expected
        seen_not += not expected
    for _ in range(10):
        g = helpers.random_wr_graph(rng)
        assert oracles.positive_kernel_exists(g.incidence_matrix)
        seen_wr += 1
    assert seen_wr and seen_not


def test_degree_shortcut_agrees_with_the_scc_count(ab, running):
    # is_weakly_reversible answers a graph with a node lacking an in- or
    # out-edge without the SCC pass; the count it skips must agree. The
    # chain of two reversible pairs has graphs that pass the degree test
    # and still are not weakly reversible.
    chain = parse_network("r1: A <=> B @ 1, 1\nr2: B -> C @ 1\nr3: C <=> D @ 1, 1\n")

    def graphs():
        for net in (ab, running, chain):
            for part in enumerate_admissible_partitions(net):
                yield graph_from_partition(net, part)
        rng = random.Random(44)
        for _ in range(200):
            net = helpers.random_network(rng)
            yield graph_from_partition(net, helpers.random_partition(rng, net))
        for _ in range(20):
            yield helpers.random_wr_graph(rng)

    counts = {True: 0, False: 0}
    for g in graphs():
        wr = g.is_weakly_reversible  # first, so the shortcut is what answers
        assert wr == (len(g.strong_components) == g.n_components)
        weak, _ = oracles.weak_and_strong_components(g.m, g.edges)
        assert g.components == tuple(sorted((tuple(sorted(c)) for c in weak), key=min))
        counts[wr] += 1
    # weakly reversible: 1 of ab's 4, 9 of running's 900, none of the
    # chain's 100, 11 of 200 random graphs and all 20 random WR graphs
    assert counts == {True: 41, False: 1183}


def test_component_listing_table1(table1):
    assert table1[3].components == ((1, 2, 3), (4, 5, 6))
    assert table1[3].component_of == (1, 1, 1, 2, 2, 2)
    assert table1[6].n_components == 5
    assert table1[7].n_components == 6


def test_detailed_graph_pairs_reversible_reactions(ab, running, fig2):
    assert detailed_graph(ab).partition.blocks == ((1, 3), (2, 4))
    d = detailed_graph(running)
    assert d.partition.blocks == (
        (1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9, 11), (10, 12),
    )
    d2 = detailed_graph(fig2)
    assert d2.partition.blocks == (
        (1, 3), (2, 4), (5, 7), (6, 8), (9, 11), (10, 12), (13,), (14,), (15,), (16,),
    )
    assert d2.n_components == 5
    assert d2.m == 10
    # the fully reversible pairs are strongly connected two-cycles, the
    # one-way detour reactions are not
    assert not d2.is_weakly_reversible


def test_split_graph_shape(running):
    s = canonical_split_graph(running)
    assert s.m == 2 * running.p
    assert s.n_components == running.p
    assert s.edges == ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (12, 11))


def test_graph_from_partition_rejects_foreign_partition(running, fig2):
    part = AdmissiblePartition(running, tuple((i,) for i in range(1, 13)))
    with pytest.raises(ValueError):
        graph_from_partition(fig2, part)


def test_inclusion_morphism_collapses_g4_onto_complex_graph(table1):
    phi = inclusion_morphism(table1[1], table1[4])
    assert phi.mapping == (1, 2, 3, 4, 1)
    assert phi.source is table1[4]
    assert phi.target is table1[1]
    assert phi(5) == 1


def test_morphism_matrix_transforms_incidence(table1):
    rng = random.Random(44)
    phi = inclusion_morphism(table1[1], table1[4])
    b = phi.matrix
    cols = ratmat.transpose(table1[4].incidence_matrix)
    prod = [ratmat.matvec(cols, row) for row in b]
    assert [[int(v) for v in row] for row in prod] == [
        [int(v) for v in row] for row in table1[1].incidence_matrix
    ]
    for _ in range(10):
        net = helpers.random_network(rng)
        fine = helpers.random_partition(rng, net)
        coarse = helpers.random_coarsening(rng, net, fine)
        g_fine = graph_from_partition(net, fine)
        g_coarse = graph_from_partition(net, coarse)
        phi = inclusion_morphism(g_coarse, g_fine)
        assert phi.source is g_fine and phi.target is g_coarse
        cols = ratmat.transpose(g_fine.incidence_matrix)
        prod = [ratmat.matvec(cols, row) for row in phi.matrix]
        assert [[int(v) for v in r] for r in prod] == [
            [int(v) for v in r] for r in g_coarse.incidence_matrix
        ]


def test_inclusion_requires_refinement(table1):
    # neither of G_2, G_4 refines the other
    with pytest.raises(ValueError, match="refine"):
        inclusion_morphism(table1[2], table1[4])
    with pytest.raises(ValueError, match="refine"):
        inclusion_morphism(table1[4], table1[2])


def test_one_based_node_indices_are_range_checked(running, table1):
    # node 0 must not wrap round to p4's last node, and species_index(5, 9)
    # must not return 33 for a lifted network of 10 species
    p4 = table1[4]
    phi = inclusion_morphism(canonical_complex_graph(running), p4)
    lift = lift_network(running, p4)
    for node in (0, -1, 6):
        with pytest.raises(ValueError, match=rf"node {node} out of range 1\.\.5"):
            p4.label_vector(node)
        with pytest.raises(ValueError, match=rf"node {node} out of range 1\.\.5"):
            phi(node)
        with pytest.raises(ValueError, match=rf"node {node} out of range 1\.\.5"):
            lift.species_index(1, node)
    for species in (-1, 2, 5):
        with pytest.raises(ValueError, match=rf"species {species} out of range 0\.\.1"):
            lift.species_index(species, 1)
    assert (p4.label_vector(5), phi(5), lift.species_index(1, 5)) == ((3, 0), 1, 9)


def test_morphism_validation_rejects_label_breaks(table1):
    g1, g4 = table1[1], table1[4]
    with pytest.raises(ValueError):
        GraphMorphism(g4, g1, (1, 2, 3, 4, 2))


def test_join_nodes_same_component(table1):
    joined, kind = join_nodes(table1[4], 1, 5)
    assert kind is StepKind.SAME_COMPONENT
    assert equivalent(joined, table1[1])


def test_join_nodes_different_components(table1):
    joined, kind = join_nodes(table1[3], 3, 6)
    assert kind is StepKind.DIFFERENT_COMPONENTS
    assert equivalent(joined, table1[2])


def test_join_nodes_rejects_label_mismatch(table1):
    with pytest.raises(ValueError, match="label"):
        join_nodes(table1[4], 1, 2)


def test_join_drops_deficiency_only_within_components():
    rng = random.Random(45)
    checked = 0
    for _ in range(40):
        g = helpers.random_wr_graph(rng)
        labels = g.labels
        pairs = [
            (i, j)
            for i in range(1, g.m + 1)
            for j in range(i + 1, g.m + 1)
            if labels[i - 1] == labels[j - 1]
        ]
        if not pairs:
            continue
        i, j = pairs[rng.randrange(len(pairs))]
        joined, kind = join_nodes(g, i, j)
        if kind is StepKind.SAME_COMPONENT:
            assert joined.deficiency == g.deficiency - 1
        else:
            assert joined.deficiency == g.deficiency
        checked += 1
    assert checked >= 10


def test_deficiency_is_incidence_rank_minus_stoichiometric_rank():
    rng = random.Random(46)
    for _ in range(30):
        net = helpers.random_network(rng)
        g = graph_from_partition(net, helpers.random_partition(rng, net))
        assert g.deficiency >= 0
        assert g.deficiency == oracles.sympy_rank(g.incidence_matrix) - oracles.sympy_rank(
            net.stoichiometric_matrix
        )


def test_complex_graph_of_simple_chain():
    net = parse_network("r1: A -> B @ 1\nr2: B -> C @ 1\n")
    g = canonical_complex_graph(net)
    assert g.m == 3 and g.edges == ((1, 2), (2, 3))
    assert not g.is_weakly_reversible
    assert g.deficiency == 0
