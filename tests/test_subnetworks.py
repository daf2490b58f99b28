"""Reaction-set splits, induced subgraphs and joint balance checks."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import helpers
from crnbalance import (
    SplitError,
    SubnetworkSplit,
    decomposition_check,
    equivalent,
    format_network,
    induced_graphs,
    mass_action_rates,
    node_balance_residual,
    parse_network,
    refines,
    subnetwork,
)

KPRIME = [Fraction(v) for v in (1, 1, 1, 1, 2, 2)]


def test_split_complement_and_parts(running):
    split = SubnetworkSplit(running, ((1, 2, 6),))
    assert split.complement == (3, 4, 5)
    assert split.parts == ((1, 2, 6), (3, 4, 5))
    full = SubnetworkSplit(running, ((1, 2, 3), (4, 5, 6)))
    assert full.complement == ()
    assert full.parts == full.subsets


def test_split_sorts_subsets(running):
    split = SubnetworkSplit(running, ((6, 2, 1),))
    assert split.subsets == ((1, 2, 6),)


@pytest.mark.parametrize(
    "subsets, message",
    [
        (((),), "empty reaction subset"),
        (((1, 9),), "outside 1..6"),
        (((1, 2), (2, 3)), "appears in two subsets"),
    ],
)
def test_split_rejects_bad_subsets(running, subsets, message):
    with pytest.raises(SplitError, match=message):
        SubnetworkSplit(running, subsets)


def test_subnetwork_infers_species_and_complexes(fig2):
    sub = subnetwork(fig2, [7])
    assert sub.network.species == ("X2", "X4")
    assert sub.species_indices == (1, 3)
    assert sub.reaction_indices == (7,)
    assert sub.project_state((10, 20, 30, 40)) == (20, 40)
    assert sub.project_kappa(list(range(1, 9))) == (7,)


def test_subnetwork_keeps_reaction_order_and_rates(running):
    sub = subnetwork(running, [6, 1])
    assert sub.reaction_indices == (1, 6)
    assert sub.network.p == 2
    assert sub.network.species == ("X1", "X2")


def _reaction_subsets(p):
    return [c for r in range(1, p + 1) for c in itertools.combinations(range(1, p + 1), r)]


def test_subnetworks_number_complexes_as_parsing_does(running):
    subsets = _reaction_subsets(running.p)
    assert len(subsets) == 63
    for subset in subsets:
        sub = subnetwork(running, subset).network
        assert parse_network(format_network(sub)) == sub


def test_induced_part_nodes_follow_the_graph_nodes(running, running_wr_graphs):
    """A (reaction, role) pair sits on a part node; two pairs share one exactly
    when they share a node of g, and the part node carries that node's label."""
    for g in running_wr_graphs:
        for subset in _reaction_subsets(running.p):
            induced = induced_graphs(g, SubnetworkSplit(running, (subset,)))
            for part in induced.parts:
                g_node_of = {}
                for k, j in enumerate(part.reactions):
                    for role in (0, 1):
                        part_node = part.graph.edges[k][role]
                        g_node = g.edges[j - 1][role]
                        assert g_node_of.setdefault(part_node, g_node) == g_node
                        assert part.graph.label_vector(part_node) == tuple(
                            g.label_vector(g_node)[i] for i in part.subnetwork.species_indices
                        )
                assert len(set(g_node_of.values())) == len(g_node_of) == part.graph.m


def test_subnetwork_rejects_bad_indices(running):
    with pytest.raises(SplitError, match="at least one"):
        subnetwork(running, [])
    with pytest.raises(SplitError, match="outside"):
        subnetwork(running, [7])


def test_induced_union_graph_reproduces_known_coarsening(table1):
    split = SubnetworkSplit(table1[1].network, ((1, 2, 6),))
    induced = induced_graphs(table1[1], split)
    assert equivalent(induced.union_graph, table1[3])
    assert induced.jointly_balanceable
    assert induced.non_reversible_parts == ()
    part = induced.parts[0]
    assert part.graph.partition.blocks == ((1, 6), (2, 3), (4, 5))
    assert part.graph.edges == ((1, 2), (2, 3), (3, 1))


def test_induced_union_always_refines_the_source(table1):
    rng = random.Random(82)
    g = table1[1]
    for _ in range(20):
        chosen = [j for j in range(1, 7) if rng.random() < 0.5]
        if not chosen or len(chosen) == 6:
            continue
        induced = induced_graphs(g, SubnetworkSplit(g.network, (tuple(chosen),)))
        assert refines(induced.union_graph.partition, g.partition)


def test_single_subset_split_changes_nothing(table1):
    split = SubnetworkSplit(table1[1].network, ((1, 2, 3, 4, 5, 6),))
    induced = induced_graphs(table1[1], split)
    assert equivalent(induced.union_graph, table1[1])
    assert len(induced.parts) == 1


def test_non_reversible_part_blocks_joint_balance(table1):
    split = SubnetworkSplit(table1[1].network, ((1, 2, 5, 6),))
    induced = induced_graphs(table1[1], split)
    assert induced.non_reversible_parts == (2,)
    assert not induced.jointly_balanceable
    assert not induced.parts[1].graph.is_weakly_reversible
    assert induced.parts[0].graph.is_weakly_reversible


def test_induced_graphs_reject_foreign_split(table1, fig2):
    with pytest.raises(SplitError, match="different network"):
        induced_graphs(table1[1], SubnetworkSplit(fig2, ((1, 2),)))


def test_decomposition_check_negative_fixture(running, table1):
    # at x = (1, 1) the rates equal kappa' and the coarse graph balances,
    # but the cycle piece {r1, r2, r6} does not, so every refined verdict
    # is False while the graphs disagree with the coarse one
    split = SubnetworkSplit(running, ((1, 2, 6),))
    x = (Fraction(1), Fraction(1))
    v = mass_action_rates(running, x, KPRIME)
    assert all(r == 0 for r in node_balance_residual(table1[1], v))
    check = decomposition_check(running, table1[1], split, KPRIME, x)
    assert (check.whole_and_subsets, check.union_graph, check.all_parts) == (
        False,
        False,
        False,
    )
    assert check.agree and not check.balanced


def test_decomposition_check_positive_fixture(running, table1):
    rng = random.Random(83)
    split = SubnetworkSplit(running, ((1, 2, 6),))
    union = induced_graphs(table1[1], split).union_graph
    for _ in range(5):
        kappa, x_star = helpers.balanced_kappa(rng, union)
        check = decomposition_check(running, table1[1], split, kappa, x_star)
        assert check.agree
        assert check.balanced
        assert check.whole_and_subsets and check.all_parts


@pytest.mark.parametrize("x", [(1,), (1, 1, 1)], ids=["short", "long"])
def test_decomposition_check_refuses_a_state_of_the_wrong_length(running, table1, x):
    # a short state used to raise IndexError while projecting onto the parts
    split = SubnetworkSplit(running, ((1, 2, 6),))
    with pytest.raises(ValueError, match=f"state has {len(x)} entries, network has 2 species"):
        decomposition_check(running, table1[1], split, KPRIME, x)


def test_decomposition_verdicts_agree_on_arbitrary_states(running, table1):
    rng = random.Random(84)
    splits = [
        SubnetworkSplit(running, ((1, 2, 6),)),
        SubnetworkSplit(running, ((3, 4), (5, 6))),
        SubnetworkSplit(running, ((1, 4), (2, 3))),
    ]
    for _ in range(25):
        kappa = helpers.random_kappa(rng, 6)
        x = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(2))
        for split in splits:
            check = decomposition_check(running, table1[1], split, kappa, x)
            assert check.agree


def test_decomposition_check_float_states(running, table1):
    split = SubnetworkSplit(running, ((1, 2, 6),))
    rng = random.Random(85)
    kappa, x_star = helpers.balanced_kappa(rng, induced_graphs(table1[1], split).union_graph)
    x_float = tuple(float(v) for v in x_star)
    k_float = [float(k) for k in kappa]
    check = decomposition_check(running, table1[1], split, k_float, x_float)
    assert check.balanced and check.agree
