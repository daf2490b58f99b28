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
    state_is_balanced,
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


def test_decomposition_check_refuses_a_graph_of_another_network(running, table1):
    # the running example with r5/r6 listed first: its rates, read against the
    # incidence of running's graph, turned a balanced state into three False
    reordered = parse_network(
        "species: X1 X2\n"
        "r1: 3 X1 <=> 3 X2 @ k5, k6\n"
        "r3: 3 X1 -> X1 + 2 X2 @ k1\n"
        "r4: X1 + 2 X2 -> 3 X2 @ k2\n"
        "r5: 3 X2 -> 2 X1 + X2 @ k3\n"
        "r6: 2 X1 + X2 -> 3 X1 @ k4\n"
    )
    split = SubnetworkSplit(running, ((1, 2, 6),))
    union = induced_graphs(table1[1], split).union_graph
    kappa, x = helpers.balanced_kappa(random.Random(1), union)
    assert decomposition_check(running, table1[1], split, kappa, x).balanced
    with pytest.raises(ValueError, match="graph belongs to a different network"):
        decomposition_check(reordered, table1[1], split, kappa, x)


def _per_part_verdicts(g, split, kappa, x):
    # the three views as each part's own subnetwork judges them, at the projected
    # state and rate constants
    induced = induced_graphs(g, split)
    parts = [
        state_is_balanced(
            part.graph,
            [x[i] for i in part.subnetwork.species_indices],
            [kappa[j - 1] for j in part.reactions],
        )
        for part in induced.parts
    ]
    whole = state_is_balanced(g, x, kappa) and all(parts[: len(split.subsets)])
    return whole, state_is_balanced(induced.union_graph, x, kappa), all(parts)


def test_decomposition_verdicts_agree_on_arbitrary_states(running, table1):
    # random kappa and states, and states balanced for the whole graph or for a
    # union graph, exact and as floats: one rate vector read per part gives what
    # each part's own subnetwork gives
    rng = random.Random(84)
    splits = [
        SubnetworkSplit(running, ((1, 2, 6),)),
        SubnetworkSplit(running, ((3, 4), (5, 6))),
        SubnetworkSplit(running, ((1, 4), (2, 3))),
    ]
    seen = set()
    for _ in range(25):
        for split in splits:
            union = induced_graphs(table1[1], split).union_graph
            states = [
                (
                    helpers.random_kappa(rng, 6),
                    tuple(Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(2)),
                ),
                helpers.balanced_kappa(rng, table1[1]),
            ]
            if union.is_weakly_reversible:
                states.append(helpers.balanced_kappa(rng, union))
            for kappa, x in states:
                for k, y in ((kappa, x), ([float(v) for v in kappa], [float(v) for v in x])):
                    check = decomposition_check(running, table1[1], split, k, y)
                    verdicts = (check.whole_and_subsets, check.union_graph, check.all_parts)
                    assert check.agree
                    assert verdicts == _per_part_verdicts(table1[1], split, k, y)
                    seen.add(verdicts)
    assert seen == {(False, False, False), (True, True, True)}


def test_decomposition_check_float_states(running, table1):
    split = SubnetworkSplit(running, ((1, 2, 6),))
    rng = random.Random(85)
    kappa, x_star = helpers.balanced_kappa(rng, induced_graphs(table1[1], split).union_graph)
    x_float = tuple(float(v) for v in x_star)
    k_float = [float(k) for k in kappa]
    check = decomposition_check(running, table1[1], split, k_float, x_float)
    assert check.balanced and check.agree
