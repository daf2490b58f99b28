"""Species-replication lift and its balance correspondence."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import helpers
import oracles
from crnbalance import (
    LiftError,
    canonical_complex_graph,
    format_network,
    graph_from_partition,
    lift_network,
    parse_network,
    partition_from_json,
    verify_lift,
)

KPRIME = [Fraction(v) for v in (1, 1, 1, 1, 2, 2)]


def test_lift_shape_g4(running, table1):
    lift = lift_network(running, table1[4])
    assert lift.epsilon == 4
    assert lift.copies == 5
    assert lift.network.n == 10
    assert lift.network.p == 46
    assert lift.n_exchange == 40
    assert lift.network.species[:5] == ("X1.1", "X1.2", "X1.3", "X1.4", "X1.5")


def test_lift_epsilon_exceeds_complex_totals():
    net = parse_network("r1: X1 + X2 -> 3 X1 @ 1\n")
    lift = lift_network(net, canonical_complex_graph(net))
    assert lift.epsilon == 4
    assert lift.copies == 2
    assert lift.network.p == 1 + 2 * 2 * 1
    assert lift.network.species == ("X1.1", "X1.2", "X2.1", "X2.2")


def test_species_index_matches_names(running, table1):
    lift = lift_network(running, table1[4])
    for i, name in enumerate(running.species):
        for j in range(1, lift.copies + 1):
            assert lift.network.species[lift.species_index(i, j)] == f"{name}.{j}"


def test_replicate_and_project(running, table1):
    lift = lift_network(running, table1[4])
    x = (Fraction(1), Fraction(2))
    up = lift.replicate(x)
    assert len(up) == lift.network.n
    assert up[:5] == (Fraction(1),) * 5
    assert lift.project(up) == (Fraction(5), Fraction(10))
    with pytest.raises(ValueError, match="2 species"):
        lift.replicate((1, 2, 3))
    with pytest.raises(ValueError, match="10 species"):
        lift.project((1, 2))


def test_lifted_kappa_inherits_then_exchanges(running, table1):
    lift = lift_network(running, table1[4])
    kappa = lift.lifted_kappa([1, 2, 3, 4, 5, 6], exchange=Fraction(3))
    assert kappa[:6] == [1, 2, 3, 4, 5, 6]
    assert set(kappa[6:]) == {Fraction(3)}
    assert len(kappa) == 46
    default = lift.lifted_kappa([1, 2, 3, 4, 5, 6])
    assert set(default[6:]) == {Fraction(1)}


def test_lift_deficiency_and_rank(table1):
    # the lifted network's own complex-graph deficiency reproduces the
    # deficiency of the lifted graph, and its stoichiometric rank adds
    # one dimension per extra copy of each species
    for i in (1, 2, 3, 4):
        g = table1[i]
        lift = lift_network(g.network, g)
        lifted_graph = canonical_complex_graph(lift.network)
        assert lifted_graph.deficiency == g.deficiency
        s = oracles.sympy_rank([list(r) for r in g.network.stoichiometric_matrix])
        s_lift = oracles.sympy_rank(
            [list(r) for r in lift.network.stoichiometric_matrix]
        )
        assert s_lift == s + g.network.n * (g.m - 1)


def test_lift_rejects_duplicate_empty_nodes():
    net = parse_network("r1: 0 -> A @ 1\nr2: A -> 0 @ 1\n")
    g = graph_from_partition(net, partition_from_json(net, [[1], [3], [2, 4]]))
    assert g.labels == (0, 0, 1)
    with pytest.raises(LiftError, match="empty complex"):
        lift_network(net, g)


def test_lift_rejects_foreign_graph(running, table1, ab):
    with pytest.raises(ValueError, match="different network"):
        lift_network(ab, table1[4])


def test_lifted_network_round_trips_through_text(running, running_wr_graphs):
    for g in running_wr_graphs:
        lift = lift_network(running, g)
        assert parse_network(format_network(lift.network)) == lift.network


def test_verify_lift_at_balanced_states(running, table1):
    rng = random.Random(91)
    for i in (1, 4):
        for _ in range(5):
            kappa, x_star = helpers.balanced_kappa(rng, table1[i])
            check = verify_lift(running, table1[i], kappa, x_star)
            assert check.base_balanced and check.lift_balanced
            assert check.rows_match
            assert check.equivalent and check.holds


def test_verify_lift_at_unbalanced_states(running, table1):
    rng = random.Random(92)
    for _ in range(10):
        kappa = helpers.random_kappa(rng, 6)
        x = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(2))
        check = verify_lift(running, table1[4], kappa, x)
        assert check.holds
    check = verify_lift(running, table1[4], KPRIME, (Fraction(1), Fraction(3)))
    assert not check.base_balanced and not check.lift_balanced
    assert check.holds


def test_verify_lift_float_states(running, table1):
    rng = random.Random(93)
    kappa, x_star = helpers.balanced_kappa(rng, table1[4])
    check = verify_lift(
        running,
        table1[4],
        [float(k) for k in kappa],
        tuple(float(v) for v in x_star),
    )
    assert check.base_balanced and check.lift_balanced and check.holds


def test_verify_lift_numeric_rates(ab):
    g = canonical_complex_graph(ab)
    balanced = verify_lift(ab, g, None, (Fraction(1), Fraction(2)))
    assert balanced.base_balanced and balanced.holds
    off = verify_lift(ab, g, None, (Fraction(1), Fraction(1)))
    assert not off.base_balanced and off.holds
