"""Relabelling and scaling invariance of graph verdicts.

Reaction graphs are defined modulo isomorphism, so no verdict may depend
on the order in which a network lists its species or its reactions, nor
on which reaction of a reversible pair comes first. Each balance
condition K^u = 1 has u summing to zero on every component, where the
tree constants K are homogeneous, so no exact verdict may depend on a
common scale of the rate constants either.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import helpers
from crnbalance import (
    AdmissiblePartition,
    ReactionNetwork,
    balance_conditions,
    birch_point,
    canonical_complex_graph,
    check_kappa_balanced,
    count_admissible_partitions,
    graph_from_partition,
    incremental_condition,
    simulate,
    stability_report,
)


def _relabelled(net: ReactionNetwork, rng: random.Random, flip: bool = False):
    """net rebuilt through ReactionNetwork.assemble with its species and its
    reactions in seeded random orders, and those two orders. With flip, the
    later reaction of one reversible pair is moved ahead of the earlier."""
    species = rng.sample(range(net.n), net.n)
    reactions = rng.sample(range(net.p), net.p)
    if flip:
        later, earlier = rng.choice([(j, f) for j, f in enumerate(net.reverse_index) if f is not None])
        a, b = reactions.index(later), reactions.index(earlier)
        if a > b:
            reactions[a], reactions[b] = earlier, later

    def coeffs(c):
        return [net.complexes[c].coeffs[i] for i in species]

    other = ReactionNetwork.assemble(
        [net.species[i] for i in species],
        [(coeffs(r.source), coeffs(r.target), r.rate) for r in (net.reactions[j] for j in reactions)],
    )
    return other, species, reactions


@pytest.mark.parametrize("name", ["ab", "running", "fig2"])
def test_complex_graph_verdicts_do_not_depend_on_labels(name, request):
    net = request.getfixturevalue(name)
    g = canonical_complex_graph(net)
    rng = random.Random(f"relabel/{name}")
    for _ in range(4):
        other, species, reactions = _relabelled(net, rng)
        h = canonical_complex_graph(other)
        assert count_admissible_partitions(other) == count_admissible_partitions(net)
        assert h.deficiency == g.deficiency

        kappa, _ = helpers.balanced_kappa(rng, g)
        kappa_h = [kappa[j] for j in reactions]
        assert check_kappa_balanced(g, kappa).balanced and check_kappa_balanced(h, kappa_h).balanced
        off = helpers.random_kappa(rng, net.p)
        assert (
            check_kappa_balanced(h, [off[j] for j in reactions]).balanced
            == check_kappa_balanced(g, off).balanced
        )

        x0 = [rng.uniform(0.2, 2.0) for _ in range(net.n)]
        x0_h = [x0[i] for i in species]
        x_star = birch_point(net, g, kappa, x0)
        y_star = birch_point(other, h, kappa_h, x0_h)
        assert y_star == pytest.approx([x_star[i] for i in species], rel=1e-9)
        assert (
            stability_report(other, kappa_h, y_star).verdict
            == stability_report(net, kappa, x_star).verdict
        )
        final = simulate(net, x0, kappa, t_end=1.0, dt=0.01).final
        final_h = simulate(other, x0_h, kappa_h, t_end=1.0, dt=0.01).final
        assert final_h == pytest.approx([final[i] for i in species], rel=1e-9)


def _mapped(g, other: ReactionNetwork, reactions):
    """The graph of other whose partition is g's, each split index carried
    to the index of the same reaction's source or target in other."""
    net = g.network
    index = {}
    for new, old in enumerate(reactions):
        index[net.split_sources[old]] = other.split_sources[new]
        index[net.split_targets[old]] = other.split_targets[new]
    blocks = [[index[i] for i in block] for block in g.partition.blocks]
    return graph_from_partition(other, AdmissiblePartition(other, blocks))


def _weakly_reversible_sample(net: ReactionNetwork, rng: random.Random, size: int):
    """size distinct weakly reversible graphs of net, met on seeded walks that
    split one block at a time from the complex graph, through weakly
    reversible graphs only, until a walk can go no finer."""
    found = {}
    while len(found) < size:
        g = canonical_complex_graph(net)
        while g is not None:
            found.setdefault(frozenset(g.partition.blocks), g)
            splits = []
            for b, (first, *rest) in enumerate(g.partition.blocks):
                for mask in range(1, 2 ** len(rest)):
                    part = [i for t, i in enumerate(rest) if mask >> t & 1]
                    keep = [first, *(i for i in rest if i not in part)]
                    splits.append([*g.partition.blocks[:b], keep, *g.partition.blocks[b + 1:], part])
            rng.shuffle(splits)
            finer = (graph_from_partition(net, AdmissiblePartition(net, s)) for s in splits)
            g = next((h for h in finer if h.is_weakly_reversible), None)
    return list(found.values())[:size]


def test_finer_graph_verdicts_do_not_depend_on_labels_or_pair_order(
    running, running_wr_graphs, fig2
):
    rng = random.Random("relabel/finer")
    graphs = [*running_wr_graphs, *_weakly_reversible_sample(fig2, rng, 12)]
    assert len({g.partition.blocks for g in graphs}) == len(graphs)
    assert sum(g.m > canonical_complex_graph(g.network).m for g in graphs) > 12
    relabellings = {net: [_relabelled(net, rng, flip=True) for _ in range(2)] for net in (running, fig2)}
    joins = extra = off = 0
    for g in graphs:
        kappas = [helpers.balanced_kappa(rng, g)[0], helpers.random_kappa(rng, g.network.p)]
        verdicts = [check_kappa_balanced(g, kappa).balanced for kappa in kappas]
        assert verdicts[0]
        off += not verdicts[1]
        pairs = [
            (i1, i2) for i1 in range(1, g.m + 1) for i2 in range(i1 + 1, g.m + 1)
            if g.labels[i1 - 1] == g.labels[i2 - 1]
        ]
        conditions = [incremental_condition(g, i1, i2) for i1, i2 in pairs]
        for other, _, reactions in relabellings[g.network]:
            h = _mapped(g, other, reactions)
            assert (h.deficiency, h.is_weakly_reversible) == (g.deficiency, True)
            assert len(balance_conditions(h).relations) == len(balance_conditions(g).relations)
            kappas_h = [[kappa[j] for j in reactions] for kappa in kappas]
            assert [check_kappa_balanced(h, kappa).balanced for kappa in kappas_h] == verdicts
            for (i1, i2), condition in zip(pairs, conditions):
                mine = incremental_condition(h, i1, i2)
                assert mine.kind is condition.kind
                assert [mine.holds(k) for k in kappas_h] == [condition.holds(k) for k in kappas]
                joins += 1
                extra += condition.extra_condition
    assert joins > 50 and extra > 10 and off > 10


def test_exact_verdicts_do_not_depend_on_the_scale_of_kappa(running_wr_graphs, fig2):
    rng = random.Random("scale/kappa")
    graphs = [*running_wr_graphs, *_weakly_reversible_sample(fig2, rng, 7)]
    verdicts = []
    for g in graphs:
        for kappa in (helpers.balanced_kappa(rng, g)[0], helpers.random_kappa(rng, g.network.p)):
            verdicts.append(check_kappa_balanced(g, kappa).balanced)
            for scale in (Fraction(10) ** 200, Fraction(10) ** -200):
                assert check_kappa_balanced(g, [k * scale for k in kappa]).balanced == verdicts[-1]
    assert all(verdicts[::2]) and verdicts[1::2].count(False) > 8


@pytest.mark.parametrize("scale", [1e-3, 1 / 8, 8, 1e3])
def test_scaling_x0_scales_the_birch_point_when_every_complex_has_one_molecularity(scale, running):
    # running's complexes all have molecularity 3, so the vector 1 is orthogonal
    # to S: scaling x by scale keeps it on the steady-state manifold
    assert len({c.total for c in running.complexes}) == 1
    g = canonical_complex_graph(running)
    kappa = [2, 2, 2, 2, 4, 4]
    x_star = birch_point(running, g, kappa, (1.0, 2.0))
    scaled = birch_point(running, g, kappa, (scale * 1.0, scale * 2.0))
    assert scaled == pytest.approx([scale * v for v in x_star], rel=1e-9, abs=0)
