"""Relabelling invariance of complex-graph verdicts.

Reaction graphs are defined modulo isomorphism, so no verdict may depend
on the order in which a network lists its species or its reactions.
"""

from __future__ import annotations

import random

import pytest

import helpers
from crnbalance import (
    ReactionNetwork,
    birch_point,
    canonical_complex_graph,
    check_kappa_balanced,
    count_admissible_partitions,
    simulate,
    stability_report,
)


def _relabelled(net: ReactionNetwork, rng: random.Random):
    """net rebuilt through ReactionNetwork.assemble with its species and its
    reactions in seeded random orders, and those two orders."""
    species = rng.sample(range(net.n), net.n)
    reactions = rng.sample(range(net.p), net.p)

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
