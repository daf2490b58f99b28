"""Acceptance gate: one test per shipped guarantee.

Each test is a labeled pass/fail line under ``pytest -v``. The expected
values are frozen reference data (hand-derived matrices, monomials and
relation sets for the running two-species cubic network) plus property
checks with independent oracles. Tolerances are stated inline; exact
rational arithmetic is asserted with zero tolerance.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

import helpers
import oracles
from crnbalance import (
    KPoly,
    StepKind,
    SubnetworkSplit,
    birch_point,
    canonical_complex_graph,
    cayley_matrix,
    check_kappa_balanced,
    decomposition_check,
    enumerate_admissible_partitions,
    equivalent,
    graph_from_partition,
    incremental_condition,
    inclusion_morphism,
    induced_graphs,
    integer_kernel_basis,
    join_nodes,
    lattice_join,
    lift_network,
    mass_action_rates,
    lattice_meet,
    node_balance_residual,
    ode_rhs,
    ratmat,
    refines,
    simulate,
    stability_report,
    tree_constants_eval,
    tree_constants_symbolic,
    verify_lift,
)

ONES = [Fraction(1)] * 6
KPRIME = [Fraction(v) for v in (1, 1, 1, 1, 2, 2)]


def _monomial(nvars, *vars_and_exps):
    exps = [0] * nvars
    for var, e in vars_and_exps:
        exps[var - 1] = e
    return KPoly.monomial(nvars, exps)


def test_c01_partition_table_reproduction(table1):
    """Deficiency and weak reversibility of the seven reference graphs."""
    deficiencies = tuple(table1[i].deficiency for i in range(1, 8))
    reversible = tuple(table1[i].is_weakly_reversible for i in range(1, 8))
    assert deficiencies == (2, 3, 3, 3, 5, 4, 5)
    assert reversible == (True, True, True, True, False, False, False)


def test_c02_cayley_kernel_span(table1):
    """Cayley matrix of the five-node graph and its integer kernel."""
    a = cayley_matrix(table1[4])
    assert a == (
        (3, 1, 0, 2, 3),
        (0, 2, 3, 1, 0),
        (1, 1, 1, 1, 1),
    )
    basis = integer_kernel_basis(table1[4])
    assert len(basis) == 3
    reference = [(-1, 0, 0, 0, 1), (-1, -1, 0, 2, 0), (1, -3, 2, 0, 0)]
    for u in reference:
        assert all(v == 0 for v in ratmat.matvec(a, u))
    assert oracles.same_rational_span(
        [list(u) for u in basis], [list(u) for u in reference]
    )


def test_c03_tree_constant_dual_route(table1):
    """Symbolic tree constants, checked against Laplacian minors.

    The five-node graph must reproduce the hand-derived monomials
    exactly; on 50 random weakly reversible graphs the determinant
    route and the symbolic route must agree at 4 random rational
    kappa each (200 evaluations, exact equality).
    """
    n = 6
    assert tree_constants_symbolic(table1[4]) == (
        _monomial(n, (2, 1), (3, 1), (4, 1), (5, 1)),
        _monomial(n, (1, 1), (3, 1), (4, 1), (5, 1)),
        _monomial(n, (1, 1), (2, 1), (4, 1), (5, 1)),
        _monomial(n, (1, 1), (2, 1), (3, 1), (5, 1)),
        _monomial(n, (1, 1), (2, 1), (4, 1), (6, 1)),
    )
    rng = random.Random(101)
    for _ in range(50):
        g = helpers.random_wr_graph(rng, max_nodes=8)
        symbolic = tree_constants_symbolic(g)
        for _ in range(4):
            kappa = helpers.random_kappa(rng, g.network.p)
            assert tree_constants_eval(g, kappa) == [k.evaluate(kappa) for k in symbolic]


def _reference_g4(k):
    return (
        k[0] * k[5] == k[2] * k[4]
        and k[0] * k[1] == k[3] ** 2
        and k[0] * k[2] ** 2 == k[1] ** 3
    )


def _reference_g1(k):
    return (k[0] + k[4]) ** 2 * k[1] ** 3 == (k[2] + k[5]) ** 2 * k[0] ** 3 and k[
        1
    ] * k[2] ** 2 * (k[0] + k[4]) ** 2 == (k[2] + k[5]) ** 2 * k[3] ** 2 * k[0]


def _reference_g23(k):
    return (
        k[0] * k[2] == k[4] * k[5]
        and k[0] * k[1] * k[2] ** 2 == k[3] ** 2 * k[5] ** 2
        and k[1] ** 3 == k[0] * k[5] ** 2
    )


def test_c04_condition_set_equivalence(table1):
    """Generated balance conditions against the reference relations.

    1000 random positive rational kappa must receive identical verdicts
    from the generated conditions and from the frozen explicit relation
    sets of the four weakly reversible reference graphs, exactly.
    """
    rng = random.Random(102)
    refs = {1: _reference_g1, 2: _reference_g23, 3: _reference_g23, 4: _reference_g4}
    for _ in range(1000):
        kappa = helpers.random_kappa(rng, 6)
        for i, ref in refs.items():
            assert check_kappa_balanced(table1[i], kappa).balanced == ref(kappa)

    assert check_kappa_balanced(table1[2], ONES).balanced
    assert check_kappa_balanced(table1[4], ONES).balanced
    assert check_kappa_balanced(table1[4], KPRIME).balanced
    assert not check_kappa_balanced(table1[2], KPRIME).balanced
    assert not check_kappa_balanced(table1[3], KPRIME).balanced
    # the coarsest graph accepts these rates as well: both of its
    # conditions evaluate to 9 = 9, and the reference relations agree
    assert check_kappa_balanced(table1[1], KPRIME).balanced
    assert _reference_g1(KPRIME)


def test_c05_partition_lattice_and_inclusion(table1):
    """Meet, join and the node map between nested reference graphs."""
    p2, p4 = table1[2].partition, table1[4].partition
    meet = lattice_meet(p2, p4)
    join = lattice_join(p2, p4)
    assert meet.same_partition(table1[5].partition)
    assert join.same_partition(table1[1].partition)
    assert refines(meet, p2) and refines(meet, p4)
    assert refines(p2, join) and refines(p4, join)

    g5 = graph_from_partition(table1[4].network, meet)
    phi = inclusion_morphism(table1[4], g5)
    assert phi.mapping == (1, 2, 3, 4, 1, 5, 5)


def test_c06_incremental_join_conditions(table1):
    """Extra rate condition created by joining two equal-labeled nodes.

    Joining nodes 1 and 5 of the five-node graph must produce the
    identity k3*k5 = k1*k6 (nodes in one component); joining nodes 3
    and 6 of the six-node graph must produce no condition (nodes in
    different components). Verdict equivalence
    balanced(g) == balanced(joined) and condition
    is then checked on 500 kappa per case, exactly.
    """
    cond4 = incremental_condition(table1[4], 1, 5)
    assert cond4.kind is StepKind.SAME_COMPONENT
    assert {cond4.lhs, cond4.rhs} == {
        _monomial(6, (3, 1), (5, 1)),
        _monomial(6, (1, 1), (6, 1)),
    }
    cond3 = incremental_condition(table1[3], 3, 6)
    assert cond3.kind is StepKind.DIFFERENT_COMPONENTS
    assert not cond3.extra_condition

    rng = random.Random(103)
    cases = [(table1[4], 1, 5, cond4), (table1[3], 3, 6, cond3)]
    for g, i1, i2, cond in cases:
        joined, _ = join_nodes(g, i1, i2)
        for trial in range(500):
            if trial % 2:
                kappa = helpers.random_kappa(rng, 6)
            else:
                kappa, _ = helpers.balanced_kappa(rng, joined)
            fine = check_kappa_balanced(g, kappa).balanced
            coarse = check_kappa_balanced(joined, kappa).balanced and cond.holds(kappa)
            assert fine == coarse


def test_c07_four_species_reconstruction_and_sign(fig2, fig2_graphs):
    """Reconstruction of the two five-node graphs of the chain network.

    Searching all admissible five-node partitions for weakly reversible
    graphs whose join of nodes 2 and 4 gives back the complex graph and
    whose join condition equals one of the two frozen polynomial
    identities must find exactly the two stored fixtures. Their balance
    varieties are disjoint and are separated by the sign of
    k1*k3*k7 - k2*k4*k6.
    """
    n = 8
    sides_one = {
        _monomial(n, (1, 1), (3, 1), (7, 1)),
        _monomial(n, (1, 1), (5, 1), (6, 1))
        + _monomial(n, (2, 1), (4, 1), (6, 1))
        + _monomial(n, (4, 1), (5, 1), (6, 1)),
    }
    sides_two = {
        _monomial(n, (2, 1), (4, 1), (6, 1)),
        _monomial(n, (1, 1), (3, 1), (5, 1)) + _monomial(n, (1, 1), (3, 1), (7, 1)),
    }
    complex_graph = canonical_complex_graph(fig2)
    matched = []
    for partition in enumerate_admissible_partitions(fig2):
        if len(partition.blocks) != 5:
            continue
        g = graph_from_partition(fig2, partition)
        if not g.is_weakly_reversible:
            continue
        if g.labels[1] != g.labels[3]:
            continue
        joined, _ = join_nodes(g, 2, 4)
        if not equivalent(joined, complex_graph):
            continue
        cond = incremental_condition(g, 2, 4)
        if cond.lhs is None:
            continue
        if {cond.lhs, cond.rhs} in (sides_one, sides_two):
            matched.append(partition)
    assert len(matched) == 2
    found = {p.blocks for p in (g.partition for g in fig2_graphs.values())}
    assert {p.canonical().blocks for p in matched} == found

    g1, g2 = fig2_graphs[1], fig2_graphs[2]

    def sign(k):
        return k[0] * k[2] * k[6] - k[1] * k[3] * k[5]

    rng = random.Random(104)
    for _ in range(2000):
        kappa = helpers.random_kappa(rng, 8)
        one = check_kappa_balanced(g1, kappa).balanced
        two = check_kappa_balanced(g2, kappa).balanced
        assert not (one and two)
    for _ in range(200):
        kappa, _ = helpers.balanced_kappa(rng, g1)
        assert check_kappa_balanced(g1, kappa).balanced
        assert not check_kappa_balanced(g2, kappa).balanced
        assert sign(kappa) > 0
        kappa, _ = helpers.balanced_kappa(rng, g2)
        assert check_kappa_balanced(g2, kappa).balanced
        assert not check_kappa_balanced(g1, kappa).balanced
        assert sign(kappa) < 0


def test_c08_convergence_to_class_steady_states(running, table1):
    """Trajectories of balanced systems settle on the class steady state.

    20 rate vectors sampled exactly on the balance variety of the
    five-node graph (rescaled so the slow eigenvalue is -1, which keeps
    balance), 5 random positive starts each, integrated for 40
    e-foldings of the slowest mode at the start's own class steady
    state: the final state must lie within 1e-6 of the anchored steady
    state, the transverse Jacobian eigenvalues must have negative real
    parts, and the final ODE residual must be below 1e-8. Total runtime
    under 60 seconds.
    """
    rng = random.Random(105)
    g4 = table1[4]
    started = time.monotonic()
    for _ in range(20):
        kappa, x_star = helpers.balanced_kappa(rng, g4)
        report = stability_report(
            running, [float(k) for k in kappa], tuple(float(v) for v in x_star)
        )
        slowest = max(ev.real for ev in report.eigenvalues)
        scale = Fraction(1.0 / abs(slowest)).limit_denominator(10**9)
        kappa = [k * scale for k in kappa]
        assert check_kappa_balanced(g4, kappa).balanced

        kappa_float = [float(k) for k in kappa]
        for _ in range(5):
            x0 = (rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
            target = birch_point(running, g4, kappa, x0)
            modes = stability_report(running, kappa_float, target).eigenvalues
            assert all(ev.real < 0 for ev in modes)
            # integrate for 40 e-foldings of the slowest transverse mode
            t_end = 40.0 / abs(max(ev.real for ev in modes))
            trace = simulate(
                running, x0, kappa_float, t_end=t_end, adaptive=True, tol=1e-10
            )
            distance = max(abs(a - b) for a, b in zip(trace.final, target))
            assert distance < 1e-6
            residual = max(
                abs(v) for v in ode_rhs(running, trace.final, kappa_float)
            )
            assert residual < 1e-8
    assert time.monotonic() - started < 60.0


def test_c09_replication_lift_oracle(running, table1):
    """Node balance equals complex balance of the replicated network.

    For the coarsest and the five-node graph, 50 random positive
    rational states each: the lift correspondence holds exactly, the
    lifted network's own deficiency equals the graph deficiency, and
    its stoichiometric rank grows by one per extra species copy.
    """
    rng = random.Random(106)
    for i in (1, 4):
        g = table1[i]
        lift = lift_network(running, g)
        assert canonical_complex_graph(lift.network).deficiency == g.deficiency
        assert lift.network.rank == running.rank + running.n * (g.m - 1)
        for trial in range(50):
            if trial % 2:
                kappa = helpers.random_kappa(rng, 6)
            else:
                kappa, _ = helpers.balanced_kappa(rng, g)
            x = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(2))
            assert verify_lift(running, g, kappa, x).holds


def test_c10_reaction_split_decomposition(running, table1):
    """Splitting the reactions refines the graph consistently.

    The split {r1, r2, r6} of the coarsest graph must union to the
    six-node reference graph (partition equality); the three balance
    verdicts of the decomposition check must agree on 100 sampled
    states; and the split {r1, r2, r5, r6} must be reported as blocked
    because its complement is not weakly reversible.
    """
    split = SubnetworkSplit(running, ((1, 2, 6),))
    induced = induced_graphs(table1[1], split)
    assert induced.union_graph.partition.same_partition(table1[3].partition)

    rng = random.Random(107)
    for trial in range(100):
        if trial % 5 == 0:
            kappa, x = helpers.balanced_kappa(rng, induced.union_graph)
        else:
            kappa = helpers.random_kappa(rng, 6)
            x = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(2))
        check = decomposition_check(running, table1[1], split, kappa, x)
        assert check.agree
        if trial % 5 == 0:
            assert check.balanced

    blocked = induced_graphs(table1[1], SubnetworkSplit(running, ((1, 2, 5, 6),)))
    assert not blocked.jointly_balanceable
    assert blocked.non_reversible_parts == (2,)


def test_c11_coarsening_monotonicity():
    """Coarsening can only lower the deficiency and relax balance.

    On at least 100 random networks (up to 4 species, 8 reactions) with
    a random partition and a random coarsening of it: the finer graph's
    deficiency is never smaller.  Random partitions are rarely weakly
    reversible, so sampling continues until 25 pairs with a weakly
    reversible finer graph have also checked the balance implication:
    every kappa balanced for the finer graph is balanced for the
    coarser one (20 kappa per pair, exact; half sampled on the finer
    graph's balance variety, which always yields a balanced vector).
    """
    rng = random.Random(108)
    pairs = 0
    wr_pairs = 0
    implications = 0
    for _ in range(5000):
        if pairs >= 100 and wr_pairs >= 25:
            break
        net = helpers.random_network(rng)
        fine_partition = helpers.random_partition(rng, net)
        coarse_partition = helpers.random_coarsening(rng, net, fine_partition)
        fine = graph_from_partition(net, fine_partition)
        coarse = graph_from_partition(net, coarse_partition)
        assert refines(fine_partition, coarse_partition)
        assert fine.deficiency >= coarse.deficiency
        pairs += 1

        if not fine.is_weakly_reversible or wr_pairs >= 25:
            continue
        assert coarse.is_weakly_reversible
        wr_pairs += 1
        for trial in range(20):
            if trial % 2:
                kappa = helpers.random_kappa(rng, net.p)
            else:
                kappa, _ = helpers.balanced_kappa(rng, fine)
            if check_kappa_balanced(fine, kappa).balanced:
                assert check_kappa_balanced(coarse, kappa).balanced
                implications += 1
    assert pairs >= 100
    assert wr_pairs == 25
    assert implications >= 250
