"""Tree constants, kernel relations and node balance checks."""

from __future__ import annotations

import gc
import math
import random
import weakref
from fractions import Fraction

import pytest

import helpers
import oracles
from crnbalance import (
    KPoly,
    NotWeaklyReversibleError,
    ReactionNetwork,
    StepKind,
    SubnetworkSplit,
    balance_conditions,
    birch_point,
    cayley_matrix,
    canonical_complex_graph,
    canonical_split_graph,
    check_kappa_balanced,
    decomposition_check,
    detailed_graph,
    enumerate_admissible_partitions,
    graph_from_partition,
    incremental_condition,
    inclusion_morphism,
    integer_kernel_basis,
    join_nodes,
    laplacian_matrix,
    mass_action_rates,
    network,
    node_balance_residual,
    ode_rhs,
    parse_network,
    positive_kernel_flux,
    rate_matrix,
    ratmat,
    solve_positive_steady_state,
    state_is_balanced,
    steady_state_binomials,
    omega_symmetry_check,
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


def test_cayley_matrix_g4(table1):
    assert cayley_matrix(table1[4]) == (
        (3, 1, 0, 2, 3),
        (0, 2, 3, 1, 0),
        (1, 1, 1, 1, 1),
    )


def test_cayley_matrix_indicator_rows(table1):
    g3 = table1[3]
    a = cayley_matrix(g3)
    assert a[2] == (1, 1, 1, 0, 0, 0)
    assert a[3] == (0, 0, 0, 1, 1, 1)


def test_kernel_dimension_equals_deficiency(table1):
    for g in table1.values():
        assert len(integer_kernel_basis(g)) == g.deficiency


def test_g4_kernel_contains_reference_vectors(table1):
    a = cayley_matrix(table1[4])
    basis = integer_kernel_basis(table1[4])
    reference = [(-1, 0, 0, 0, 1), (-1, -1, 0, 2, 0), (1, -3, 2, 0, 0)]
    for u in reference:
        assert all(v == 0 for v in ratmat.matvec(a, u))
    assert oracles.same_rational_span(
        [list(v) for v in basis], [list(u) for u in reference]
    )


def test_kernel_basis_annihilates_and_is_deterministic():
    rng = random.Random(51)
    for _ in range(15):
        g = helpers.random_wr_graph(rng)
        a = cayley_matrix(g)
        basis = integer_kernel_basis(g)
        assert basis == integer_kernel_basis(g)
        for u in basis:
            assert all(v == 0 for v in ratmat.matvec(a, u))
            nonzero = [v for v in u if v]
            assert nonzero and nonzero[0] > 0


def test_tree_constants_g4_reference_monomials(table1):
    trees = tree_constants_symbolic(table1[4])
    n = 6
    assert trees == (
        _monomial(n, (2, 1), (3, 1), (4, 1), (5, 1)),
        _monomial(n, (1, 1), (3, 1), (4, 1), (5, 1)),
        _monomial(n, (1, 1), (2, 1), (4, 1), (5, 1)),
        _monomial(n, (1, 1), (2, 1), (3, 1), (5, 1)),
        _monomial(n, (1, 1), (2, 1), (4, 1), (6, 1)),
    )


def test_tree_constants_g3_reference(table1):
    trees = tree_constants_symbolic(table1[3])
    n = 6
    assert trees == (
        _monomial(n, (2, 1), (6, 1)),
        _monomial(n, (1, 1), (6, 1)),
        _monomial(n, (1, 1), (2, 1)),
        _monomial(n, (3, 1), (5, 1)),
        _monomial(n, (3, 1), (4, 1)),
        _monomial(n, (4, 1), (5, 1)),
    )


def test_tree_constants_ab(ab):
    g = canonical_complex_graph(ab)
    trees = tree_constants_symbolic(g)
    assert trees == (KPoly.variable(2, 1), KPoly.variable(2, 0))
    assert [k.evaluate([Fraction(2), Fraction(1)]) for k in trees] == [Fraction(1), Fraction(2)]
    assert tree_constants_eval(g, [Fraction(2), Fraction(3)]) == [Fraction(3), Fraction(2)]


def test_tree_constants_match_brute_force_enumeration(table1):
    rng = random.Random(52)
    graphs = [helpers.random_wr_graph(rng, max_nodes=6) for _ in range(10)]
    # a 7-node and an 8-node cycle with chords (complexes X..8X), and two
    # graphs that are not weakly reversible (p5 is one 7-node component)
    for m, chords in ((7, [(1, 4), (4, 1), (2, 6), (5, 3), (7, 2)]),
                      (8, [(1, 5), (5, 1), (3, 7), (8, 4), (6, 2)])):
        cycle = [(a, a % m + 1) for a in range(1, m + 1)]
        net = ReactionNetwork.assemble(["X"], [((a,), (b,), 1) for a, b in cycle + chords])
        graphs.append(canonical_complex_graph(net))
    graphs += [table1[5], table1[6]]
    for g in graphs:
        trees = tree_constants_symbolic(g)
        for node in range(1, g.m + 1):
            component = next(c for c in g.components if node in c)
            edge_ids = [
                j for j, (a, b) in enumerate(g.edges) if a in component and b in component
            ]
            # enumerate over the component only, then map local edge
            # positions back to global reaction indices
            relabel = {v: i + 1 for i, v in enumerate(sorted(component))}
            local = [(relabel[a], relabel[b]) for j, (a, b) in enumerate(g.edges) if j in edge_ids]
            found = oracles.spanning_in_trees(len(component), local, relabel[node])
            expected = KPoly.zero(g.network.p)
            for tree in found:
                exps = [0] * g.network.p
                for pos in tree:
                    exps[edge_ids[pos]] = 1
                expected = expected + KPoly.monomial(g.network.p, exps)
            assert trees[node - 1] == expected


def test_tree_constant_zero_without_in_trees():
    net = parse_network("r1: A -> B @ 1\n")
    g = canonical_split_graph(net)
    trees = tree_constants_symbolic(g)
    assert trees[0].is_zero
    assert trees[1] == KPoly.variable(1, 0)
    assert tree_constants_eval(g, [Fraction(5)]) == [Fraction(0), Fraction(5)]


def test_minor_route_agrees_with_symbolic():
    rng = random.Random(53)
    for _ in range(15):
        g = helpers.random_wr_graph(rng)
        trees = tree_constants_symbolic(g)
        for _ in range(2):
            kappa = helpers.random_kappa(rng, g.network.p)
            assert tree_constants_eval(g, kappa) == [k.evaluate(kappa) for k in trees]


def test_laplacian_columns_sum_to_zero(table1):
    rng = random.Random(54)
    kappa = helpers.random_kappa(rng, 6)
    lap = laplacian_matrix(table1[2], kappa)
    for j in range(table1[2].m):
        assert sum(lap[i][j] for i in range(table1[2].m)) == 0


def test_tree_constants_positive_for_weakly_reversible(table1):
    rng = random.Random(55)
    for i in (1, 2, 3, 4):
        kappa = helpers.random_kappa(rng, 6)
        assert all(v > 0 for v in tree_constants_eval(table1[i], kappa))


def test_balance_conditions_count_matches_deficiency(table1):
    for i in (1, 2, 3, 4):
        bc = balance_conditions(table1[i])
        assert len(bc.relations) == table1[i].deficiency
        assert bc.kernel_basis == integer_kernel_basis(table1[i])


def test_balance_conditions_requires_weak_reversibility(table1):
    with pytest.raises(NotWeaklyReversibleError):
        balance_conditions(table1[5])
    with pytest.raises(NotWeaklyReversibleError):
        check_kappa_balanced(table1[7], ONES)


def test_g4_expanded_conditions_are_the_reference_equations(table1):
    bc = balance_conditions(table1[4], expand=True)
    n = 6
    pairs = {(rel.lhs_poly, rel.rhs_poly) for rel in bc.relations}
    flipped = {(b, a) for a, b in pairs}
    reference = {
        (_monomial(n, (2, 3)), _monomial(n, (1, 1), (3, 2))),
        (_monomial(n, (4, 2)), _monomial(n, (1, 1), (2, 1))),
        (_monomial(n, (3, 1), (5, 1)), _monomial(n, (1, 1), (6, 1))),
    }
    assert reference <= (pairs | flipped)


def test_relation_sides_follow_kernel_signs(table1):
    bc = balance_conditions(table1[4])
    for rel in bc.relations:
        for node, e in rel.lhs:
            assert rel.u[node - 1] == e > 0
        for node, e in rel.rhs:
            assert rel.u[node - 1] == -e < 0


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


def test_balance_fixed_points(table1):
    for i in (1, 2, 3, 4):
        assert check_kappa_balanced(table1[i], ONES).balanced
    # kappa' = (1,1,1,1,2,2) separates the graphs: G_2 and G_3 reject it,
    # G_4 accepts it, and G_1 accepts it as well (its two conditions
    # evaluate to 9 = 9 on both sides)
    assert check_kappa_balanced(table1[1], KPRIME).balanced
    assert not check_kappa_balanced(table1[2], KPRIME).balanced
    assert not check_kappa_balanced(table1[3], KPRIME).balanced
    assert check_kappa_balanced(table1[4], KPRIME).balanced
    values = check_kappa_balanced(table1[4], KPRIME).values
    assert sorted((v.lhs, v.rhs) for v in values) == [(2, 2), (4, 4), (8, 8)]


def test_generated_conditions_match_reference_relations(table1):
    rng = random.Random(56)
    refs = {1: _reference_g1, 2: _reference_g23, 3: _reference_g23, 4: _reference_g4}
    for _ in range(150):
        kappa = helpers.random_kappa(rng, 6)
        for i, ref in refs.items():
            assert check_kappa_balanced(table1[i], kappa).balanced == ref(kappa)


def test_variety_samples_satisfy_their_own_graph(table1):
    rng = random.Random(57)
    for i in (1, 2, 3, 4):
        for _ in range(10):
            kappa, x_star = helpers.balanced_kappa(rng, table1[i])
            assert check_kappa_balanced(table1[i], kappa).balanced
            v = mass_action_rates(table1[i].network, x_star, kappa)
            assert all(r == 0 for r in node_balance_residual(table1[i], v))
            assert state_is_balanced(table1[i], x_star, kappa)


def test_binomials_ab(ab):
    g = canonical_complex_graph(ab)
    binomials = steady_state_binomials(check_kappa_balanced(g, [Fraction(2), Fraction(1)]))
    assert len(binomials) == 2
    first = binomials[0]
    assert first.edge == (1, 2)
    assert first.lhs_coeff == Fraction(2) and first.lhs_exps == (1, 0)
    assert first.rhs_coeff == Fraction(1) and first.rhs_exps == (0, 1)
    assert first.residual((Fraction(1), Fraction(2))) == 0
    assert first.residual((Fraction(1), Fraction(1))) == Fraction(1)


def test_a_binomial_refuses_a_state_of_the_wrong_length(running):
    # a 1-entry state must not read as a zero residual, nor a 3-entry one as -9
    check = check_kappa_balanced(canonical_complex_graph(running), KPRIME)
    first = steady_state_binomials(check)[0]
    for x in ((Fraction(1),), (Fraction(1),) * 3):
        with pytest.raises(ValueError, match=f"state has {len(x)} entries, network has 2 species"):
            first.residual(x)
    assert first.residual((Fraction(1), Fraction(1))) == 0


def test_binomials_g3_reduce_to_pairwise_equations(table1):
    rng = random.Random(58)
    kappa = helpers.random_kappa(rng, 6)
    binomials = steady_state_binomials(check_kappa_balanced(table1[3], kappa))
    by_reaction = {b.reaction: b for b in binomials}
    # edge of r2 ties the two complexes of distinct 3X2 nodes: the
    # binomial is kappa1 * (kappa2 x1 x2^2 - kappa6 x2^3)
    b2 = by_reaction[2]
    assert b2.lhs_coeff == kappa[0] * kappa[1]
    assert b2.rhs_coeff == kappa[0] * kappa[5]
    assert b2.lhs_exps == (1, 2) and b2.rhs_exps == (0, 3)
    b5 = by_reaction[5]
    assert b5.edge == (5, 6)
    assert b5.lhs_coeff == kappa[3] * kappa[4]
    assert b5.rhs_coeff == kappa[2] * kappa[3]
    assert b5.lhs_exps == (3, 0) and b5.rhs_exps == (0, 3)


def test_binomials_vanish_exactly_at_balanced_state(table1):
    rng = random.Random(59)
    kappa, x_star = helpers.balanced_kappa(rng, table1[4])
    for b in steady_state_binomials(check_kappa_balanced(table1[4], kappa)):
        assert b.residual(x_star) == 0


def test_solver_fixed_points(table1, ab):
    result = solve_positive_steady_state(check_kappa_balanced(table1[4], KPRIME))
    assert result.feasible
    assert result.x == pytest.approx((1.0, 1.0), abs=1e-9)
    ones = solve_positive_steady_state(check_kappa_balanced(table1[4], ONES))
    assert ones.x == pytest.approx((1.0, 1.0))
    bad = solve_positive_steady_state(check_kappa_balanced(table1[2], KPRIME))
    assert not bad.feasible and bad.x is None and bad.residual > 1e-3

    g = canonical_complex_graph(ab)
    res = solve_positive_steady_state(check_kappa_balanced(g, [2, 1]))
    assert res.feasible
    assert res.x[1] / res.x[0] == pytest.approx(2.0, rel=1e-9)


def test_the_solved_state_zeroes_every_binomial(running, fig2):
    # the solve reads N^T and the tree constants, not the binomials: tie the two
    # forms on every weakly reversible graph of running and fig2
    rng = random.Random(63)
    graphs = helpers.weakly_reversible_graphs(running) + helpers.weakly_reversible_graphs(fig2)
    assert len(graphs) == 9 + 103
    for g in graphs:
        kappa, _ = helpers.balanced_kappa(rng, g)
        check = check_kappa_balanced(g, kappa)
        x = solve_positive_steady_state(check).x
        for b in steady_state_binomials(check):
            sides = [
                float(c) * math.prod(v**e for v, e in zip(x, exps))
                for c, exps in ((b.lhs_coeff, b.lhs_exps), (b.rhs_coeff, b.rhs_exps))
            ]
            assert abs(b.residual(x)) <= 1e-9 * max(sides)


def test_solver_matches_ode_on_sampled_balanced_kappa(table1):
    rng = random.Random(60)
    for _ in range(10):
        kappa, _ = helpers.balanced_kappa(rng, table1[2])
        result = solve_positive_steady_state(check_kappa_balanced(table1[2], kappa))
        assert result.feasible
        rhs = ode_rhs(table1[2].network, result.x, [float(k) for k in kappa])
        assert max(abs(float(v)) for v in rhs) < 1e-7


def test_feasibility_matches_exact_balance_verdict(table1):
    rng = random.Random(61)
    for _ in range(30):
        kappa = helpers.random_kappa(rng, 6)
        for i in (1, 2, 4):
            check = check_kappa_balanced(table1[i], kappa)
            assert solve_positive_steady_state(check).feasible == check.balanced


def test_node_balance_residual_is_incidence_times_rates(table1):
    rng = random.Random(62)
    for g in (table1[1], table1[4], table1[6]):
        kappa = helpers.random_kappa(rng, 6)
        x = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(2)]
        v = mass_action_rates(g.network, x, kappa)
        assert node_balance_residual(g, v) == ratmat.matvec(g.incidence_matrix, v)


def test_residual_aggregates_under_coarsening(table1):
    rng = random.Random(63)
    kappa = helpers.random_kappa(rng, 6)
    x = [Fraction(2, 3), Fraction(5, 4)]
    v = mass_action_rates(table1[4].network, x, kappa)
    fine = node_balance_residual(table1[4], v)
    coarse = node_balance_residual(table1[1], v)
    phi = inclusion_morphism(table1[1], table1[4])
    assert ratmat.matvec(phi.matrix, fine) == coarse


def test_state_is_balanced_float_tolerance(table1):
    g = table1[4]
    assert state_is_balanced(g, (1.0, 1.0), [1.0, 1.0, 1.0, 1.0, 2.0, 2.0])
    assert not state_is_balanced(g, (1.0, 2.0), [1.0, 1.0, 1.0, 1.0, 2.0, 2.0])


def _balance_verdicts(g, x, kappa) -> set:
    """Three verdicts on node balance of x for g; the decomposition views must agree."""
    net = g.network
    split = SubnetworkSplit(net, ((1, 2, 6),))
    assert decomposition_check(net, g, split, kappa, x).agree
    return {
        state_is_balanced(g, x, kappa),
        omega_symmetry_check(g, x, kappa).symmetric,
        verify_lift(net, g, kappa, x).base_balanced,
    }


def test_one_zero_rule_gives_one_verdict(table1):
    rng = random.Random(66)
    for i in (1, 2, 3, 4):
        g = table1[i]
        kappa, x_star = helpers.balanced_kappa(rng, g)
        float_kappa = [float(k) for k in kappa]
        # balanced states are x* exp(S-perp), S-perp = span(1, 1) here
        off = (x_star[0] * Fraction(11, 10), x_star[1])
        for x, expected in ((x_star, True), (off, False)):
            float_x = [float(v) for v in x]
            for state, rates in ((x, kappa), (float_x, float_kappa), (float_x, kappa)):
                assert _balance_verdicts(g, state, rates) == {expected}
        # exact input is decided exactly, however small the defect
        near = (x_star[0] * (1 + Fraction(1, 10**15)), x_star[1])
        assert _balance_verdicts(g, near, kappa) == {False}
        assert _balance_verdicts(g, [float(v) for v in near], kappa) == {True}


def test_rate_matrix_entries(running):
    kappa = [Fraction(i + 1) for i in range(6)]
    x = (Fraction(1), Fraction(2))
    rho = rate_matrix(running, x, kappa)
    v = mass_action_rates(running, x, kappa)
    for k, r in enumerate(running.reactions):
        assert rho[r.target][r.source] == v[k]
    assert rho[1][0] == v[0]
    assert rho[0][0] == 0


def test_omega_symmetry_matches_residual_everywhere():
    rng = random.Random(64)
    for _ in range(15):
        g = helpers.random_wr_graph(rng)
        kappa = helpers.random_kappa(rng, g.network.p)
        x = [Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(g.network.n)]
        check = omega_symmetry_check(g, x, kappa)
        assert check.matches_residual
        assert check.symmetric == all(r == 0 for r in check.residual)


def test_omega_symmetry_at_balanced_state(table1):
    rng = random.Random(65)
    kappa, x_star = helpers.balanced_kappa(rng, table1[1])
    check = omega_symmetry_check(table1[1], x_star, kappa)
    assert check.symmetric and check.matches_residual
    off = omega_symmetry_check(table1[1], (Fraction(7), Fraction(1)), kappa)
    assert not off.symmetric


def test_incremental_condition_g4(table1):
    cond = incremental_condition(table1[4], 1, 5)
    assert cond.kind is StepKind.SAME_COMPONENT
    assert cond.extra_condition
    assert {cond.lhs, cond.rhs} == {
        _monomial(6, (3, 1), (5, 1)),
        _monomial(6, (1, 1), (6, 1)),
    }
    assert cond.holds(ONES)
    assert cond.holds(KPRIME)
    assert not cond.holds([1, 1, 1, 1, 1, 2])


def test_incremental_condition_g3(table1):
    cond = incremental_condition(table1[3], 3, 6)
    assert cond.kind is StepKind.DIFFERENT_COMPONENTS
    assert not cond.extra_condition
    assert cond.lhs is None and cond.rhs is None
    assert cond.holds([1, 2, 3, 4, 5, 6])


def test_incremental_condition_validates_inputs(table1):
    with pytest.raises(ValueError, match="label"):
        incremental_condition(table1[4], 1, 2)
    with pytest.raises(ValueError, match="out of range"):
        incremental_condition(table1[4], 3, 6)
    with pytest.raises(ValueError, match="itself"):
        incremental_condition(table1[4], 5, 5)
    with pytest.raises(NotWeaklyReversibleError):
        incremental_condition(table1[6], 9, 10)


@pytest.mark.parametrize(
    "entry", [float("inf"), True, Fraction(-1)], ids=["inf", "bool", "negative"]
)
def test_kappa_entry_rule_in_checks_and_joins(running, table1, entry):
    kappa = [entry, 1, 1, 1, 2, 2]
    with pytest.raises(ValueError, match=r"kappa\[0\]"):
        check_kappa_balanced(canonical_complex_graph(running), kappa)
    for g, pair in ((table1[4], (1, 5)), (table1[3], (3, 6))):  # with and without a condition
        with pytest.raises(ValueError, match=r"kappa\[0\]"):
            incremental_condition(g, *pair).holds(kappa)
    with pytest.raises(ValueError, match="6 reactions"):
        incremental_condition(table1[4], 1, 5).holds(KPRIME[:5])


def test_exact_kappa_of_any_size_is_checked(running):
    huge = Fraction(10) ** 400
    g = canonical_complex_graph(running)
    assert check_kappa_balanced(g, [huge * k for k in KPRIME]).balanced
    assert not check_kappa_balanced(g, [huge] + KPRIME[1:]).balanced


def test_kappa_none_reads_the_stored_rates(ab, running, table1):
    # as in numeric_kappa, mass_action_rates and simulate; refused when a rate is symbolic
    entries = (check_kappa_balanced, tree_constants_eval, laplacian_matrix)
    g = canonical_complex_graph(ab)
    for entry in entries:
        assert entry(g, None) == entry(g, [2, 1])
    for entry in entries:
        with pytest.raises(ValueError, match="pass kappa$"):
            entry(canonical_complex_graph(running), None)
    with pytest.raises(ValueError, match="pass kappa$"):
        incremental_condition(table1[4], 1, 5).holds(None)


def test_each_entry_validates_kappa_only_in_the_callees_that_read_it(running, table1, monkeypatch):
    # one validation checks kappa[0] first: the check validates in tree_constants_eval,
    # birch_point in its check and float model, verify_lift in two rate vectors and
    # the lifted kappa, decomposition_check and omega_symmetry_check in their one
    # rate vector
    checked = []
    check_number = network._check_number

    def counted(value, name):
        checked.append(name)
        check_number(value, name)

    monkeypatch.setattr(network, "_check_number", counted)
    for call, most in (
        (lambda: check_kappa_balanced(table1[4], KPRIME), 1),
        (lambda: birch_point(running, table1[4], KPRIME, (2, 0)), 2),
        (lambda: verify_lift(running, table1[4], KPRIME, (Fraction(1), Fraction(1))), 3),
        (lambda: decomposition_check(
            running, table1[1], SubnetworkSplit(running, ((1, 2, 6),)), KPRIME, (1, 1)
        ), 1),
        (lambda: omega_symmetry_check(table1[1], (1, 1), KPRIME), 1),
    ):
        checked.clear()
        call()
        assert 0 < checked.count("kappa[0]") <= most


def test_incremental_verdict_equivalence(table1):
    rng = random.Random(66)
    cond = incremental_condition(table1[4], 1, 5)
    joined, _ = join_nodes(table1[4], 1, 5)
    for _ in range(40):
        if rng.random() < 0.5:
            kappa = helpers.random_kappa(rng, 6)
        else:
            kappa, _ = helpers.balanced_kappa(rng, joined)
        whole = check_kappa_balanced(table1[4], kappa).balanced
        split = check_kappa_balanced(joined, kappa).balanced and cond.holds(kappa)
        assert whole == split


def test_every_running_join_separates_finer_from_coarser_balance(running):
    # every same-label join of every weakly reversible graph of running
    rng = random.Random(68)
    graphs = [graph_from_partition(running, p) for p in enumerate_admissible_partitions(running)]
    joins = 0
    for g in (g for g in graphs if g.is_weakly_reversible):
        for i1 in range(1, g.m + 1):
            for i2 in range(i1 + 1, g.m + 1):
                if g.labels[i1 - 1] != g.labels[i2 - 1]:
                    continue
                cond = incremental_condition(g, i1, i2)
                joined, kind = join_nodes(g, i1, i2)
                assert kind is cond.kind and joined.is_weakly_reversible
                kappas = [helpers.balanced_kappa(rng, g)[0] for _ in range(3)]
                kappas += [helpers.balanced_kappa(rng, joined)[0] for _ in range(3)]
                kappas += [helpers.random_kappa(rng, running.p) for _ in range(2)]
                for kappa in kappas:
                    fine = check_kappa_balanced(g, kappa).balanced
                    coarse = check_kappa_balanced(joined, kappa).balanced
                    assert fine == (coarse and cond.holds(kappa))
                joins += 1
    assert joins == 12  # 8 within one component, 4 across two


def test_fig2_incremental_conditions(fig2_graphs):
    n = 8
    g1_sum = (
        _monomial(n, (1, 1), (5, 1), (6, 1))
        + _monomial(n, (2, 1), (4, 1), (6, 1))
        + _monomial(n, (4, 1), (5, 1), (6, 1))
    )
    g1_mono = _monomial(n, (1, 1), (3, 1), (7, 1))
    cond1 = incremental_condition(fig2_graphs[1], 2, 4)
    assert cond1.kind is StepKind.SAME_COMPONENT
    assert {cond1.lhs, cond1.rhs} == {g1_mono, g1_sum}

    g2_sum = _monomial(n, (1, 1), (3, 1), (5, 1)) + _monomial(n, (1, 1), (3, 1), (7, 1))
    g2_mono = _monomial(n, (2, 1), (4, 1), (6, 1))
    cond2 = incremental_condition(fig2_graphs[2], 2, 4)
    assert {cond2.lhs, cond2.rhs} == {g2_mono, g2_sum}


def test_detailed_graph_balance_is_the_wegscheider_condition():
    # the paper's detailed-balance special case: node balance on the
    # detailed graph, against the exact Wegscheider test that uses no
    # tree constants; only deficiency >= 1 counts, where the verdict can
    # fail. Doubling one rate of a balanced kappa keeps it balanced exactly
    # when that reaction's pair lies on no Wegscheider cycle.
    rng = random.Random(1989)
    verdicts = {True: 0, False: 0}
    networks = 0
    while networks < 120:
        net = helpers.random_reversible_network(rng)
        g = detailed_graph(net)
        if g.deficiency < 1:
            continue
        networks += 1
        balanced, _ = helpers.balanced_kappa(rng, g)
        nudged = list(balanced)
        nudged[rng.randrange(net.p)] *= 2
        for kappa in (balanced, nudged, helpers.random_kappa(rng, net.p)):
            verdict = check_kappa_balanced(g, kappa).balanced
            assert verdict == oracles.wegscheider_holds(net, kappa), (net, kappa)
            verdicts[verdict] += 1
    assert min(verdicts.values()) >= 120, verdicts


def test_positive_kernel_flux(table1):
    rng = random.Random(67)
    for i in (1, 2, 3, 4):
        flux = positive_kernel_flux(table1[i])
        assert all(f > 0 for f in flux)
        assert all(
            v == 0 for v in ratmat.matvec(table1[i].incidence_matrix, flux)
        )
        weights = helpers.random_kappa(rng, 6)
        flux2 = positive_kernel_flux(table1[i], weights)
        assert all(f > 0 for f in flux2)
        assert all(
            v == 0 for v in ratmat.matvec(table1[i].incidence_matrix, flux2)
        )
    with pytest.raises(NotWeaklyReversibleError):
        positive_kernel_flux(table1[5])


def test_positive_kernel_flux_refuses_a_weight_count_other_than_p(running, table1):
    # too few weights must not raise IndexError, nor extra ones be ignored;
    # the count is checked before weak reversibility
    g = canonical_complex_graph(running)
    for count in (2, 10):
        with pytest.raises(ValueError, match=f"^{count} weights for 6 reactions$"):
            positive_kernel_flux(g, [Fraction(1)] * count)
    with pytest.raises(ValueError, match="^2 weights for 6 reactions$"):
        positive_kernel_flux(table1[5], [Fraction(1)] * 2)


def test_the_deficiency_counts_independent_relations(running_wr_graphs, fig2_graphs):
    # the abstract's deficiency theorem: at a balanced kappa the log
    # Jacobian of the relations K^u = 1 has full rank, checked by in-tree
    # enumeration and a sympy kernel, with no package algebra
    rng = random.Random(2009)
    graphs = [*running_wr_graphs, *fig2_graphs.values()]
    graphs += [helpers.random_wr_graph(rng) for _ in range(200)]
    deficiencies = []
    for g in graphs:
        kappa, _ = helpers.balanced_kappa(rng, g)
        labels = [g.label_vector(node) for node in range(1, g.m + 1)]
        dimension, rank = oracles.relation_jacobian_rank(labels, g.edges, kappa)
        assert dimension == rank == g.deficiency, (g.edges, kappa)
        deficiencies.append(g.deficiency)
    assert sum(d >= 1 for d in deficiencies) >= 80, deficiencies
    assert max(deficiencies) >= 3


def test_a_complex_balanced_kappa_need_not_be_detailed_balanced():
    # the paper's two special cases differ. balanced_kappa's flux on a
    # reversible complex graph is symmetric, so detailed balanced; adding
    # a circulation around a cycle of length >= 3 raises the product of
    # forward over backward flux ratios on that cycle above 1, which
    # breaks its Wegscheider condition but keeps complex balance
    rng = random.Random(1972)
    networks = 0
    while networks < 60:
        net = helpers.random_reversible_network(rng)
        complex_graph = canonical_complex_graph(net)
        circulating = helpers.circulating_kappa(rng, complex_graph)
        if circulating is None:
            continue
        networks += 1
        symmetric, _ = helpers.balanced_kappa(rng, complex_graph)
        for kappa, expected in ((circulating[0], False), (symmetric, True)):
            assert check_kappa_balanced(complex_graph, kappa).balanced
            detailed = check_kappa_balanced(detailed_graph(net), kappa).balanced
            assert detailed == oracles.wegscheider_holds(net, kappa) == expected, (net, kappa)


def test_the_tree_cache_lets_go_of_a_dropped_graph():
    # the cache serves the calls of one analysis (the expanded conditions, then
    # incremental_condition per pair); a graph dropped by its caller is freed,
    # with its network and tree polynomials, once 16 others have been analysed
    rng = random.Random(1701)
    g = helpers.random_wr_graph(rng)
    balance_conditions(g, expand=True)
    dropped = weakref.ref(g)
    del g
    others = []  # distinct, since an equal graph would be a cache hit on the dropped key
    while len(others) < 16:
        other = helpers.random_wr_graph(rng)
        if other != dropped() and other not in others:
            others.append(other)
    for other in others:
        balance_conditions(other, expand=True)
    gc.collect()
    assert dropped() is None
