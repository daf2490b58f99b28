"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the code under test: linear algebra
goes through sympy, feasibility questions through scipy, and the
combinatorial quantities are recomputed by brute force.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import sympy


def _sympy_matrix(rows: Sequence[Sequence]) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(v) for v in row] for row in rows])


def sympy_rank(rows: Sequence[Sequence]) -> int:
    return _sympy_matrix(rows).rank()


def sympy_nullspace(rows: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    basis = _sympy_matrix(rows).nullspace()
    return [tuple(Fraction(v.p, v.q) for v in vec) for vec in basis]


def sympy_det(rows: Sequence[Sequence]) -> Fraction:
    value = sympy.Rational(_sympy_matrix(rows).det())
    return Fraction(value.p, value.q)


def same_rational_span(a: Sequence[Sequence], b: Sequence[Sequence]) -> bool:
    """True when the row spans of a and b agree over the rationals."""
    ma, mb = _sympy_matrix(list(a)), _sympy_matrix(list(b))
    stacked = ma.col_join(mb)
    return ma.rank() == mb.rank() == stacked.rank()


def spanning_in_trees(
    n_nodes: int, edges: Sequence[tuple[int, int]], root: int
) -> set[frozenset[int]]:
    """All spanning in-trees rooted at ``root``, by exhaustive subset search.

    Nodes are 1..n_nodes and every node must reach the root inside the
    chosen subset; each edge index may appear at most once.  Returns the
    set of edge-index sets.
    """
    others = [v for v in range(1, n_nodes + 1) if v != root]
    found: set[frozenset[int]] = set()
    if not others:
        return {frozenset()}
    for subset in combinations(range(len(edges)), len(others)):
        out: dict[int, int] = {}
        ok = True
        for idx in subset:
            a, b = edges[idx]
            if a == root or a in out:
                ok = False
                break
            out[a] = b
        if not ok or len(out) != len(others):
            continue
        for start in others:
            seen = set()
            node = start
            while node != root:
                if node in seen or node not in out:
                    ok = False
                    break
                seen.add(node)
                node = out[node]
            if not ok:
                break
        if ok:
            found.add(frozenset(subset))
    return found


def positive_kernel_exists(incidence: Sequence[Sequence]) -> bool:
    """Whether C v = 0 has a strictly positive solution (scipy linprog)."""
    from scipy.optimize import linprog

    rows = [[float(v) for v in row] for row in incidence]
    n_cols = len(rows[0])
    result = linprog(
        c=[0.0] * n_cols,
        A_eq=rows,
        b_eq=[0.0] * len(rows),
        bounds=[(1.0, None)] * n_cols,
        method="highs",
    )
    return bool(result.success)


def weak_and_strong_components(
    n_nodes: int, edges: Sequence[tuple[int, int]]
) -> tuple[set[frozenset[int]], set[frozenset[int]]]:
    """Component sets recomputed with plain reachability closures."""
    forward: dict[int, set[int]] = {v: set() for v in range(1, n_nodes + 1)}
    undirected: dict[int, set[int]] = {v: set() for v in range(1, n_nodes + 1)}
    for a, b in edges:
        forward[a].add(b)
        undirected[a].add(b)
        undirected[b].add(a)

    def closure(start: int, adj: dict[int, set[int]]) -> frozenset[int]:
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    weak = {closure(v, undirected) for v in range(1, n_nodes + 1)}
    reach = {v: closure(v, forward) for v in range(1, n_nodes + 1)}
    strong = set()
    for v in range(1, n_nodes + 1):
        strong.add(frozenset(w for w in reach[v] if v in reach[w]))
    return weak, strong


def wegscheider_holds(net, kappa: Sequence) -> bool:
    """Detailed balance by the Wegscheider conditions, with no tree constants.

    Every reaction must have its reverse in ``net``. Detailed balance
    holds exactly when prod_r (k_r / k_r')^w_r = 1 for every w in the
    kernel of the matrix whose columns are the reaction vectors of the
    reversible pairs (r, r').
    """
    index = {(r.source, r.target): j for j, r in enumerate(net.reactions)}
    pairs = [(j, index[(r.target, r.source)]) for j, r in enumerate(net.reactions)
             if r.source < r.target]
    columns = [
        [t - s for s, t in zip(net.complexes[net.reactions[f].source].coeffs,
                               net.complexes[net.reactions[f].target].coeffs)]
        for f, _ in pairs
    ]
    vectors = [list(row) for row in zip(*columns)]
    for w in sympy_nullspace(vectors):
        scale = math.lcm(*(v.denominator for v in w))
        product = Fraction(1)
        for (f, b), v in zip(pairs, w):
            product *= (Fraction(kappa[f]) / Fraction(kappa[b])) ** int(v * scale)
        if product != 1:
            return False
    return True


def relation_jacobian_rank(
    labels: Sequence[Sequence[int]], edges: Sequence[tuple[int, int]], kappa: Sequence
) -> tuple[int, int]:
    """(kernel dimension, rank of J) for a weakly reversible graph.

    Nodes are 1..len(labels) with the given complex labels, and edge j
    carries kappa[j]. The Cayley matrix stacks the labels on component
    indicators, and its kernel comes from sympy. Then
    J[u][j] = sum_i u_i kappa_j dK_i/dkappa_j / K_i, where K_i sums the
    edge products of the in-trees of node i's component rooted at i, and
    kappa_j dK_i/dkappa_j sums those of the trees that use edge j (tree
    constants are multilinear). Its rank counts the independent relations.
    """
    m = len(labels)
    weak, _ = weak_and_strong_components(m, edges)
    components = sorted(sorted(c) for c in weak)
    cayley = [[lab[k] for lab in labels] for k in range(len(labels[0]))]
    cayley += [[1 if v in comp else 0 for v in range(1, m + 1)] for comp in components]
    basis = sympy_nullspace(cayley)
    trees_k = [Fraction(0)] * m
    used = [[Fraction(0)] * len(edges) for _ in range(m)]
    for comp in components:
        local = {v: i + 1 for i, v in enumerate(comp)}
        inner = [j for j, (a, b) in enumerate(edges) if a in local and b in local]
        local_edges = [(local[edges[j][0]], local[edges[j][1]]) for j in inner]
        for root in comp:
            for tree in spanning_in_trees(len(comp), local_edges, local[root]):
                product = Fraction(1)
                for t in tree:
                    product *= Fraction(kappa[inner[t]])
                trees_k[root - 1] += product
                for t in tree:
                    used[root - 1][inner[t]] += product
    jac = [
        [sum(u[i] * used[i][j] / trees_k[i] for i in range(m)) for j in range(len(edges))]
        for u in basis
    ]
    return len(basis), sympy_rank(jac) if jac else 0


def sympy_bell(k: int) -> int:
    return int(sympy.functions.combinatorial.numbers.bell(k))


def brute_set_partitions(items: Sequence[int]) -> set[frozenset[frozenset[int]]]:
    """Every partition of ``items`` built by direct recursion."""
    items = list(items)
    if not items:
        return {frozenset()}
    head, rest = items[0], items[1:]
    out: set[frozenset[frozenset[int]]] = set()
    for sub in brute_set_partitions(rest):
        out.add(sub | {frozenset({head})})
        for block in sub:
            grown = (sub - {block}) | {block | {head}}
            out.add(frozenset(grown))
    return out


def reference_final_state(net, x0, kappa, t_end: float):
    """Integrate the mass-action ODE with scipy and return x(t_end)."""
    import numpy as np
    from scipy.integrate import solve_ivp

    kap = np.array([float(k) for k in kappa])
    sources = np.array(
        [[float(c) for c in net.complexes[r.source].coeffs] for r in net.reactions]
    )
    stoich = np.array([[float(v) for v in row] for row in net.stoichiometric_matrix])

    def rhs(_t, x):
        v = kap * np.prod(x[None, :] ** sources, axis=1)
        return stoich @ v

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        np.array([float(v) for v in x0]),
        method="LSODA",
        rtol=1e-10,
        atol=1e-12,
    )
    assert sol.success
    return sol.y[:, -1]


def cube_root_line_point(ratio: Fraction, total: Fraction) -> tuple[float, float]:
    """Closed form for x1 + x2 = total with (x2/x1)^3 = ratio, both positive."""
    r = float(ratio) ** (1.0 / 3.0)
    x1 = float(total) / (1.0 + r)
    return x1, float(total) - x1
