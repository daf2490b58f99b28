"""Node-balance machinery: tree constants, kernel conditions, binomials.

For a weakly reversible reaction graph the positive states with zero
inflow-outflow difference at every node form a toric set governed by the
tree constants K_i (sums over spanning in-trees rooted at node i of the
products of edge rate constants). A rate vector kappa admits such a
state iff K^u = 1 for every u in the kernel of the Cayley matrix, and
the states themselves solve one binomial per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from . import ratmat
from .graphs import ReactionGraph, StepKind
from .kpoly import KPoly, cancel_common_content
from .network import ReactionNetwork, mass_action_rates, numeric_kappa

# The float bound of residual_is_zero.
RESIDUAL_TOL = 1e-9


class NotWeaklyReversibleError(ValueError):
    """Raised when an operation needs every component strongly connected."""


def _require_weakly_reversible(g: ReactionGraph, what: str) -> None:
    if not g.is_weakly_reversible:
        raise NotWeaklyReversibleError(f"{what} needs a weakly reversible graph")


def _exact_kappa(g: ReactionGraph, kappa: Sequence) -> list[Fraction]:
    return [Fraction(v) for v in numeric_kappa(g.network, kappa)]


def cayley_matrix(g: ReactionGraph) -> tuple[tuple[int, ...], ...]:
    """Labeling matrix Y stacked on component indicator rows; kernel has dim = deficiency."""
    label_rows = list(zip(*(g.label_vector(v) for v in range(1, g.m + 1))))
    indicator_rows = [
        tuple(1 if g.component_of[node - 1] == cid else 0 for node in range(1, g.m + 1))
        for cid in range(1, g.n_components + 1)
    ]
    return tuple(label_rows + indicator_rows)


def integer_kernel_basis(g: ReactionGraph) -> tuple[tuple[int, ...], ...]:
    """Primitive integer basis of ker A_G (deterministic echelon construction)."""
    basis = tuple(ratmat.nullspace(cayley_matrix(g)))
    assert len(basis) == g.deficiency, (
        f"kernel dimension {len(basis)} != deficiency {g.deficiency}"
    )
    return basis


@lru_cache(maxsize=8)
def tree_constants_symbolic(g: ReactionGraph) -> tuple[KPoly, ...]:
    """K_G as polynomials in k1..kp, one per node, by spanning in-tree enumeration.

    Every node but the root picks one out-edge; a pick is refused when
    following the picks already made from its target leads back to the
    node, so each complete set of picks is one in-tree. Nodes in
    components that are not strongly connected may come out as the zero
    polynomial (no in-tree reaches them).
    """
    p = g.network.p
    out_edges: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, g.m + 1)}
    for j, (a, b) in enumerate(g.edges):
        out_edges[a].append((b, j))
    polys: list[KPoly] = [KPoly.zero(p)] * g.m
    for comp in g.components:
        for root in comp:
            others = [v for v in comp if v != root]
            picks: dict[int, tuple[int, int]] = {}
            terms = []

            def walk(i: int) -> None:
                if i == len(others):
                    exps = [0] * p
                    for _, j in picks.values():
                        exps[j] = 1
                    terms.append((tuple(exps), 1))
                    return
                node = others[i]
                for edge in out_edges[node]:
                    end = edge[0]
                    while end in picks:
                        end = picks[end][0]
                    if end != node:
                        picks[node] = edge
                        walk(i + 1)
                        del picks[node]

            walk(0)
            polys[root - 1] = KPoly.from_terms(p, terms)
    return tuple(polys)


def laplacian_matrix(g: ReactionGraph, kappa: Sequence) -> list[list[Fraction]]:
    """m x m Laplacian with columns summing to zero.

    Entry (b,a) collects the exact rate constants of edges a->b.
    """
    kap = _exact_kappa(g, kappa)
    rows = [[Fraction(0) for _ in range(g.m)] for _ in range(g.m)]
    for j, (a, b) in enumerate(g.edges):
        rows[b - 1][a - 1] += kap[j]
        rows[a - 1][a - 1] -= kap[j]
    return rows


def tree_constants_eval(g: ReactionGraph, kappa: Sequence) -> list[Fraction]:
    """Signed-minor route for K_G(kappa): exact rational determinants.

    For each component take its local Laplacian L, remove the last row
    and column i, and K_i = (-1)^(i+1) det (i the 1-based local index).
    Independent of the enumeration route on purpose.
    """
    full = laplacian_matrix(g, kappa)
    values: list[Fraction] = [Fraction(0)] * g.m
    for comp in g.components:
        local = [[full[a - 1][b - 1] for b in comp] for a in comp]
        size = len(comp)
        for i, node in enumerate(comp, start=1):
            minor = [
                [local[r][c] for c in range(size) if c != i - 1]
                for r in range(size - 1)
            ]
            value = ratmat.det(minor) * (-1) ** (i + 1)
            assert value >= 0, f"negative tree constant {value} at node {node}"
            values[node - 1] = value
    if g.is_weakly_reversible:
        assert all(v > 0 for v in values), "zero tree constant on a weakly reversible graph"
    return values


@dataclass(frozen=True)
class Relation:
    """One monomial identity prod K_i^e = prod K_j^e from a kernel vector."""

    u: tuple[int, ...]
    lhs: tuple[tuple[int, int], ...]
    rhs: tuple[tuple[int, int], ...]
    lhs_poly: KPoly | None = None
    rhs_poly: KPoly | None = None


@dataclass(frozen=True)
class BalanceConditions:
    graph: ReactionGraph
    kernel_basis: tuple[tuple[int, ...], ...]
    relations: tuple[Relation, ...]


def _side_product(side: Sequence[tuple[int, int]], values: Sequence, one):
    """prod values[node - 1] ** e over one side of a relation, starting from one."""
    out = one
    for node, e in side:
        out = out * values[node - 1] ** e
    return out


def balance_conditions(g: ReactionGraph, expand: bool = False) -> BalanceConditions:
    """The deficiency-many conditions on kappa for node balanceability.

    Each kernel vector u of the Cayley matrix splits into the relation
    prod_{u_i>0} K_i^{u_i} = prod_{u_i<0} K_i^{-u_i}; with expand=True
    both sides are also multiplied out to polynomials in kappa.
    """
    _require_weakly_reversible(g, "balance_conditions")
    basis = integer_kernel_basis(g)
    trees = tree_constants_symbolic(g) if expand else None
    relations = []
    for u in basis:
        lhs = tuple((i + 1, e) for i, e in enumerate(u) if e > 0)
        rhs = tuple((i + 1, -e) for i, e in enumerate(u) if e < 0)
        lhs_poly = rhs_poly = None
        if trees is not None:
            one = KPoly.constant(g.network.p, 1)
            lhs_poly, rhs_poly = cancel_common_content(
                _side_product(lhs, trees, one), _side_product(rhs, trees, one)
            )
        relations.append(Relation(u, lhs, rhs, lhs_poly, rhs_poly))
    return BalanceConditions(g, basis, tuple(relations))


@dataclass(frozen=True)
class RelationValue:
    relation: Relation
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class BalanceCheck:
    """What check_kappa_balanced returns: graph and its exact tree constants K
    at the kappa checked; values evaluates each kernel relation at K when read."""

    graph: ReactionGraph
    constants: tuple[Fraction, ...]

    @cached_property
    def values(self) -> tuple[RelationValue, ...]:
        k, one = self.constants, Fraction(1)
        return tuple(
            RelationValue(rel, _side_product(rel.lhs, k, one), _side_product(rel.rhs, k, one))
            for rel in balance_conditions(self.graph).relations
        )

    @property
    def balanced(self) -> bool:
        return all(v.holds for v in self.values)


def check_kappa_balanced(g: ReactionGraph, kappa: Sequence) -> BalanceCheck:
    """Exact test: does kappa admit a positive node balanced steady state?

    True iff every kernel relation holds with equality; the report keeps
    each relation's two sides as exact rationals.
    """
    _require_weakly_reversible(g, "check_kappa_balanced")
    return BalanceCheck(g, tuple(tree_constants_eval(g, kappa)))


@dataclass(frozen=True)
class Binomial:
    """K_j x^(Y_i) - K_i x^(Y_j) for the edge (i,j); zero at node balanced states."""

    edge: tuple[int, int]
    reaction: int
    lhs_coeff: Fraction
    lhs_exps: tuple[int, ...]
    rhs_coeff: Fraction
    rhs_exps: tuple[int, ...]

    def residual(self, x: Sequence):
        n = len(self.lhs_exps)
        if len(x) != n:
            raise ValueError(f"state has {len(x)} entries, network has {n} species")
        lhs = self.lhs_coeff
        rhs = self.rhs_coeff
        for xv, e1, e2 in zip(x, self.lhs_exps, self.rhs_exps):
            if e1:
                lhs = lhs * xv**e1
            if e2:
                rhs = rhs * xv**e2
        return lhs - rhs


def steady_state_binomials(check: BalanceCheck) -> tuple[Binomial, ...]:
    """One binomial equation per edge of check.graph, with check's tree
    constants; their common positive zeros are the node balanced steady states."""
    g, constants = check.graph, check.constants
    out = []
    for j, (a, b) in enumerate(g.edges):
        out.append(
            Binomial(
                edge=(a, b),
                reaction=j + 1,
                lhs_coeff=constants[b - 1],
                lhs_exps=g.label_vector(a),
                rhs_coeff=constants[a - 1],
                rhs_exps=g.label_vector(b),
            )
        )
    return tuple(out)


def node_balance_residual(g: ReactionGraph, rates: Sequence) -> list:
    """C_G times a rate vector; the zero vector characterizes node balance."""
    if len(rates) != g.network.p:
        raise ValueError(f"rate vector has {len(rates)} entries, expected {g.network.p}")
    return ratmat.matvec(g.incidence_matrix, rates)


def residual_is_zero(residual: Sequence) -> bool:
    """The zero rule for every balance residual.

    Exact when every entry is an int or Fraction; otherwise every entry
    must be below RESIDUAL_TOL in absolute value.
    """
    if all(isinstance(r, (int, Fraction)) for r in residual):
        return all(r == 0 for r in residual)
    return all(abs(float(r)) < RESIDUAL_TOL for r in residual)


def state_is_balanced(g: ReactionGraph, x: Sequence, kappa: Sequence | None = None) -> bool:
    """Node balance of a concrete state; exact for rational inputs."""
    v = mass_action_rates(g.network, x, kappa)
    return residual_is_zero(node_balance_residual(g, v))


def rate_matrix(net: ReactionNetwork, x: Sequence, kappa: Sequence | None = None) -> list[list]:
    """m x m matrix rho(x) with entry (i,j) = v_k(x) for the reaction y_j -> y_i."""
    v = mass_action_rates(net, x, kappa)
    rows = [[0 for _ in range(net.m)] for _ in range(net.m)]
    for k, r in enumerate(net.reactions):
        rows[r.target][r.source] = v[k]
    return rows


@dataclass(frozen=True)
class OmegaCheck:
    difference: tuple
    residual: tuple
    symmetric: bool
    matches_residual: bool


def omega_symmetry_check(g: ReactionGraph, x: Sequence, kappa: Sequence | None = None) -> OmegaCheck:
    """Symmetry form of node balance.

    Lifts rho(x) to node level (entry (i1,i2) = rho entry of the labels
    when the edge i2->i1 exists), then compares row sums against column
    sums. The difference equals C_G v(x) entry for entry.
    """
    rho = rate_matrix(g.network, x, kappa)
    m = g.m
    lifted = [[0 for _ in range(m)] for _ in range(m)]
    for a, b in g.edges:
        lifted[b - 1][a - 1] = rho[g.labels[b - 1]][g.labels[a - 1]]
    difference = tuple(
        sum(lifted[i][j] for j in range(m)) - sum(lifted[j][i] for j in range(m))
        for i in range(m)
    )
    v = mass_action_rates(g.network, x, kappa)
    residual = tuple(node_balance_residual(g, v))
    matches = residual_is_zero([a - b for a, b in zip(difference, residual)])
    return OmegaCheck(difference, residual, residual_is_zero(difference), matches)


@dataclass(frozen=True)
class IncrementalCondition:
    """Extra balance identity created by joining two equally labeled nodes."""

    graph: ReactionGraph
    kind: StepKind
    node_pair: tuple[int, int]
    lhs: KPoly | None
    rhs: KPoly | None

    @property
    def extra_condition(self) -> bool:
        return self.kind is StepKind.SAME_COMPONENT

    def holds(self, kappa: Sequence) -> bool:
        kap = _exact_kappa(self.graph, kappa)
        if self.lhs is None:
            return True
        return self.lhs.evaluate(kap) == self.rhs.evaluate(kap)


def incremental_condition(g: ReactionGraph, i1: int, i2: int) -> IncrementalCondition:
    """The extra identity tying balance of g to balance of join_nodes(g, i1, i2).

    Nodes in different components need no extra condition; in the same
    component the identity is K_{i1} = K_{i2} with common monomial
    content cancelled.
    """
    _require_weakly_reversible(g, "incremental_condition")
    if g.join_kind(i1, i2) is StepKind.DIFFERENT_COMPONENTS:
        return IncrementalCondition(g, StepKind.DIFFERENT_COMPONENTS, (i1, i2), None, None)
    trees = tree_constants_symbolic(g)
    lhs, rhs = cancel_common_content(trees[i1 - 1], trees[i2 - 1])
    return IncrementalCondition(g, StepKind.SAME_COMPONENT, (i1, i2), lhs, rhs)


def positive_kernel_flux(g: ReactionGraph, weights: Sequence | None = None) -> list[Fraction]:
    """A strictly positive rational vector in ker C_G (weakly reversible graphs).

    Built as a positive combination of directed cycles, one through each
    edge; optional per-edge weights vary the combination. Useful for
    sampling node balanced rate constants: kappa_j = flux_j / x^(Y_source)
    makes x node balanced.
    """
    p = g.network.p
    if weights is not None and len(weights) != p:
        raise ValueError(f"{len(weights)} weights for {p} reactions")
    _require_weakly_reversible(g, "positive_kernel_flux")
    succ: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, g.m + 1)}
    for j, (a, b) in enumerate(g.edges):
        succ[a].append((b, j))
    flux = [Fraction(0)] * p
    if weights is None:
        weights = [Fraction(1)] * p
    for j, (a, b) in enumerate(g.edges):
        # shortest directed path b -> a closes a cycle through edge j
        prev: dict[int, tuple[int, int]] = {}
        queue = [b]
        seen = {b}
        while queue:
            node = queue.pop(0)
            if node == a:
                break
            for nxt, edge in succ[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    prev[nxt] = (node, edge)
                    queue.append(nxt)
        cycle = [j]
        cur = a
        while cur != b:
            node, edge = prev[cur]
            cycle.append(edge)
            cur = node
        w = Fraction(weights[j])
        if w <= 0:
            raise ValueError(f"weights must be positive, got {weights[j]}")
        for edge in cycle:
            flux[edge] += w
    assert all(f > 0 for f in flux)
    assert all(r == 0 for r in node_balance_residual(g, flux))
    return flux
