"""Independent references for the benchmark's correctness checks.

None of this imports crnbalance. Exact ranks and kernels come from
sympy, tree constants from brute-force enumeration of spanning in-trees,
trajectories from scipy's LSODA. sympy and scipy are imported lazily so
that they are loaded only after the timed loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

from inputs import Graph, Net, components_and_reversibility


def bell(n: int) -> int:
    """Bell number by the Stirling-number sum."""
    stirling = [1] + [0] * n     # S(k, j) for the current k
    for k in range(1, n + 1):
        row = [0] * (n + 1)
        for j in range(1, k + 1):
            row[j] = j * stirling[j] + stirling[j - 1]
        stirling = row
    return sum(stirling) if n else 1


def sympy_rank(rows: list[list[int]]) -> int:
    import sympy

    return sympy.Matrix(rows).rank()


def sympy_kernel(rows: list[list[int]]) -> list[list[Fraction]]:
    """Rational basis of the right kernel."""
    import sympy

    return [
        [Fraction(int(x.p), int(x.q)) for x in vec]
        for vec in sympy.Matrix(rows).nullspace()
    ]


def left_kernel(rows: list[list[int]]) -> np.ndarray:
    """Conservation laws: basis of {w : w N = 0} as float rows."""
    basis = sympy_kernel([list(col) for col in zip(*rows)])
    return np.array([[float(x) for x in w] for w in basis]).reshape(len(basis), len(rows))


class GraphRef:
    """Components and deficiency of one graph, its in-trees and its kernel."""

    def __init__(self, g: Graph, rank: int):
        self.g = g
        self.edges = g.edges()
        self.components, _ = components_and_reversibility(g.m, self.edges)
        self.deficiency = g.m - len(self.components) - rank
        self.component_of = {v: k for k, comp in enumerate(self.components) for v in comp}
        self._trees: list[list[tuple[int, ...]]] | None = None
        self._kernel: list[list[Fraction]] | None = None

    def cayley_rows(self) -> list[list[int]]:
        labels = self.g.labels()
        rows = [[lab[i] for lab in labels] for i in range(self.g.net.n)]
        rows += [[1 if v in comp else 0 for v in range(self.g.m)] for comp in self.components]
        return rows

    @property
    def kernel(self) -> list[list[Fraction]]:
        if self._kernel is None:
            self._kernel = sympy_kernel(self.cayley_rows())
        return self._kernel

    @property
    def trees(self) -> list[list[tuple[int, ...]]]:
        """Per node: the reaction sets of its spanning in-trees.

        Every other node of the component picks one outgoing edge inside
        the component; a pick is a tree iff following picks from every
        node ends at the root.
        """
        if self._trees is None:
            self._trees = [self._in_trees(root) for root in range(self.g.m)]
        return self._trees

    def _in_trees(self, root: int) -> list[tuple[int, ...]]:
        comp = self.components[self.component_of[root]]
        others = [v for v in sorted(comp) if v != root]
        out = {v: [(b, j) for j, (a, b) in enumerate(self.edges) if a == v and b in comp]
               for v in others}
        trees = []
        for picks in product(*(out[v] for v in others)):
            parent = {v: pick for v, pick in zip(others, picks)}
            ok = True
            for v in others:
                seen = set()
                cur = v
                while cur != root:
                    if cur in seen:
                        ok = False
                        break
                    seen.add(cur)
                    cur = parent[cur][0]
                if not ok:
                    break
            if ok:
                trees.append(tuple(sorted(pick[1] for pick in picks)))
        return trees

    def tree_constants(self, kappa) -> list[Fraction]:
        """Exact K_i(kappa) as sums over in-trees."""
        out = []
        for trees in self.trees:
            total = Fraction(0)
            for tree in trees:
                term = Fraction(1)
                for j in tree:
                    term *= kappa[j]
                total += term
            out.append(total)
        return out

    def balanced_exact(self, kappa) -> bool:
        k = self.tree_constants(kappa)
        for u in self.kernel:
            lhs = rhs = Fraction(1)
            scale = math.lcm(*(x.denominator for x in u))
            for x, kv in zip(u, k):
                e = int(x * scale)
                if e > 0:
                    lhs *= kv**e
                elif e < 0:
                    rhs *= kv ** (-e)
            if lhs != rhs:
                return False
        return True

    def balanced_many(self, kappas: list) -> list[bool]:
        """Verdicts for many rate vectors: float log tree constants decide
        when a relation misses balance by more than 1e-6 in log terms,
        otherwise the exact tree sums decide."""
        if not self.kernel:
            return [True] * len(kappas)
        logk = np.log(np.array([[float(x) for x in kap] for kap in kappas]))
        logK = np.empty((len(kappas), self.g.m))
        for i, trees in enumerate(self.trees):
            inc = np.zeros((len(trees), self.g.net.p))
            for t, tree in enumerate(trees):
                inc[t, list(tree)] = 1.0
            terms = logk @ inc.T
            top = terms.max(axis=1)
            logK[:, i] = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
        u = np.array([[float(x) for x in vec] for vec in self.kernel])
        gaps = np.abs(logK @ u.T).max(axis=1)
        return [
            False if gap > 1e-6 else self.balanced_exact(kap)
            for gap, kap in zip(gaps, kappas)
        ]


def witness_balances(g: Graph, edges, kappa, x_star) -> bool:
    """C_G v(x*) = 0 exactly: x* is a positive node balanced state."""
    net = g.net
    flow = [Fraction(0)] * g.m
    for j, ((src, _), (a, b)) in enumerate(zip(net.reactions, edges)):
        v = Fraction(kappa[j])
        for xi, e in zip(x_star, src):
            v *= Fraction(xi) ** e
        flow[a] -= v
        flow[b] += v
    return all(f == 0 for f in flow) and all(x > 0 for x in x_star)


def eval_kpoly(terms, kappa) -> Fraction:
    """Value of a polynomial given as (exponents, coefficient) terms."""
    total = Fraction(0)
    for exps, coeff in terms:
        term = Fraction(coeff)
        for kv, e in zip(kappa, exps):
            if e:
                term *= Fraction(kv) ** e
        total += term
    return total


class FloatSystem:
    """Mass-action right-hand side in numpy, for the dynamics references."""

    def __init__(self, net: Net, kappa):
        self.kappa = np.array([float(k) for k in kappa])
        self.sources = np.array([src for src, _ in net.reactions], dtype=float)
        self.nmat = np.array(net.stoichiometry(), dtype=float)

    def rates(self, x: np.ndarray) -> np.ndarray:
        return self.kappa * np.prod(x[None, :] ** self.sources, axis=1)

    def rhs(self, _t, x):
        return self.nmat @ self.rates(np.maximum(x, 0.0))

    def diag_scale(self, x: np.ndarray) -> float:
        """Largest |d f_i / d x_i| at x, the fastest local time scale."""
        v = self.rates(x)
        jac = self.nmat @ (v[:, None] * self.sources / x[None, :])
        return float(np.max(np.abs(np.diag(jac))))


def lsoda_final(net: Net, kappa, x0, t_end: float) -> np.ndarray:
    from scipy.integrate import solve_ivp

    system = FloatSystem(net, kappa)
    sol = solve_ivp(system.rhs, (0.0, t_end), np.array(x0, dtype=float),
                    method="LSODA", rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"LSODA failed: {sol.message}")
    return sol.y[:, -1]
