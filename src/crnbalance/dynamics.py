"""Mass-action dynamics: integration, Birch points, linearized stability.

The one module in floating point. The algebraic modules certify exactly
that a rate vector is node balanced; here exact rate constants and
states become floats through one rule (``_float``) and one float model
(``_FloatModel``, a sparse table read on plain floats), which follow the
actual ODE dx/dt = N v(x), locate the unique positive steady state of a
stoichiometric compatibility class, and inspect the Jacobian spectrum
restricted to the class. numpy serves the dense linear algebra alone,
imported by the functions that use it: the rest of the package runs without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from . import ratmat
from .balance import RESIDUAL_TOL, _require_weakly_reversible, steady_state_binomials
from .graphs import ReactionGraph
from .network import ReactionNetwork, numeric_kappa


# simulate stops once the infinity norm of N v(x) is below this
STEADY_TOL = 1e-10


class SimulationError(RuntimeError):
    """Step-size underflow or a non-finite state."""


class NotBalancedError(ValueError):
    """Rate constants fail the node balance conditions of the graph."""


class ConvergenceError(RuntimeError):
    """Newton refinement did not reach tolerance."""


def _float(name: str, value) -> float:
    """value as a float. One the float range cannot hold is refused under
    its name, never turned into inf or nan or a nonzero one into 0.0."""
    try:
        out = float(value)
    except OverflowError:
        raise ValueError(f"{name} overflows the float range") from None
    if not math.isfinite(out):
        raise ValueError(f"{name} = {value} is not finite")
    if out == 0.0 and value != 0:
        raise ValueError(f"{name} underflows to 0.0 as a float")
    return out


def _state(net: ReactionNetwork, x: Sequence, name: str, positive: bool = False) -> list[float]:
    """The rule for every state: one entry per species, each a finite
    float, nonnegative (strictly positive if positive)."""
    if len(x) != net.n:
        raise ValueError(f"{name} has {len(x)} entries, network has {net.n} species")
    out = [_float(f"{name}[{i}]", v) for i, v in enumerate(x)]
    if any(v <= 0 if positive else v < 0 for v in out):
        raise ValueError(f"{name} must be {'strictly positive' if positive else 'nonnegative'}")
    return out


def _norm(v: Sequence[float]) -> float:
    """Infinity norm of v; nan if any entry is nan, so that a nan N v(x)
    never reads as steady (Python's max would drop a nan not in front)."""
    norm = 0.0
    for a in v:
        a = abs(a)
        if not a <= norm:  # larger, or nan
            norm = a
            if a != a:
                break
    return norm


def _overflow(x: float, e: float) -> float:
    """x ** e where that passes the float range: inf, signed as numpy's power."""
    return math.copysign(math.inf, x) if e % 2 else math.inf


def _monomial(x: Sequence[float], source: tuple[tuple[int, float], ...]) -> float:
    """prod x_i ** e over the (i, e) pairs of source, in their order."""
    m = 1.0
    for i, e in source:
        try:
            m *= x[i] ** e
        except OverflowError:
            m *= _overflow(x[i], e)
    return m


class _FloatModel:
    """The float form of a network under one rate vector, as one sparse
    table with a row per reaction j: kappa_j, the source's (species,
    exponent) pairs with exponent != 0, and column j of N as its
    (species, entry) pairs with entry != 0. Rates, N v and the Jacobian
    are read off it in plain floats, each component with the operations
    of kappa * prod(x ** Y) and N @ v, in the same order (dropped factors
    x ** 0 = 1 and terms 0 * v are exact no-ops); an x ** e past the
    float range is inf, as in numpy."""

    def __init__(self, net: ReactionNetwork, kappa: Sequence | None):
        nmat = net.stoichiometric_matrix
        self.n = net.n
        self.table = tuple(
            (
                _float(f"kappa[{j}] (reaction r{j + 1})", k),
                tuple((i, float(e)) for i, e in enumerate(net.complexes[r.source].coeffs) if e),
                tuple((i, float(row[j])) for i, row in enumerate(nmat) if row[j]),
            )
            for j, (k, r) in enumerate(zip(numeric_kappa(net, kappa), net.reactions))
        )

    def rates(self, x: Sequence[float]) -> list[float]:
        return [k * _monomial(x, source) for k, source, _ in self.table]

    def rhs(self, x: Sequence[float]) -> list[float]:
        # simulate's hot path: _monomial inlined, since a call per reaction cost ~12 %
        dx = [0.0] * self.n
        for k, source, column in self.table:
            m = 1.0
            for i, e in source:
                try:
                    m *= x[i] ** e
                except OverflowError:
                    m *= _overflow(x[i], e)
            v = k * m
            for i, c in column:
                dx[i] += c * v
        return dx

    def jacobian(self, x: Sequence[float]) -> list[list[float]]:
        # d v_j / d x_k = v_j * y_jk / x_k (monomial differentiation)
        jac = [[0.0] * self.n for _ in range(self.n)]
        for v, (_, source, column) in zip(self.rates(x), self.table):
            for k, e in source:
                d = v * e / x[k]
                for i, c in column:
                    jac[i][k] += c * d
        return jac


def conservation_laws(net: ReactionNetwork) -> tuple[tuple[int, ...], ...]:
    """Primitive integer basis of the left kernel of N (w with w.N = 0)."""
    return tuple(ratmat.nullspace(ratmat.transpose(net.stoichiometric_matrix)))


@dataclass(frozen=True)
class SimulationTrace:
    """What simulate returns. A run of up to 2,001 rows keeps every row; a longer
    one keeps its first and last and at most 1,999 between, at a power-of-two
    stride, so memory stays O(2,001). steps counts rejected attempts too."""
    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]
    steady: bool
    residual: float
    steps: int

    @property
    def final(self) -> tuple[float, ...]:
        return self.states[-1]


def _initial_step(model: _FloatModel, x0: list[float], t_end: float) -> float:
    # 1e-3 of the characteristic time read off the Jacobian diagonal
    jac = model.jacobian([max(v, 1e-12) for v in x0])
    scale = _norm([row[i] for i, row in enumerate(jac)])
    h = 1e-3 / scale if scale > 0 else t_end / 1000.0
    return min(max(h, t_end / 500_000.0), t_end / 100.0)


_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def _advance(x: list[float], h: float, coeffs: tuple[float, ...], k: list[list[float]]) -> list[float]:
    """x + h * (c1 k1 + c2 k2 + ...), summed in that order from 0.0; zip
    stops at the shorter of coeffs and k."""
    out = []
    for i, xi in enumerate(x):
        s = 0.0
        for c, ki in zip(coeffs, k):
            s += c * ki[i]
        out.append(xi + h * s)
    return out


def _rk4_step(rhs, x: list[float], fx: list[float], h: float, tol: float):
    """A classical Runge-Kutta step: (x_new, no error, h kept), fx = rhs(x)."""
    # per component, the operations of the array form x + h * (b1 * k1 + ...), in order
    hh = 0.5 * h
    k2 = rhs([a + hh * b for a, b in zip(x, fx)])
    k3 = rhs([a + hh * b for a, b in zip(x, k2)])
    k4 = rhs([a + h * b for a, b in zip(x, k3)])
    h6 = h / 6.0
    x_new = [
        a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(x, fx, k2, k3, k4)
    ]
    return x_new, 0.0, h


def _cash_karp_step(rhs, x: list[float], fx: list[float], h: float, tol: float):
    """A Cash-Karp 4(5) step: (x_new, error norm over tol, next h), fx = rhs(x)."""
    k = [fx]
    for stage in range(1, 6):
        k.append(rhs(_advance(x, h, _CK_A[stage], k)))
    x_new = _advance(x, h, _CK_B5, k)
    x4 = _advance(x, h, _CK_B4, k)
    err = _norm([
        abs(b5 - b4) / (tol * max(1.0, max(abs(a), abs(b5))))
        for a, b5, b4 in zip(x, x_new, x4)
    ])
    return x_new, err, h * min(5.0, max(0.2, 0.9 * (err + 1e-16) ** -0.2))


def simulate(
    net: ReactionNetwork,
    x0: Sequence,
    kappa: Sequence | None = None,
    *,
    t_end: float,
    dt: float | None = None,
    adaptive: bool = False,
    tol: float = 1e-8,
    max_steps: int = 2_000_000,
) -> SimulationTrace:
    """Integrate dx/dt = N v(x) from x0 up to t_end.

    Fixed-step classical Runge-Kutta by default (step from the Jacobian
    scale at x0, overridable via dt); adaptive=True switches to the
    embedded Cash-Karp 4(5) pair with relative tolerance tol. Stops
    early once the infinity norm of N v(x) drops below STEADY_TOL.
    Components that dip below zero by less than 1e-12 are clipped;
    larger excursions reject the step and halve it.

    Raises:
        ValueError: t_end, dt or tol is not positive and finite, or x0
            or kappa does not fit the network or the float range.
        SimulationError: step-size underflow or non-finite state.
    """
    for name, value in (("t_end", t_end), ("dt", dt), ("tol", tol)):
        if value is not None and not 0 < value < math.inf:
            rule = "positive" if value <= 0 else "finite"
            raise ValueError(f"{name} must be {rule}, got {value}")
    x = _state(net, x0, "x0")
    model = _FloatModel(net, kappa)
    step = _cash_karp_step if adaptive else _rk4_step
    h = float(dt) if dt is not None else _initial_step(model, x, t_end)
    h_min = max(t_end, 1.0) * 1e-14
    t = 0.0
    rows = []  # every stride-th accepted (t, state) before the latest; see SimulationTrace
    accepted, stride = 0, 1
    fx = model.rhs(x)  # N v(x) at the current state: the residual and the next k1
    residual = _norm(fx)
    steps = 0

    # summed steps can land a rounding sliver short of t_end; that sliver ends the run
    while not residual < STEADY_TOL and t_end - t > h_min and steps < max_steps:
        h = min(h, t_end - t)
        if h < h_min:
            raise SimulationError(f"step size underflow at t={t:.6g}")
        x_new, err, h_next = step(model.rhs, x, fx, h, tol)
        if not all(map(math.isfinite, x_new)):
            raise SimulationError(f"non-finite state at t={t + h:.6g}")
        low = min(x_new)
        if low <= -1e-12:
            err = math.inf
        elif low < 0:
            x_new = [max(v, 0.0) for v in x_new]
        steps += 1
        if not err <= 1.0:  # also rejects a nan error estimate
            h *= 0.5
            continue
        if accepted % stride == 0:
            rows.append((t, tuple(x)))
            if len(rows) > 2000:
                del rows[1::2]
                stride *= 2
        accepted += 1
        t += h
        x = x_new
        h = h_next
        fx = model.rhs(x)
        residual = _norm(fx)

    rows.append((t, tuple(x)))
    times, states = zip(*rows)
    return SimulationTrace(times, states, residual < STEADY_TOL, residual, steps)


def jacobian(net: ReactionNetwork, x: Sequence, kappa: Sequence | None = None) -> np.ndarray:
    """n x n Jacobian of N v at a positive state."""
    import numpy as np
    xf = _state(net, x, "x", positive=True)
    return np.array(_FloatModel(net, kappa).jacobian(xf))


def _stoichiometric_bases(net: ReactionNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (columns) of S = im N and of its orthogonal complement."""
    import numpy as np
    nmat = np.array(net.stoichiometric_matrix, dtype=float)
    u, sing, _ = np.linalg.svd(nmat)
    s = net.rank
    return u[:, :s], u[:, s:]


@dataclass(frozen=True)
class SteadyStateResult:
    feasible: bool
    x: tuple[float, ...] | None
    log_x: tuple[float, ...] | None
    residual: float


def solve_positive_steady_state(g: ReactionGraph, kappa: Sequence) -> SteadyStateResult:
    """Least-squares solve of the log-linear binomial system.

    Taking logs of each edge's binomial K_j x^(Y_i) = K_i x^(Y_j) gives
    (Y_j - Y_i) . xi = log K_j - log K_i with xi = log x. Consistency of
    this system (residual below RESIDUAL_TOL) is equivalent to the kappa being
    node balanced; the returned x is one positive solution.
    """
    import numpy as np
    _require_weakly_reversible(g, "solve_positive_steady_state")
    binomials = steady_state_binomials(g, kappa)
    mat = np.array([[float(q - p) for p, q in zip(b.lhs_exps, b.rhs_exps)] for b in binomials])
    vec = np.array([math.log(b.lhs_coeff) - math.log(b.rhs_coeff) for b in binomials])
    xi, *_ = np.linalg.lstsq(mat, vec, rcond=None)
    residual = float(np.max(np.abs(mat @ xi - vec))) if binomials else 0.0
    if residual >= RESIDUAL_TOL:
        return SteadyStateResult(False, None, None, residual)
    x = tuple(float(v) for v in np.exp(xi))
    return SteadyStateResult(True, x, tuple(float(v) for v in xi), residual)


def birch_point(
    net: ReactionNetwork,
    g: ReactionGraph,
    kappa: Sequence | None = None,
    x0: Sequence | None = None,
) -> tuple[float, ...]:
    """The positive steady state in the compatibility class of x0.

    Starts from a particular solution x* of the balance binomials and
    moves along the steady-state manifold { log x - log x* orthogonal to
    S } until x - x0 lands in S, by damped Newton in the complement
    coordinates. Existence and uniqueness hold whenever kappa satisfies
    the balance conditions of g. The point x returned leaves the class of
    x0 by less than max(min(1e-10, 1e-8 M), 16 eps M) with M = max(x0, x):
    relative for small classes, and a few ulps of M for large ones.

    Raises:
        ValueError: x0 or kappa does not fit the network or the float range.
        NotBalancedError: kappa fails the balance conditions.
        ConvergenceError: Newton stalled or left tolerance unmet.
    """
    import numpy as np
    target = None if x0 is None else np.array(_state(net, x0, "x0"))
    kap = numeric_kappa(net, kappa)
    result = solve_positive_steady_state(g, kap)
    if not result.feasible:
        raise NotBalancedError(
            f"rate constants are not node balanced (log-residual {result.residual:.3g})"
        )
    xi_star = np.array(result.log_x)
    _, u_perp = _stoichiometric_bases(net)
    if target is None or u_perp.shape[1] == 0:
        return tuple(float(v) for v in np.exp(xi_star))

    def point(c: np.ndarray) -> np.ndarray:
        return np.exp(xi_star + u_perp @ c)

    # relative to M = max(x0, x): x0 may be tiny, or far below x where a
    # conservation law has mixed signs; a class without a positive state never
    # meets it. Floored at 16 eps M, since no float step gets x closer than ulps
    scale = float(np.max(target))
    c = np.zeros(u_perp.shape[1])
    x = point(c)
    f = u_perp.T @ (x - target)
    for _ in range(100):
        norm = float(np.max(np.abs(f)))
        big = max(scale, float(np.max(x)))
        if norm < max(min(1e-10, 1e-8 * big), 16 * np.finfo(float).eps * big):
            break
        jac = u_perp.T @ (x[:, None] * u_perp)
        step = np.linalg.solve(jac, -f)
        # a trial past the float range is not finite, and so rejected below
        with np.errstate(over="ignore"):
            for _ in range(60):
                c_new = c + step
                x_new = point(c_new)
                f_new = u_perp.T @ (x_new - target)
                if float(np.max(np.abs(f_new))) < norm:
                    break
                step *= 0.5
            else:
                raise ConvergenceError("Newton damping exhausted (60 halvings)")
        c, x, f = c_new, x_new, f_new
    else:
        raise ConvergenceError("Newton did not converge in 100 iterations")

    x = x.tolist()
    model = _FloatModel(net, kap)
    residual = _norm(model.rhs(x))
    if not residual < 1e-10 * max(1.0, _norm(model.rates(x))):
        raise ConvergenceError(f"steady-state residual {residual:.3g} too large")
    return tuple(x)


def class_deviation(net: ReactionNetwork, x: Sequence, x0: Sequence) -> float:
    """Distance of x - x0 from the stoichiometric subspace (infinity norm
    of the orthogonal-complement coordinates)."""
    import numpy as np
    diff = np.array(_state(net, x, "x")) - np.array(_state(net, x0, "x0"))
    _, u_perp = _stoichiometric_bases(net)
    return float(np.max(np.abs(u_perp.T @ diff), initial=0.0))


class StabilityVerdict(Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class StabilityReport:
    state: tuple[float, ...]
    residual: float
    eigenvalues: tuple[complex, ...]
    verdict: StabilityVerdict


def stability_report(
    net: ReactionNetwork, kappa: Sequence | None, x_star: Sequence
) -> StabilityReport:
    """Linearized stability of a steady state relative to its class.

    The Jacobian of N v is projected onto an orthonormal basis of the
    stoichiometric subspace (perturbations leaving the class are ruled
    out by conservation). Strictly negative real parts give Stable; any
    real part within 1e-12 of zero makes the verdict Inconclusive.

    Raises:
        ValueError: x_star is not a steady state (residual >= 1e-8).
    """
    import numpy as np
    x = _state(net, x_star, "x_star", positive=True)
    model = _FloatModel(net, kappa)
    residual = _norm(model.rhs(x))
    if not residual < 1e-8:
        raise ValueError(f"not a steady state: residual {residual:.3g} >= 1e-8")
    jac = np.array(model.jacobian(x))
    basis, _ = _stoichiometric_bases(net)
    projected = basis.T @ jac @ basis
    eigs = tuple(complex(z) for z in np.linalg.eigvals(projected)) if projected.size else ()
    if any(z.real > 1e-12 for z in eigs):
        verdict = StabilityVerdict.UNSTABLE
    elif any(abs(z.real) <= 1e-12 for z in eigs):
        verdict = StabilityVerdict.INCONCLUSIVE
    else:
        verdict = StabilityVerdict.STABLE
    return StabilityReport(tuple(float(v) for v in x), residual, eigs, verdict)
