"""Mass-action dynamics: integration, Birch points, linearized stability.

The one module in floating point. The algebraic modules certify exactly
that a rate vector is node balanced; here exact rate constants and
states become floats through one rule (``_float``) and one float model
(``_FloatModel``: the rates, N v, the Jacobian and the RK4 and Cash-Karp
steps as code each network compiles once and keeps, every step stage one
call of that N v), which follow the ODE
dx/dt = N v(x), locate the unique positive steady state of a stoichiometric
compatibility class, and inspect the Jacobian spectrum restricted to the
class. numpy serves the dense linear algebra alone, imported by the
functions that use it: the rest of the package runs without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from . import ratmat
from .balance import RESIDUAL_TOL, BalanceCheck, check_kappa_balanced
from .graphs import ReactionGraph
from .network import ReactionNetwork, numeric_kappa


# simulate stops once the infinity norm of N v(x) is below this
STEADY_TOL = 1e-10
MAX_STEPS = 2_000_000  # simulate's cap on step attempts, rejected ones included


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


def _chain(name: str, first: str, op: str, terms: Sequence[str]) -> list[str]:
    """Lines setting name = first op t1 op t2 ..., evaluated left to right, at
    most 100 terms a line, since the compiler recurses once per term."""
    return [
        f"{name} = {name if s else first}" + "".join(f" {op} {t}" for t in terms[s:s + 100])
        for s in range(0, max(len(terms), 1), 100)
    ]


def _vector(fmt: str, n: int) -> str:
    """'e0, e1, ..., ' with e_i = fmt.format(i): a target list or a list display."""
    return "".join(fmt.format(i) + ", " for i in range(n))


# the Cash-Karp 4(5) tableau: stage s adds h * (0.0 + a_s1 k1 + ... ) to x
_CK_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def _source(net: ReactionNetwork) -> str:
    """Straight-line Python defining bind(kappa) -> (rates, rhs, jacobian,
    rk4_step, cash_karp_step) for net: the one float model of the network.

    rates and rhs take kappa * prod(x ** Y) and N @ v in their array order:
    x_i ** e multiplied from the left (a factor x ** 1 is x itself, dropped
    factors x ** 0 = 1 and terms 0 * v are exact no-ops; one past the float
    range is inf, as in numpy), kappa_j times that, then 0.0 + c1 v1 +
    c2 v2 ... in reaction order. They are the only two copies of the rate
    lines. J_ik = 0.0 + c_ij (v_j e_jk / x_k) + ... by reaction, from the
    rates. A step maps (x, fx = rhs(x), h, tol) to (x_new, error norm over
    tol, next h): classical RK4 (no error, h kept) or Cash-Karp 4(5) with
    every tableau term, zeros included (0.0 * inf is nan); each stage of
    either is one call of rhs. Only integer indices, float literals and
    fixed local names reach the source, never a species name or a reaction
    label."""
    sources = [
        tuple((i, float(e)) for i, e in enumerate(net.complexes[r.source].coeffs) if e)
        for r in net.reactions
    ]
    rows = [
        tuple((j, float(c)) for j, c in enumerate(row) if c) for row in net.stoichiometric_matrix
    ]
    n = net.n

    rates = []  # v_j = kappa_j x^(Y_j) at the state held in the locals x0, x1, ...
    for j, source in enumerate(sources):
        factors = []
        for i, e in source:
            if e == 1.0:
                factors.append(f"x{i}")
                continue
            factors.append(f"p{len(factors)}")
            rates += [  # zero-cost on 3.11
                "try:",
                f"    {factors[-1]} = x{i} ** {e!r}",
                "except OverflowError:",
                f"    {factors[-1]} = _overflow(x{i}, {e!r})",
            ]
        rates += _chain("m", factors[0] if factors else "1.0", "*", factors[1:])
        rates.append(f"v{j} = k{j} * m")
    rhs = [  # d_i = (N v)_i
        line for i, row in enumerate(rows)
        for line in _chain(f"d{i}", "0.0", "+", [f"{c!r} * v{j}" for j, c in row])
    ]

    def advance(out: str, coeffs: Sequence[float], ks: str) -> list[str]:
        # out_i = x_i + h * (0.0 + c1 k1_i + c2 k2_i + ...), ks naming k1, k2, ...
        return [
            f"{out}{i} = x{i} + h * (0.0"
            + "".join(f" + {c!r} * {k}{i}" for c, k in zip(coeffs, ks)) + ")"
            for i in range(n)
        ]

    jacobian = [f"{_vector('x{}', n)}= x", f"{_vector('v{}', net.p)}= rates(x)"]
    for i, row in enumerate(rows):
        for k in range(n):
            terms = [
                f"{c!r} * (v{j} * {e!r} / x{k})" for j, c in row for s, e in sources[j] if s == k
            ]
            jacobian += _chain(f"j{i}_{k}", "0.0", "+", terms)
    jacobian.append("return [" + "".join(f"[{_vector(f'j{i}_{{}}', n)}], " for i in range(n)) + "]")
    rk4 = [
        f"{_vector('x{}', n)}= x",
        f"{_vector('f{}', n)}= fx",
        "hh = 0.5 * h",
        f"{_vector('a{}', n)}= rhs([{_vector('x{0} + hh * f{0}', n)}])",
        f"{_vector('b{}', n)}= rhs([{_vector('x{0} + hh * a{0}', n)}])",
        f"{_vector('c{}', n)}= rhs([{_vector('x{0} + h * b{0}', n)}])",
        "h6 = h / 6.0",
        f"return [{_vector('x{0} + h6 * (f{0} + 2.0 * a{0} + 2.0 * b{0} + c{0})', n)}], 0.0, h",
    ]
    cash_karp = [f"{_vector('x{}', n)}= x", f"{_vector('f{}', n)}= fx"]
    for s, coeffs in enumerate(_CK_A):  # k2, ..., k6 into a, ..., e
        cash_karp += advance("y", coeffs, "fabcd")
        cash_karp.append(f"{_vector('abcde'[s] + '{}', n)}= rhs([{_vector('y{}', n)}])")
    cash_karp += [
        *advance("y", _CK_B5, "fabcde"),
        *advance("z", _CK_B4, "fabcde"),
        "err = _norm(["
        + _vector("abs(y{0} - z{0}) / (tol * max(1.0, max(abs(x{0}), abs(y{0}))))", n) + "])",
        f"return [{_vector('y{}', n)}], err, h * min(5.0, max(0.2, 0.9 * (err + 1e-16) ** -0.2))",
    ]
    functions = {
        "rates(x)": [f"{_vector('x{}', n)}= x", *rates, f"return [{_vector('v{}', net.p)}]"],
        "rhs(x)": [f"{_vector('x{}', n)}= x", *rates, *rhs, f"return [{_vector('d{}', n)}]"],
        "jacobian(x)": jacobian,
        "rk4_step(x, fx, h, tol)": rk4,
        "cash_karp_step(x, fx, h, tol)": cash_karp,
    }
    lines = ["def bind(kappa):", f"    {_vector('k{}', net.p)}= kappa"]
    for head, body in functions.items():
        lines += [f"    def {head}:", *("        " + line for line in body)]
    lines.append("    return rates, rhs, jacobian, rk4_step, cash_karp_step")
    return "\n".join(lines)


def _compile(net: ReactionNetwork):
    """net.float_bind: bind compiled from _source(net)."""
    namespace = {"_overflow": _overflow, "_norm": _norm}
    exec(compile(_source(net), "<generated float model>", "exec"), namespace)
    return namespace["bind"]


class _FloatModel:
    """kappa as floats, bound by net.float_bind: the network's generated
    rates, rhs (N v), jacobian, rk4_step and cash_karp_step (see _source)."""

    def __init__(self, net: ReactionNetwork, kappa: Sequence | None):
        exact = numeric_kappa(net, kappa)
        floats = [_float(f"kappa[{j}] (reaction r{j + 1})", k) for j, k in enumerate(exact)]
        bound = net.float_bind(floats)
        self.rates, self.rhs, self.jacobian, self.rk4_step, self.cash_karp_step = bound


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


def simulate(
    net: ReactionNetwork,
    x0: Sequence,
    kappa: Sequence | None = None,
    *,
    t_end: float,
    dt: float | None = None,
    adaptive: bool = False,
    tol: float = 1e-8,
) -> SimulationTrace:
    """Integrate dx/dt = N v(x) from x0 up to t_end.

    Fixed-step classical Runge-Kutta by default (step from the Jacobian
    scale at x0, overridable via dt); adaptive=True switches to the
    embedded Cash-Karp 4(5) pair with relative tolerance tol. Stops
    early once the infinity norm of N v(x) drops below STEADY_TOL, or
    after MAX_STEPS step attempts.
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
    step = model.cash_karp_step if adaptive else model.rk4_step
    h = float(dt) if dt is not None else _initial_step(model, x, t_end)
    h_min = t_end * 1e-14  # relative, so that a t_end of 1e-15 still steps
    t = 0.0
    rows = []  # every stride-th accepted (t, state) before the latest; see SimulationTrace
    accepted, stride = 0, 1
    fx = model.rhs(x)  # N v(x) at the current state: the residual and the next k1
    residual = _norm(fx)
    steps = 0

    # summed steps can land a rounding sliver short of t_end; that sliver ends the run
    while not residual < STEADY_TOL and t_end - t > h_min and steps < MAX_STEPS:
        h = min(h, t_end - t)
        if not h > h_min:  # also h = 0.0, which never advances t
            raise SimulationError(f"step size underflow at t={t:.6g}")
        x_new, err, h_next = step(x, fx, h, tol)
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


def _svd_bases(net: ReactionNetwork) -> tuple[np.ndarray, np.ndarray]:
    """net.stoichiometric_bases: read-only left singular vectors of N."""
    import numpy as np
    u, _, _ = np.linalg.svd(np.array(net.stoichiometric_matrix, dtype=float))
    u.flags.writeable = False  # and so both views
    return u[:, :net.rank], u[:, net.rank:]


@dataclass(frozen=True)
class SteadyStateResult:
    feasible: bool
    x: tuple[float, ...] | None
    log_x: tuple[float, ...] | None
    residual: float


def solve_positive_steady_state(check: BalanceCheck) -> SteadyStateResult:
    """Least-squares solve of the log-linear system N^T log x = C_G^T log K.

    Row j is the log of edge (a, b)'s binomial K_b x^(Y_a) = K_a x^(Y_b),
    with g and its tree constants K read from check. Consistency of this
    system (residual below RESIDUAL_TOL) is equivalent to the kappa checked
    being node balanced; the returned x is one positive solution.
    """
    import numpy as np
    g, constants = check.graph, check.constants
    mat = np.array(ratmat.transpose(g.network.stoichiometric_matrix), dtype=float)
    vec = np.array([math.log(constants[b - 1]) - math.log(constants[a - 1]) for a, b in g.edges])
    xi, *_ = np.linalg.lstsq(mat, vec, rcond=None)
    residual = float(np.max(np.abs(mat @ xi - vec))) if g.edges else 0.0
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
        ValueError: g is another network's graph or not weakly reversible,
            or x0 or kappa does not fit the network or the float range.
        NotBalancedError: kappa fails the balance conditions.
        ConvergenceError: Newton stalled or left tolerance unmet.
    """
    import numpy as np
    if g.network != net:
        raise ValueError("graph belongs to a different network")
    target = None if x0 is None else np.array(_state(net, x0, "x0"))
    result = solve_positive_steady_state(check_kappa_balanced(g, kappa))
    if not result.feasible:
        raise NotBalancedError(
            f"rate constants are not node balanced (log-residual {result.residual:.3g})"
        )
    xi_star = np.array(result.log_x)
    _, u_perp = net.stoichiometric_bases
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
    model = _FloatModel(net, kappa)
    residual = _norm(model.rhs(x))
    if not residual < 1e-10 * max(1.0, _norm(model.rates(x))):
        raise ConvergenceError(f"steady-state residual {residual:.3g} too large")
    return tuple(x)


def class_deviation(net: ReactionNetwork, x: Sequence, x0: Sequence) -> float:
    """Distance of x - x0 from the stoichiometric subspace (infinity norm
    of the orthogonal-complement coordinates)."""
    import numpy as np
    diff = np.array(_state(net, x, "x")) - np.array(_state(net, x0, "x0"))
    _, u_perp = net.stoichiometric_bases
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
    basis, _ = net.stoichiometric_bases
    projected = basis.T @ jac @ basis
    eigs = tuple(complex(z) for z in np.linalg.eigvals(projected)) if projected.size else ()
    if any(z.real > 1e-12 for z in eigs):
        verdict = StabilityVerdict.UNSTABLE
    elif any(abs(z.real) <= 1e-12 for z in eigs):
        verdict = StabilityVerdict.INCONCLUSIVE
    else:
        verdict = StabilityVerdict.STABLE
    return StabilityReport(tuple(float(v) for v in x), residual, eigs, verdict)
