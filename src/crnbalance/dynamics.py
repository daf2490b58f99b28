"""Mass-action dynamics: integration, Birch points, linearized stability.

Float territory. The algebraic modules certify that a rate vector is
node balanced; this module follows the actual ODE dx/dt = N v(x),
locates the unique positive steady state of a stoichiometric
compatibility class, and inspects the Jacobian spectrum restricted to
the class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import ratmat
from .balance import solve_positive_steady_state
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


def _float_rate(j: int, k) -> float:
    """A positive rate constant as a float; exact ones the float range
    cannot hold are refused, never turned into inf or a dropped reaction."""
    try:
        value = float(k)
    except OverflowError:
        raise ValueError(f"kappa[{j}] (reaction r{j + 1}) overflows the float range") from None
    if value == 0.0:
        raise ValueError(f"kappa[{j}] (reaction r{j + 1}) underflows to 0.0 as a float")
    return value


def _float_setup(net: ReactionNetwork, kappa: Sequence | None):
    kap = np.array([_float_rate(j, k) for j, k in enumerate(numeric_kappa(net, kappa))])
    sources = np.array(
        [net.complexes[r.source].coeffs for r in net.reactions], dtype=float
    )
    nmat = np.array(net.stoichiometric_matrix, dtype=float)
    return kap, sources, nmat


def _rates(kap: np.ndarray, sources: np.ndarray, x: np.ndarray) -> np.ndarray:
    # integral exponents, so numpy's 0^0 = 1 gives the right convention
    return kap * (x[None, :] ** sources).prod(axis=1)


def conservation_laws(net: ReactionNetwork) -> tuple[tuple[int, ...], ...]:
    """Primitive integer basis of the left kernel of N (w with w.N = 0)."""
    return tuple(ratmat.nullspace(ratmat.transpose(net.stoichiometric_matrix)))


@dataclass(frozen=True)
class SimulationTrace:
    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]
    steady: bool
    residual: float
    steps: int

    @property
    def final(self) -> tuple[float, ...]:
        return self.states[-1]


def _initial_step(kap, sources, nmat, x0: np.ndarray, t_end: float) -> float:
    # 1e-3 of the characteristic time read off the Jacobian diagonal
    jac = _jacobian_arrays(kap, sources, nmat, np.maximum(x0, 1e-12))
    scale = float(np.max(np.abs(np.diag(jac)))) if jac.size else 0.0
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
            does not fit the network.
        SimulationError: step-size underflow or non-finite state.
    """
    for name, value in (("t_end", t_end), ("dt", dt), ("tol", tol)):
        if value is not None and not 0 < value < math.inf:
            rule = "positive" if value <= 0 else "finite"
            raise ValueError(f"{name} must be {rule}, got {value}")
    x = np.array([float(v) for v in x0])
    if len(x) != net.n:
        raise ValueError(f"x0 has {len(x)} entries for {net.n} species")
    if np.any(x < 0):
        raise ValueError("x0 must be nonnegative")
    kap, sources, nmat = _float_setup(net, kappa)

    def rhs(state: np.ndarray) -> np.ndarray:
        return nmat @ _rates(kap, sources, state)

    h = float(dt) if dt is not None else _initial_step(kap, sources, nmat, x, t_end)
    h_min = max(t_end, 1.0) * 1e-14
    t = 0.0
    times = [0.0]
    states = [tuple(float(v) for v in x)]
    fx = rhs(x)  # N v(x) at the current state: the residual and the next k1
    residual = float(np.max(np.abs(fx)))
    steady = residual < STEADY_TOL
    steps = 0

    # summed steps can land a rounding sliver short of t_end; that sliver ends the run
    while not steady and t_end - t > h_min and steps < max_steps:
        h = min(h, t_end - t)
        if h < h_min:
            raise SimulationError(f"step size underflow at t={t:.6g}")
        if adaptive:
            k = [fx]
            for stage in range(1, 6):
                xs = x + h * sum(a * ki for a, ki in zip(_CK_A[stage], k))
                k.append(rhs(xs))
            x5 = x + h * sum(b * ki for b, ki in zip(_CK_B5, k))
            x4 = x + h * sum(b * ki for b, ki in zip(_CK_B4, k))
            scale = tol * np.maximum(1.0, np.maximum(np.abs(x), np.abs(x5)))
            err = float(np.max(np.abs(x5 - x4) / scale)) if net.n else 0.0
            accept = err <= 1.0
            x_new = x5
        else:
            k1 = fx
            k2 = rhs(x + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h * k2)
            k4 = rhs(x + h * k3)
            x_new = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            accept = True
        if not np.all(np.isfinite(x_new)):
            raise SimulationError(f"non-finite state at t={t + h:.6g}")
        if np.any(x_new < 0):
            if float(np.min(x_new)) > -1e-12:
                x_new = np.maximum(x_new, 0.0)
            else:
                accept = False
        steps += 1
        if not accept:
            h *= 0.5
            continue
        t += h
        x = x_new
        times.append(t)
        states.append(tuple(float(v) for v in x))
        if adaptive:
            h *= min(5.0, max(0.2, 0.9 * (err + 1e-16) ** -0.2))
        fx = rhs(x)
        residual = float(np.max(np.abs(fx)))
        steady = residual < STEADY_TOL

    if len(states) > 2001:
        stride = (len(states) - 1) // 2000 + 1
        keep = list(range(0, len(states) - 1, stride)) + [len(states) - 1]
        times = [times[i] for i in keep]
        states = [states[i] for i in keep]
    return SimulationTrace(tuple(times), tuple(states), steady, residual, steps)


def _jacobian_arrays(kap, sources, nmat, x: np.ndarray) -> np.ndarray:
    v = _rates(kap, sources, x)
    # d v_j / d x_k = v_j * y_jk / x_k (monomial differentiation)
    dv = v[:, None] * sources / x[None, :]
    return nmat @ dv


def jacobian(net: ReactionNetwork, x: Sequence, kappa: Sequence | None = None) -> np.ndarray:
    """n x n Jacobian of N v at a positive state."""
    xf = np.array([float(v) for v in x])
    if np.any(xf <= 0):
        raise ValueError("Jacobian needs a strictly positive state")
    kap, sources, nmat = _float_setup(net, kappa)
    return _jacobian_arrays(kap, sources, nmat, xf)


def _stoichiometric_bases(net: ReactionNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (columns) of S = im N and of its orthogonal complement."""
    nmat = np.array(net.stoichiometric_matrix, dtype=float)
    u, sing, _ = np.linalg.svd(nmat)
    s = net.rank
    return u[:, :s], u[:, s:]


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
    the balance conditions of g.

    Raises:
        NotBalancedError: kappa fails the balance conditions.
        ConvergenceError: Newton stalled or left tolerance unmet.
    """
    kap = numeric_kappa(net, kappa)
    result = solve_positive_steady_state(g, kap)
    if not result.feasible:
        raise NotBalancedError(
            f"rate constants are not node balanced (log-residual {result.residual:.3g})"
        )
    xi_star = np.array(result.log_x)
    if x0 is None:
        return tuple(float(v) for v in np.exp(xi_star))
    target = np.array([float(v) for v in x0])
    if len(target) != net.n or np.any(target < 0):
        raise ValueError("x0 must be a nonnegative length-n vector")
    _, u_perp = _stoichiometric_bases(net)
    d = u_perp.shape[1]
    if d == 0:
        return tuple(float(v) for v in np.exp(xi_star))

    def point(c: np.ndarray) -> np.ndarray:
        return np.exp(xi_star + u_perp @ c)

    c = np.zeros(d)
    x = point(c)
    f = u_perp.T @ (x - target)
    for _ in range(100):
        norm = float(np.max(np.abs(f)))
        if norm < 1e-10:
            break
        jac = u_perp.T @ (x[:, None] * u_perp)
        step = np.linalg.solve(jac, -f)
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

    kapf, sources, nmat = _float_setup(net, kap)
    residual = float(np.max(np.abs(nmat @ _rates(kapf, sources, x))))
    if residual >= 1e-10 * max(1.0, float(np.max(_rates(kapf, sources, x)))):
        raise ConvergenceError(f"steady-state residual {residual:.3g} too large")
    return tuple(float(v) for v in x)


def class_deviation(net: ReactionNetwork, x: Sequence, x0: Sequence) -> float:
    """Distance of x - x0 from the stoichiometric subspace (infinity norm
    of the orthogonal-complement coordinates)."""
    for name, vec in (("x", x), ("x0", x0)):
        if len(vec) != net.n:
            raise ValueError(f"{name} has {len(vec)} entries, network has {net.n} species")
    _, u_perp = _stoichiometric_bases(net)
    diff = np.array([float(a) - float(b) for a, b in zip(x, x0)])
    if u_perp.shape[1] == 0:
        return 0.0
    return float(np.max(np.abs(u_perp.T @ diff)))


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
    x = np.array([float(v) for v in x_star])
    if np.any(x <= 0):
        raise ValueError("x_star must be strictly positive")
    kap, sources, nmat = _float_setup(net, kappa)
    residual = float(np.max(np.abs(nmat @ _rates(kap, sources, x))))
    if residual >= 1e-8:
        raise ValueError(f"not a steady state: residual {residual:.3g} >= 1e-8")
    jac = _jacobian_arrays(kap, sources, nmat, x)
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
