"""Integration, anchored steady states and local stability."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import helpers
import oracles
import crnbalance
from crnbalance import (
    ConvergenceError,
    NotBalancedError,
    SimulationError,
    StabilityVerdict,
    birch_point,
    canonical_complex_graph,
    class_deviation,
    conservation_laws,
    jacobian,
    ode_rhs,
    parse_network,
    simulate,
    stability_report,
    tree_constants_eval,
)
from crnbalance.dynamics import STEADY_TOL

KPRIME = [Fraction(v) for v in (1, 1, 1, 1, 2, 2)]


def test_conservation_laws(ab, running, fig2):
    assert conservation_laws(ab) == ((1, 1),)
    assert conservation_laws(running) == ((1, 1),)
    assert conservation_laws(fig2) == ((1, 1, 1, 1),)


def test_conservation_laws_open_network():
    net = parse_network("r1: 0 <=> A @ 1, 1\n")
    assert conservation_laws(net) == ()


def test_simulate_matches_closed_form(ab):
    # A <=> B at rates 2, 1 from (3, 0): x_A(t) = 1 + 2 exp(-3 t)
    for kwargs in ({}, {"adaptive": True, "tol": 1e-10}):
        trace = simulate(ab, (3.0, 0.0), t_end=4.0, **kwargs)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(4.0)
        for t, state in zip(trace.times, trace.states):
            assert state[0] == pytest.approx(1 + 2 * math.exp(-3 * t), abs=1e-5)
            assert state[0] + state[1] == pytest.approx(3.0, abs=1e-9)


def test_simulate_matches_reference_integrator(running):
    kappa = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0]
    trace = simulate(running, (2.0, 0.5), kappa, t_end=1.0, adaptive=True, tol=1e-10)
    expected = oracles.reference_final_state(running, (2.0, 0.5), kappa, 1.0)
    assert trace.final == pytest.approx(tuple(expected), rel=1e-6)


def test_simulate_flags_steady_state(ab):
    trace = simulate(
        ab, (3.0, 0.0), t_end=40.0, adaptive=True, tol=1e-10
    )
    assert trace.steady
    assert trace.times[-1] < 40.0
    assert trace.residual < 1e-8
    assert trace.final == pytest.approx((1.0, 2.0), abs=1e-6)


def test_simulate_steady_at_start_returns_immediately(ab):
    trace = simulate(ab, (1.0, 2.0), t_end=5.0)
    assert trace.steady and trace.steps == 0
    assert trace.times == (0.0,)
    assert trace.final == (1.0, 2.0)


def test_fixed_step_rk4_amplification_on_linear_decay():
    net = parse_network("r1: A -> B @ 1\n")
    h = 2.5
    trace = simulate(net, (1.0, 0.0), t_end=10.0, dt=h)
    amplification = sum((-h) ** k / math.factorial(k) for k in range(5))
    assert trace.final[0] == pytest.approx(amplification ** 4, rel=1e-12)
    assert trace.final[0] + trace.final[1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore:overflow")
def test_simulate_raises_on_divergence():
    net = parse_network("r1: 2 A -> 3 A @ 1\n")
    with pytest.raises(SimulationError, match="non-finite"):
        simulate(net, (5.0,), t_end=50.0, dt=5.0)


def test_simulate_caps_stored_rows(ab):
    trace = simulate(ab, (3.0, 0.0), t_end=5.0, dt=1e-5)
    assert trace.steps > 100_000
    assert len(trace.times) <= 2001
    assert len(trace.times) == len(trace.states)


def test_a_long_run_holds_only_the_rows_it_keeps():
    # rows used to be kept for every step and thinned after the run: these
    # 50,000 steps grew the peak RSS by about 8.5 MB to return under 2,001 rows
    code = (
        "import resource\n"
        "from crnbalance import parse_network, simulate\n"
        "ab = parse_network('species: A B\\nr1: A <=> B @ 2, 1\\n')\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "simulate(ab, (3.0, 0.0), [2, 1], t_end=0.5, dt=1e-5)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    # a child starts from the ru_maxrss of the process that forked it, pytest's
    # here, so the measured run is the grandchild of a bare interpreter
    spawn = (
        "import subprocess, sys\n"
        "subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)\n"
    )
    src = str(Path(crnbalance.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", spawn, code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert int(out.stdout) < 3 * 1024  # ru_maxrss is in KB on Linux


def test_simulate_keeps_every_row_of_a_run_up_to_2001_rows():
    # steps of 2**-10 sum exactly, so t_end ends the run after 2000 or 2001 steps
    net = parse_network("r1: A -> B @ 1\n")
    trace = simulate(net, (1.0, 0.0), t_end=2000 / 1024, dt=1 / 1024)
    assert trace.steps == 2000
    assert trace.times == tuple(k / 1024 for k in range(2001))
    assert len(trace.states) == 2001
    trace = simulate(net, (1.0, 0.0), t_end=2001 / 1024, dt=1 / 1024)
    assert trace.steps == 2001
    assert len(trace.times) == len(trace.states) <= 2001


def test_a_long_fixed_run_keeps_evenly_spaced_rows_and_its_last_state():
    net = parse_network("r1: A -> B @ 1\n")
    h, steps = 1 / 1024, 10_000
    trace = simulate(net, (1.0, 0.0), t_end=steps * h, dt=h)
    assert trace.steps == steps and not trace.steady
    assert 1001 < len(trace.times) == len(trace.states) <= 2001
    assert trace.times[0] == 0.0 and trace.states[0] == (1.0, 0.0)
    assert trace.times[-1] == steps * h
    amplification = sum((-h) ** k / math.factorial(k) for k in range(5))
    assert trace.states[-1][0] == pytest.approx(amplification ** steps, rel=1e-10)
    gaps = [b - a for a, b in zip(trace.times, trace.times[1:])]
    assert len(set(gaps[:-1])) == 1
    assert 0 < gaps[-1] <= gaps[0]


def test_a_long_adaptive_run_keeps_at_most_2001_increasing_rows():
    # a centre: the orbit through (2, 1) never settles, so no steady stop
    net = parse_network("r1: A -> 2 A @ 1\nr2: A + B -> 2 B @ 1\nr3: B -> 0 @ 1\n")
    trace = simulate(net, (2.0, 1.0), t_end=200.0, adaptive=True, tol=1e-12)
    assert trace.steps > 2 * 2001 and not trace.steady
    assert 1001 < len(trace.times) == len(trace.states) <= 2001
    assert all(a < b for a, b in zip(trace.times, trace.times[1:]))
    assert trace.times[-1] == pytest.approx(200.0)


def test_simulate_ends_on_a_whole_number_of_default_steps(running):
    # complex graph of the running example, kappa from one unit cycle through
    # each reaction at the witness x* = (1, 1); the 1000 summed default steps
    # land a rounding sliver short of t_end, which used to raise underflow
    kappa = [2, 2, 2, 2, 4, 4]
    x0 = (1.0, 2.0)
    scale = float(np.max(np.abs(np.diag(jacobian(running, x0, kappa)))))
    t_end = 1000 * 1e-3 / scale
    trace = simulate(running, x0, kappa, t_end=t_end)
    assert trace.steps == 1000
    assert trace.times[-1] == pytest.approx(t_end, rel=1e-12)
    expected = oracles.reference_final_state(running, x0, kappa, t_end)
    assert trace.final == pytest.approx(tuple(expected), rel=1e-6)


def test_simulate_still_raises_on_a_step_below_the_minimum(ab):
    # the minimum step is 1e-14 * max(t_end, 1); only the end of the run may be shorter
    with pytest.raises(SimulationError, match="underflow at t=0"):
        simulate(ab, (3.0, 0.0), t_end=1.0, dt=1e-16)


def test_fixed_step_run_equals_a_plain_rk4(ab):
    kappa, x0, h, t_end = [2.0, 1.0], (3.0, 0.0), 0.01, 0.5
    kap = np.array(kappa)
    sources = np.array([ab.complexes[r.source].coeffs for r in ab.reactions], dtype=float)
    nmat = np.array(ab.stoichiometric_matrix, dtype=float)

    def rhs(x):
        return nmat @ (kap * (x[None, :] ** sources).prod(axis=1))

    x, t, states = np.array(x0), 0.0, [x0]
    while t_end - t > 1e-14:
        step = min(h, t_end - t)
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * step * k1)
        k3 = rhs(x + 0.5 * step * k2)
        k4 = rhs(x + step * k3)
        x = x + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += step
        states.append(tuple(float(v) for v in x))
    trace = simulate(ab, x0, kappa, t_end=t_end, dt=h)
    assert trace.states == tuple(states)
    assert trace.steps == len(states) - 1


def _dense_fixed_run(net, x0, kappa, dt, t_end):
    """Fixed-step simulate written over dense numpy arrays: v = kappa *
    prod(x ** Y) and N @ v, with the same stop, clip and reject rules."""
    kap = np.array([float(k) for k in kappa])
    sources = np.array([net.complexes[r.source].coeffs for r in net.reactions], dtype=float)
    nmat = np.array(net.stoichiometric_matrix, dtype=float)

    def rhs(x):
        return nmat @ (kap * (x[None, :] ** sources).prod(axis=1))

    x, t, h, h_min = np.array(x0, dtype=float), 0.0, dt, max(t_end, 1.0) * 1e-14
    states, fx = [x], rhs(x)
    while np.max(np.abs(fx)) >= STEADY_TOL and t_end - t > h_min:
        h = min(h, t_end - t)
        k2 = rhs(x + 0.5 * h * fx)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x_new = x + (h / 6.0) * (fx + 2 * k2 + 2 * k3 + k4)
        if np.min(x_new) < 0:
            if np.min(x_new) <= -1e-12:
                h *= 0.5
                continue
            x_new = np.maximum(x_new, 0.0)
        t, x = t + h, x_new
        states.append(x)
        fx = rhs(x)
    return states


def _random_network_text(rng):
    """1 to 5 reactions over up to 4 species, between complexes with
    coefficients up to 3, the zero complex among them."""
    names = [f"S{i + 1}" for i in range(rng.randint(1, 4))]

    def complex_text():
        coeffs = [rng.choice((0, 0, 1, 2, 3)) for _ in names]
        return " + ".join(f"{c} {s}" if c > 1 else s for s, c in zip(names, coeffs) if c) or "0"

    reactions = set()
    while len(reactions) < rng.randint(1, 5):
        source, target = complex_text(), complex_text()
        if source != target:
            reactions.add((source, target))
    return "".join(f"r{j + 1}: {a} -> {b} @ 1\n" for j, (a, b) in enumerate(sorted(reactions)))


def test_sparse_fixed_steps_agree_with_a_dense_rk4(running, fig2):
    # a network holds no species outside every reaction, so the corners of
    # the sparse table are a species that no reaction changes (C) and a
    # species in no source complex, beside 0 -> A, exponent 3 and n = 1
    rng = random.Random(151)
    cases = [
        (running, [1.0, 2.0, 0.5, 1.5, 2.0, 1.0], (0.8, 1.3)),
        (fig2, [1.0, 2.0, 0.5, 1.5, 2.0, 1.0, 0.7, 1.2], (0.4, 1.1, 0.9, 0.2)),
        (parse_network("r1: A + C -> B + C @ 1.5\nr2: B -> A @ 0.5\n"), [1.5, 0.5], (1.0, 0.5, 0.3)),
        (parse_network("r1: 0 -> A @ 1\nr2: 3 A -> 2 A @ 2\n"), [1.0, 2.0], (0.7,)),
    ]
    while len(cases) < 44:
        net = parse_network(_random_network_text(rng))
        kappa = [rng.uniform(0.5, 2.0) for _ in range(net.p)]
        cases.append((net, kappa, tuple(rng.uniform(0.2, 1.5) for _ in range(net.n))))
    sources = [
        [net.complexes[r.source].coeffs for r in net.reactions] for net, _, _ in cases
    ]
    assert sum(net.n == 1 for net, _, _ in cases) > 1
    assert sum(any(3 in y for y in ys) for ys in sources) > 1
    assert sum(any(not any(y) for y in ys) for ys in sources) > 1
    assert sum(
        not any(y[i] for y in ys) for (net, _, _), ys in zip(cases, sources) for i in range(net.n)
    ) > 1
    assert sum(not any(row) for net, _, _ in cases for row in net.stoichiometric_matrix) > 1
    for net, kappa, x0 in cases:
        trace = simulate(net, x0, kappa, t_end=0.3, dt=0.01)
        dense = _dense_fixed_run(net, x0, kappa, 0.01, 0.3)
        assert len(trace.states) == len(dense)
        for row, expected in zip(trace.states, dense):
            bound = 1e-13 * max(1.0, float(np.max(np.abs(expected))))
            assert float(np.max(np.abs(np.array(row) - expected))) <= bound


_CK_TABLEAU = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0],
    [3 / 10, -9 / 10, 6 / 5, 0.0, 0.0],
    [-11 / 54, 5 / 2, -70 / 27, 35 / 27, 0.0],
    [1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096],
])
_CK_B5 = np.array([37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771])
_CK_B4 = np.array([2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4])


def _dense_adaptive_run(net, x0, kappa, dt, t_end, tol):
    """Adaptive simulate written over dense numpy arrays: the Cash-Karp
    tableau as arrays, each combination summed in tableau order, with the
    same stop, clip, reject and growth rules."""
    kap = np.array([float(k) for k in kappa])
    sources = np.array([net.complexes[r.source].coeffs for r in net.reactions], dtype=float)
    nmat = np.array(net.stoichiometric_matrix, dtype=float)

    def rhs(x):
        return nmat @ (kap * (x[None, :] ** sources).prod(axis=1))

    x, t, h, h_min = np.array(x0, dtype=float), 0.0, dt, max(t_end, 1.0) * 1e-14
    states, fx = [x], rhs(x)
    while np.max(np.abs(fx)) >= STEADY_TOL and t_end - t > h_min:
        h = min(h, t_end - t)
        k = [fx]
        for stage in range(1, 6):
            k.append(rhs(x + h * sum(c * ki for c, ki in zip(_CK_TABLEAU[stage], k))))
        x_new = x + h * sum(c * ki for c, ki in zip(_CK_B5, k))
        x4 = x + h * sum(c * ki for c, ki in zip(_CK_B4, k))
        scale = tol * np.maximum(1.0, np.maximum(np.abs(x), np.abs(x_new)))
        err = np.max(np.abs(x_new - x4) / scale)
        if np.min(x_new) <= -1e-12:
            err = math.inf
        elif np.min(x_new) < 0:
            x_new = np.maximum(x_new, 0.0)
        if not err <= 1.0:
            h *= 0.5
            continue
        t, x = t + h, x_new
        states.append(x)
        fx = rhs(x)
        h *= min(5.0, max(0.2, 0.9 * (err + 1e-16) ** -0.2))
    return states


def test_sparse_adaptive_steps_agree_with_a_dense_cash_karp(running, fig2):
    # the cases of the dense RK4 test above, from the same seed
    rng = random.Random(151)
    cases = [
        (running, [1.0, 2.0, 0.5, 1.5, 2.0, 1.0], (0.8, 1.3)),
        (fig2, [1.0, 2.0, 0.5, 1.5, 2.0, 1.0, 0.7, 1.2], (0.4, 1.1, 0.9, 0.2)),
        (parse_network("r1: A + C -> B + C @ 1.5\nr2: B -> A @ 0.5\n"), [1.5, 0.5], (1.0, 0.5, 0.3)),
        (parse_network("r1: 0 -> A @ 1\nr2: 3 A -> 2 A @ 2\n"), [1.0, 2.0], (0.7,)),
    ]
    while len(cases) < 44:
        net = parse_network(_random_network_text(rng))
        kappa = [rng.uniform(0.5, 2.0) for _ in range(net.p)]
        cases.append((net, kappa, tuple(rng.uniform(0.2, 1.5) for _ in range(net.n))))
    # an ulp of N v(x) moves the error estimate by about eps / tol relative, and
    # with it the next step and the times of later rows: tol = 1e-3 keeps that
    # far below the bound, where 1e-6 already moved rows by up to 9e-10
    rejected = grown = 0
    for net, kappa, x0 in cases:
        trace = simulate(net, x0, kappa, t_end=0.3, dt=0.01, adaptive=True, tol=1e-3)
        dense = _dense_adaptive_run(net, x0, kappa, 0.01, 0.3, 1e-3)
        assert len(trace.states) == len(dense)
        rejected += trace.steps - (len(dense) - 1)
        grown += len(dense) < 31
        for row, expected in zip(trace.states, dense):
            bound = 1e-12 * max(1.0, float(np.max(np.abs(expected))))
            assert float(np.max(np.abs(np.array(row) - expected))) <= bound
    assert rejected > 0 and grown > 0


def test_a_nan_right_hand_side_never_reads_as_steady():
    # at A = 1e154 the two rates 1e308 make dA/dt = 2e308 - 2e308 = inf - inf;
    # Python's max drops that nan behind the 0 of species B and read the
    # start as steady after 0 steps
    net = parse_network("species: B A\nr1: 2 A -> 4 A @ 1\nr2: 2 A -> 0 @ 1\nr3: B -> 0 @ 1\n")
    with pytest.raises(SimulationError, match="non-finite"):
        simulate(net, (0.0, 1e154), t_end=1.0, dt=0.1)


@pytest.mark.parametrize(
    "x0, t_end, message",
    [
        ((1.0, 1.0), -1.0, "t_end must be positive"),
        ((1.0, 1.0), 0.0, "t_end must be positive"),
        ((1.0, -1.0), 1.0, "nonnegative"),
        ((1.0,), 1.0, "x0 has 1 entries, network has 2 species"),
        ((1.0, 1.0), float("nan"), "t_end must be finite"),
        ((1.0, 1.0), float("inf"), "t_end must be finite"),
    ],
)
def test_simulate_rejects_bad_inputs(ab, x0, t_end, message):
    with pytest.raises(ValueError, match=message):
        simulate(ab, x0, t_end=t_end)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"dt": 0.0}, "dt must be positive"),
        ({"dt": -0.5}, "dt must be positive"),
        ({"dt": float("nan")}, "dt must be finite"),
        ({"tol": 0.0, "adaptive": True}, "tol must be positive"),
        ({"tol": float("inf"), "adaptive": True}, "tol must be finite"),
    ],
)
def test_simulate_rejects_a_step_or_tolerance_out_of_range(ab, kwargs, message):
    with pytest.raises(ValueError, match=message):
        simulate(ab, (1.0, 1.0), t_end=1.0, **kwargs)


def test_simulate_rejects_an_infinite_kappa(running):
    with pytest.raises(ValueError, match="not finite"):
        simulate(running, (1.0, 2.0), [float("inf"), 1, 1, 1, 2, 2], t_end=1.0)


@pytest.mark.parametrize(
    "big, message",
    [(Fraction(10) ** 400, "overflows"), (Fraction(1, 10**400), "underflows to 0.0")],
)
def test_float_setup_refuses_exact_kappa_outside_the_float_range(running, big, message):
    # the check now lives in dynamics._float, which _FloatModel applies to
    # kappa; an overflow used to escape as a bare OverflowError, and an
    # underflow silently dropped the reaction
    kappa = [big, 1, 1, 1, 2, 2]
    match = rf"kappa\[0\] \(reaction r1\) {message}"
    with pytest.raises(ValueError, match=match):
        simulate(running, (1.0, 2.0), kappa, t_end=1.0)
    with pytest.raises(ValueError, match=match):
        jacobian(running, (1.0, 2.0), kappa)
    with pytest.raises(ValueError, match=match):
        stability_report(running, kappa, (1.0, 2.0))


@pytest.mark.parametrize(
    "value, message",
    [(Fraction(10) ** 400, "overflows the float range"), (Fraction(1, 10**400), "underflows to 0.0")],
)
def test_an_exact_state_outside_the_float_range_is_refused_by_name(ab, value, message):
    # the CLI hands --x0 and --class over exact; 1e400 used to end in an
    # OverflowError and 1e-400 silently ran from 0
    match = rf"x0\[0\] {message}"
    with pytest.raises(ValueError, match=match):
        simulate(ab, (value, 1), t_end=1.0)
    with pytest.raises(ValueError, match=match):
        birch_point(ab, canonical_complex_graph(ab), x0=(value, 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_state_input_must_be_finite(ab, bad):
    # these used to give a SimulationError after RuntimeWarnings, a
    # LinAlgError or nan
    state = (bad, 1.0)
    calls = [
        lambda: simulate(ab, state, t_end=1.0),
        lambda: jacobian(ab, state, [2.0, 1.0]),
        lambda: birch_point(ab, canonical_complex_graph(ab), x0=state),
        lambda: stability_report(ab, [2.0, 1.0], state),
        lambda: class_deviation(ab, state, (1.0, 2.0)),
        lambda: class_deviation(ab, (1.0, 2.0), state),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"\[0\] = .* is not finite"):
            call()


def test_simulate_stops_at_max_steps(ab):
    trace = simulate(ab, (3.0, 0.0), t_end=5.0, dt=1e-5, max_steps=10)
    assert trace.steps == 10
    assert not trace.steady
    assert trace.times[-1] < 5.0


def test_birch_point_ab(ab):
    g = canonical_complex_graph(ab)
    point = birch_point(ab, g, x0=(3.0, 0.0))
    assert point == pytest.approx((1.0, 2.0), abs=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e6, 1e8])
def test_birch_point_meets_a_large_class(ab, scale):
    # the stop min(1e-10, 1e-8 max(x0, x)) sat below one ulp of x, so no
    # Newton step met it and damping ran out after an exp overflow warning
    x0 = (3 * scale, 0.0)
    point = birch_point(ab, canonical_complex_graph(ab), x0=x0)
    assert point == pytest.approx((scale, 2 * scale), rel=1e-12)
    assert class_deviation(ab, point, x0) <= 16 * np.finfo(float).eps * 2 * scale


@pytest.mark.parametrize("x0", [(1e-300, 0.0), (0.0, 0.0)], ids=["tiny class", "zero class"])
def test_birch_point_never_returns_a_point_outside_a_small_class(ab, x0):
    # an absolute Newton stop of 1e-10 used to return (2.67e-11, 5.34e-11)
    # for both: far outside the class of (1e-300, 0), and {0} holds no
    # positive state at all
    with pytest.raises(ConvergenceError):
        birch_point(ab, canonical_complex_graph(ab), x0=x0)


@pytest.mark.parametrize("x0", [(0.0, 0.0), (1e-12, 0.0)], ids=["zero", "tiny"])
def test_birch_point_of_an_open_network_meets_a_class_at_zero(x0):
    # A - B is conserved; the class {x_A = x_B} holds the steady state (1, 1).
    # A stop scaled by x0 alone refused both: a zero step never got under 0,
    # and rounding in u_perp.T (x - x0) at x ~ 1 never got under 1e-20
    net = parse_network("r1: A + B <=> 0 @ 1, 1\n")
    point = birch_point(net, canonical_complex_graph(net), x0=x0)
    assert point == pytest.approx((1.0, 1.0), abs=1e-12)


def test_birch_point_meets_the_class_relative_to_a_small_x0(ab):
    x0 = (1e-5, 0.0)
    point = birch_point(ab, canonical_complex_graph(ab), x0=x0)
    assert point == pytest.approx((1e-5 / 3, 2e-5 / 3), rel=1e-6)
    assert class_deviation(ab, point, x0) <= 1e-8 * max(x0)


def test_birch_point_g4(running, table1):
    point = birch_point(running, table1[4], KPRIME, x0=(2.0, 0.0))
    assert point == pytest.approx((1.0, 1.0), abs=1e-10)
    assert abs(class_deviation(running, point, (2.0, 0.0))) < 1e-12


def test_birch_point_requires_balanced_rates(running, table1):
    with pytest.raises(NotBalancedError, match="not node balanced"):
        birch_point(running, table1[2], KPRIME, x0=(2.0, 0.0))


def test_birch_point_against_cube_root_oracle(running, table1):
    # on the conserved line x1 + x2 = const the last reversible pair
    # pins (x2 / x1)^3 to a ratio of tree constants
    rng = random.Random(72)
    g4 = table1[4]
    for _ in range(12):
        kappa, x_star = helpers.balanced_kappa(rng, g4)
        trees = tree_constants_eval(g4, kappa)
        ratio = float(trees[2] / trees[4])
        x0 = (float(x_star[0]) + 0.25, float(x_star[1]) - 0.125)
        expected = oracles.cube_root_line_point(ratio, sum(x0))
        point = birch_point(running, g4, kappa, x0=x0)
        assert point == pytest.approx(expected, rel=1e-9)
        assert abs(class_deviation(running, point, x0)) < 1e-10


def test_birch_point_default_start_is_balanced_lift(running, table1):
    point = birch_point(running, table1[4], KPRIME)
    assert point == pytest.approx((1.0, 1.0), abs=1e-10)


def test_stability_report_stable(ab):
    report = stability_report(ab, [2.0, 1.0], (1.0, 2.0))
    assert report.verdict is StabilityVerdict.STABLE
    assert report.verdict.value == "Stable"
    assert report.residual < 1e-9
    # the conserved direction is projected out, one transverse mode stays
    assert len(report.eigenvalues) == 1
    assert report.eigenvalues[0].real == pytest.approx(-3.0, abs=1e-9)


def test_stability_report_unstable():
    net = parse_network("r1: 2 A -> 3 A @ 1\nr2: A -> 0 @ 1\n")
    report = stability_report(net, [1.0, 1.0], (1.0,))
    assert report.verdict is StabilityVerdict.UNSTABLE
    assert report.eigenvalues[0].real == pytest.approx(1.0)


def test_stability_report_inconclusive_center():
    net = parse_network(
        "r1: A -> 2 A @ 1\nr2: A + B -> 2 B @ 1\nr3: B -> 0 @ 1\n"
    )
    report = stability_report(net, [1.0, 1.0, 1.0], (1.0, 1.0))
    assert report.verdict is StabilityVerdict.INCONCLUSIVE
    assert sorted(ev.imag for ev in report.eigenvalues) == pytest.approx([-1.0, 1.0])
    assert max(abs(ev.real) for ev in report.eigenvalues) < 1e-12


def test_stability_report_rejects_non_steady_state(ab):
    with pytest.raises(ValueError, match="not a steady state"):
        stability_report(ab, [2.0, 1.0], (2.0, 2.0))


def test_stability_of_sampled_balanced_states(running, table1):
    rng = random.Random(73)
    for _ in range(5):
        kappa, x_star = helpers.balanced_kappa(rng, table1[1])
        report = stability_report(
            running,
            [float(k) for k in kappa],
            tuple(float(v) for v in x_star),
        )
        assert report.verdict is StabilityVerdict.STABLE


def test_jacobian_ab(ab):
    jac = jacobian(ab, (1.0, 2.0), [2.0, 1.0])
    assert np.allclose(jac, [[-2.0, 1.0], [2.0, -1.0]])


def test_jacobian_matches_finite_differences(running):
    kappa = [1.0, 2.0, 0.5, 1.5, 2.0, 1.0]
    x = (0.8, 1.3)
    jac = jacobian(running, x, kappa)
    eps = 1e-7
    for j in range(2):
        bumped = list(x)
        bumped[j] += eps
        lowered = list(x)
        lowered[j] -= eps
        column = (
            np.asarray(ode_rhs(running, bumped, kappa))
            - np.asarray(ode_rhs(running, lowered, kappa))
        ) / (2 * eps)
        assert np.allclose(jac[:, j], column, atol=1e-5)


def test_jacobian_requires_positive_state(ab):
    with pytest.raises(ValueError, match="positive"):
        jacobian(ab, (0.0, 1.0), [2.0, 1.0])


def test_class_deviation_zero_on_the_class(ab, running):
    assert class_deviation(ab, (1.0, 2.0), (3.0, 0.0)) == pytest.approx(0.0)
    # off the line x_A + x_B = 3 by 1, projected on the unit normal
    assert class_deviation(ab, (1.0, 1.0), (3.0, 0.0)) == pytest.approx(1 / math.sqrt(2))
    assert class_deviation(running, (0.5, 1.5), (2.0, 0.0)) == pytest.approx(0.0)


@pytest.mark.parametrize(
    "x, x0",
    [((1.0, 2.0), (1.0, 2.0, 99.0)), ((1.0,), (1.0, 2.0)), ((), ())],
    ids=["long x0", "short x", "empty"],
)
def test_class_deviation_checks_lengths(running, x, x0):
    with pytest.raises(ValueError, match="network has 2 species"):
        class_deviation(running, x, x0)
