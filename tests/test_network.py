"""Network model, .crn parsing and mass-action evaluation."""

from __future__ import annotations

from fractions import Fraction

import pytest

import oracles
from crnbalance import (
    Complex,
    ParseError,
    Reaction,
    ReactionNetwork,
    format_network,
    mass_action_rates,
    numeric_kappa,
    ode_rhs,
    parse_network,
)


def test_running_example_shape(running):
    assert running.species == ("X1", "X2")
    assert running.n == 2 and running.m == 4 and running.p == 6
    assert running.rank == 1
    assert [c.coeffs for c in running.complexes] == [(3, 0), (1, 2), (0, 3), (2, 1)]
    assert running.reverse_index == (None, None, None, None, None, 4)
    assert [r.rate for r in running.reactions] == ["k1", "k2", "k3", "k4", "k5", "k6"]


def test_running_example_stoichiometric_matrix(running):
    mat = running.stoichiometric_matrix
    assert mat == (
        (-2, -1, 2, 1, -3, 3),
        (2, 1, -2, -1, 3, -3),
    )
    assert running.rank == oracles.sympy_rank(mat)


def test_complex_helpers():
    cx = Complex((2, 0, 1))
    assert cx.total == 3 and not cx.is_zero
    assert cx.format(("A", "B", "C")) == "2 A + C"
    assert Complex((0, 0)).is_zero
    assert Complex((0, 0)).format(("A", "B")) == "0"


def test_parse_without_species_line_uses_first_appearance():
    net = parse_network("r1: B -> A @ 1\n")
    assert net.species == ("B", "A")
    assert net.stoichiometric_matrix == ((-1,), (1,))


def test_parse_reversible_orders_forward_first():
    net = parse_network("r1: A <=> B @ 3, 5\n")
    assert [r.rate for r in net.reactions] == [Fraction(3), Fraction(5)]
    assert net.reactions[0].source == net.reactions[1].target
    assert net.reverse_index == (None, 0)


def test_parse_rates_integer_fraction_float_symbol():
    net = parse_network(
        "r1: A -> B @ 2\nr2: B -> C @ 1/3\nr3: C -> A @ 0.25\nr4: A -> C @ kf\n"
    )
    rates = [r.rate for r in net.reactions]
    assert rates[0] == Fraction(2) and isinstance(rates[0], Fraction)
    assert rates[1] == Fraction(1, 3)
    assert rates[2] == 0.25 and isinstance(rates[2], float)
    assert rates[3] == "kf"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("r1: A -> A @ 1\n", "self-loop"),
        ("r1: A -> B @ 1\nr2: A -> B @ 2\n", "duplicate"),
        ("r1: A -> B @ 0\n", "nonpositive"),
        ("r1: A -> B @ -2\n", "nonpositive"),
        ("r1: A -> 2 @ 1\n", "malformed term"),
        ("r1: A -> B\n", "missing '@"),
        ("r1: A <=> B @ 1\n", "two rates"),
        ("r1: 0 X1 -> B @ 1\n", "zero coefficient"),
        ("species: A\nr1: A -> B @ 1\n", "not in the species"),
        ("# only a comment\n", "no reactions"),
        ("r1: A -> B @ 1/0\n", "zero denominator"),
        ("r1: A -> B @ 1e999\n", "not finite"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_network(text)


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_network("# header\nr1: A -> B @ 1\nr2: B -> B @ 1\n")


def test_format_round_trips(running, fig2, ab):
    for net in (running, fig2, ab):
        again = parse_network(format_network(net))
        assert again == net


def test_dotted_names_round_trip():
    net = parse_network("species: X1.1 X1.2\nr1: X1.1 -> X1.2 @ 1\n")
    assert parse_network(format_network(net)) == net


def test_validation_rejects_bad_networks():
    a, b = Complex((1, 0)), Complex((0, 1))
    with pytest.raises(ValueError, match="self-loop"):
        ReactionNetwork(("A", "B"), (a, b), (Reaction(0, 0, Fraction(1)),))
    with pytest.raises(ValueError, match="duplicate"):
        ReactionNetwork(
            ("A", "B"),
            (a, b),
            (Reaction(0, 1, Fraction(1)), Reaction(0, 1, Fraction(2))),
        )
    with pytest.raises(ValueError, match="not used"):
        ReactionNetwork(
            ("A", "B"),
            (a, b, Complex((1, 1))),
            (Reaction(0, 1, Fraction(1)),),
        )
    with pytest.raises(ValueError, match="species"):
        ReactionNetwork(
            ("A", "B", "C"),
            (Complex((1, 0, 0)), Complex((0, 1, 0))),
            (Reaction(0, 1, Fraction(1)),),
        )
    with pytest.raises(ValueError, match="not finite"):
        ReactionNetwork(("A", "B"), (a, b), (Reaction(0, 1, float("inf")),))
    with pytest.raises(ValueError, match="bool"):
        ReactionNetwork(("A", "B"), (a, b), (Reaction(0, 1, True),))


def test_numeric_kappa_paths(running, ab):
    assert numeric_kappa(ab) == [Fraction(2), Fraction(1)]
    with pytest.raises(ValueError, match="symbolic"):
        numeric_kappa(running)
    kap = numeric_kappa(running, [1, 2, 3, 4, 5, 6])
    assert kap == [1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError, match="6 reactions"):
        numeric_kappa(running, [1, 2])
    with pytest.raises(ValueError, match="not positive"):
        numeric_kappa(running, [1, 2, 3, 4, 5, 0])


@pytest.mark.parametrize(
    "entry, message",
    [
        (float("inf"), r"kappa\[0\] = inf is not finite"),
        (float("nan"), "not positive"),
        (True, r"kappa\[0\] = True is a bool"),
        (Fraction(0), "not positive"),
    ],
    ids=["inf", "nan", "bool", "zero"],
)
def test_numeric_kappa_rejects_bad_entries(running, entry, message):
    with pytest.raises(ValueError, match=message):
        numeric_kappa(running, [entry, 1, 1, 1, 2, 2])


def test_mass_action_rates_exact(running):
    x = (Fraction(1, 2), Fraction(3))
    kappa = [Fraction(i + 1) for i in range(6)]
    v = mass_action_rates(running, x, kappa)
    assert v == [
        Fraction(1, 8),
        Fraction(9),
        Fraction(81),
        Fraction(3),
        Fraction(5, 8),
        Fraction(162),
    ]
    assert all(isinstance(val, Fraction) for val in v)


def test_mass_action_zero_power_is_one():
    net = parse_network("r1: 0 <=> A @ 2, 3\n")
    v = mass_action_rates(net, [Fraction(0)])
    assert v == [Fraction(2), Fraction(0)]


def test_ode_rhs_ab(ab):
    assert ode_rhs(ab, (Fraction(1), Fraction(2))) == [Fraction(0), Fraction(0)]
    assert ode_rhs(ab, (Fraction(3), Fraction(0))) == [Fraction(-6), Fraction(6)]


def test_state_length_checked(ab):
    with pytest.raises(ValueError, match="2 species"):
        mass_action_rates(ab, (1,))
