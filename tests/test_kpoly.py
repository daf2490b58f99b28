"""Sparse integer polynomial arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from crnbalance import KPoly, cancel_common_content
from crnbalance.kpoly import product_text


def _random_poly(rng, nvars, max_terms=4):
    terms = [
        (
            tuple(rng.randint(0, 3) for _ in range(nvars)),
            rng.randint(-5, 5),
        )
        for _ in range(rng.randint(0, max_terms))
    ]
    return KPoly.from_terms(nvars, terms)


def test_constructors_and_zero():
    z = KPoly.zero(3)
    assert z.is_zero and z.terms == ()
    one = KPoly.constant(3, 1)
    assert one.terms == (((0, 0, 0), 1),)
    v = KPoly.variable(3, 1)
    assert v.terms == (((0, 1, 0), 1),)
    m = KPoly.monomial(3, (1, 0, 2), coeff=4)
    assert m.terms == (((1, 0, 2), 4),)


def test_terms_stay_sorted_and_nonzero():
    rng = random.Random(21)
    for _ in range(50):
        p = _random_poly(rng, 3)
        assert list(p.terms) == sorted(p.terms)
        assert all(c != 0 for _, c in p.terms)


def test_ring_identities_on_random_polys():
    rng = random.Random(22)
    for _ in range(40):
        a, b, c = (_random_poly(rng, 3) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a - a == KPoly.zero(3)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a**2 == a * a


def test_evaluate_agrees_with_term_sum():
    rng = random.Random(23)
    for _ in range(30):
        p = _random_poly(rng, 3)
        point = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(3)]
        direct = sum(
            (
                Fraction(c) * point[0] ** e[0] * point[1] ** e[1] * point[2] ** e[2]
                for e, c in p.terms
            ),
            Fraction(0),
        )
        assert p.evaluate(point) == direct


def test_content_and_monomial_division():
    p = KPoly.from_terms(2, [((2, 1), 3), ((1, 2), 6)])
    assert p.content_exponents() == (1, 1)
    q = p.divide_monomial((1, 1))
    assert q.terms == (((0, 1), 6), ((1, 0), 3))
    with pytest.raises(ValueError):
        p.divide_monomial((2, 2))


def test_cancel_common_content():
    a = KPoly.monomial(3, (1, 1, 0))
    b = KPoly.from_terms(3, [((0, 1, 1), 1), ((1, 1, 0), 1)])
    a2, b2 = cancel_common_content(a, b)
    assert a2.terms == (((1, 0, 0), 1),)
    assert b2.terms == (((0, 0, 1), 1), ((1, 0, 0), 1))


def test_format_strings():
    assert KPoly.zero(2).format() == "0"
    assert KPoly.constant(2, 1).format() == "1"
    assert KPoly.monomial(3, (1, 0, 2)).format() == "k1*k3^2"
    p = KPoly.from_terms(2, [((1, 0), 1), ((0, 1), -2)])
    assert p.format() == "k1 - 2*k2"
    assert KPoly.monomial(2, (0, 1), coeff=-1).format() == "-k2"
    assert product_text([]) == product_text([("X", 0)]) == "1"
    assert product_text([("X", 1), ("Y", 0), ("Z", 3)]) == "X*Z^3"


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        KPoly.constant(2, 2) ** -1
