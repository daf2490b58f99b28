"""Exact rational linear algebra, cross-checked against sympy."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import oracles
from crnbalance import ratmat


def _random_matrix(rng, rows, cols, max_abs=6, fractions=False):
    def entry():
        v = Fraction(rng.randint(-max_abs, max_abs))
        if fractions:
            v /= rng.randint(1, 4)
        return v

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def test_rank_matches_sympy_on_random_matrices():
    rng = random.Random(11)
    for _ in range(60):
        mat = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5),
                             fractions=rng.random() < 0.5)
        assert ratmat.rank(mat) == oracles.sympy_rank(mat)


def test_nullspace_annihilates_and_spans_like_sympy():
    rng = random.Random(12)
    for _ in range(40):
        mat = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = ratmat.nullspace(mat)
        for vec in basis:
            assert all(v == 0 for v in ratmat.matvec(mat, vec))
        expected = oracles.sympy_nullspace(mat)
        assert len(basis) == len(expected)
        if basis:
            assert oracles.same_rational_span(basis, [list(v) for v in expected])


def test_integer_nullspace_is_primitive():
    rng = random.Random(13)
    for _ in range(30):
        mat = _random_matrix(rng, rng.randint(1, 3), rng.randint(2, 5))
        for vec in ratmat.nullspace(mat):
            assert isinstance(vec, tuple)
            assert all(isinstance(v, int) for v in vec)
            assert math.gcd(*vec) == 1
            assert all(v == 0 for v in ratmat.matvec(mat, vec))
            nonzero = [v for v in vec if v]
            assert nonzero and nonzero[0] > 0
    # denominators and a negative leading entry: kernel of (2/3, 1) is (3, -2)
    assert ratmat.nullspace([[Fraction(2, 3), Fraction(1)]]) == [(3, -2)]
    basis = ratmat.nullspace([[Fraction(4), Fraction(6), Fraction(0)]])
    assert basis == [(3, -2, 0), (0, 0, 1)]


def test_bareiss_det_integer_matrices():
    rng = random.Random(15)
    for _ in range(40):
        size = rng.randint(1, 5)
        mat = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
        assert ratmat.det(mat) == oracles.sympy_det(mat)


def test_det_rational_matrices_and_empty():
    rng = random.Random(16)
    assert ratmat.det([]) == Fraction(1)
    for _ in range(30):
        size = rng.randint(1, 4)
        mat = _random_matrix(rng, size, size, fractions=True)
        assert ratmat.det(mat) == oracles.sympy_det(mat)


def test_det_detects_row_swap_sign():
    mat = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert ratmat.det(mat) == Fraction(-1)


def test_matmul_matvec_transpose():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    b = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    # the product a b, row by row: row i of a b is b^T times row i of a
    product = [ratmat.matvec(ratmat.transpose(b), row) for row in a]
    assert product == [[Fraction(2), Fraction(1)], [Fraction(4), Fraction(3)]]
    assert ratmat.matvec(a, [Fraction(1), Fraction(1)]) == [Fraction(3), Fraction(7)]
    assert ratmat.transpose(a) == [[Fraction(1), Fraction(3)], [Fraction(2), Fraction(4)]]


def test_matvec_skips_zero_entries_but_keeps_the_type_of_each_entry():
    # N of A + C -> B + C: the catalyst C has an all-zero row
    n = [[-1], [1], [0]]
    for one in (Fraction(1, 3), 0.25, 2):
        out = ratmat.matvec(n, [one])
        assert out == [-one, one, 0]
        assert [type(v) for v in out] == [type(one)] * 3
    # a nonfinite rate reaches only the rows where its column is nonzero
    out = ratmat.matvec([[1, 0], [0, 2], [0, 0]], [math.inf, 1.5])
    assert out == [math.inf, 3.0, 0.0] and type(out[2]) is float
    assert ratmat.matvec([[1, 1], [0, -1]], [math.nan, 1.0])[1] == -1.0


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        ratmat.det([[Fraction(1), Fraction(2)]])
