"""Sparse multivariate polynomials with integer coefficients.

Used for spanning-tree polynomials and rate-constant identities; the
variables are the reaction rate constants k1..kp. Terms are stored as a
sorted tuple of (exponent tuple, coefficient), which makes equality and
formatting canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


@dataclass(frozen=True)
class KPoly:
    nvars: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def zero(nvars: int) -> "KPoly":
        return KPoly(nvars, ())

    @staticmethod
    def constant(nvars: int, value: int) -> "KPoly":
        return KPoly.monomial(nvars, (0,) * nvars, value)

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], coeff: int = 1) -> "KPoly":
        exps = tuple(exps)
        if len(exps) != nvars:
            raise ValueError(f"exponent tuple {exps} does not have {nvars} entries")
        if coeff == 0:
            return KPoly(nvars, ())
        return KPoly(nvars, ((exps, coeff),))

    @staticmethod
    def variable(nvars: int, index: int) -> "KPoly":
        exps = [0] * nvars
        exps[index] = 1
        return KPoly.monomial(nvars, exps)

    @staticmethod
    def from_terms(nvars: int, terms: Iterable[tuple[Sequence[int], int]]) -> "KPoly":
        acc: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms:
            key = tuple(exps)
            acc[key] = acc.get(key, 0) + coeff
        return KPoly(nvars, tuple(sorted((e, c) for e, c in acc.items() if c)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "KPoly") -> "KPoly":
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        return KPoly.from_terms(self.nvars, self.terms + other.terms)

    def __sub__(self, other: "KPoly") -> "KPoly":
        return self + KPoly(other.nvars, tuple((e, -c) for e, c in other.terms))

    def __mul__(self, other: "KPoly") -> "KPoly":
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, 0) + c1 * c2
        return KPoly(self.nvars, tuple(sorted((e, c) for e, c in acc.items() if c)))

    def __pow__(self, exponent: int) -> "KPoly":
        if exponent < 0:
            raise ValueError(f"negative power {exponent}")
        result = KPoly.constant(self.nvars, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def evaluate(self, values: Sequence) -> Fraction | float:
        """Evaluate at the given variable values (exact for rationals)."""
        if len(values) != self.nvars:
            raise ValueError(f"need {self.nvars} values, got {len(values)}")
        total = 0
        for exps, coeff in self.terms:
            term = coeff
            for val, e in zip(values, exps):
                if e:
                    term = term * val**e
            total = total + term
        return total

    def content_exponents(self) -> tuple[int, ...]:
        """Per-variable minimum exponent over all terms (zero for the zero poly)."""
        if not self.terms:
            return (0,) * self.nvars
        return tuple(min(col) for col in zip(*(e for e, _ in self.terms)))

    def divide_monomial(self, exps: Sequence[int]) -> "KPoly":
        out = []
        for e, c in self.terms:
            shifted = tuple(a - b for a, b in zip(e, exps))
            if any(x < 0 for x in shifted):
                raise ValueError(f"monomial {exps} does not divide term {e}")
            out.append((shifted, c))
        return KPoly(self.nvars, tuple(sorted(out)))

    def format(self) -> str:
        if not self.terms:
            return "0"
        # largest exponent tuple first reads like the handwritten polynomials
        chunks = []
        for exps, coeff in sorted(self.terms, reverse=True):
            body = product_text((f"k{i}", e) for i, e in enumerate(exps, start=1))
            if coeff == 1:
                chunks.append(body)
            elif coeff == -1:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{coeff}*{body}")
        text = " + ".join(chunks)
        return text.replace("+ -", "- ")


def product_text(factors: Iterable[tuple[str, int]]) -> str:
    """``name`` or ``name^e`` for each (name, e) with e > 0, joined by ``*``; ``1`` if none."""
    text = "*".join(name if e == 1 else f"{name}^{e}" for name, e in factors if e > 0)
    return text or "1"


def cancel_common_content(a: KPoly, b: KPoly) -> tuple[KPoly, KPoly]:
    """Divide both polynomials by the monomial content they share."""
    ca = a.content_exponents()
    cb = b.content_exponents()
    common = tuple(min(x, y) for x, y in zip(ca, cb))
    if not any(common):
        return a, b
    return a.divide_monomial(common), b.divide_monomial(common)
