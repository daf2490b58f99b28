"""Reaction networks with mass-action kinetics.

A network is a triple (species, complexes, reactions). Complexes are
nonnegative integer combinations of species; reactions are ordered pairs
of distinct complexes with a positive rate constant (numeric or symbolic).

Text format (``.crn``), line oriented::

    # trimolecular running example
    species: X1 X2
    r1: 3 X1 -> X1 + 2 X2 @ k1
    r2: X1 + 2 X2 <=> 3 X2 @ k2,k3
    r3: 0 -> X1 @ 5/2

``species:`` is optional; without it species are numbered in order of
first appearance. ``<=>`` expands to two reactions, forward first.
Rates are positive integers/rationals (kept exact), decimals (stored as
floats) or symbolic names.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from . import ratmat

RateValue = Union[Fraction, float, str]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_TERM_RE = re.compile(r"^(\d+)?\s*([A-Za-z_][A-Za-z0-9_.]*)$")


class ParseError(ValueError):
    """Raised on malformed .crn input."""


@dataclass(frozen=True)
class Complex:
    """A complex as a coefficient vector over the network's species."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.coeffs):
            raise ValueError(f"complex has negative coefficient: {self.coeffs}")

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def total(self) -> int:
        return sum(self.coeffs)

    def format(self, species: Sequence[str]) -> str:
        parts = []
        for coeff, name in zip(self.coeffs, species):
            if coeff == 0:
                continue
            parts.append(name if coeff == 1 else f"{coeff} {name}")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class Reaction:
    """One reaction; source and target are 0-based complex indices."""

    source: int
    target: int
    rate: RateValue


@dataclass(frozen=True)
class ReactionNetwork:
    species: tuple[str, ...]
    complexes: tuple[Complex, ...]
    reactions: tuple[Reaction, ...]

    def __post_init__(self) -> None:
        if not self.species:
            raise ValueError("network has no species")
        if len(set(self.species)) != len(self.species):
            raise ValueError(f"duplicate species names in {self.species}")
        if not self.reactions:
            raise ValueError("network has no reactions")
        n = len(self.species)
        seen_complexes = set()
        for cx in self.complexes:
            if len(cx.coeffs) != n:
                raise ValueError(f"complex {cx.coeffs} does not match {n} species")
            if cx.coeffs in seen_complexes:
                raise ValueError(f"duplicate complex {cx.coeffs}")
            seen_complexes.add(cx.coeffs)
        used = set()
        pairs = set()
        for k, r in enumerate(self.reactions):
            if not (0 <= r.source < len(self.complexes) and 0 <= r.target < len(self.complexes)):
                raise ValueError(f"reaction r{k + 1} references a missing complex")
            if r.source == r.target:
                raise ValueError(f"reaction r{k + 1} is a self-loop")
            if (r.source, r.target) in pairs:
                raise ValueError(f"duplicate reaction r{k + 1}")
            pairs.add((r.source, r.target))
            used.add(r.source)
            used.add(r.target)
            _check_rate(r.rate, k + 1)
        if used != set(range(len(self.complexes))):
            unused = sorted(set(range(len(self.complexes))) - used)
            raise ValueError(f"complexes not used by any reaction: {unused}")
        for i, name in enumerate(self.species):
            if all(cx.coeffs[i] == 0 for cx in self.complexes):
                raise ValueError(f"species {name} appears in no complex")

    @property
    def n(self) -> int:
        return len(self.species)

    @property
    def m(self) -> int:
        return len(self.complexes)

    @property
    def p(self) -> int:
        return len(self.reactions)

    @cached_property
    def stoichiometric_matrix(self) -> tuple[tuple[int, ...], ...]:
        """n x p integer matrix; column j is target_j - source_j."""
        cols = []
        for r in self.reactions:
            src = self.complexes[r.source].coeffs
            tgt = self.complexes[r.target].coeffs
            cols.append([t - s for s, t in zip(src, tgt)])
        return tuple(tuple(row) for row in zip(*cols))

    @cached_property
    def rank(self) -> int:
        return ratmat.rank(self.stoichiometric_matrix)

    @cached_property
    def reverse_index(self) -> tuple[int | None, ...]:
        """For each reaction, the index of the earlier reaction it reverses."""
        earlier: dict[tuple[int, int], int] = {}
        out = []
        for j, r in enumerate(self.reactions):
            out.append(earlier.get((r.target, r.source)))
            earlier[(r.source, r.target)] = j
        return tuple(out)

    @cached_property
    def split_labels(self) -> tuple[int, ...]:
        """Complex index (0-based) on each split index 1..2p, at entry i-1.

        Reaction j (0-based) owns split indices 2j+1 and 2j+2, its target
        first when it reverses an earlier reaction (see ``partitions``).
        """
        labels: list[int] = []
        for r, rev in zip(self.reactions, self.reverse_index):
            labels.extend((r.source, r.target) if rev is None else (r.target, r.source))
        return tuple(labels)

    @cached_property
    def split_sources(self) -> tuple[int, ...]:
        """1-based split index holding each reaction's source, in reaction order."""
        return tuple(
            2 * j + 1 if rev is None else 2 * j + 2 for j, rev in enumerate(self.reverse_index)
        )

    @cached_property
    def split_targets(self) -> tuple[int, ...]:
        """1-based split index holding each reaction's target, in reaction order."""
        return tuple(
            2 * j + 2 if rev is None else 2 * j + 1 for j, rev in enumerate(self.reverse_index)
        )

    @cached_property
    def split_classes(self) -> tuple[tuple[int, ...], ...]:
        """1-based split indices labeled by each complex, in complex order."""
        classes: list[list[int]] = [[] for _ in self.complexes]
        for idx, lab in enumerate(self.split_labels, start=1):
            classes[lab].append(idx)
        return tuple(tuple(c) for c in classes)

    @cached_property
    def float_bind(self):
        """bind(kappa) compiled from dynamics._source(self), the float model."""
        from .dynamics import _compile
        return _compile(self)

    @cached_property
    def stoichiometric_bases(self):
        """Read-only orthonormal bases (columns) of S = im N and of its complement."""
        from .dynamics import _svd_bases
        return _svd_bases(self)

    @classmethod
    def assemble(
        cls,
        species: Sequence[str],
        reactions: Iterable[tuple[Sequence[int], Sequence[int], RateValue]],
    ) -> "ReactionNetwork":
        """The validated network of (source coefficients, target coefficients, rate)
        triples; complexes are numbered by first appearance, source before target."""
        ids: dict[tuple[int, ...], int] = {}
        edges = []
        for source, target, rate in reactions:
            s = ids.setdefault(tuple(source), len(ids))
            edges.append(Reaction(s, ids.setdefault(tuple(target), len(ids)), rate))
        return cls(tuple(species), tuple(Complex(cx) for cx in ids), tuple(edges))


def _check_number(value, name: str) -> None:
    """The rule for a numeric rate or kappa entry: not a bool, finite if a
    float, and positive. Exact values of any size pass."""
    if isinstance(value, bool):
        raise ValueError(f"{name} = {value!r} is a bool, not a number")
    if not value > 0:
        raise ValueError(f"{name} = {value} is not positive")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} = {value} is not finite")


def _check_rate(rate: RateValue, idx: int) -> None:
    if isinstance(rate, (int, float, Fraction)):
        _check_number(rate, f"reaction r{idx} rate")
    elif isinstance(rate, str):
        if not _NAME_RE.fullmatch(rate):
            raise ValueError(f"reaction r{idx} has malformed rate symbol {rate!r}")
    else:
        raise ValueError(f"reaction r{idx} has invalid rate {rate!r}")


def _parse_rate(token: str, lineno: int) -> RateValue:
    token = token.strip()
    if re.fullmatch(r"\d+", token):
        value: RateValue = Fraction(int(token))
    elif re.fullmatch(r"\d+\s*/\s*\d+", token):
        num, den = token.split("/")
        if int(den) == 0:
            raise ParseError(f"line {lineno}: zero denominator in rate {token!r}")
        value = Fraction(int(num), int(den))
    elif _NAME_RE.fullmatch(token):
        return token
    else:
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"line {lineno}: cannot parse rate {token!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"line {lineno}: rate {token!r} is not finite")
    if not value > 0:
        raise ParseError(f"line {lineno}: nonpositive rate {token!r}")
    return value


def _parse_complex(text: str, lineno: int) -> dict[str, int]:
    text = text.strip()
    if text == "0":
        return {}
    coeffs: dict[str, int] = {}
    for raw in text.split("+"):
        term = raw.strip()
        match = _TERM_RE.match(term)
        if match is None:
            raise ParseError(f"line {lineno}: malformed term {term!r}")
        coeff = int(match.group(1)) if match.group(1) else 1
        if coeff == 0:
            raise ParseError(f"line {lineno}: zero coefficient in term {term!r}")
        name = match.group(2)
        coeffs[name] = coeffs.get(name, 0) + coeff
    return coeffs


def parse_network(text: str) -> ReactionNetwork:
    """Parse the .crn text format.

    Returns:
        The validated network. Species follow the ``species:`` line when
        present (all listed species must occur), otherwise first
        appearance; complexes are deduplicated in order of first
        appearance; reactions are numbered by file order with ``<=>``
        contributing the forward reaction first.
    """
    declared: list[str] | None = None
    appearance: list[str] = []
    seen = set()
    raw_reactions: list[tuple[dict[str, int], dict[str, int], RateValue, int]] = []

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("species:"):
            if declared is not None:
                raise ParseError(f"line {lineno}: repeated species declaration")
            declared = line[len("species:"):].split()
            if not declared:
                raise ParseError(f"line {lineno}: empty species declaration")
            for name in declared:
                if not _NAME_RE.fullmatch(name):
                    raise ParseError(f"line {lineno}: bad species name {name!r}")
            continue
        head, sep, tail = line.partition(":")
        if sep and "@" not in head and "->" not in head and "<" not in head:
            if not _NAME_RE.fullmatch(head.strip()):
                raise ParseError(f"line {lineno}: bad reaction label {head.strip()!r}")
            line = tail.strip()
        body, sep, rate_part = line.partition("@")
        if not sep:
            raise ParseError(f"line {lineno}: missing '@ <rate>'")
        reversible = "<=>" in body
        arrow = "<=>" if reversible else "->"
        lhs, sep, rhs = body.partition(arrow)
        if not sep:
            raise ParseError(f"line {lineno}: missing reaction arrow")
        source = _parse_complex(lhs, lineno)
        target = _parse_complex(rhs, lineno)
        rates = [tok.strip() for tok in rate_part.split(",")]
        if reversible:
            if len(rates) != 2:
                raise ParseError(f"line {lineno}: '<=>' needs two rates 'kf,kr'")
            raw_reactions.append((source, target, _parse_rate(rates[0], lineno), lineno))
            raw_reactions.append((target, source, _parse_rate(rates[1], lineno), lineno))
        else:
            if len(rates) != 1:
                raise ParseError(f"line {lineno}: expected one rate, got {rate_part!r}")
            raw_reactions.append((source, target, _parse_rate(rates[0], lineno), lineno))
        for cx in (source, target):
            for name in cx:
                if name not in seen:
                    seen.add(name)
                    appearance.append(name)

    if not raw_reactions:
        raise ParseError("no reactions found")
    if declared is not None:
        extra = [name for name in appearance if name not in declared]
        if extra:
            raise ParseError(f"species {extra} not in the species declaration")
        species = tuple(declared)
    else:
        species = tuple(appearance)

    index = {name: i for i, name in enumerate(species)}

    def coeffs(cx: dict[str, int]) -> tuple[int, ...]:
        vec = [0] * len(species)
        for name, coeff in cx.items():
            vec[index[name]] = coeff
        return tuple(vec)

    triples = []
    pairs = set()
    for source, target, rate, lineno in raw_reactions:
        pair = (coeffs(source), coeffs(target))
        if pair[0] == pair[1]:
            raise ParseError(f"line {lineno}: self-loop reaction")
        if pair in pairs:
            raise ParseError(f"line {lineno}: duplicate reaction")
        pairs.add(pair)
        triples.append((*pair, rate))

    try:
        return ReactionNetwork.assemble(species, triples)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_rate(rate: RateValue) -> str:
    if isinstance(rate, Fraction):
        return str(rate.numerator) if rate.denominator == 1 else f"{rate.numerator}/{rate.denominator}"
    if isinstance(rate, float):
        return repr(rate)
    return str(rate)


def format_network(net: ReactionNetwork) -> str:
    """Render a network in the .crn format; parse_network round-trips it."""
    lines = ["species: " + " ".join(net.species)]
    for k, r in enumerate(net.reactions, start=1):
        src = net.complexes[r.source].format(net.species)
        tgt = net.complexes[r.target].format(net.species)
        lines.append(f"r{k}: {src} -> {tgt} @ {format_rate(r.rate)}")
    return "\n".join(lines) + "\n"


def numeric_kappa(net: ReactionNetwork, kappa: Sequence | None = None) -> list:
    """Resolve the rate-constant vector to numbers.

    Args:
        kappa: overrides the network's rate constants when given; required
            if any stored rate is symbolic.
    """
    if kappa is None:
        values = []
        for k, r in enumerate(net.reactions):
            if isinstance(r.rate, str):
                raise ValueError(f"reaction r{k + 1} has symbolic rate {r.rate!r}; pass kappa")
            values.append(r.rate)
        return values
    if len(kappa) != net.p:
        raise ValueError(f"kappa has {len(kappa)} entries, network has {net.p} reactions")
    for k, val in enumerate(kappa):
        _check_number(val, f"kappa[{k}]")
    return list(kappa)


def mass_action_rates(net: ReactionNetwork, x: Sequence, kappa: Sequence | None = None) -> list:
    """Mass-action rate vector v with v_j = kappa_j * x^(source_j), 0^0 = 1.

    Exact when x and kappa are ints/Fractions; float inputs give floats.
    """
    if len(x) != net.n:
        raise ValueError(f"state has {len(x)} entries, network has {net.n} species")
    kap = numeric_kappa(net, kappa)
    rates = []
    for r, k in zip(net.reactions, kap):
        v = k
        for xi, e in zip(x, net.complexes[r.source].coeffs):
            if e:
                v = v * xi**e
        rates.append(v)
    return rates


def ode_rhs(net: ReactionNetwork, x: Sequence, kappa: Sequence | None = None) -> list:
    """Right hand side N v(x) of the mass-action ODE."""
    v = mass_action_rates(net, x, kappa)
    return ratmat.matvec(net.stoichiometric_matrix, v)
