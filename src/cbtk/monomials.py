"""Exact monomial and monomial-ideal arithmetic.

Monomials are exponent vectors, ideals are minimal generating sets, and
Hilbert functions of quotients come from independent routes that must
agree: a memoized variable-splitting recursion, brute-force enumeration of
the standard monomials, and (for pure power ideals) truncated power
series.  Everything is arbitrary-precision integer arithmetic;
no coefficient field is involved (Hilbert functions of monomial ideals are
field-independent).

All types are immutable and all operations are pure, so concurrent use
needs no coordination.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


class NotArtinianError(ValueError):
    """Raised when an operation needs an Artinian quotient but the ideal
    lacks a pure power of some variable."""


@dataclass(frozen=True)
class Monomial:
    """A monomial as a tuple of nonnegative exponents, x1^e1 * x2^e2 * ...

    Trailing zero exponents are stripped on construction, so monomials in
    ambient rings of different sizes compare equal when they agree as
    monomials.
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        while exps and exps[-1] == 0:
            exps = exps[:-1]
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def variable(cls, i: int) -> "Monomial":
        """The variable x_{i+1} (0-based index)."""
        if i < 0:
            raise ValueError("variable index must be >= 0")
        return cls((0,) * i + (1,))

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_unit(self) -> bool:
        return not self.exponents

    def exponent(self, i: int) -> int:
        return self.exponents[i] if i < len(self.exponents) else 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        n = max(len(self.exponents), len(other.exponents))
        return Monomial(tuple(self.exponent(i) + other.exponent(i) for i in range(n)))

    def divides(self, other: "Monomial") -> bool:
        a, b = self.exponents, other.exponents
        return len(a) <= len(b) and all(x <= y for x, y in zip(a, b))

    def quotient_by(self, other: "Monomial") -> "Monomial":
        """self / gcd(self, other): divide out as much of other as possible."""
        return Monomial(tuple(max(e - other.exponent(i), 0) for i, e in enumerate(self.exponents)))


UNIT = Monomial(())


def lex_compare(a: Monomial, b: Monomial) -> int:
    """Lexicographic comparison with x1 > x2 > ...; returns -1, 0 or 1."""
    n = max(len(a.exponents), len(b.exponents))
    ea = a.exponents + (0,) * (n - len(a.exponents))
    eb = b.exponents + (0,) * (n - len(b.exponents))
    return (ea > eb) - (ea < eb)


def lex_key(m: Monomial, nvars: int) -> tuple[int, ...]:
    """Sort key: ascending on this key is ascending lex order."""
    return m.exponents + (0,) * (nvars - len(m.exponents))


_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?\Z")


def parse_monomial(text: str) -> Monomial:
    """Parse 'x1^2*x3' (exponent 1 omitted, '1' for the unit monomial)."""
    text = text.strip()
    if text == "1":
        return UNIT
    exps: dict[int, int] = {}
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor.strip())
        if m is None:
            raise ValueError(f"cannot parse monomial factor {factor!r}")
        idx = int(m.group(1))
        if idx < 1:
            raise ValueError(f"variable index must be >= 1 in {factor!r}")
        exp = int(m.group(2)) if m.group(2) is not None else 1
        exps[idx - 1] = exps.get(idx - 1, 0) + exp
    n = max(exps) + 1
    return Monomial(tuple(exps.get(i, 0) for i in range(n)))


def format_monomial(m: Monomial) -> str:
    if m.is_unit:
        return "1"
    parts = []
    for i, e in enumerate(m.exponents):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def _raw_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return len(a) <= len(b) and all(x <= y for x, y in zip(a, b))


def _minimalize_raw(exps: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    kept: list[tuple[int, ...]] = []
    for t in sorted(set(exps), key=lambda t: (sum(t), t)):
        if not any(_raw_divides(k, t) for k in kept):
            kept.append(t)
    return tuple(sorted(kept))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generating set.

    The empty generating set is the zero ideal; a generator equal to 1 is
    the unit ideal.  Generators are minimalized and sorted on construction.
    """

    generators: tuple[Monomial, ...]
    nvars: int

    def __post_init__(self) -> None:
        if self.nvars < 1:
            raise ValueError("ambient variable count must be >= 1")
        gens = tuple(Monomial(g.exponents) if isinstance(g, Monomial) else Monomial(tuple(g))
                     for g in self.generators)
        for g in gens:
            if len(g.exponents) > self.nvars:
                raise ValueError(f"generator {format_monomial(g)} does not fit in {self.nvars} variables")
        minimal = _minimalize_raw(g.exponents for g in gens)
        ordered = sorted((Monomial(t) for t in minimal),
                         key=lambda m: lex_key(m, self.nvars), reverse=True)
        object.__setattr__(self, "generators", tuple(ordered))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return any(g.is_unit for g in self.generators)

    def contains(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.generators)

    def colon(self, m: Monomial) -> "MonomialIdeal":
        """The colon ideal I : m = { u : u*m in I }."""
        return MonomialIdeal(tuple(g.quotient_by(m) for g in self.generators), self.nvars)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.nvars != other.nvars:
            raise ValueError(f"ambient mismatch: {self.nvars} vs {other.nvars} variables")
        return MonomialIdeal(self.generators + other.generators, self.nvars)

    def raw_generators(self) -> tuple[tuple[int, ...], ...]:
        """Canonical exponent tuples, the memoization key for this ideal."""
        return tuple(sorted(g.exponents for g in self.generators))


def parse_ideal(text: str, nvars: int) -> MonomialIdeal:
    """Parse a comma-separated monomial list; empty text is the zero ideal."""
    text = text.strip()
    if not text:
        return MonomialIdeal((), nvars)
    return MonomialIdeal(tuple(parse_monomial(tok) for tok in text.split(",")), nvars)


def format_ideal(I: MonomialIdeal) -> str:
    return ", ".join(format_monomial(g) for g in I.generators)


@dataclass(frozen=True)
class HilbertTable:
    """HF(S/I; 0), ..., HF(S/I; B) for a quotient by a homogeneous ideal."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(int(v) for v in self.values)
        if not vals:
            raise ValueError("empty Hilbert table")
        if any(v < 0 for v in vals):
            raise ValueError(f"negative Hilbert function value in {vals}")
        if vals[0] not in (0, 1):
            raise ValueError("HF at degree 0 must be 0 (unit ideal) or 1")
        object.__setattr__(self, "values", vals)

    @property
    def bound(self) -> int:
        return len(self.values) - 1

    @property
    def artinian_certified(self) -> bool:
        """True when a zero value occurs within the table."""
        return 0 in self.values

    def is_monotone_vanishing(self) -> bool:
        """A zero value must be followed only by zeros."""
        seen_zero = False
        for v in self.values:
            if seen_zero and v != 0:
                return False
            seen_zero = seen_zero or v == 0
        return True


def _strip_variable_gens(gens: tuple[tuple[int, ...], ...], n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    # Quotienting by a variable generator just deletes that variable: by
    # minimality no other generator involves it.
    drop = sorted((len(g) - 1 for g in gens if sum(g) == 1), reverse=True)
    if not drop:
        return gens, n
    kept = []
    for g in gens:
        if sum(g) == 1:
            continue
        e = list(g)
        for i in drop:
            if i < len(e):
                del e[i]
        while e and e[-1] == 0:
            e.pop()
        kept.append(tuple(e))
    return tuple(sorted(kept)), n - len(drop)


@lru_cache(maxsize=None)
def _quotient_dim(gens: tuple[tuple[int, ...], ...], n: int, m: int) -> int:
    """Number of degree-m monomials in n variables outside the ideal.

    Variable-splitting recursion: counting monomials by whether the pivot
    variable divides them gives
    HF(S/I; m) = HF(S/(I : x_i); m-1) + HF(S/(I + (x_i)); m).
    """
    if m < 0:
        return 0
    if () in gens:
        return 0
    gens, n = _strip_variable_gens(gens, n)
    if not gens:
        if n == 0:
            return 1 if m == 0 else 0
        return math.comb(m + n - 1, n - 1)
    if m == 0:
        return 1
    # first variable appearing with positive exponent in some generator
    piv = min(next(i for i, e in enumerate(g) if e > 0) for g in gens)
    colon = []
    for g in gens:
        if len(g) > piv and g[piv] > 0:
            e = list(g)
            e[piv] -= 1
            while e and e[-1] == 0:
                e.pop()
            colon.append(tuple(e))
        else:
            colon.append(g)
    plus = tuple(sorted([g for g in gens if len(g) <= piv or g[piv] == 0]
                        + [(0,) * piv + (1,)]))
    return _quotient_dim(_minimalize_raw(colon), n, m - 1) + _quotient_dim(plus, n, m)


def hilbert_function(I: MonomialIdeal, up_to: int) -> HilbertTable:
    """HF(S/I; m) for 0 <= m <= up_to, by the splitting recursion."""
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    key = I.raw_generators()
    return HilbertTable(tuple(_quotient_dim(key, I.nvars, m) for m in range(up_to + 1)))


def _compositions_desc(total: int, n: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield (total,)
        return
    for e in range(total, -1, -1):
        for rest in _compositions_desc(total - e, n - 1):
            yield (e,) + rest


def standard_monomials(I: MonomialIdeal, m: int) -> list[Monomial]:
    """The degree-m monomials outside I, in descending lex order."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    out = []
    for exps in _compositions_desc(m, I.nvars):
        mono = Monomial(exps)
        if not I.contains(mono):
            out.append(mono)
    return out


def ci_hilbert(degrees: Sequence[int], n: int, up_to: int) -> HilbertTable:
    """Hilbert function of a complete intersection of the given degrees.

    Coefficients of prod(1 - t^d_i) / (1-t)^n, by exact truncated power
    series arithmetic.  Must agree with hilbert_function of the pure power
    ideal (x1^d1, ..., xh^dh).
    """
    h = len(degrees)
    if h > n:
        raise ValueError(f"{h} forms need at least {h} variables, got {n}")
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be >= 1")
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    coeffs = [0] * (up_to + 1)
    coeffs[0] = 1
    for d in degrees:
        for j in range(up_to, d - 1, -1):
            coeffs[j] -= coeffs[j - d]
    for _ in range(n):
        for j in range(1, up_to + 1):
            coeffs[j] += coeffs[j - 1]
    return HilbertTable(tuple(coeffs))


def pure_power_ideal(degrees: Sequence[int], n: int) -> MonomialIdeal:
    """(x1^d1, ..., xh^dh) in n variables."""
    h = len(degrees)
    if h > n:
        raise ValueError(f"{h} pure powers need at least {h} variables, got {n}")
    gens = tuple(Monomial((0,) * i + (int(d),)) for i, d in enumerate(degrees))
    return MonomialIdeal(gens, n)


def artinian_multiplicity(I: MonomialIdeal) -> int:
    """Total vector-space dimension of S/I for an Artinian monomial ideal.

    A monomial ideal is Artinian exactly when every variable has a pure
    power among the generators, which also caps the socle degree.
    """
    if I.is_unit:
        return 0
    caps = []
    for i in range(I.nvars):
        powers = [g.exponent(i) for g in I.generators
                  if g.exponent(i) > 0 and g.degree == g.exponent(i)]
        if not powers:
            raise NotArtinianError(f"variable x{i + 1} has no pure power among the generators")
        caps.append(min(powers))
    top = sum(a - 1 for a in caps) + 1
    table = hilbert_function(I, top)
    return sum(table.values)
