"""Lex-plus-powers almost complete intersections.

Builds the ideal L(d; D) = (x1^d1, ..., xh^dh) + (U_D), where U_D is the
lex-largest degree-D monomial outside the pure power ideal, together with
the derived c-sequence, the per-degree corrections phi_m and delta_m used
by the multiplicity bounds and their range sums, and the Hilbert function
of L(d; D), all in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .monomials import HilbertTable, Monomial, MonomialIdeal, ci_hilbert, pure_power_ideal


def check_degrees(degrees: Sequence[int]) -> tuple[int, ...]:
    """Validate an ascending degree sequence d1 <= ... <= dh, entries >= 1."""
    d = tuple(int(x) for x in degrees)
    if not d:
        raise ValueError("degree sequence must be nonempty")
    if any(x < 1 for x in d):
        raise ValueError(f"degrees must be >= 1, got {d}")
    if any(d[i] > d[i + 1] for i in range(len(d) - 1)):
        raise ValueError(f"degrees must be sorted ascending, got {d}")
    return d


def sigma(degrees: Sequence[int]) -> int:
    """The socle degree sum(d_i - 1) of a complete intersection of degrees d."""
    return sum(x - 1 for x in check_degrees(degrees))


@dataclass(frozen=True)
class AciParams:
    """Degrees (d1 <= ... <= dh; D) of an almost complete intersection."""

    degrees: tuple[int, ...]
    D: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", check_degrees(self.degrees))
        object.__setattr__(self, "D", int(self.D))
        if self.D < 1:
            raise ValueError(f"D must be >= 1, got {self.D}")

    @property
    def h(self) -> int:
        return len(self.degrees)

    @property
    def sigma(self) -> int:
        return sum(x - 1 for x in self.degrees)

    @property
    def tau_minus(self) -> int:
        return (self.sigma + self.D - 1) // 2

    @property
    def tau_plus(self) -> int:
        return -((-(self.sigma + self.D - 1)) // 2)

    @property
    def product(self) -> int:
        return math.prod(self.degrees)


def lpp_monomial(degrees: Sequence[int], D: int) -> Monomial:
    """U_D: the lex-largest degree-D monomial outside (x1^d1, ..., xh^dh).

    Greedy from x1: each exponent takes min(d_i - 1, remaining degree); any
    remainder (exactly when D > sigma) goes on x_{h+1}.
    """
    d = check_degrees(degrees)
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    exps = []
    rem = D
    for di in d:
        e = min(di - 1, rem)
        exps.append(e)
        rem -= e
    if rem > 0:
        exps.append(rem)
    return Monomial(tuple(exps))


def c_sequence(degrees: Sequence[int], D: int) -> tuple[int, ...]:
    """The degrees c with (x^d) : U_D = (x^c), namely c_i = d_i - e_i(U_D)."""
    d = check_degrees(degrees)
    s = sum(x - 1 for x in d)
    if not 1 <= D <= s:
        raise ValueError(f"need 1 <= D <= sigma = {s}, got D = {D}")
    u = lpp_monomial(d, D)
    return tuple(di - u.exponent(i) for i, di in enumerate(d))


def lpp_ideal(degrees: Sequence[int], D: int, nvars: int) -> MonomialIdeal:
    """L(d; D) = (x^d) + (U_D) in the given ambient ring."""
    d = check_degrees(degrees)
    u = lpp_monomial(d, D)
    need = max(len(d), len(u.exponents))
    if nvars < need:
        raise ValueError(f"L{d, D} needs at least {need} variables, got {nvars}")
    return pure_power_ideal(d, nvars) + MonomialIdeal((u,), nvars)


def phi_sum(degrees: Sequence[int], lo: int, hi: int) -> int:
    """The sum of phi_m over lo <= m <= hi, in O(h) steps.

    With prefix sums P_i = sum_{j <= i} (d_j - 1), U_{m-1} saturates exactly
    the x_i with P_i <= m-1, so phi_m = #{i : P_i >= m} for 2 <= m <= sigma,
    and x_i counts once for each m in [max(lo, 2), min(P_i, hi)].
    """
    d = check_degrees(degrees)
    lo = max(lo, 2)
    return sum(max(0, min(P, hi) - lo + 1) for P in accumulate(x - 1 for x in d))


def phi(degrees: Sequence[int], m: int) -> int:
    """phi_m = HF(S/(x^d); m) - HF(S/L(d; m-1); m) in exactly h variables,
    for 2 <= m <= sigma; zero otherwise.

    Equivalently, the number of variables x_j (j <= h) with
    x_j * U_{m-1} outside (x^d); in closed form #{i : P_i >= m} (phi_sum).
    """
    return phi_sum(degrees, m, m)


def delta_sum(degrees: Sequence[int], D: int, lo: int, hi: int) -> int:
    """The sum of delta_m over lo <= m <= hi.

    The colon sequence 0 -> S/(x^c)(-D) -> S/(x^d) -> S/L(d; D) -> 0 gives
    delta_m = HF(S/(x^c); m-D) for D <= m <= d_4 and zero below D, read from
    one complete-intersection table; above d_4, delta_m = phi_m.
    Needs h >= 4 and 1 <= D < d_4.
    """
    d = check_degrees(degrees)
    if len(d) < 4:
        raise ValueError(f"delta_m needs h >= 4 degrees, got {len(d)}")
    if not 1 <= D < d[3]:
        raise ValueError(f"delta_m needs 1 <= D < d_4 = {d[3]}, got D = {D}")
    start, top = max(lo, D) - D, min(hi, d[3]) - D
    head = sum(ci_hilbert(c_sequence(d, D), len(d), top).values[start:]) if start <= top else 0
    return head + phi_sum(d, max(lo, d[3] + 1), hi)


def delta_m(degrees: Sequence[int], D: int, m: int) -> int:
    """delta_m = HF(S/(x^d); m) - HF(S/L(d; D); m) for 0 <= m <= d_4,
    phi_m otherwise; both in exactly h variables.

    In closed form HF(S/(x^c); m-D) up to d_4 (delta_sum).
    Needs h >= 4 and 1 <= D < d_4.
    """
    return delta_sum(degrees, D, m, m)


def lpp_hilbert(degrees: Sequence[int], D: int, nvars: int, up_to: int) -> HilbertTable:
    """HF(S/L(d; D); 0..up_to) in nvars variables, for 1 <= D <= sigma.

    The colon sequence gives HF(S/(x^d); m) - HF(S/(x^c); m-D), without
    the splitting recursion of hilbert_function(lpp_ideal(d, D, nvars), up_to).
    """
    d = check_degrees(degrees)
    colon = ci_hilbert(c_sequence(d, D), nvars, max(up_to - D, 0)).values
    return HilbertTable(tuple(v - (colon[m - D] if m >= D else 0)
                              for m, v in enumerate(ci_hilbert(d, nvars, up_to).values)))


def lpp_multiplicity(degrees: Sequence[int], D: int) -> int:
    """Multiplicity prod(d) - prod(c) of S/L(d; D) for D <= sigma; for
    D > sigma the predicted value prod(d) - 1."""
    d = check_degrees(degrees)
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    if D > sum(x - 1 for x in d):
        return math.prod(d) - 1
    return math.prod(d) - math.prod(c_sequence(d, D))
