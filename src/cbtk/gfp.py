"""Dense graded linear algebra over small prime fields.

Homogeneous forms are stored as monomial/coefficient maps over GF(p); the
Hilbert function of a quotient by arbitrary homogeneous generators is
computed degree by degree as dim S_j minus the rank of the multiplication
matrix, with blocked Gaussian elimination mod p in float64.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .monomials import (
    HilbertTable,
    Monomial,
    _compositions_desc,
    format_monomial,
    lex_key,
)

DEFAULT_MAX_DIM = 20_000
_MAX_PRIME = 1 << 20
_PANEL = 64  # columns per rank_mod_p panel; its float64 sums stay exact:
assert _PANEL * (_MAX_PRIME - 2) ** 2 + _MAX_PRIME < 2 ** 53


class GradedPieceTooLargeError(RuntimeError):
    """A graded piece exceeds the configured dimension cap (CB_MAX_DIM)."""


def max_graded_dim() -> int:
    raw = os.environ.get("CB_MAX_DIM")
    if not raw:
        return DEFAULT_MAX_DIM
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"CB_MAX_DIM must be an integer >= 1, got {raw!r}")
    return cap


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p >= _MAX_PRIME:
        raise ValueError(f"prime {p} too large (must be < {_MAX_PRIME})")
    return p


@dataclass(frozen=True)
class Form:
    """A homogeneous form over GF(p): a coefficient for each monomial of the
    stated degree, zero coefficients omitted, terms in descending lex order."""

    nvars: int
    p: int
    degree: int
    terms: tuple[tuple[Monomial, int], ...]

    def __post_init__(self) -> None:
        _check_prime(self.p)
        if self.degree < 1:
            raise ValueError("form degree must be >= 1")
        if self.nvars < 1:
            raise ValueError("ambient variable count must be >= 1")
        cleaned = []
        for mono, coeff in self.terms:
            if mono.degree != self.degree:
                raise ValueError(
                    f"term {format_monomial(mono)} has degree {mono.degree}, form has {self.degree}")
            if len(mono.exponents) > self.nvars:
                raise ValueError(f"term {format_monomial(mono)} does not fit in {self.nvars} variables")
            c = int(coeff) % self.p
            if c:
                cleaned.append((mono, c))
        cleaned.sort(key=lambda t: lex_key(t[0], self.nvars), reverse=True)
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @classmethod
    def random(cls, nvars: int, degree: int, p: int, rng: random.Random) -> "Form":
        """Uniform coefficients over the full degree-d monomial basis."""
        terms = tuple((Monomial(e), rng.randrange(p))
                      for e in _compositions_desc(degree, nvars))
        return cls(nvars, p, degree, terms)

    def to_dict(self) -> dict:
        return {"degree": self.degree,
                "terms": [[format_monomial(m), c] for m, c in self.terms]}


def _reduce(x: np.ndarray, p: int) -> None:
    """x mod p in place, exact for |x| < 2**53: float % on short vectors (fewer
    calls), x -= floor(x / p) * p on larger blocks (cheaper per element)."""
    if x.size <= _PANEL:
        np.remainder(x, p, out=x)
        return
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank over GF(p) of an integer matrix, by blocked elimination in float64:
    panels of _PANEL columns, eliminated column by column on nonzero rows only,
    then T -= L21 (L11^-1 A12) on the trailing block T for each panel.  Every
    sum stays below _PANEL * (p - 1)**2 + p < 2**53, so the rank is exact."""
    _check_prime(p)
    m = np.asarray(matrix, dtype=np.int64)
    a = np.remainder(m, p, out=np.empty(m.shape))  # in int64: entries may exceed 2**53
    rows, cols = a.shape
    r = 0
    for c0 in range(0, cols, _PANEL):
        c1 = min(c0 + _PANEL, cols)
        r0, piv_cols, invs = r, [], []
        for c in range(c0, c1):
            col = a[r:, c]
            _reduce(col, p)
            nz = col.nonzero()[0]
            if nz.size == 0:
                continue
            if nz[0]:
                a[r], a[r + nz[0]] = a[r + nz[0]].copy(), a[r].copy()
            inv = pow(int(col[0]), -1, p)
            if nz.size > 1 and c + 1 < c1:
                prow = a[r, c + 1:c1] % p * inv % p
                a[r + nz[1:], c + 1:c1] -= np.outer(col[nz[1:]], prow)
            piv_cols.append(c)
            invs.append(inv)
            r += 1
            if r == rows:
                return r
        k = r - r0
        if k == 0 or c1 == cols:
            continue
        lower = a[r0:, piv_cols] * invs  # the multipliers; its upper part is not read
        _reduce(lower, p)
        # N = I - L11 is nilpotent, so L11^-1 = (I + N)(I + N^2)(I + N^4)...
        nil = -np.tril(lower[:k], -1)
        inv_l11 = np.eye(k) + nil
        for _ in range((k - 1).bit_length() - 1):  # until the powers reach N^(k-1)
            nil = nil @ nil
            _reduce(nil, p)
            inv_l11 += inv_l11 @ nil
            _reduce(inv_l11, p)
        u12 = inv_l11 @ a[r0:r, c1:]
        _reduce(u12, p)
        a[r:, c1:] -= lower[k:] @ u12
        _reduce(a[r:, c1:], p)
    return r


@lru_cache(maxsize=256)
def _compositions_array(total: int, n: int) -> np.ndarray:
    arr = np.array(list(_compositions_desc(total, n)), dtype=np.int64).reshape(-1, n)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=256)
def _basis_keys(degree: int, n: int) -> np.ndarray:
    base = degree + 1
    if base ** n >= 1 << 62:
        raise GradedPieceTooLargeError(f"cannot index degree-{degree} monomials in {n} variables")
    pw = base ** np.arange(n, dtype=np.int64)
    keys = np.sort(_compositions_array(degree, n) @ pw)
    keys.flags.writeable = False
    return keys


def graded_piece_matrix(gens: Sequence[Form], n: int, degree: int) -> np.ndarray:
    """Rows spanning the degree-j piece of the ideal: every multiple m*g with
    deg(m) = j - deg(g), in the degree-j monomial coordinates."""
    dim = math.comb(degree + n - 1, n - 1)
    cap = max_graded_dim()
    if dim > cap:
        raise GradedPieceTooLargeError(
            f"degree-{degree} piece has dimension {dim} > cap {cap} "
            "(override with CB_MAX_DIM)")
    keys = _basis_keys(degree, n)
    base = degree + 1
    pw = base ** np.arange(n, dtype=np.int64)
    blocks = []
    for g in gens:
        if g.degree > degree or g.is_zero:
            continue
        mult_keys = _compositions_array(degree - g.degree, n) @ pw
        term_keys = np.array([lex_key(m, n) for m, _ in g.terms], dtype=np.int64) @ pw
        coeffs = np.array([c for _, c in g.terms], dtype=np.int64)
        k, t = mult_keys.size, term_keys.size
        cols = np.searchsorted(keys, (mult_keys[:, None] + term_keys[None, :]).ravel())
        block = np.zeros((k, dim), dtype=np.int64)
        block[np.repeat(np.arange(k), t), cols] = np.tile(coeffs, k)
        blocks.append(block)
    if not blocks:
        return np.zeros((0, dim), dtype=np.int64)
    return np.vstack(blocks)


def graded_piece_dim(gens: Sequence[Form], n: int, p: int, degree: int) -> int:
    """dim of the degree-j piece of S/(gens) = dim S_j - rank."""
    dim = math.comb(degree + n - 1, n - 1)
    a = graded_piece_matrix(gens, n, degree)
    if a.shape[0] == 0:
        return dim
    return dim - rank_mod_p(a, p)


def graded_rank_hf(gens: Sequence[Form], n: int, p: int, up_to: int) -> HilbertTable:
    """HF(S/(gens); 0..up_to) over GF(p) by graded rank computations."""
    _check_prime(p)
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    if n < 1:
        raise ValueError("need at least one variable")
    for g in gens:
        if g.nvars != n or g.p != p:
            raise ValueError("all forms must share the ambient ring and prime")
    values = [1]
    mindeg = min((g.degree for g in gens if not g.is_zero), default=None)
    for j in range(1, up_to + 1):
        if mindeg is None or j < mindeg:
            values.append(math.comb(j + n - 1, n - 1))
        else:
            values.append(graded_piece_dim(gens, n, p, j))
    return HilbertTable(tuple(values))
