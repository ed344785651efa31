"""Dense graded linear algebra over small prime fields.

Homogeneous forms are stored as monomial/coefficient maps over GF(p); the
Hilbert function of a quotient by arbitrary homogeneous generators is
computed degree by degree as dim S_j minus the rank of the multiplication
matrix, with fraction-free Gaussian elimination mod p.
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
_MAX_PRIME = 1 << 20  # keeps int64 elimination overflow-free with margin


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


try:
    from numba import njit

    @njit(cache=True)
    def _rank_mod_p_jit(a, p):  # pragma: no cover - exercised via wrapper
        rows, cols = a.shape
        r = 0
        for c in range(cols):
            piv = -1
            for i in range(r, rows):
                if a[i, c] != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != r:
                for k in range(c, cols):
                    tmp = a[r, k]
                    a[r, k] = a[piv, k]
                    a[piv, k] = tmp
            app = a[r, c]
            for i in range(r + 1, rows):
                f = a[i, c]
                if f != 0:
                    for k in range(c, cols):
                        a[i, k] = (app * a[i, k] - f * a[r, k]) % p
            r += 1
            if r == rows:
                break
        return r

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    _HAVE_NUMBA = False


def _rank_mod_p_np(a: np.ndarray, p: int) -> int:
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        app = a[r, c]
        f = a[r + 1:, c]
        mask = f != 0
        if mask.any():
            a[r + 1:][mask] = (app * a[r + 1:][mask] - np.outer(f[mask], a[r])) % p
        r += 1
        if r == rows:
            break
    return r


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank over GF(p) of an integer matrix, by fraction-free elimination."""
    _check_prime(p)
    a = np.ascontiguousarray(np.asarray(matrix, dtype=np.int64) % p)
    if a.size == 0:
        return 0
    if _HAVE_NUMBA:
        return int(_rank_mod_p_jit(a, p))
    return _rank_mod_p_np(a, p)


@lru_cache(maxsize=None)
def _compositions_array(total: int, n: int) -> np.ndarray:
    arr = np.array(list(_compositions_desc(total, n)), dtype=np.int64).reshape(-1, n)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
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
