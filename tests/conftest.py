import itertools
import os
import random

# One BLAS thread, set before anything imports numpy: the rank kernel's
# products are small, and on 2 vCPUs a second OpenBLAS thread added 4-7 s
# of user time to a Tier-1 run without shortening its wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from cbtk.lpp import lpp_ideal, sigma  # noqa: E402
from cbtk.monomials import Monomial, MonomialIdeal, hilbert_function, pure_power_ideal  # noqa: E402


def degree_sequences(max_entry, max_h, min_h=1):
    """All ascending degree sequences with entries in 1..max_entry."""
    for h in range(min_h, max_h + 1):
        yield from itertools.combinations_with_replacement(range(1, max_entry + 1), h)


def oracle_grid():
    """Degree sequences for h = 1..6, the entries bounded so that the
    splitting recursion answers quickly."""
    yield from degree_sequences(5, 4)
    yield from degree_sequences(3, 6, min_h=5)


def hf_at(ideal, m):
    return hilbert_function(ideal, m).values[m]


def phi_oracle(d, m):
    """The definition phi_m = HF(S/(x^d); m) - HF(S/L(d; m-1); m) in h
    variables for 2 <= m <= sigma, zero otherwise."""
    if not 2 <= m <= sigma(d):
        return 0
    h = len(d)
    return hf_at(pure_power_ideal(d, h), m) - hf_at(lpp_ideal(d, m - 1, h), m)


def delta_oracle(d, D, m):
    """The definition delta_m = HF(S/(x^d); m) - HF(S/L(d; D); m) in h
    variables for 0 <= m <= d_4, phi_m otherwise."""
    if not 0 <= m <= d[3]:
        return phi_oracle(d, m)
    h = len(d)
    return hf_at(pure_power_ideal(d, h), m) - hf_at(lpp_ideal(d, D, h), m)


def lpp_hf_oracle(d, D, n, up_to):
    """HF(S/L(d; D); 0..up_to) in n variables by the splitting recursion."""
    return hilbert_function(lpp_ideal(d, D, n), up_to).values


def random_ideal(rng: random.Random, nvars=None, max_gens=6, max_exp=5) -> MonomialIdeal:
    n = nvars if nvars is not None else rng.randint(1, 5)
    gens = []
    for _ in range(rng.randint(0, max_gens)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(n))
        if any(exps):
            gens.append(Monomial(exps))
    return MonomialIdeal(tuple(gens), n)


def random_monomial(rng: random.Random, nvars, max_exp=5) -> Monomial:
    return Monomial(tuple(rng.randint(0, max_exp) for _ in range(nvars)))
