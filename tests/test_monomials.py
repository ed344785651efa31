import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import degree_sequences, random_ideal, random_monomial
from cbtk.monomials import (
    HilbertTable,
    Monomial,
    MonomialIdeal,
    NotArtinianError,
    UNIT,
    artinian_multiplicity,
    ci_hilbert,
    format_ideal,
    format_monomial,
    hilbert_function,
    lex_compare,
    parse_ideal,
    parse_monomial,
    pure_power_ideal,
    standard_monomials,
)

x1 = Monomial((1,))
x2 = Monomial((0, 1))
x3 = Monomial((0, 0, 1))


def brute_count(caps, total):
    """Independent oracle: #exponent vectors with e_i < caps[i], sum == total."""
    return sum(1 for e in itertools.product(*(range(c) for c in caps)) if sum(e) == total)


def test_monomial_normalization_and_equality():
    assert Monomial((1, 0, 0)) == Monomial((1,))
    assert hash(Monomial((2, 1, 0))) == hash(Monomial((2, 1)))
    assert Monomial((0, 0)).is_unit
    assert Monomial((2, 3)).degree == 5
    assert Monomial((2, 3)).exponent(5) == 0
    with pytest.raises(ValueError):
        Monomial((1, -1))


def test_lex_compare_examples():
    assert lex_compare(parse_monomial("x1^3*x2"), parse_monomial("x1^2*x2^2")) == 1
    assert lex_compare(x1, x1) == 0
    assert lex_compare(parse_monomial("x1*x3"), parse_monomial("x1*x2")) == -1


def test_lex_compare_adjacency_in_full_enumeration():
    # oracle: the descending-lex listing of all degree-2 monomials in 3 variables
    zero = MonomialIdeal((), 3)
    listed = standard_monomials(zero, 2)
    assert [format_monomial(m) for m in listed] == [
        "x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2"]
    for a, b in zip(listed, listed[1:]):
        assert lex_compare(a, b) == 1
    assert listed.index(parse_monomial("x1*x3")) > listed.index(parse_monomial("x1*x2"))


def test_divides():
    assert parse_monomial("x1*x2").divides(parse_monomial("x1^2*x2^3"))
    assert not parse_monomial("x1^2").divides(parse_monomial("x1*x2"))
    assert UNIT.divides(parse_monomial("x2^5"))


def test_monomial_arithmetic():
    assert x1 * x2 == parse_monomial("x1*x2")
    m = parse_monomial("x1^2*x2^3")
    assert m.quotient_by(parse_monomial("x1*x3^4")) == parse_monomial("x1*x2^3")


def test_parse_and_format_round_trip():
    for text in ("1", "x1", "x2^3", "x1^2*x3", "x1*x2*x3"):
        assert format_monomial(parse_monomial(text)) == text
    assert parse_monomial("x1*x1") == parse_monomial("x1^2")
    with pytest.raises(ValueError):
        parse_monomial("y^2")
    with pytest.raises(ValueError):
        parse_monomial("x0")
    with pytest.raises(ValueError):
        parse_monomial("")


def test_minimalize_examples():
    ideal = MonomialIdeal((parse_monomial("x1^2"), parse_monomial("x1^2*x2"),
                           parse_monomial("x2^3")), 2)
    assert set(ideal.generators) == {parse_monomial("x1^2"), parse_monomial("x2^3")}
    assert MonomialIdeal((), 2).is_zero
    ideal = MonomialIdeal((parse_monomial("x1*x2"), parse_monomial("x1*x3"),
                           parse_monomial("x1*x2*x3")), 3)
    assert set(ideal.generators) == {parse_monomial("x1*x2"), parse_monomial("x1*x3")}


def test_minimalize_preserves_membership():
    # brute-force membership agreement up to degree 4
    raw = (parse_monomial("x1*x2"), parse_monomial("x1*x3"), parse_monomial("x1*x2*x3"))
    ideal = MonomialIdeal(raw, 3)
    for m in range(5):
        for exps in itertools.product(range(m + 1), repeat=3):
            if sum(exps) != m:
                continue
            mono = Monomial(exps)
            assert ideal.contains(mono) == any(g.divides(mono) for g in raw)


def test_contains():
    I = parse_ideal("x1^2,x2^2", 3)
    assert not I.contains(parse_monomial("x1*x2"))
    assert I.contains(parse_monomial("x1^2*x3"))
    assert not pure_power_ideal((4, 4, 4), 3).contains(parse_monomial("x1^3*x2"))


def test_colon_examples():
    I = pure_power_ideal((4, 4, 4), 3)
    assert I.colon(parse_monomial("x1^3*x2")) == parse_ideal("x1,x2^3,x3^4", 3)
    assert I.colon(UNIT) == I
    J = pure_power_ideal((3, 3, 3), 3)
    assert J.colon(parse_monomial("x1^2*x2")) == parse_ideal("x1,x2^2,x3^3", 3)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_colon_membership_law(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(1, 5))
    I = random_ideal(rng, nvars=n)
    m = random_monomial(rng, n)
    colon = I.colon(m)
    for d in range(9):
        for exps in itertools.combinations_with_replacement(range(n), d):
            e = [0] * n
            for i in exps:
                e[i] += 1
            u = Monomial(tuple(e))
            assert colon.contains(u) == I.contains(u * m)


def test_sum_examples():
    I = parse_ideal("x1^2,x2^2", 2)
    J = parse_ideal("x1*x2", 2)
    assert set((I + J).generators) == {parse_monomial("x1^2"), parse_monomial("x2^2"),
                                       parse_monomial("x1*x2")}
    assert I + MonomialIdeal((), 2) == I
    K = pure_power_ideal((4, 4, 4), 3)
    assert K + parse_ideal("x1^4*x2", 3) == K
    with pytest.raises(ValueError):
        I + parse_ideal("x1", 3)


def test_zero_and_unit_ideals():
    zero = MonomialIdeal((), 2)
    assert zero.is_zero and not zero.is_unit
    unit = MonomialIdeal((UNIT, parse_monomial("x1")), 2)
    assert unit.is_unit and unit.generators == (UNIT,)
    assert hilbert_function(unit, 3).values == (0, 0, 0, 0)


def test_hilbert_function_examples():
    I = parse_ideal("x1^2,x2^2,x3^2,x1*x2", 3)
    assert hilbert_function(I, 4).values == (1, 3, 2, 0, 0)
    d4 = pure_power_ideal((3, 3, 3, 3), 4)
    assert hilbert_function(d4, 4).values[4] == 19
    assert brute_count((3, 3, 3, 3), 4) == 19


def test_hilbert_table_invariants():
    t = HilbertTable((1, 3, 2, 0, 0))
    assert t.bound == 4 and t.artinian_certified and t.is_monotone_vanishing()
    assert not HilbertTable((1, 2, 3)).artinian_certified
    assert not HilbertTable((1, 0, 1)).is_monotone_vanishing()
    with pytest.raises(ValueError):
        HilbertTable((2, 1))
    with pytest.raises(ValueError):
        HilbertTable((1, -1))


def test_standard_monomials_examples():
    assert standard_monomials(parse_ideal("x1^2,x2^2", 2), 2) == [parse_monomial("x1*x2")]
    assert standard_monomials(MonomialIdeal((), 2), 1) == [x1, x2]
    L = parse_ideal("x1^2,x2^2,x3^2,x1*x2", 3)
    assert standard_monomials(L, 2) == [parse_monomial("x1*x3"), parse_monomial("x2*x3")]


def test_standard_monomials_descending_lex():
    rng = random.Random(5)
    for _ in range(20):
        I = random_ideal(rng, max_exp=3)
        ms = standard_monomials(I, rng.randint(0, 6))
        for a, b in zip(ms, ms[1:]):
            assert lex_compare(a, b) == 1


def test_hf_oracle_equivalence_random_ideals():
    rng = random.Random(2024)
    for _ in range(120):
        I = random_ideal(rng)
        bound = rng.randint(0, 8)
        table = hilbert_function(I, bound)
        for m in range(bound + 1):
            assert table.values[m] == len(standard_monomials(I, m))
        assert table.is_monotone_vanishing()


def test_ci_hilbert_examples():
    assert ci_hilbert((2, 2, 2), 3, 4).values == (1, 3, 3, 1, 0)
    assert ci_hilbert((1,), 1, 3).values == (1, 0, 0, 0)
    assert ci_hilbert((3, 3, 3, 3), 4, 5).values[4] == 19
    assert ci_hilbert((2, 2, 2), 3, 2).values[2] == math.comb(3, 2)
    with pytest.raises(ValueError):
        ci_hilbert((2, 2), 1, 4)


def test_ci_hilbert_matches_kernel():
    for d in degree_sequences(5, 5):
        for n in range(len(d), 6):
            sig = sum(x - 1 for x in d)
            assert (ci_hilbert(d, n, sig + 1).values
                    == hilbert_function(pure_power_ideal(d, n), sig + 1).values)


def test_artinian_multiplicity_examples():
    assert artinian_multiplicity(pure_power_ideal((4, 4, 4), 3)) == 64
    L = parse_ideal("x1^2,x2^2,x3^2,x1*x2", 3)
    assert artinian_multiplicity(L) == 6
    with pytest.raises(NotArtinianError):
        artinian_multiplicity(parse_ideal("x1^2,x2^2,x1*x2", 3))
    assert artinian_multiplicity(MonomialIdeal((UNIT,), 3)) == 0


def test_artinian_multiplicity_is_product_of_degrees():
    for d in degree_sequences(6, 4):
        assert artinian_multiplicity(pure_power_ideal(d, len(d))) == math.prod(d)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_minimalize_membership_agreement(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(1, 4))
    raw = [random_monomial(rng, n, max_exp=3) for _ in range(data.draw(st.integers(0, 6)))]
    raw = [m for m in raw if not m.is_unit]
    ideal = MonomialIdeal(tuple(raw), n)
    for d in range(5):
        for exps in itertools.combinations_with_replacement(range(n), d):
            e = [0] * n
            for i in exps:
                e[i] += 1
            mono = Monomial(tuple(e))
            assert ideal.contains(mono) == any(g.divides(mono) for g in raw)


def test_ideal_text_round_trip():
    I = parse_ideal("x2^3, x1^2, x1*x2^2", 3)
    assert parse_ideal(format_ideal(I), 3) == I
    assert parse_ideal("", 4).is_zero
