import math

import pytest

from conftest import degree_sequences, delta_oracle, lpp_hf_oracle, oracle_grid, phi_oracle
from cbtk.lpp import (
    AciParams,
    c_sequence,
    check_degrees,
    delta_m,
    delta_sum,
    lpp_hilbert,
    lpp_ideal,
    lpp_monomial,
    lpp_multiplicity,
    phi,
    phi_sum,
    sigma,
)
from cbtk.monomials import (
    Monomial,
    artinian_multiplicity,
    ci_hilbert,
    format_monomial,
    hilbert_function,
    parse_ideal,
    parse_monomial,
    pure_power_ideal,
    standard_monomials,
)


def piecewise_c3(d, D):
    """The height-3 piecewise definition of the c-sequence."""
    partial = [0]
    for x in d:
        partial.append(partial[-1] + x - 1)
    a = next(i for i in (1, 2, 3) if partial[i - 1] < D <= partial[i])
    c = []
    for i in (1, 2, 3):
        if i < a:
            c.append(1)
        elif i == a:
            c.append(d[a - 1] - (D - partial[a - 1]))
        else:
            c.append(d[i - 1])
    return tuple(c)


def phi_by_counting(d, m):
    """Independent characterization: variables x_j with x_j * U_{m-1} outside (x^d)."""
    if not 2 <= m <= sigma(d):
        return 0
    u = lpp_monomial(d, m - 1)
    xd = pure_power_ideal(d, len(d))
    return sum(1 for j in range(len(d)) if not xd.contains(u * Monomial.variable(j)))


def test_check_degrees():
    assert check_degrees([2, 3, 3]) == (2, 3, 3)
    with pytest.raises(ValueError):
        check_degrees([3, 2])
    with pytest.raises(ValueError):
        check_degrees([0, 1])
    with pytest.raises(ValueError):
        check_degrees([])


def test_sigma_examples():
    assert sigma((4, 4, 4)) == 9
    assert sigma((1, 1, 1)) == 0
    assert sigma((4, 4, 4, 10)) == 18


def test_aci_params():
    p = AciParams((4, 4, 4, 10), 4)
    assert (p.sigma, p.tau_minus, p.tau_plus) == (18, 10, 11)
    assert p.tau_minus + p.tau_plus == p.sigma + p.D - 1
    assert p.tau_minus <= p.tau_plus <= p.tau_minus + 1
    assert p.product == 640
    with pytest.raises(ValueError):
        AciParams((2, 2), 0)
    with pytest.raises(ValueError):
        AciParams((3, 2), 1)


def test_lpp_monomial_examples():
    assert lpp_monomial((4, 4, 4), 4) == parse_monomial("x1^3*x2")
    assert lpp_monomial((2, 2), 3) == parse_monomial("x1*x2*x3")
    assert lpp_monomial((3, 3, 3, 3), 3) == parse_monomial("x1^2*x2")
    with pytest.raises(ValueError):
        lpp_monomial((2, 2), 0)


def test_lpp_monomial_is_lex_max_standard_monomial():
    for d in degree_sequences(5, 4):
        xd = pure_power_ideal(d, len(d))
        for D in range(1, sigma(d) + 1):
            listed = standard_monomials(xd, D)
            assert listed, (d, D)
            assert listed[0] == lpp_monomial(d, D), (d, D)


def test_c_sequence_examples():
    assert c_sequence((4, 4, 4), 4) == (1, 3, 4)
    assert c_sequence((3, 3, 3), 3) == (1, 2, 3)
    for D in range(2, 9):
        assert c_sequence((D, D, D), D) == (1, D - 1, D)
    with pytest.raises(ValueError):
        c_sequence((2, 2), 3)
    with pytest.raises(ValueError):
        c_sequence((2, 2), 0)


def test_c_sequence_matches_piecewise_formula_h3():
    for d in degree_sequences(8, 3, min_h=3):
        for D in range(1, sigma(d) + 1):
            assert c_sequence(d, D) == piecewise_c3(d, D), (d, D)


def test_colon_identity_small():
    for d in degree_sequences(4, 3):
        h = len(d)
        xd = pure_power_ideal(d, h)
        for D in range(1, sigma(d) + 1):
            c = c_sequence(d, D)
            assert xd.colon(lpp_monomial(d, D)) == pure_power_ideal(c, h)


def test_lpp_ideal_examples():
    assert lpp_ideal((2, 2, 2), 2, 3) == parse_ideal("x1^2,x2^2,x3^2,x1*x2", 3)
    assert lpp_ideal((4, 4, 4), 4, 3) == parse_ideal("x1^4,x2^4,x3^4,x1^3*x2", 3)
    assert lpp_ideal((2, 2), 3, 3) == parse_ideal("x1^2,x2^2,x1*x2*x3", 3)
    with pytest.raises(ValueError):
        lpp_ideal((2, 2, 2), 2, 2)
    with pytest.raises(ValueError):
        lpp_ideal((2, 2), 3, 2)  # D > sigma needs an extra variable


def test_phi_examples():
    assert phi((3, 3, 3, 3), 4) == 3
    assert phi((3, 3, 3, 3), 5) == 2
    for m in range(2, 5):
        assert phi((2, 2, 2, 2), m) == 4 - m + 1
    for d in ((2, 2), (3, 3, 3), (2, 3, 4)):
        assert phi(d, sigma(d) + 1) == 0
        assert phi(d, 1) == 0
        assert phi(d, 0) == 0


def test_phi_matches_counting_characterization():
    for d in degree_sequences(5, 4):
        for m in range(0, sigma(d) + 3):
            assert phi(d, m) == phi_by_counting(d, m), (d, m)


def test_phi_matches_hf_definition():
    # every m from below 2 to past sigma, and the O(h) sum over every range
    for d in oracle_grid():
        ms = range(-1, sigma(d) + 3)
        oracle = {m: phi_oracle(d, m) for m in ms}
        for m in ms:
            assert phi(d, m) == oracle[m], (d, m)
        for lo in ms:
            for hi in ms:
                expected = sum(oracle[m] for m in range(lo, hi + 1))
                assert phi_sum(d, lo, hi) == expected, (d, lo, hi)


def test_delta_matches_hf_definition():
    # every D < d_4 and every m on both sides of D and d_4, summed over every range
    for d in oracle_grid():
        if len(d) < 4:
            continue
        ms = range(-1, max(d[3], sigma(d)) + 3)
        for D in range(1, d[3]):
            oracle = {m: delta_oracle(d, D, m) for m in ms}
            for m in ms:
                assert delta_m(d, D, m) == oracle[m], (d, D, m)
            for lo in ms:
                for hi in ms:
                    expected = sum(oracle[m] for m in range(lo, hi + 1))
                    assert delta_sum(d, D, lo, hi) == expected, (d, D, lo, hi)


def test_lpp_hilbert_matches_hf_definition():
    for n in (3, 4, 5):
        for d in oracle_grid():
            if len(d) > n:
                continue
            s = sigma(d)
            for D in range(1, s + 1):
                assert lpp_hilbert(d, D, n, s + 2).values == lpp_hf_oracle(d, D, n, s + 2), (d, D, n)
                for up_to in (0, D - 1, D):
                    assert lpp_hilbert(d, D, n, up_to).values == lpp_hf_oracle(d, D, n, up_to)
    with pytest.raises(ValueError):
        lpp_hilbert((2, 2, 2), 2, 2, 4)
    with pytest.raises(ValueError):
        lpp_hilbert((2, 2), 3, 3, 4)  # D > sigma


def test_phi_positive_and_non_increasing():
    # positivity holds through m = sigma inclusive
    for d in degree_sequences(6, 5):
        s = sigma(d)
        values = [phi(d, m) for m in range(2, s + 2)]
        for m, v in zip(range(2, s + 1), values):
            assert v > 0, (d, m)
        for a, b in zip(values, values[1:]):
            assert a >= b, d


def test_delta_m_examples():
    d = (4, 4, 4, 10)
    for m in range(4):
        assert delta_m(d, 4, m) == 0
    assert delta_m(d, 4, 4) == 1
    assert delta_m(d, 4, 11) == phi(d, 11)
    total = (sum(delta_m(d, 4, m) for m in range(5, 11))
             + sum(delta_m(d, 4, m) for m in range(5, 12)))
    assert total == 107


def test_delta_m_second_oracle():
    # degree-m multiples of U_D outside (x^d) are counted by the quotient by
    # the colon ideal (x^c), so delta_{D+k} == HF(S/(x^c); k) up to d_4
    for d in ((4, 4, 4, 10), (2, 3, 4, 5), (2, 2, 2, 2, 2), (1, 2, 3, 4)):
        for D in range(1, min(d[3], sigma(d))):
            c = c_sequence(d, D)
            series = ci_hilbert(c, len(d), d[3]).values
            for m in range(d[3] + 1):
                expected = series[m - D] if m >= D else 0
                assert delta_m(d, D, m) == expected, (d, D, m)


def test_delta_m_errors():
    with pytest.raises(ValueError):
        delta_m((3, 3, 3), 1, 2)
    with pytest.raises(ValueError):
        delta_m((3, 3, 3, 3), 3, 4)  # D = d_4 not allowed
    with pytest.raises(ValueError):
        delta_m((2, 2, 2, 3), 0, 1)


def test_delta_dominates_phi():
    for d in degree_sequences(6, 5, min_h=4):
        s = sigma(d)
        for D in range(1, min(d[3], s)):
            for m in range(D + 1, d[3] + 1):
                assert delta_m(d, D, m) >= phi(d, m), (d, D, m)


def test_lpp_multiplicity_examples():
    assert lpp_multiplicity((4, 4, 4, 10), 4) == 520
    assert lpp_multiplicity((4, 4, 4), 4) == 52
    assert artinian_multiplicity(lpp_ideal((4, 4, 4), 4, 3)) == 52
    assert lpp_multiplicity((2, 2), 3) == 3


def test_lpp_multiplicity_matches_kernel_sum():
    for d in degree_sequences(5, 4):
        h = len(d)
        s = sigma(d)
        total = math.prod(d)
        for D in range(1, s + 1):
            L = lpp_ideal(d, D, h)
            table = hilbert_function(L, s + 1)
            assert sum(table.values) == total - math.prod(c_sequence(d, D)), (d, D)
            assert sum(table.values) == lpp_multiplicity(d, D)


def test_lpp_monomial_over_socle():
    # D > sigma: remainder goes on x_{h+1}
    assert lpp_monomial((3, 4), 8) == parse_monomial("x1^2*x2^3*x3^3")
    u = lpp_monomial((2, 2, 2), 5)
    assert format_monomial(u) == "x1*x2*x3*x4^2"
