import math

import pytest

from conftest import degree_sequences, delta_oracle, lpp_hf_oracle, oracle_grid, phi_oracle
from cbtk.bounds import (
    BoundReport,
    NotApplicableError,
    TAGS,
    best_threshold,
    bound_codim3,
    bound_delta2,
    bound_engheta_hmmcs,
    bound_phi_chain,
    bound_symmetric,
    egh_conjectural,
    hf_profile,
)
from cbtk.lpp import AciParams, c_sequence, lpp_multiplicity, phi, sigma
from cbtk.monomials import hilbert_function, pure_power_ideal


def test_engheta_hmmcs():
    assert bound_engheta_hmmcs(AciParams((3, 3, 3, 3), 3)) == 81 - 8 + 3 - 1 == 75
    assert bound_engheta_hmmcs(AciParams((2, 2, 2), 2)) == 8 - 3 + 2 - 1 == 6
    for d in ((2, 3), (3, 3, 3), (2, 2, 2, 2)):
        s = sigma(d)
        assert bound_engheta_hmmcs(AciParams(d, s)) == math.prod(d) - 1
        assert bound_engheta_hmmcs(AciParams(d, s + 2)) == math.prod(d) - 1


def test_phi_chain():
    assert bound_phi_chain(AciParams((3, 3, 3, 3), 3)) == 71
    # quadric formula: phi_m = n - m + 1, summed over D < m <= sigma
    assert bound_phi_chain(AciParams((2, 2, 2, 2), 2)) == 16 - (2 + 1) - 1 == 12
    for d in ((2, 3), (3, 3, 3)):
        assert bound_phi_chain(AciParams(d, sigma(d))) == math.prod(d) - 1
    with pytest.raises(NotApplicableError):
        bound_phi_chain(AciParams((2, 2), 3))


def test_symmetric():
    assert bound_symmetric(AciParams((3, 3, 3, 3), 3)) == 69
    # direct evaluation: tau- = 1 < D+1 = 2 (empty sum), tau+ = 2 contributes phi_2 = 2
    assert bound_symmetric(AciParams((2, 2, 2), 1)) == 8 - 0 - phi((2, 2, 2), 2) - 2 == 4
    assert bound_codim3(AciParams((2, 2, 2), 1)) == 8 - math.prod((1, 2, 2)) == 4
    for d in ((3, 3, 3), (2, 2, 4)):
        s = sigma(d)
        assert bound_symmetric(AciParams(d, s - 1)) == math.prod(d) - 2
    with pytest.raises(NotApplicableError):
        bound_symmetric(AciParams((3, 3, 3), 6))


def test_delta2():
    assert bound_delta2(AciParams((4, 4, 4, 10), 4)) == 531
    assert bound_symmetric(AciParams((4, 4, 4, 10), 4)) + 1 == 612
    with pytest.raises(NotApplicableError):
        bound_delta2(AciParams((3, 3, 3, 3), 3))  # D = d_4
    with pytest.raises(NotApplicableError):
        bound_delta2(AciParams((3, 3, 3), 2))  # h = 3
    with pytest.raises(NotApplicableError):
        bound_delta2(AciParams((1, 1, 1, 2), 1))  # D = sigma


def test_codim3():
    for D in range(2, 7):
        assert bound_codim3(AciParams((D, D, D), D)) == D**3 - D**2 + D
    assert bound_codim3(AciParams((4, 4, 4), 4)) == 52
    assert bound_codim3(AciParams((3, 3, 3), 3)) == 21
    with pytest.raises(NotApplicableError):
        bound_codim3(AciParams((3, 3, 3, 3), 3))
    with pytest.raises(NotApplicableError):
        bound_codim3(AciParams((2, 2, 2), 4))


def test_bounds_match_hf_definition_sums():
    # each bound against its per-m sum of HF differences, at every D; the
    # symmetric sums run empty near sigma and end on tau- != tau+
    empty = 0
    for d in oracle_grid():
        s = sigma(d)
        for D in range(1, s + 1):
            p = AciParams(d, D)
            phis = sum(phi_oracle(d, m) for m in range(D + 1, s + 1))
            assert bound_phi_chain(p) == p.product - phis - 1, (d, D)
            if D >= s:
                continue
            lo = sum(phi_oracle(d, m) for m in range(D + 1, p.tau_minus + 1))
            hi = sum(phi_oracle(d, m) for m in range(D + 1, p.tau_plus + 1))
            assert bound_symmetric(p) == p.product - lo - hi - 2, (d, D)
            empty += p.tau_minus < D + 1
            if len(d) >= 4 and D < d[3]:
                lo = sum(delta_oracle(d, D, m) for m in range(D + 1, p.tau_minus + 1))
                hi = sum(delta_oracle(d, D, m) for m in range(D + 1, p.tau_plus + 1))
                assert bound_delta2(p) == p.product - lo - hi - 2, (d, D)
    assert empty


def test_egh_conjectural():
    assert egh_conjectural(AciParams((4, 4, 4, 10), 4)) == 520
    assert egh_conjectural(AciParams((3, 3, 3, 3), 3)) == 81 - math.prod((1, 2, 3, 3)) == 63
    for d in degree_sequences(4, 3, min_h=3):
        for D in range(1, sigma(d) + 1):
            p = AciParams(d, D)
            assert egh_conjectural(p) == bound_codim3(p)


def test_hf_profile_examples():
    assert hf_profile(AciParams((2, 2, 2), 2), 3).values == (1, 3, 2, 0)
    prof = hf_profile(AciParams((3, 3, 3, 3), 3), 8)
    assert prof.values[4] == 19 - 3
    assert prof.values[0] == 1
    assert hf_profile(AciParams((4, 4, 4, 10), 4), 0).values == (1,)
    with pytest.raises(ValueError):
        hf_profile(AciParams((2, 2), 3), 5)


def test_hf_profile_matches_hf_definition():
    for d in oracle_grid():
        h, s = len(d), sigma(d)
        xd = hilbert_function(pure_power_ideal(d, h), s + 1).values
        for D in range(1, s + 1):
            if h == 3:
                expected = lpp_hf_oracle(d, D, 3, s + 1)
            elif h >= 4 and D < d[3]:
                expected = tuple(xd[m] - delta_oracle(d, D, m) for m in range(s + 2))
            else:
                expected = tuple(xd[m] - (phi_oracle(d, m) if m > D else 0) for m in range(s + 2))
            for up_to in (0, D, s + 1):
                assert hf_profile(AciParams(d, D), up_to).values == expected[:up_to + 1], (d, D)


def test_hf_profile_h3_sums_to_multiplicity():
    for d in degree_sequences(4, 3, min_h=3):
        s = sigma(d)
        for D in range(1, s + 1):
            p = AciParams(d, D)
            total = sum(hf_profile(p, s).values)
            assert total == math.prod(d) - math.prod(c_sequence(d, D)), (d, D)


def test_hf_profile_dominates_pure_powers_quotient():
    # the profile never exceeds HF(S/(x^d)) and matches it up to degree D
    for d, D in (((3, 3, 3, 3), 3), ((2, 2, 2, 2), 2), ((4, 4, 4, 10), 4), ((2, 2), 1)):
        p = AciParams(d, D)
        xd = hilbert_function(pure_power_ideal(d, len(d)), p.sigma)
        prof = hf_profile(p, p.sigma)
        for m in range(p.sigma + 1):
            assert prof.values[m] <= xd.values[m]
        for m in range(min(D, p.sigma)):
            assert prof.values[m] == xd.values[m]


def test_best_threshold_examples():
    r = best_threshold(AciParams((4, 4, 4, 10), 4))
    assert (r.threshold, r.selected_tag) == (532, "delta2")
    r = best_threshold(AciParams((3, 3, 3, 3), 3))
    assert (r.threshold, r.selected_tag) == (70, "symmetric")
    r = best_threshold(AciParams((5, 5, 5), 5))
    assert (r.threshold, r.selected_tag) == (106, "codim3")


def test_best_threshold_large_codim3_is_sharp():
    # the bounds are closed forms, so entries of 100 answer at once; h = 3 is sharp
    r = best_threshold(AciParams((100, 100, 100), 50))
    assert r.threshold == lpp_multiplicity((100, 100, 100), 50) + 1 == 500001
    assert r.selected_tag == "codim3"


def test_best_threshold_report_invariants():
    for d in degree_sequences(4, 4):
        if sigma(d) < 1:
            continue
        for D in range(1, sigma(d) + 1):
            p = AciParams(d, D)
            r = best_threshold(p)
            assert r.threshold == r.best_bound + 1
            applicable = [b for b in r.bounds if b.applicable]
            assert r.best_bound == min(b.value for b in applicable)
            assert tuple(b.tag for b in r.bounds) == TAGS
            for b in applicable:
                assert b.value >= r.egh_conjectural, (d, D, b)
                assert b.value <= p.product - 1
            # tie-break: first applicable tag achieving the minimum
            assert r.selected_tag == next(b.tag for b in r.bounds
                                          if b.applicable and b.value == r.best_bound)


def test_best_threshold_at_sigma_is_vacuous():
    p = AciParams((2, 3, 4), sigma((2, 3, 4)))
    r = best_threshold(p)
    assert r.threshold == p.product
    assert r.warnings
    applicable = {b.tag for b in r.bounds if b.applicable}
    assert applicable == {"codim3", "phi_chain", "engheta_hmmcs"}
    assert all(b.value == p.product - 1 for b in r.bounds if b.applicable)
    p4 = AciParams((2, 2, 2, 2), 4)
    r4 = best_threshold(p4)
    assert {b.tag for b in r4.bounds if b.applicable} == {"phi_chain", "engheta_hmmcs"}
    assert r4.threshold == p4.product and r4.warnings


def test_best_threshold_rejects_out_of_range():
    with pytest.raises(ValueError):
        best_threshold(AciParams((2, 2), 3))
    with pytest.raises(ValueError):
        AciParams((2, 2), 0)


def test_bound_ordering_small_sweep():
    for d in degree_sequences(4, 4):
        s = sigma(d)
        for D in range(1, s + 1):
            p = AciParams(d, D)
            chain = bound_phi_chain(p)
            assert chain <= bound_engheta_hmmcs(p), (d, D)
            if D < s:
                assert bound_symmetric(p) <= chain, (d, D)


def test_report_round_trip():
    r = best_threshold(AciParams((4, 4, 4, 10), 4))
    assert BoundReport.from_dict(r.to_dict()) == r
    r2 = best_threshold(AciParams((2, 2, 2), 2))
    assert BoundReport.from_dict(r2.to_dict()) == r2
