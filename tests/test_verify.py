import json
import math
import random

import numpy as np
import pytest

from conftest import degree_sequences, random_ideal
from cbtk.bounds import bound_codim3
from cbtk.gfp import (
    Form,
    _PANEL,
    GradedPieceTooLargeError,
    graded_piece_dim,
    graded_piece_matrix,
    graded_rank_hf,
    is_prime,
    rank_mod_p,
)
from cbtk.lpp import AciParams, lpp_ideal, lpp_monomial, sigma
from cbtk.monomials import (
    artinian_multiplicity,
    ci_hilbert,
    hilbert_function,
    parse_monomial,
    pure_power_ideal,
    standard_monomials,
)
from cbtk import verify
from cbtk.verify import (
    AciInstance,
    CampaignConfig,
    Certification,
    CertificationFailedError,
    _certifies_regular,
    _cut,
    check_hf_dominance,
    check_linkage_symmetry,
    exhaustive_monomial_max,
    instance_hf,
    random_aci,
    random_regular_sequence,
    run_campaign,
)


def monomial_form(text: str, n: int, p: int) -> Form:
    mono = parse_monomial(text)
    return Form(n, p, mono.degree, ((mono, 1),))


def monomial_instance(degrees, D, n, p) -> AciInstance:
    """The LPP ideal L(d;D) packaged as a certified instance over GF(p)."""
    u = lpp_monomial(degrees, D)
    forms = tuple(monomial_form(f"x{i + 1}^{d}" if d > 1 else f"x{i + 1}", n, p)
                  for i, d in enumerate(degrees))
    extra = Form(n, p, D, ((u, 1),))
    sig = sigma(degrees)
    ci_hf = graded_rank_hf(forms, n, p, sig + 1).values
    hf_a_at_D = graded_piece_dim(forms + (extra,), n, p, D)
    cert = Certification(ci_hf, ci_hf[D], hf_a_at_D)
    return AciInstance(tuple(degrees), D, n, p, forms, extra, cert)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(91)


def test_rank_mod_p_known_values():
    assert rank_mod_p(np.array([[1, 2], [2, 4]]), 5) == 1
    assert rank_mod_p(np.array([[1, 2], [2, 4]]), 3) == 1
    assert rank_mod_p(np.array([[1, 1], [1, 2]]), 7) == 2
    # rank drops only in the right characteristic
    assert rank_mod_p(np.array([[2, 0], [0, 1]]), 2) == 1
    assert rank_mod_p(np.array([[2, 0], [0, 1]]), 3) == 2
    with pytest.raises(ValueError):
        rank_mod_p(np.eye(2, dtype=int), 6)


def _rank_oracle(a: np.ndarray, p: int) -> int:
    """Unblocked fraction-free elimination in int64, one pivot column at a
    time over full rows."""
    a = np.asarray(a, dtype=np.int64) % p
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


def test_rank_matches_unblocked_oracle():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5, 7, 101, 1048573):
        for cols in (_PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL + 1):
            for rows in (cols // 3 + 1, cols + 7):  # wide and tall
                dense = rng.integers(0, p, size=(rows, cols))
                sparse = dense * (rng.random((rows, cols)) < 0.1)
                cases = [dense, sparse, np.zeros((rows, cols), dtype=np.int64)]
                for inner in (5, _PANEL + 3):  # products of rank at most inner
                    left = rng.integers(0, p, size=(rows, inner))
                    right = rng.integers(0, p, size=(inner, cols))
                    cases.append(left @ right % p)
                    cases.append((left * (rng.random(left.shape) < 0.2))
                                 @ (right * (rng.random(right.shape) < 0.2)) % p)
                for a in cases:
                    assert rank_mod_p(a, p) == _rank_oracle(a, p), (p, a.shape)
                # entries near +-2**62 must be reduced before any float conversion
                shift = rng.integers(-(2 ** 62) // p, 2 ** 62 // p, size=(rows, cols))
                assert rank_mod_p(dense + p * shift, p) == _rank_oracle(dense, p)
            assert rank_mod_p(rng.integers(1, p, size=(1, cols)), p) == 1
            assert rank_mod_p(rng.integers(1, p, size=(cols, 1)), p) == 1
    for shape in ((0, 0), (0, 5), (5, 0)):
        assert rank_mod_p(np.zeros(shape, dtype=np.int64), 7) == 0
    big = np.array([[2 ** 62 + 1, -(2 ** 62)], [2 ** 63 - 1, -(2 ** 63)]], dtype=np.int64)
    assert rank_mod_p(big, 101) == _rank_oracle(big, 101)


def test_rank_matches_oracle_on_graded_pieces():
    # every piece instance_hf eliminates for one (4,4,4;4) trial in 5 variables,
    # up to the 504 x 715 piece in degree sigma = 9
    inst = random_aci((4, 4, 4), 4, 5, 101, seed=3)
    shapes = []
    for degree in range(inst.D + 1, sigma((4, 4, 4)) + 1):
        a = graded_piece_matrix(inst.forms, 5, degree)
        shapes.append(a.shape)
        assert rank_mod_p(a, 101) == _rank_oracle(a, 101), a.shape
    assert shapes[-1] == (504, 715)


def test_form_validation():
    with pytest.raises(ValueError):
        Form(2, 6, 2, ())  # p not prime
    with pytest.raises(ValueError):
        Form(2, 5, 2, ((parse_monomial("x1"), 1),))  # degree mismatch
    with pytest.raises(ValueError):
        Form(1, 5, 2, ((parse_monomial("x2^2"), 1),))  # does not fit
    f = Form(2, 5, 2, ((parse_monomial("x1^2"), 7), (parse_monomial("x1*x2"), 5)))
    assert f.terms == ((parse_monomial("x1^2"), 2),)  # reduced mod p, zero dropped


def test_form_random_deterministic():
    a = Form.random(3, 2, 101, random.Random(9))
    b = Form.random(3, 2, 101, random.Random(9))
    assert a == b


def test_graded_rank_hf_examples():
    forms = [monomial_form(f"x{i}^2", 3, 7) for i in (1, 2, 3)]
    assert graded_rank_hf(forms, 3, 7, 4).values == ci_hilbert((2, 2, 2), 3, 4).values
    assert graded_rank_hf([], 3, 7, 5).values == tuple(math.comb(j + 2, 2) for j in range(6))
    forms_over_101 = [monomial_form(f"x{i}^2", 3, 101) for i in (1, 2, 3)]
    g = Form(3, 101, 2, ((parse_monomial("x1*x2"), 1), (parse_monomial("x2*x3"), 1)))
    values = graded_rank_hf(forms_over_101 + [g], 3, 101, 3).values
    assert values == (1, 3, 2, 0)
    with pytest.raises(ValueError):
        graded_rank_hf(forms, 3, 11, 3)  # p mismatch
    with pytest.raises(ValueError):
        graded_rank_hf(forms, 4, 7, 3)  # ambient mismatch


def test_graded_rank_matches_kernel_on_monomial_ideals():
    rng = random.Random(77)
    cases = 0
    while cases < 50:
        I = random_ideal(rng, max_exp=3)
        if I.is_unit or I.is_zero:
            continue
        p = rng.choice((2, 3, 101))
        bound = rng.randint(1, 6)
        forms = [Form(I.nvars, p, g.degree, ((g, 1),)) for g in I.generators]
        assert (graded_rank_hf(forms, I.nvars, p, bound).values
                == hilbert_function(I, bound).values)
        cases += 1


def test_graded_piece_cap(monkeypatch):
    monkeypatch.setenv("CB_MAX_DIM", "5")
    with pytest.raises(GradedPieceTooLargeError):
        graded_rank_hf([monomial_form("x1^2", 3, 7)], 3, 7, 4)  # dim S_4 = 15 > 5
    monkeypatch.delenv("CB_MAX_DIM")
    graded_rank_hf([monomial_form("x1^2", 3, 7)], 3, 7, 4)


def test_random_regular_sequence_certifies():
    forms = random_regular_sequence((2, 2, 2), 3, 101, seed=1)
    assert graded_rank_hf(forms, 3, 101, 4).values == (1, 3, 3, 1, 0)
    # one form in one variable is a unit multiple of x1^d, always certifiable
    forms = random_regular_sequence((3,), 1, 5, seed=0)
    assert len(forms) == 1 and forms[0].degree == 3


def test_certificate_falls_back_when_cut_is_not_artinian():
    # x1^2, x2^2, x4^2 is regular in 4 variables, but x4 -> 0 kills x4^2
    forms = tuple(monomial_form(t, 4, 101) for t in ("x1^2", "x2^2", "x4^2"))
    cut = tuple(_cut(f, 3) for f in forms)
    assert cut[2].is_zero and graded_piece_dim(cut, 3, 101, 4) > 0
    assert graded_rank_hf(forms, 4, 101, 4).values == ci_hilbert((2, 2, 2), 4, 4).values
    assert _certifies_regular(forms, 4, 101)
    # not regular at all: x1^2, x1*x2 share a factor, in every ambient ring
    bad = tuple(monomial_form(t, 4, 101) for t in ("x1^2", "x1*x2"))
    assert not _certifies_regular(bad, 4, 101)
    assert not _certifies_regular(tuple(_cut(f, 2) for f in bad), 2, 101)


def test_certificate_agrees_with_full_hf_match():
    # the full Hilbert-function match through sigma+1 is the oracle: a zero
    # cut piece implies it, and the certificate accepts exactly its matches
    outcomes = {"shortcut": 0, "fallback": 0, "rejected": 0}
    for p in (2, 3, 5, 7):
        for d in ((2, 2), (1, 2, 2), (2, 3), (2, 2, 2)):
            h = len(d)
            top = sum(x - 1 for x in d) + 1
            for n in (h, h + 1, h + 2):
                rng = random.Random(1000 * p + 10 * n + h)
                expected = ci_hilbert(d, n, top).values
                for _ in range(8):
                    forms = tuple(Form.random(n, x, p, rng) for x in d)
                    full = graded_rank_hf(forms, n, p, top).values == expected
                    cut = tuple(_cut(f, h) for f in forms)
                    if graded_piece_dim(cut, h, p, top) == 0:
                        assert full, (p, d, n, forms)
                        outcomes["shortcut"] += 1
                    else:
                        outcomes["fallback" if full else "rejected"] += 1
                    assert _certifies_regular(forms, n, p) == full, (p, d, n, forms)
    assert all(outcomes.values()), outcomes


def _full_match_regular_sequence(rng, degrees, n, p, max_retries, tries):
    """The certification loop before the one-rank certificate: the full
    Hilbert-function table through sigma+1 for every try."""
    sig = sum(d - 1 for d in degrees)
    expected = ci_hilbert(degrees, n, sig + 1).values
    for _ in range(max_retries):
        tries.append(degrees)
        forms = tuple(Form.random(n, d, p, rng) for d in degrees)
        got = graded_rank_hf(forms, n, p, sig + 1).values
        if got == expected:
            return forms, got
    raise CertificationFailedError("no regular sequence")


def _campaign_outputs(config):
    """The campaign JSON and the certified instance of every trial."""
    instances = []
    for i in range(config.trials):
        seed = config.seed * verify._SEED_STRIDE + i
        try:
            instances.append(random_aci(config.degrees, config.D, config.nvars, config.p, seed))
        except CertificationFailedError as exc:
            instances.append(str(exc))
    return json.dumps(run_campaign(config).to_dict()), instances


@pytest.mark.parametrize("config", [
    CampaignConfig((2, 2, 3), 2, 3, 101, trials=20, seed=7),   # n == h
    CampaignConfig((3, 3, 3), 3, 5, 101, trials=6, seed=2),    # n > h
    CampaignConfig((2, 2, 2), 2, 4, 2, trials=30, seed=13),    # GF(2): retries
])
def test_campaign_unchanged_by_certificate(monkeypatch, config):
    new = _campaign_outputs(config)
    tries = []
    monkeypatch.setattr(verify, "_random_regular_sequence",
                        lambda *args: _full_match_regular_sequence(*args, tries))
    assert _campaign_outputs(config) == new
    if config.p == 2:
        assert len(tries) > 2 * config.trials  # some trials needed more than one try


def test_random_aci_examples():
    inst = random_aci((2, 2, 2), 2, 3, 101, seed=7)
    assert inst.certification.hf_a_at_D == 2
    assert inst.certification.hf_f_at_D == 3
    # all degree-D forms lie in the complete intersection: certification fails
    with pytest.raises(CertificationFailedError):
        random_aci((1, 1, 1), 3, 3, 101, seed=0)
    inst = random_aci((3, 3, 3), 3, 4, 101, seed=5)  # non-Artinian, n > h
    assert inst.nvars == 4


def test_instance_hf_below_ci_strict_at_D():
    for seed in range(5):
        inst = random_aci((2, 2, 3), 2, 3, 101, seed=seed)
        sig = sigma(inst.degrees)
        hf_a = instance_hf(inst, sig)
        hf_f = inst.certification.ci_hf
        for j in range(sig + 1):
            assert hf_a[j] <= hf_f[j]
        assert hf_a[inst.D] < hf_f[inst.D]


def test_dominance_monomial_witness_attains_profile():
    # the LPP ideal itself attains its own bound degreewise (h = 3)
    inst = monomial_instance((3, 3, 3), 3, 3, 101)
    res = check_hf_dominance(inst)
    assert res.passed
    assert res.hf_values == res.profile
    assert res.multiplicity == bound_codim3(AciParams((3, 3, 3), 3)) == 21


def test_dominance_random_instances():
    for seed in (1, 2, 3):
        res = check_hf_dominance(random_aci((2, 2, 2), 2, 3, 101, seed=seed))
        assert res.passed
        assert all(v <= a for v, a in zip(res.hf_values, res.profile))
    res = check_hf_dominance(random_aci((3, 3, 3), 3, 3, 101, seed=4))
    assert res.passed and res.multiplicity <= 21


def test_dominance_scope_errors():
    inst = monomial_instance((2, 2, 2, 2), 2, 4, 101)
    assert check_hf_dominance(inst).passed
    with pytest.raises(ValueError):
        check_hf_dominance(monomial_instance((2, 2, 2, 2), 2, 5, 101))  # h=4 needs n == h


def test_linkage_symmetry_examples():
    res = check_linkage_symmetry((2, 2, 2), 2, parse_monomial("x1*x2"))
    assert res.passed
    assert res.quotient_hf[2:4] == (1, 1)  # degrees 2 and 3, symmetric around (D+sigma)/2
    res = check_linkage_symmetry((3, 3, 3), 3, parse_monomial("x1^2*x2"))
    assert res.passed
    with pytest.raises(ValueError):
        check_linkage_symmetry((2, 2, 2), 2, parse_monomial("x1^2"))  # inside (x^d)
    with pytest.raises(ValueError):
        check_linkage_symmetry((2, 2, 2), 2, parse_monomial("x1*x4"))  # outside h vars
    with pytest.raises(ValueError):
        check_linkage_symmetry((2, 2, 2), 3, parse_monomial("x1*x2"))  # degree mismatch


def test_linkage_symmetry_random_standard_monomials():
    rng = random.Random(13)
    for d in ((2, 2, 3), (2, 3, 4), (2, 2, 2, 2)):
        xd = pure_power_ideal(d, len(d))
        for D in range(1, sigma(d) + 1):
            choices = standard_monomials(xd, D)
            u = choices[rng.randrange(len(choices))]
            assert check_linkage_symmetry(d, D, u).passed, (d, D, u)


def test_exhaustive_monomial_max_examples():
    best, argmax = exhaustive_monomial_max((3, 3, 3), 3)
    assert best == 21 and parse_monomial("x1^2*x2") in argmax
    best, argmax = exhaustive_monomial_max((2, 2), 1)
    assert best == 2 and set(argmax) == {parse_monomial("x1"), parse_monomial("x2")}
    best, _ = exhaustive_monomial_max((4, 4, 4), 4)
    assert best == bound_codim3(AciParams((4, 4, 4), 4)) == 52
    with pytest.raises(ValueError):
        exhaustive_monomial_max((2, 2), 5)


def test_exhaustive_against_kernel_multiplicity():
    # second oracle: assemble (x^d)+(U) and sum its Hilbert function
    for d in degree_sequences(4, 4):
        h = len(d)
        xd = pure_power_ideal(d, h)
        total = math.prod(d)
        for D in range(1, sigma(d) + 1):
            for u in standard_monomials(xd, D):
                direct = total - math.prod(di - u.exponent(i) for i, di in enumerate(d))
                assert direct == artinian_multiplicity(xd + type(xd)((u,), h)), (d, D, u)


def test_campaign_examples():
    report = run_campaign(CampaignConfig((2, 2, 2), 2, 3, 101, trials=50, seed=42))
    assert report.attempted == 50 and report.failed == 0
    assert report.passed + report.failed == report.certified
    report = run_campaign(CampaignConfig((2, 2, 2), 2, 3, 101, trials=0, seed=1))
    assert report.attempted == 0 and report.passed == 0
    report = run_campaign(CampaignConfig((3, 3, 3), 3, 4, 101, trials=10, seed=3))
    assert report.failed == 0 and report.certified == 10


def test_campaign_tiny_field():
    # GF(2) draws singular choices often; retries absorb them and the report
    # invariants hold whether or not every trial certifies
    report = run_campaign(CampaignConfig((2, 2, 2), 2, 3, 2, trials=30, seed=13))
    assert report.attempted == 30
    assert report.passed + report.failed == report.certified
    assert report.failed == 0


def test_campaign_low_height_artinian_scope():
    # any h works in the Artinian setup n == h
    for d, D, n in (((2,), 1, 1), ((2, 3), 2, 2)):
        report = run_campaign(CampaignConfig(d, D, n, 101, trials=15, seed=5))
        assert report.failed == 0 and report.certified == 15


def test_dominance_h3_uses_ambient_ring_profile():
    # for n > h the comparison ideal L(d;D) lives in all n variables
    inst = random_aci((3, 3, 3), 3, 4, 101, seed=5)
    res = check_hf_dominance(inst)
    ambient = hilbert_function(lpp_ideal((3, 3, 3), 3, 4), sigma((3, 3, 3))).values
    assert res.profile == ambient
    assert res.profile[1] == 4  # 4 variables, not 3
    assert res.passed and res.multiplicity is None


def test_campaign_deterministic():
    cfg = CampaignConfig((2, 2, 3), 2, 3, 101, trials=25, seed=99)
    assert run_campaign(cfg).to_dict() == run_campaign(cfg).to_dict()


def test_campaign_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig((2, 2, 2), 2, 3, 101, trials=-1, seed=0).validate()
    with pytest.raises(ValueError):
        CampaignConfig((2, 2, 2), 4, 3, 101, trials=1, seed=0).validate()  # D > sigma
    with pytest.raises(ValueError):
        CampaignConfig((2, 2, 2, 2), 2, 5, 101, trials=1, seed=0).validate()  # h=4, n != h
    with pytest.raises(ValueError):
        CampaignConfig((2, 2, 2), 2, 3, 100, trials=1, seed=0).validate()  # p not prime


def test_instance_serialization_schema():
    inst = random_aci((2, 2, 2), 2, 3, 101, seed=7)
    data = inst.to_dict("hf_dominance", 2)
    assert set(data) == {"p", "n", "degrees", "D", "forms", "failing_check", "degree_of_failure"}
    assert data["p"] == 101 and data["n"] == 3 and data["degrees"] == [2, 2, 2]
    assert len(data["forms"]) == 4
    for f in data["forms"]:
        assert set(f) == {"degree", "terms"}
        for mono_text, coeff in f["terms"]:
            assert isinstance(mono_text, str) and 0 < coeff < 101
    json.dumps(data)  # must be JSON-serializable as is
