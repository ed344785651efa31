"""Independent verification of the Hilbert-function inequalities.

Builds genuine almost complete intersections over small prime fields from
seeded randomness, certifies them (regular sequence, extra form outside the
complete intersection), and checks every inequality the bounds module
relies on.  The monomial case is checked exhaustively.  A failing check
indicates an implementation bug, never an accepted counterexample, so
failures are collected with full reproduction data.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Sequence

from .bounds import best_threshold, hf_profile
from .gfp import Form, graded_piece_dim, graded_rank_hf, is_prime
from .lpp import AciParams, check_degrees, lpp_hilbert, lpp_monomial, lpp_multiplicity
from .monomials import (
    Monomial,
    MonomialIdeal,
    ci_hilbert,
    hilbert_function,
    pure_power_ideal,
    standard_monomials,
)

_SEED_STRIDE = 1_000_003  # trial i of a campaign uses seed*stride + i


class CertificationFailedError(RuntimeError):
    """Randomness failed to produce a certified instance within the retry
    budget (tiny fields make this likely; try a larger prime)."""


class VerificationError(RuntimeError):
    """An inequality that the theory guarantees failed to hold."""


@dataclass(frozen=True)
class Certification:
    """Recomputable evidence that an instance is a genuine ACI."""

    ci_hf: tuple[int, ...]        # HF(S/f; 0..sigma+1): the Koszul values, proven by the
                                  # regular-sequence certificate (random_regular_sequence)
    hf_f_at_D: int
    hf_a_at_D: int                # strictly smaller certifies G outside f


@dataclass(frozen=True)
class AciInstance:
    """A certified almost complete intersection over GF(p)."""

    degrees: tuple[int, ...]
    D: int
    nvars: int
    p: int
    ci_forms: tuple[Form, ...]
    extra_form: Form
    certification: Certification

    @property
    def forms(self) -> tuple[Form, ...]:
        return self.ci_forms + (self.extra_form,)

    def to_dict(self, failing_check: str | None = None,
                degree_of_failure: int | None = None) -> dict[str, Any]:
        return {
            "p": self.p,
            "n": self.nvars,
            "degrees": list(self.degrees),
            "D": self.D,
            "forms": [f.to_dict() for f in self.forms],
            "failing_check": failing_check,
            "degree_of_failure": degree_of_failure,
        }


def _cut(form: Form, h: int) -> Form:
    """The form with x_{h+1}, ..., x_n set to 0, as a form in h variables."""
    return Form(h, form.p, form.degree,
                tuple((m, c) for m, c in form.terms if len(m.exponents) <= h))


def _certifies_regular(forms: tuple[Form, ...], n: int, p: int) -> bool:
    """Whether HF(S/forms; 0..sigma+1) is the complete-intersection one,
    settled by one rank in h variables when that rank is zero."""
    h = len(forms)
    degrees = tuple(f.degree for f in forms)
    top = sum(d - 1 for d in degrees) + 1
    if graded_piece_dim(tuple(_cut(f, h) for f in forms), h, p, top) == 0:
        return True
    return n > h and graded_rank_hf(forms, n, p, top).values == ci_hilbert(degrees, n, top).values


def _random_regular_sequence(rng: random.Random, degrees: tuple[int, ...], n: int,
                             p: int, max_retries: int) -> tuple[tuple[Form, ...], tuple[int, ...]]:
    expected = ci_hilbert(degrees, n, sum(d - 1 for d in degrees) + 1).values
    for _ in range(max_retries):
        forms = tuple(Form.random(n, d, p, rng) for d in degrees)
        if _certifies_regular(forms, n, p):
            return forms, expected
    raise CertificationFailedError(
        f"no regular sequence of degrees {degrees} over GF({p}) in {max_retries} tries; "
        "a larger field should succeed")


def random_regular_sequence(degrees: Sequence[int], n: int, p: int, seed: int,
                            max_retries: int = 32) -> tuple[Form, ...]:
    """Random forms of the given degrees whose quotient Hilbert function
    matches the complete-intersection values through degree sigma+1.

    Each try is certified by one rank: with x_{h+1}, ..., x_n set to 0, the
    quotient in h variables must vanish in degree sigma+1.  That Artinian
    quotient makes (f, x_{h+1}, ..., x_n) a system of parameters of the
    Cohen-Macaulay ring S, hence a regular sequence (Bruns-Herzog,
    Cohen-Macaulay Rings, Thm 2.1.2), so f is one too and its Hilbert
    function is the complete-intersection one.  For n > h a try that fails
    this test can still be regular (x1^2, x2^2, x4^2 in four variables); it
    is then certified by matching the full Hilbert function through degree
    sigma+1, so exactly the forms with that full match are accepted.  For
    n == h the full match is the same test and is skipped.
    """
    d = check_degrees(degrees)
    if len(d) > n:
        raise ValueError(f"{len(d)} forms need at least {len(d)} variables, got {n}")
    rng = random.Random(seed)
    forms, _ = _random_regular_sequence(rng, d, n, p, max_retries)
    return forms


def random_aci(degrees: Sequence[int], D: int, n: int, p: int, seed: int,
               max_retries: int = 32) -> AciInstance:
    """A certified regular sequence plus a degree-D form outside it."""
    d = check_degrees(degrees)
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    if len(d) > n:
        raise ValueError(f"{len(d)} forms need at least {len(d)} variables, got {n}")
    rng = random.Random(seed)
    forms, ci_hf = _random_regular_sequence(rng, d, n, p, max_retries)
    sig = sum(x - 1 for x in d)
    if D <= sig + 1:
        hf_f_at_D = ci_hf[D]
    else:
        hf_f_at_D = graded_piece_dim(forms, n, p, D)
    if hf_f_at_D == 0:
        raise CertificationFailedError(
            f"every degree-{D} form lies in the complete intersection of degrees {d}")
    for _ in range(max_retries):
        extra = Form.random(n, D, p, rng)
        hf_a_at_D = graded_piece_dim(forms + (extra,), n, p, D)
        if hf_a_at_D < hf_f_at_D:
            cert = Certification(ci_hf, hf_f_at_D, hf_a_at_D)
            return AciInstance(d, D, n, p, forms, extra, cert)
    raise CertificationFailedError(
        f"no degree-{D} form outside the complete intersection over GF({p}) "
        f"in {max_retries} tries")


@dataclass(frozen=True)
class CheckFailure:
    check: str
    degree: int | None
    value: int
    allowed: int


@dataclass(frozen=True)
class DominanceResult:
    passed: bool
    hf_values: tuple[int, ...]
    profile: tuple[int, ...]
    multiplicity: int | None
    multiplicity_bound: int | None
    failures: tuple[CheckFailure, ...]


def instance_hf(inst: AciInstance, up_to: int) -> tuple[int, ...]:
    """HF(S/a; 0..up_to), reusing the certified values below degree D where
    a and f agree."""
    cert = inst.certification
    values = []
    for m in range(up_to + 1):
        if m < inst.D and m < len(cert.ci_hf):
            values.append(cert.ci_hf[m])
        elif m == inst.D:
            values.append(cert.hf_a_at_D)
        else:
            values.append(graded_piece_dim(inst.forms, inst.nvars, inst.p, m))
    return tuple(values)


def check_hf_dominance(inst: AciInstance) -> DominanceResult:
    """Check HF(S/a) against the proven per-degree profile.

    h == 3: dominance by HF(S/L(d; D)) in the same ambient ring, all degrees
    up to sigma.  h != 3 (Artinian scope, n == h): degrees D < m <= sigma
    against the hf_profile rules.  Artinian instances also check the total
    dimension against the best proven multiplicity bound.
    """
    params = AciParams(inst.degrees, inst.D)
    sig = params.sigma
    if inst.D > sig:
        raise ValueError(f"dominance checks need D <= sigma = {sig}")
    h = params.h
    if h == 3:
        profile = lpp_hilbert(inst.degrees, inst.D, inst.nvars, sig).values
        check_from = 0
    else:
        if inst.nvars != h:
            raise ValueError(f"dominance for h = {h} != 3 needs an Artinian instance (n == h)")
        profile = hf_profile(params, sig).values
        check_from = inst.D + 1
    hf_a = instance_hf(inst, sig)
    failures = [CheckFailure("hf_dominance", m, hf_a[m], profile[m])
                for m in range(check_from, sig + 1) if hf_a[m] > profile[m]]
    multiplicity = mult_bound = None
    if inst.nvars == h:
        multiplicity = sum(hf_a)
        mult_bound = best_threshold(params).best_bound
        if multiplicity > mult_bound:
            failures.append(CheckFailure("multiplicity", None, multiplicity, mult_bound))
    return DominanceResult(not failures, hf_a, profile, multiplicity, mult_bound,
                           tuple(failures))


@dataclass(frozen=True)
class LinkageResult:
    passed: bool
    quotient_hf: tuple[int, ...]  # HF(a/f; 0..sigma+1)
    mismatches: tuple[str, ...]


def check_linkage_symmetry(degrees: Sequence[int], D: int, U: Monomial) -> LinkageResult:
    """For a = (x^d) + (U) and g = (x^d) : U in h variables, check the
    Gorenstein symmetry HF(a/f; D+m) == HF(a/f; sigma-m) and the linkage
    identity HF(S/a; j) == HF(S/f; j) - HF(S/g; sigma-j)."""
    d = check_degrees(degrees)
    h = len(d)
    sig = sum(x - 1 for x in d)
    if U.degree != D:
        raise ValueError(f"U has degree {U.degree}, expected D = {D}")
    if not 1 <= D <= sig:
        raise ValueError(f"need 1 <= D <= sigma = {sig}")
    if len(U.exponents) > h:
        raise ValueError(f"U must involve only the first {h} variables")
    f = pure_power_ideal(d, h)
    if f.contains(U):
        raise ValueError("U lies inside (x^d), not an almost complete intersection")
    a = f + MonomialIdeal((U,), h)
    g = f.colon(U)
    top = sig + 1
    f_t = hilbert_function(f, top).values
    a_t = hilbert_function(a, top).values
    g_t = hilbert_function(g, top).values
    quot = tuple(fv - av for fv, av in zip(f_t, a_t))

    def at(vals: tuple[int, ...], j: int) -> int:
        return vals[j] if 0 <= j < len(vals) else 0

    mismatches = []
    for j in range(top + 1):
        if at(quot, j) != at(quot, sig + D - j):
            mismatches.append(
                f"symmetry: HF(a/f;{j}) = {at(quot, j)} != {at(quot, sig + D - j)} = HF(a/f;{sig + D - j})")
    for j in range(top + 1):
        expected = at(f_t, j) - at(g_t, sig - j)
        if at(a_t, j) != expected:
            mismatches.append(f"linkage: HF(S/a;{j}) = {at(a_t, j)} != {expected}")
    return LinkageResult(not mismatches, quot, tuple(mismatches))


def exhaustive_monomial_max(degrees: Sequence[int], D: int) -> tuple[int, list[Monomial]]:
    """Maximum multiplicity over all monomial almost complete intersections
    (x^d) + (U) with U of degree D in h variables, with all maximizers.

    Cross-checks that the maximum is lpp_multiplicity(d, D) and that U_D is
    among the maximizers; a mismatch raises VerificationError.
    """
    d = check_degrees(degrees)
    sig = sum(x - 1 for x in d)
    if not 1 <= D <= sig:
        raise ValueError(f"need 1 <= D <= sigma = {sig}, got D = {D}")
    h = len(d)
    xd = pure_power_ideal(d, h)
    total = math.prod(d)
    best = -1
    argmax: list[Monomial] = []
    for u in standard_monomials(xd, D):
        mult = total - math.prod(di - u.exponent(i) for i, di in enumerate(d))
        if mult > best:
            best, argmax = mult, [u]
        elif mult == best:
            argmax.append(u)
    predicted = lpp_multiplicity(d, D)
    if best != predicted:
        raise VerificationError(
            f"monomial maximum {best} != lpp multiplicity {predicted} for {d}; D={D}")
    if lpp_monomial(d, D) not in argmax:
        raise VerificationError(f"U_D is not a maximizer for {d}; D={D}")
    return best, argmax


@dataclass(frozen=True)
class CampaignConfig:
    degrees: tuple[int, ...]
    D: int
    nvars: int
    p: int
    trials: int
    seed: int

    def validate(self) -> None:
        d = check_degrees(self.degrees)
        sig = sum(x - 1 for x in d)
        if not 1 <= self.D <= sig:
            raise ValueError(f"need 1 <= D <= sigma = {sig}, got D = {self.D}")
        h = len(d)
        if h == 3:
            if self.nvars < 3:
                raise ValueError("h = 3 needs at least 3 variables")
        elif self.nvars != h:
            raise ValueError(f"h = {h} != 3 needs an Artinian setup, n == h")
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    attempted: int
    certified: int
    passed: int
    failed: int
    check_failures: dict[str, int]
    failures: tuple[dict[str, Any], ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "degrees": list(self.config.degrees),
            "D": self.config.D,
            "n": self.config.nvars,
            "p": self.config.p,
            "seed": self.config.seed,
            "checks": ["hf_dominance"],
            "attempted": self.attempted,
            "certified": self.certified,
            "passed": self.passed,
            "failed": self.failed,
            "check_failures": dict(self.check_failures),
            "failures": [dict(f) for f in self.failures],
        }


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run seeded random trials; deterministic for a given config.

    Certification failures are counted but are not check failures; check
    failures are collected with serialized instances for reproduction.
    """
    config.validate()
    certified = passed = failed = 0
    check_failures = {"hf_dominance": 0}
    failures: list[dict[str, Any]] = []
    for i in range(config.trials):
        trial_seed = config.seed * _SEED_STRIDE + i
        try:
            inst = random_aci(config.degrees, config.D, config.nvars, config.p, trial_seed)
        except CertificationFailedError:
            continue
        certified += 1
        result = check_hf_dominance(inst)
        if result.passed:
            passed += 1
        else:
            failed += 1
            check_failures["hf_dominance"] += 1
            first = result.failures[0]
            failures.append(inst.to_dict(first.check, first.degree))
    return CampaignReport(config, config.trials, certified, passed, failed,
                          check_failures, tuple(failures))
