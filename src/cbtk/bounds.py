"""Multiplicity bounds and point thresholds for almost complete intersections.

Evaluates every proven multiplicity bound for an almost complete
intersection of degrees (d; D), together with the conjectural sharp value,
and selects the best applicable one.  The point threshold is always the
selected multiplicity bound plus one: a hypersurface of degree D through
that many points of the complete intersection must contain all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .lpp import AciParams, c_sequence, delta_sum, lpp_hilbert, lpp_multiplicity, phi, phi_sum
from .monomials import HilbertTable, ci_hilbert

#: Tie-break priority when several bounds achieve the minimum.
TAGS = ("codim3", "delta2", "symmetric", "phi_chain", "engheta_hmmcs")


class NotApplicableError(ValueError):
    """Raised when a bound's hypotheses exclude the given parameters."""


def bound_engheta_hmmcs(p: AciParams) -> int:
    """Baseline bound prod(d) - sigma + D - 1 for D < sigma, prod(d) - 1 otherwise."""
    if p.D < p.sigma:
        return p.product - p.sigma + p.D - 1
    return p.product - 1


def bound_phi_chain(p: AciParams) -> int:
    """prod(d) - sum_{m=D+1}^{sigma} phi_m - 1, for D <= sigma."""
    if p.D > p.sigma:
        raise NotApplicableError(f"needs D <= sigma = {p.sigma}, got D = {p.D}")
    return p.product - phi_sum(p.degrees, p.D + 1, p.sigma) - 1


def bound_symmetric(p: AciParams) -> int:
    """Gorenstein-symmetry refinement
    prod(d) - sum_{m=D+1}^{tau-} phi_m - sum_{m=D+1}^{tau+} phi_m - 2, for D < sigma."""
    if p.D >= p.sigma:
        raise NotApplicableError(f"needs D < sigma = {p.sigma}, got D = {p.D}")
    lo = phi_sum(p.degrees, p.D + 1, p.tau_minus)
    hi = phi_sum(p.degrees, p.D + 1, p.tau_plus)
    return p.product - lo - hi - 2


def bound_delta2(p: AciParams) -> int:
    """The symmetric bound with phi_m sharpened to delta_m; needs h >= 4 and
    D < d_4 (and D < sigma)."""
    if p.h < 4:
        raise NotApplicableError(f"needs h >= 4, got h = {p.h}")
    if p.D >= p.degrees[3]:
        raise NotApplicableError(f"needs D < d_4 = {p.degrees[3]}, got D = {p.D}")
    if p.D >= p.sigma:
        raise NotApplicableError(f"needs D < sigma = {p.sigma}, got D = {p.D}")
    lo = delta_sum(p.degrees, p.D, p.D + 1, p.tau_minus)
    hi = delta_sum(p.degrees, p.D, p.D + 1, p.tau_plus)
    return p.product - lo - hi - 2


def bound_codim3(p: AciParams) -> int:
    """Sharp height-3 bound d1*d2*d3 - c1*c2*c3, for h == 3 and D <= sigma."""
    if p.h != 3:
        raise NotApplicableError(f"needs h == 3, got h = {p.h}")
    if p.D > p.sigma:
        raise NotApplicableError(f"needs D <= sigma = {p.sigma}, got D = {p.D}")
    return p.product - math.prod(c_sequence(p.degrees, p.D))


def egh_conjectural(p: AciParams) -> int:
    """The sharp value prod(d) - prod(c) predicted by the EGH conjecture
    (proven only for h == 3, where it equals bound_codim3)."""
    return lpp_multiplicity(p.degrees, p.D)


_BOUND_FNS = {
    "codim3": bound_codim3,
    "delta2": bound_delta2,
    "symmetric": bound_symmetric,
    "phi_chain": bound_phi_chain,
    "engheta_hmmcs": bound_engheta_hmmcs,
}


@dataclass(frozen=True)
class BoundEntry:
    tag: str
    value: int | None
    applicable: bool


@dataclass(frozen=True)
class BoundReport:
    """All bounds for one parameter set, with the selected threshold."""

    params: AciParams
    bounds: tuple[BoundEntry, ...]
    egh_conjectural: int
    best_bound: int
    threshold: int
    selected_tag: str
    warnings: tuple[str, ...] = ()

    def bound(self, tag: str) -> BoundEntry:
        for b in self.bounds:
            if b.tag == tag:
                return b
        raise KeyError(tag)

    def to_dict(self) -> dict[str, Any]:
        return {
            "degrees": list(self.params.degrees),
            "D": self.params.D,
            "sigma": self.params.sigma,
            "tau_minus": self.params.tau_minus,
            "tau_plus": self.params.tau_plus,
            "bounds": [{"tag": b.tag, "value": b.value, "applicable": b.applicable}
                       for b in self.bounds],
            "egh_conjectural": self.egh_conjectural,
            "best_bound": self.best_bound,
            "threshold": self.threshold,
            "selected_tag": self.selected_tag,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BoundReport":
        return cls(
            params=AciParams(tuple(data["degrees"]), data["D"]),
            bounds=tuple(BoundEntry(b["tag"], b["value"], b["applicable"])
                         for b in data["bounds"]),
            egh_conjectural=data["egh_conjectural"],
            best_bound=data["best_bound"],
            threshold=data["threshold"],
            selected_tag=data["selected_tag"],
            warnings=tuple(data["warnings"]),
        )


def hf_profile(p: AciParams, up_to: int) -> HilbertTable:
    """Per-degree upper bounds for HF(S/a; m) in exactly h variables.

    h == 3: the full Hilbert function of L(d; D).  h >= 4 with D < d_4:
    HF(S/(x^d); m) - delta_m, which is the Hilbert function of L(d; D)
    through degree d_4.  Otherwise HF(S/(x^d); m) in degrees <= D and
    HF(S/(x^d); m) - phi_m above.
    """
    if p.D > p.sigma:
        raise ValueError(f"no per-degree profile for D > sigma = {p.sigma}")
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    if p.h == 3:
        return lpp_hilbert(p.degrees, p.D, 3, up_to)
    xd = ci_hilbert(p.degrees, p.h, up_to).values
    if p.h >= 4 and p.D < p.degrees[3]:
        head = lpp_hilbert(p.degrees, p.D, p.h, min(up_to, p.degrees[3])).values
    else:
        head = xd[:p.D + 1]
    return HilbertTable(head + tuple(xd[m] - phi(p.degrees, m)
                                     for m in range(len(head), up_to + 1)))


def best_threshold(p: AciParams) -> BoundReport:
    """Evaluate all bounds, pick the smallest applicable one, and report the
    point threshold best_bound + 1."""
    if not 1 <= p.D <= p.sigma:
        raise ValueError(f"threshold needs 1 <= D <= sigma = {p.sigma}, got D = {p.D}")
    entries = []
    for tag in TAGS:
        try:
            entries.append(BoundEntry(tag, _BOUND_FNS[tag](p), True))
        except NotApplicableError:
            entries.append(BoundEntry(tag, None, False))
    best = min(b.value for b in entries if b.applicable)
    selected = next(b.tag for b in entries if b.applicable and b.value == best)
    warnings = ()
    if p.D == p.sigma:
        warnings = ("D equals sigma: the threshold equals the total point count, "
                    "so the statement is vacuous",)
    return BoundReport(
        params=p,
        bounds=tuple(entries),
        egh_conjectural=egh_conjectural(p),
        best_bound=best,
        threshold=best + 1,
        selected_tag=selected,
        warnings=warnings,
    )
