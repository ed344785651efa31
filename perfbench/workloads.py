"""The four benchmark workloads: seeded episodes of items, the call each item
makes into cbtk's public library, and the oracle each output must pass.

A run is a sequence of episodes, each a fixed list of items executed in a
fresh process, so every episode starts with cold caches as every ``cbtk``
command does, and an episode costs the same whether the machine is fast or
slow.  Items are generated from (seed, episode index) alone; cbtk receives
only the generated inputs.  Calls go through the ``cbtk`` package
attributes at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import cbtk
from cbtk import reproduce

P = 101  # the campaigns' prime, as in the acceptance campaigns


def _rng(name: str, seed: int, episode: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{episode}")


def _sigma(d: tuple[int, ...]) -> int:
    return sum(x - 1 for x in d)


def _json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# --- threshold-sweep -------------------------------------------------------
# Distinct degree tuples, each queried at every D in 1..sigma; queries on
# one tuple share cached work, so its first query sets the tail.  An
# episode has sixteen rounds of one tuple for each h = 3..6, so every episode
# sees the same mix of h.  Entries go up to 16 (h = 3) and sigma stays in
# 18..27: a tuple's first query then costs 20-100 ms instead of 1-500 ms,
# so the tail and throughput do not hinge on a few rare large tuples.
# (100,100,100;50) is left out because one query runs past a minute.
_MAX_ENTRY = {3: 16, 4: 10, 5: 8, 6: 6}
_SIGMA_BAND = range(18, 28)
_THRESHOLD_ROUNDS = 16


def _threshold_episode(seed: int, episode: int) -> list:
    rng = _rng("threshold-sweep", seed, episode)
    seen: set[tuple[int, ...]] = set()
    items = []
    for _ in range(_THRESHOLD_ROUNDS):
        for h in rng.sample(sorted(_MAX_ENTRY), len(_MAX_ENTRY)):
            d = ()
            while d in seen or _sigma(d) not in _SIGMA_BAND:
                d = tuple(sorted(rng.randint(2, _MAX_ENTRY[h]) for _ in range(h)))
            seen.add(d)
            items.extend((d, D) for D in range(1, _sigma(d) + 1))
    return items


def _threshold_call(item):
    d, D = item
    return cbtk.best_threshold(cbtk.AciParams(d, D))


def _threshold_check(item, report) -> bool:
    d, D = item
    applicable = [b.value for b in report.bounds if b.applicable]
    selected = report.bound(report.selected_tag)
    # The lex-plus-powers ideal attains the EGH value, so every proven
    # upper bound is at least that; for h == 3 the codim3 bound is sharp.
    ok = (report.params == cbtk.AciParams(d, D)
          and report.threshold == report.best_bound + 1
          and selected.applicable and selected.value == report.best_bound
          and report.best_bound == min(applicable)
          and report.egh_conjectural == cbtk.lpp_multiplicity(d, D)
          and report.egh_conjectural <= report.best_bound)
    if len(d) == 3:
        ok = ok and report.best_bound == report.egh_conjectural
    return ok


def _threshold_gate() -> dict[str, Any]:
    rows = reproduce.manifest_rows()
    good = sum(r.ok for r in rows)
    return {"ok": good == len(rows) == 47, "manifest": f"{good}/{len(rows)}"}


# --- hilbert-tables --------------------------------------------------------
# Rounds of four lex-plus-powers tables, one pure-power quotient and five
# random monomial quotients, shuffled within the round.  Deep queries
# (degree ~2000) are not items: they raise RecursionError today, so they
# run once per run as a probe after the episodes.
_HILBERT_ROUND = ("lpp",) * 4 + ("pure",) + ("random",) * 5
_HILBERT_ROUNDS = 60


def _random_ideal(rng: random.Random) -> tuple[tuple[tuple[int, ...], ...], int]:
    n = rng.randint(3, 6)
    count = rng.randint(2, 7)
    gens = set()
    while len(gens) < count:
        e = tuple(rng.randint(0, 5) for _ in range(n))
        if sum(e) >= 2:
            gens.add(e)
    return tuple(sorted(gens)), n


def _hilbert_episode(seed: int, episode: int) -> list:
    rng = _rng("hilbert-tables", seed, episode)
    items = []
    for _ in range(_HILBERT_ROUNDS):
        for kind in rng.sample(_HILBERT_ROUND, len(_HILBERT_ROUND)):
            if kind == "lpp":
                d = tuple(sorted(rng.randint(2, 10) for _ in range(rng.randint(3, 5))))
                items.append(("lpp", d, rng.randint(1, _sigma(d))))
            elif kind == "pure":
                n = rng.randint(3, 6)
                d = tuple(sorted(rng.randint(2, 8) for _ in range(rng.randint(1, n))))
                items.append(("pure", d, n, rng.randint(10, 40)))
            else:
                gens, n = _random_ideal(rng)
                items.append(("random", gens, n, rng.randint(10, 40)))
    return items


def _hilbert_ideal(item):
    kind = item[0]
    if kind == "lpp":
        _, d, D = item
        return cbtk.lpp_ideal(d, D, len(d)), _sigma(d)
    if kind == "pure":
        _, d, n, up_to = item
        return cbtk.pure_power_ideal(d, n), up_to
    _, gens, n, up_to = item
    return cbtk.MonomialIdeal(tuple(cbtk.Monomial(g) for g in gens), n), up_to


def _hilbert_call(item):
    ideal, up_to = _hilbert_ideal(item)
    return cbtk.hilbert_function(ideal, up_to)


def _shift(values: tuple[int, ...], by: int) -> tuple[int, ...]:
    return (0,) * by + values[:len(values) - by] if by < len(values) else (0,) * len(values)


def _hilbert_check(item, table) -> bool:
    kind = item[0]
    if kind == "lpp":
        # Colon sequence 0 -> S/(x^c)(-D) -> S/(x^d) -> S/L(d;D) -> 0.
        _, d, D = item
        top = _sigma(d)
        hf_d = cbtk.ci_hilbert(d, len(d), top).values
        hf_c = _shift(cbtk.ci_hilbert(cbtk.c_sequence(d, D), len(d), top).values, D)
        return table.values == tuple(a - b for a, b in zip(hf_d, hf_c))
    if kind == "pure":
        _, d, n, up_to = item
        return table.values == cbtk.ci_hilbert(d, n, up_to).values
    return len(table.values) == item[3] + 1 and table.values[0] == 1


_ENUM_SAMPLE = 10        # random-quotient items per episode re-checked by enumeration
_ENUM_MAX_DIM = 4000     # largest graded piece enumerated per sample


def _hilbert_sample_check(seed: int, episode: int, items: list, outputs: list) -> set[int]:
    """Indices of sampled random-quotient items whose value at one sampled
    degree disagrees with enumeration of the standard monomials."""
    rng = _rng("hilbert-tables/enumeration", seed, episode)
    candidates = [i for i, (it, out) in enumerate(zip(items, outputs))
                  if it[0] == "random" and out is not None]
    bad = set()
    for i in sorted(rng.sample(candidates, min(_ENUM_SAMPLE, len(candidates)))):
        ideal, up_to = _hilbert_ideal(items[i])
        n = ideal.nvars
        m = rng.choice([m for m in range(up_to + 1)
                        if math.comb(m + n - 1, n - 1) <= _ENUM_MAX_DIM])
        if outputs[i].values[m] != len(cbtk.standard_monomials(ideal, m)):
            bad.add(i)
    return bad


def deep_probe() -> str:
    """Outcome of one deep query, cbtk hilbert --ideal x1^2000 -n 2 --up-to 1500."""
    try:
        table = cbtk.hilbert_function(cbtk.parse_ideal("x1^2000", 2), 1500)
    except RecursionError:
        return "RecursionError"
    return "ok" if table == cbtk.ci_hilbert((2000,), 2, 1500) else "wrong"


def _hilbert_gate() -> dict[str, Any]:
    return {"ok": True, "deep_probe": deep_probe()}


# --- campaigns -------------------------------------------------------------
# One item is one campaign trial: run_campaign with trials=1 and a seed drawn
# from the workload seed, so every trial's report can be checked.
_H3_SWEEP = tuple((d, D) for d in itertools.combinations_with_replacement(range(1, 5), 3)
                  for D in range(1, _sigma(d) + 1))
_SMALL_PASSES = 6   # shuffled passes over the sweep per episode
_LARGE_TRIALS = 8


def _campaign_small_episode(seed: int, episode: int) -> list:
    rng = _rng("campaign-small", seed, episode)
    return [(d, D, 3, rng.randrange(1 << 31)) for _ in range(_SMALL_PASSES)
            for d, D in rng.sample(_H3_SWEEP, len(_H3_SWEEP))]


def _campaign_large_episode(seed: int, episode: int) -> list:
    rng = _rng("campaign-large", seed, episode)
    return [((4, 4, 4), 4, 5, rng.randrange(1 << 31)) for _ in range(_LARGE_TRIALS)]


def _campaign_call(item):
    d, D, n, seed = item
    return cbtk.run_campaign(cbtk.CampaignConfig(d, D, n, P, trials=1, seed=seed))


def _campaign_check(item, report) -> bool:
    d, D, n, seed = item
    c = report.config
    return ((c.degrees, c.D, c.nvars, c.p, c.seed) == (d, D, n, P, seed)
            and report.attempted == report.certified == report.passed == 1
            and report.failed == 0 and not report.failures)


def _no_gate() -> dict[str, Any]:
    return {"ok": True}


# tail_pct is the highest of the percentiles 50, 75, 90, 95, 99, 99.9 with
# at least 10 samples beyond it in a baseline run of 20 s.  It is fixed per
# workload so that a faster program, which completes more items, is still
# measured at the same percentile.
@dataclass(frozen=True)
class Workload:
    name: str
    episode: Callable[[int, int], list]     # (seed, episode index) -> items
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]
    serialize: Callable[[Any], str]
    golden_prefix: int                      # items of episode 0 with golden digests
    tail_pct: float                         # percentile reported as item_tail_ms
    gate: Callable[[], dict[str, Any]]      # workload-wide check after the episodes
    sample_check: Callable[[int, int, list, list], set[int]] | None = None


WORKLOADS = {w.name: w for w in (
    Workload("threshold-sweep", _threshold_episode, _threshold_call, _threshold_check,
             lambda r: _json(r.to_dict()), 200, 99, _threshold_gate),
    Workload("hilbert-tables", _hilbert_episode, _hilbert_call, _hilbert_check,
             lambda t: _json(list(t.values)), 200, 99, _hilbert_gate, _hilbert_sample_check),
    Workload("campaign-small", _campaign_small_episode, _campaign_call, _campaign_check,
             lambda r: _json(r.to_dict()), 200, 99, _no_gate),
    Workload("campaign-large", _campaign_large_episode, _campaign_call, _campaign_check,
             lambda r: _json(r.to_dict()), 4, 75, _no_gate),
)}


def digest(workload: Workload, output: Any) -> str:
    return hashlib.sha256(workload.serialize(output).encode()).hexdigest()[:16]
