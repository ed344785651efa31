"""Command-line surface: thresholds, LPP data, Hilbert functions,
verification campaigns, and reproduction of the known example values.

Exit codes: 0 success, 1 check or reproduction failure, 2 usage error or
resource limit (CB_MAX_DIM, the Hilbert-function recursion depth).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .bounds import best_threshold
from .gfp import GradedPieceTooLargeError
from .lpp import AciParams, c_sequence, lpp_ideal, lpp_monomial, lpp_multiplicity, sigma
from .monomials import format_ideal, format_monomial, hilbert_function, parse_ideal
from .reproduce import manifest_rows
from .verify import (
    CampaignConfig,
    VerificationError,
    exhaustive_monomial_max,
    run_campaign,
)


def _parse_degrees(raw: str) -> tuple[int, ...]:
    try:
        degrees = tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        raise ValueError(f"cannot parse degree list {raw!r}") from None
    if any(d < 1 for d in degrees) or not degrees:
        raise ValueError(f"degrees must be integers >= 1, got {raw!r}")
    ordered = tuple(sorted(degrees))
    if ordered != degrees:
        print(f"note: degrees sorted to {','.join(map(str, ordered))}", file=sys.stderr)
    return ordered


def _cmd_threshold(args: argparse.Namespace) -> int:
    degrees = _parse_degrees(args.degrees)
    report = best_threshold(AciParams(degrees, args.D))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    p = report.params
    print(f"degrees:         ({', '.join(map(str, p.degrees))})")
    print(f"D:               {p.D}")
    print(f"sigma:           {p.sigma}")
    print(f"tau:             ({p.tau_minus}, {p.tau_plus})")
    print("bounds:")
    for b in report.bounds:
        value = str(b.value) if b.applicable else "n/a"
        marker = "  <-- selected" if b.applicable and b.tag == report.selected_tag else ""
        print(f"  {b.tag:<15} {value}{marker}")
    print(f"egh_conjectural: {report.egh_conjectural}  "
          f"(conjectural sharp bound; {report.egh_conjectural + 1} points)")
    print(f"best_bound:      {report.best_bound}  ({report.selected_tag})")
    print(f"threshold:       {report.threshold}")
    for w in report.warnings:
        print(f"warning: {w}")
    return 0


def _cmd_lpp(args: argparse.Namespace) -> int:
    degrees = _parse_degrees(args.degrees)
    s = sigma(degrees)
    u = lpp_monomial(degrees, args.D)
    nvars = max(len(degrees), len(u.exponents))
    ideal = lpp_ideal(degrees, args.D, nvars)
    up_to = args.up_to if args.up_to is not None else s
    table = hilbert_function(ideal, up_to)
    c = list(c_sequence(degrees, args.D)) if args.D <= s else None
    mult = lpp_multiplicity(degrees, args.D)
    if args.json:
        print(json.dumps({
            "degrees": list(degrees),
            "D": args.D,
            "sigma": s,
            "nvars": nvars,
            "U": format_monomial(u),
            "c": c,
            "generators": [format_monomial(g) for g in ideal.generators],
            "hf": list(table.values),
            "multiplicity": mult,
            "multiplicity_conjectural": args.D > s,
        }, indent=2))
        return 0
    print(f"degrees:      ({', '.join(map(str, degrees))}),  D = {args.D},  sigma = {s}")
    print(f"U_D:          {format_monomial(u)}")
    if c is not None:
        print(f"c:            ({', '.join(map(str, c))})")
    else:
        print("c:            undefined (D > sigma)")
    print(f"L(d;D):       {format_ideal(ideal)}   [{nvars} variables]")
    print(f"HF(S/L):      {list(table.values)}   [degrees 0..{up_to}]")
    label = "predicted multiplicity" if args.D > s else "multiplicity"
    print(f"{label}: {mult}")
    return 0


def _cmd_hilbert(args: argparse.Namespace) -> int:
    ideal = parse_ideal(args.ideal, args.nvars)
    table = hilbert_function(ideal, args.up_to)
    if args.json:
        print(json.dumps({
            "ideal": [format_monomial(g) for g in ideal.generators],
            "nvars": args.nvars,
            "values": list(table.values),
            "artinian_certified": table.artinian_certified,
        }, indent=2))
    elif args.csv:
        print("degree,value")
        for m, v in enumerate(table.values):
            print(f"{m},{v}")
    else:
        shown = format_ideal(ideal) if not ideal.is_zero else "0"
        print(f"I = ({shown})  in {args.nvars} variables")
        print(f"HF(S/I; 0..{args.up_to}) = {','.join(map(str, table.values))}")
        print(f"artinian: {'certified (zero value reached)' if table.artinian_certified else 'not certified within the table'}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    degrees = _parse_degrees(args.degrees)
    if args.mode == "exhaustive":
        try:
            best, argmax = exhaustive_monomial_max(degrees, args.D)
        except VerificationError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        predicted = lpp_multiplicity(degrees, args.D)
        if args.json:
            print(json.dumps({
                "mode": "exhaustive",
                "degrees": list(degrees),
                "D": args.D,
                "max_multiplicity": best,
                "lpp_multiplicity": predicted,
                "maximizers": [format_monomial(u) for u in argmax],
            }, indent=2))
        else:
            print(f"exhaustive monomial check for ({', '.join(map(str, degrees))}; {args.D})")
            print(f"max multiplicity:  {best}  (matches LPP prediction {predicted})")
            print(f"maximizers:        {', '.join(format_monomial(u) for u in argmax)}")
        return 0
    nvars = args.nvars if args.nvars is not None else len(degrees)
    config = CampaignConfig(degrees, args.D, nvars, args.prime, args.trials,
                            args.seed)
    config.validate()
    report = run_campaign(config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        c = report.config
        print(f"campaign: degrees ({', '.join(map(str, c.degrees))}; {c.D}), "
              f"n = {c.nvars}, p = {c.p}, seed = {c.seed}")
        print(f"attempted: {report.attempted}  certified: {report.certified}  "
              f"passed: {report.passed}  failed: {report.failed}")
        for fail in report.failures:
            print("counterexample candidate (implementation bug unless refuted):")
            print(json.dumps(fail))
    return 0 if report.failed == 0 else 1


def _cmd_reproduce(args: argparse.Namespace) -> int:
    rows = manifest_rows()
    bad = [r for r in rows if not r.ok]
    if args.json:
        print(json.dumps({"rows": [r.to_dict() for r in rows],
                          "mismatches": len(bad)}, indent=2))
    else:
        width = max(len(r.name) for r in rows)
        for r in rows:
            status = "OK  " if r.ok else "FAIL"
            print(f"{status} {r.name:<{width}}  computed={r.computed}  expected={r.expected}")
        print(f"{len(rows) - len(bad)}/{len(rows)} values reproduced")
    return 0 if not bad else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbtk",
        description="Cayley-Bacharach point thresholds for complete intersections, "
                    "with exact verification tooling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_thr = sub.add_parser("threshold", help="compute the point threshold report for (d; D)")
    p_thr.add_argument("-d", "--degrees", required=True, help="comma-separated degrees, e.g. 4,4,4,10")
    p_thr.add_argument("-D", type=int, required=True, help="degree of the extra hypersurface")
    p_thr.add_argument("--json", action="store_true")
    p_thr.set_defaults(func=_cmd_threshold)

    p_lpp = sub.add_parser("lpp", help="inspect U_D, the c-sequence and L(d;D)")
    p_lpp.add_argument("-d", "--degrees", required=True)
    p_lpp.add_argument("-D", type=int, required=True)
    p_lpp.add_argument("--up-to", type=int, default=None, help="Hilbert table bound (default sigma)")
    p_lpp.add_argument("--json", action="store_true")
    p_lpp.set_defaults(func=_cmd_lpp)

    p_hf = sub.add_parser("hilbert", help="Hilbert function of a monomial ideal quotient")
    p_hf.add_argument("--ideal", required=True, help="comma-separated monomials, e.g. 'x1^2,x1*x2'")
    p_hf.add_argument("-n", "--nvars", type=int, required=True)
    p_hf.add_argument("--up-to", type=int, required=True)
    fmt = p_hf.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p_hf.set_defaults(func=_cmd_hilbert)

    p_ver = sub.add_parser("verify", help="random-field campaigns or exhaustive monomial checks")
    p_ver.add_argument("--mode", choices=("random", "exhaustive"), required=True)
    p_ver.add_argument("-d", "--degrees", required=True)
    p_ver.add_argument("-D", type=int, required=True)
    p_ver.add_argument("-n", "--nvars", type=int, default=None, help="ambient variables (default h)")
    p_ver.add_argument("-p", "--prime", type=int, default=101)
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)

    p_rep = sub.add_parser("reproduce", help="recompute the known example values")
    p_rep.add_argument("--json", action="store_true")
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, GradedPieceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: Hilbert-function recursion limit ({sys.getrecursionlimit()} "
              "levels) exceeded; ask for fewer degrees", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
