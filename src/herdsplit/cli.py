"""Command-line front end: check, solve, herds, breakdown, generate, explain.

Exit codes: 0 = success/feasible, 1 = valid input but infeasible herd,
2 = invalid input (parse or validation error, diagnostic on stderr).
Results go to stdout only; diagnostics go to stderr only. JSON output is a
single object with every integer rendered as a decimal string and every
rational as a reduced {"num", "den"} pair.
"""

import argparse
import json
import sys

from . import generator, solver
from .errors import HerdsplitError

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INVALID = 2


def _divisor_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )

    parser = argparse.ArgumentParser(
        prog="herdsplit",
        description=(
            "Divide indivisible units among heirs in unit-fraction ratios "
            "by borrowing units that come straight back."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[shared], help="validate a divisor list")
    p.add_argument("--divisors", type=_divisor_list, required=True, metavar="L")

    p = sub.add_parser("solve", parents=[shared], help="split a herd, or say why not")
    p.add_argument("--divisors", type=_divisor_list, required=True, metavar="L")
    p.add_argument("--herd", type=int, required=True, metavar="N")

    p = sub.add_parser("herds", parents=[shared], help="list feasible herd sizes")
    p.add_argument("--divisors", type=_divisor_list, required=True, metavar="L")
    p.add_argument("--limit", type=int, required=True, metavar="N")

    p = sub.add_parser(
        "breakdown", parents=[shared], help="exact fractional shares and leftover"
    )
    p.add_argument("--divisors", type=_divisor_list, required=True, metavar="L")
    p.add_argument("--herd", type=int, required=True, metavar="N")

    p = sub.add_parser("generate", parents=[shared], help="enumerate puzzle specs")
    p.add_argument("--heirs", type=int, required=True, metavar="K")
    p.add_argument("--max-divisor", type=int, required=True, metavar="D")
    p.add_argument("--max-loan", type=int, default=None, metavar="X")
    p.add_argument("--duplicates", action="store_true")

    p = sub.add_parser("explain", parents=[shared], help="narrate a solution")
    p.add_argument("--divisors", type=_divisor_list, required=True, metavar="L")
    p.add_argument("--herd", type=int, required=True, metavar="N")

    return parser


def to_json(payload: dict) -> str:
    """Canonical JSON rendering; reparsing and re-rendering is byte-stable."""
    return json.dumps(payload, indent=2) + "\n"


def _frac_json(q) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _join(values) -> str:
    return ", ".join(str(v) for v in values)


def _spec_fields(spec: solver.ShareSpec) -> tuple[dict, list[str]]:
    fs = spec.fraction_sum
    payload = {
        "divisors": [str(s) for s in spec.divisors],
        "r": str(fs.r),
        "m": str(fs.m),
    }
    lines = [f"divisors: {_join(spec.divisors)}", f"r: {fs.r}", f"m: {fs.m}"]
    return payload, lines


def _solve_fields(spec, herd):
    """Shared by solve and explain: payload/text for the solved herd."""
    sol = solver.solve(spec, herd)
    payload, lines = _spec_fields(spec)
    payload["herd"] = str(herd)
    lines.append(f"herd: {herd}")
    if isinstance(sol, solver.Infeasible):
        payload["feasible"] = False
        below = sol.nearest_below
        payload["nearest_below"] = None if below is None else str(below)
        payload["nearest_above"] = str(sol.nearest_above)
        lines.append("feasible: no")
        lines.append(f"nearest feasible below: {'none' if below is None else below}")
        lines.append(f"nearest feasible above: {sol.nearest_above}")
        return EXIT_INFEASIBLE, None, payload, lines
    payload["feasible"] = True
    payload["loan"] = str(sol.loan)
    payload["augmented"] = str(sol.augmented)
    payload["multiplier"] = str(sol.multiplier)
    payload["shares"] = [str(s) for s in sol.shares]
    lines.append("feasible: yes")
    lines.append(f"loan: {sol.loan}")
    lines.append(f"augmented: {sol.augmented}")
    lines.append(f"multiplier: {sol.multiplier}")
    lines.append(f"shares: {_join(sol.shares)}")
    return EXIT_OK, sol, payload, lines


def _cmd_check(args):
    spec = solver.validate_spec(args.divisors)
    payload, lines = _spec_fields(spec)
    reduced = spec.fraction_sum.reduced
    payload["reduced"] = _frac_json(reduced)
    lines.append(f"share sum: {reduced}")
    return EXIT_OK, payload, lines


def _cmd_solve(args):
    spec = solver.validate_spec(args.divisors)
    code, _, payload, lines = _solve_fields(spec, args.herd)
    return code, payload, lines


def _cmd_herds(args):
    spec = solver.validate_spec(args.divisors)
    rows = solver.feasible_herds(spec, args.limit)
    payload, lines = _spec_fields(spec)
    payload["limit"] = str(args.limit)
    payload["herds"] = [{"herd": str(h), "loan": str(x)} for h, x in rows]
    lines.append(f"limit: {args.limit}")
    if rows:
        lines.append("feasible herds (herd loan):")
        lines.extend(f"{h} {x}" for h, x in rows)
    else:
        lines.append("feasible herds: none")
    return EXIT_OK, payload, lines


def _cmd_breakdown(args):
    spec = solver.validate_spec(args.divisors)
    bd = solver.fractional_breakdown(spec, args.herd)
    feasible = bool(bd.topups)
    payload, lines = _spec_fields(spec)
    payload["herd"] = str(args.herd)
    payload["feasible"] = feasible
    payload["raw_shares"] = [_frac_json(q) for q in bd.raw_shares]
    payload["leftover"] = _frac_json(bd.leftover)
    payload["topups"] = [_frac_json(q) for q in bd.topups]
    lines.append(f"herd: {args.herd}")
    lines.append(f"feasible: {'yes' if feasible else 'no'}")
    lines.append(f"raw shares: {_join(bd.raw_shares)}")
    lines.append(f"leftover: {bd.leftover}")
    lines.append(f"topups: {_join(bd.topups) if feasible else 'none'}")
    return EXIT_OK, payload, lines


def _cmd_generate(args):
    bounds = generator.SearchBounds(
        heirs=args.heirs,
        max_divisor=args.max_divisor,
        max_loan=args.max_loan,
        allow_duplicates=args.duplicates,
    )
    records = generator.enumerate_specs(bounds)
    payload = {
        "heirs": str(bounds.heirs),
        "max_divisor": str(bounds.max_divisor),
        "max_loan": None if bounds.max_loan is None else str(bounds.max_loan),
        "duplicates": bounds.allow_duplicates,
        "count": str(len(records)),
        "puzzles": [
            {
                "divisors": [str(s) for s in rec.divisors],
                "r": str(rec.r),
                "m": str(rec.m),
                "minimal_herd": str(rec.minimal_herd),
                "minimal_loan": str(rec.minimal_loan),
            }
            for rec in records
        ],
    }
    lines = [
        f"heirs: {bounds.heirs}",
        f"max divisor: {bounds.max_divisor}",
        f"max loan: {'unbounded' if bounds.max_loan is None else bounds.max_loan}",
        f"duplicates: {'yes' if bounds.allow_duplicates else 'no'}",
        f"count: {len(records)}",
    ]
    if records:
        lines.append("puzzles (divisors r m minimal_herd minimal_loan):")
        lines.extend(
            f"{','.join(map(str, rec.divisors))} "
            f"{rec.r} {rec.m} {rec.minimal_herd} {rec.minimal_loan}"
            for rec in records
        )
    return EXIT_OK, payload, lines


def _cmd_explain(args):
    spec = solver.validate_spec(args.divisors)
    code, sol, payload, lines = _solve_fields(spec, args.herd)
    if sol is None:
        return code, payload, lines
    steps = solver.explain(sol)
    payload["steps"] = steps
    lines.append("steps:")
    lines.extend(steps)
    return code, payload, lines


_DISPATCH = {
    "check": _cmd_check,
    "solve": _cmd_solve,
    "herds": _cmd_herds,
    "breakdown": _cmd_breakdown,
    "generate": _cmd_generate,
    "explain": _cmd_explain,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv, execute, print to the standard streams, return exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already wrote its diagnostic
        if isinstance(exc.code, int):
            return exc.code
        return EXIT_OK if exc.code is None else EXIT_INVALID
    try:
        code, payload, lines = _DISPATCH[args.command](args)
    except HerdsplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.format == "json":
        sys.stdout.write(to_json(payload))
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return code


def main() -> None:
    # Lift CPython's int<->str digit limit: lcms of long divisor lists and
    # herds given on the command line can exceed 4300 digits.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(run())
