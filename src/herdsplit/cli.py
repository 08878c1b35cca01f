"""Command-line front end: check, solve, herds, breakdown, generate, explain.

Exit codes: 0 = success/feasible, 1 = valid input but infeasible herd,
2 = invalid input (parse or validation error, diagnostic on stderr),
3 = internal error (one "error: internal: ..." line on stderr, no stdout).
Results go to stdout only; diagnostics go to stderr only. JSON output is a
single object with every integer rendered as a decimal string and every
rational as a reduced {"num", "den"} pair. Text output lists the same
object's fields in the same order, one "label: value" line each.
"""

import argparse
import json
import sys

from . import generator, solver
from .errors import HerdsplitError

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


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
    divisors = argparse.ArgumentParser(add_help=False)
    divisors.add_argument("--divisors", type=_divisor_list, required=True, metavar="L")
    herd = argparse.ArgumentParser(add_help=False)
    herd.add_argument("--herd", type=int, required=True, metavar="N")

    parser = argparse.ArgumentParser(
        prog="herdsplit",
        description=(
            "Divide indivisible units among heirs in unit-fraction ratios "
            "by borrowing units that come straight back."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    with_spec = [shared, divisors]
    with_herd = [shared, divisors, herd]

    sub.add_parser("check", parents=with_spec, help="validate a divisor list")
    sub.add_parser("solve", parents=with_herd, help="split a herd, or say why not")

    p = sub.add_parser("herds", parents=with_spec, help="list feasible herd sizes")
    p.add_argument("--limit", type=int, required=True, metavar="N")

    sub.add_parser(
        "breakdown", parents=with_herd, help="exact fractional shares and leftover"
    )

    p = sub.add_parser("generate", parents=[shared], help="enumerate puzzle specs")
    p.add_argument("--heirs", type=int, required=True, metavar="K")
    p.add_argument("--max-divisor", type=int, required=True, metavar="D")
    p.add_argument("--max-loan", type=int, default=None, metavar="X")
    p.add_argument("--duplicates", action="store_true")

    sub.add_parser("explain", parents=with_herd, help="narrate a solution")

    return parser


def to_json(payload: dict) -> str:
    """Canonical JSON rendering; reparsing and re-rendering is byte-stable."""
    return json.dumps(payload, indent=2) + "\n"


# Text output lists the payload's fields in order as "label: value" lines;
# the label is the key with "_" shown as " " unless named here.
_LABELS = {
    "reduced": "share sum",
    "nearest_below": "nearest feasible below",
    "nearest_above": "nearest feasible above",
}
# Row blocks: key -> (header line, line printed when there are no rows or None)
_BLOCKS = {
    "herds": ("feasible herds (herd loan):", "feasible herds: none"),
    "puzzles": ("puzzles (divisors r m minimal_herd minimal_loan):", None),
    "steps": ("steps:", None),
}


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "none"
    if isinstance(value, dict):  # a rational
        den = value["den"]
        return value["num"] if den == "1" else f"{value['num']}/{den}"
    if isinstance(value, list):
        return ", ".join(map(_text_value, value)) or "none"
    return value


def _text_row(row) -> str:
    if isinstance(row, str):
        return row
    return " ".join(",".join(v) if isinstance(v, list) else v for v in row.values())


def to_text(payload: dict) -> str:
    """Text rendering of the same payload `to_json` renders."""
    lines = []
    for key, value in payload.items():
        if key in _BLOCKS:
            header, empty = _BLOCKS[key]
            if value:
                lines.append(header)
                lines.extend(map(_text_row, value))
            elif empty is not None:
                lines.append(empty)
        elif key == "max_loan" and value is None:
            lines.append("max loan: unbounded")
        else:
            label = _LABELS.get(key, key.replace("_", " "))
            lines.append(f"{label}: {_text_value(value)}")
    return "\n".join(lines) + "\n"


def _frac_json(q) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _spec_fields(spec: solver.ShareSpec) -> dict:
    fs = spec.fraction_sum
    return {
        "divisors": [str(s) for s in spec.divisors],
        "r": str(fs.r),
        "m": str(fs.m),
    }


def _cmd_check(args):
    spec = solver.validate_spec(args.divisors)
    payload = _spec_fields(spec)
    payload["reduced"] = _frac_json(spec.fraction_sum.reduced)
    return EXIT_OK, payload


def _cmd_solve(args):
    """solve, and explain, which adds the narrated steps of a feasible split."""
    spec = solver.validate_spec(args.divisors)
    sol = solver.solve(spec, args.herd)
    payload = _spec_fields(spec)
    payload["herd"] = str(args.herd)
    if isinstance(sol, solver.Infeasible):
        payload["feasible"] = False
        below = sol.nearest_below
        payload["nearest_below"] = None if below is None else str(below)
        payload["nearest_above"] = str(sol.nearest_above)
        return EXIT_INFEASIBLE, payload
    payload["feasible"] = True
    payload["loan"] = str(sol.loan)
    payload["augmented"] = str(sol.augmented)
    payload["multiplier"] = str(sol.multiplier)
    payload["shares"] = [str(s) for s in sol.shares]
    if args.command == "explain":
        payload["steps"] = solver.explain(sol)
    return EXIT_OK, payload


def _cmd_herds(args):
    spec = solver.validate_spec(args.divisors)
    rows = solver.feasible_herds(spec, args.limit)
    payload = _spec_fields(spec)
    payload["limit"] = str(args.limit)
    payload["herds"] = [{"herd": str(h), "loan": str(x)} for h, x in rows]
    return EXIT_OK, payload


def _cmd_breakdown(args):
    spec = solver.validate_spec(args.divisors)
    bd = solver.fractional_breakdown(spec, args.herd)
    payload = _spec_fields(spec)
    payload["herd"] = str(args.herd)
    payload["feasible"] = bool(bd.topups)
    payload["raw_shares"] = [_frac_json(q) for q in bd.raw_shares]
    payload["leftover"] = _frac_json(bd.leftover)
    payload["topups"] = [_frac_json(q) for q in bd.topups]
    return EXIT_OK, payload


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
    return EXIT_OK, payload


_DISPATCH = {
    "check": _cmd_check,
    "solve": _cmd_solve,
    "herds": _cmd_herds,
    "breakdown": _cmd_breakdown,
    "generate": _cmd_generate,
    "explain": _cmd_solve,
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
    render = to_json if args.format == "json" else to_text
    try:
        code, payload = _DISPATCH[args.command](args)
        out = render(payload)
    except HerdsplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # a crash must not read as "infeasible"
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(out)
    return code


def main() -> None:
    # Lift CPython's int<->str digit limit: lcms of long divisor lists and
    # herds given on the command line can exceed 4300 digits.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(run())
