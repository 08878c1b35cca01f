"""Command-line front end: check, solve, herds, breakdown, generate, explain.

Exit codes: 0 = success/feasible, 1 = valid input but infeasible herd,
2 = invalid input (parse or validation error, diagnostic on stderr),
3 = internal error (one "error: internal: ..." line on stderr, no stdout).
Results go to stdout only; diagnostics go to stderr only. Each command
returns a payload of plain values (ints, Fractions, bools, None, tuples),
and `_execute` passes each through `_json` once (integers as decimal
strings, rationals as reduced {"num", "den"} pairs told by their
denominator, so printing never imports `fractions`; the `herds` and
`puzzles` rows are encoded as they are built). `to_json` and `to_text`
print that one encoded payload, the text as one "label: value" line per field.

`_execute` computes the exit code and both texts, argparse's included, and
`run` then writes each stream once. A stdout that cannot take its text
makes the code 3, unless the reader is gone (`| head -1`); a failed stderr
keeps the code. A failed stream is pointed at os.devnull.
"""

import argparse
import contextlib
import functools
import io
import os
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


@functools.cache  # built on first use, not at import: importing stays cheap
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
    """Canonical JSON of an encoded payload; re-rendering its parse is byte-stable."""
    import json  # here, not at the top: text output never loads it

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
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "none"
    if isinstance(value, list):
        return ", ".join(map(_text_value, value)) or "none"
    num, den = value["num"], value["den"]  # a rational
    return num if den == "1" else f"{num}/{den}"


def _text_row(row) -> str:
    if isinstance(row, str):
        return row
    return " ".join(",".join(v) if isinstance(v, list) else v for v in row.values())


def to_text(payload: dict) -> str:
    """Text rendering of the same encoded payload `to_json` renders."""
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


def _json(value):
    """The one encoding of a result value, tested in this order: an int
    becomes a decimal string so consumers never overflow, a tuple a list, a
    bool itself, and a Fraction, told by its denominator so encoding never
    imports it, a reduced {"num", "den"} pair; anything else is already JSON."""
    if type(value) is int:
        return str(value)
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if isinstance(value, bool):
        return value
    if hasattr(value, "denominator"):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    return value


def _fields(result) -> dict:
    """A result record's fields in declaration order."""
    return {name: getattr(result, name) for name in result._fields}


def _spec_fields(spec: solver.ShareSpec) -> dict:
    fs = spec.fraction_sum
    return {"divisors": spec.divisors, "r": fs.r, "m": fs.m}


def _cmd_check(args):
    spec = solver.validate_spec(args.divisors)
    return EXIT_OK, _spec_fields(spec) | {"reduced": spec.fraction_sum.reduced}


def _cmd_solve(args):
    """solve, and explain, which adds the narrated steps of a feasible split."""
    spec = solver.validate_spec(args.divisors)
    sol = solver.solve(spec, args.herd)
    payload = _spec_fields(spec)
    payload["herd"] = args.herd
    payload["feasible"] = isinstance(sol, solver.LoanSolution)
    # herd (and Infeasible's r) repeat with equal values; update keeps their place
    payload.update(_fields(sol))
    if not payload["feasible"]:
        return EXIT_INFEASIBLE, payload
    if args.command == "explain":
        payload["steps"] = solver.explain(sol)
    return EXIT_OK, payload


def _cmd_herds(args):
    spec = solver.validate_spec(args.divisors)
    rows = solver.feasible_herds(spec, args.limit)
    payload = _spec_fields(spec)
    payload["limit"] = args.limit
    payload["herds"] = [{"herd": _json(h), "loan": _json(x)} for h, x in rows]
    return EXIT_OK, payload


def _cmd_breakdown(args):
    spec = solver.validate_spec(args.divisors)
    bd = solver.fractional_breakdown(spec, args.herd)
    payload = _spec_fields(spec)
    payload["herd"] = args.herd
    payload["feasible"] = bool(bd.topups)
    return EXIT_OK, payload | _fields(bd)


def _cmd_generate(args):
    bounds = generator.SearchBounds(
        heirs=args.heirs,
        max_divisor=args.max_divisor,
        max_loan=args.max_loan,
        allow_duplicates=args.duplicates,
    )
    records = generator.enumerate_specs(bounds)
    payload = _fields(bounds)
    # allow_duplicates, the last field, is "duplicates" on the command line
    payload["duplicates"] = payload.pop("allow_duplicates")
    payload["count"] = len(records)
    payload["puzzles"] = [
        {k: _json(getattr(rec, k)) for k in rec._fields} for rec in records
    ]
    return EXIT_OK, payload


_DISPATCH = {
    "check": _cmd_check,
    "solve": _cmd_solve,
    "herds": _cmd_herds,
    "breakdown": _cmd_breakdown,
    "generate": _cmd_generate,
    "explain": _cmd_solve,
}


def _to_devnull(stream) -> None:
    """Point a standard stream's descriptor, if it has one, at os.devnull,
    so the output still buffered cannot fail again in the flush at exit."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _internal(exc: Exception) -> str:
    return f"error: internal: {type(exc).__name__}: {exc}\n"


# _internal(MemoryError())'s outcome, built at import: with the heap full,
# a handler that formats text can fail again and exit 1, or never return
_OUT_OF_MEMORY = (EXIT_INTERNAL, "", "error: internal: MemoryError: \n")


def _execute(argv: list[str] | None) -> tuple[int, str, str]:
    """Return argv's exit code, stdout text and stderr text; write nothing.

    CPython's int<->str digit limit is lifted for the call and restored
    after it: lcms and herds from the command line can pass 4300 digits,
    and an argv must exit the same way in process as from the console script.
    """
    out, err = io.StringIO(), io.StringIO()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = build_parser().parse_args(argv)
        render = to_json if args.format == "json" else to_text
        code, payload = _DISPATCH[args.command](args)
        return code, render({k: _json(v) for k, v in payload.items()}), ""
    except SystemExit as exc:  # 0 after --help, 2 after a usage error
        return exc.code, out.getvalue(), err.getvalue()
    except HerdsplitError as exc:
        return EXIT_INVALID, "", f"error: {exc}\n"
    except MemoryError:
        return _OUT_OF_MEMORY
    except Exception as exc:  # a crash must not read as "infeasible"
        return EXIT_INTERNAL, "", _internal(exc)
    finally:
        sys.set_int_max_str_digits(limit)


def run(argv: list[str] | None = None) -> int:
    """Execute argv, write stdout and then stderr once each, return the code."""
    code, out, err = _execute(argv)
    if out:
        try:
            sys.stdout.write(out)
            sys.stdout.flush()
        except (OSError, AttributeError) as exc:  # stdout is None if fd 1 is closed
            _to_devnull(sys.stdout)
            if not isinstance(exc, BrokenPipeError):  # else the reader is gone
                code, err = EXIT_INTERNAL, err + _internal(exc)
    if err:
        try:
            sys.stderr.write(err)
            sys.stderr.flush()
        except (OSError, AttributeError):  # nowhere to say it; the code stands
            _to_devnull(sys.stderr)
    return code


def main() -> None:
    sys.exit(run())
