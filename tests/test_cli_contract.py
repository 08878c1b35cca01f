"""What holds for every argv, in process: `assert_contract` checks it for
an argv fuzzer over the whole CLI grammar and for a table of fixed argvs
with their exit codes. `herds` output is checked against an independent
reference."""

import contextlib
import io
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from herdsplit import cli

COMMANDS = ("check", "solve", "herds", "breakdown", "generate", "explain")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def herds_reference(divisors, limit, fmt):
    """The `herds` output built eagerly, independent of the CLI: one
    json.dumps(indent=2) of the whole payload, or its rows one per line."""
    m = math.lcm(*divisors)
    r = sum(m // s for s in divisors)
    rows = [(a * r, a * (m - r)) for a in range(1, limit // r + 1)]
    if fmt == "json":
        payload = {
            "divisors": [str(s) for s in divisors],
            "r": str(r),
            "m": str(m),
            "limit": str(limit),
            "herds": [{"herd": str(h), "loan": str(x)} for h, x in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"divisors: {', '.join(map(str, divisors))}", f"r: {r}", f"m: {m}",
             f"limit: {limit}"]
    if rows:
        lines.append("feasible herds (herd loan):")
        lines.extend(f"{h} {x}" for h, x in rows)
    else:
        lines.append("feasible herds: none")
    return "\n".join(lines) + "\n"


valid_divisors = st.lists(st.integers(2, 40), min_size=1, max_size=5).filter(
    lambda d: sum(Fraction(1, s) for s in d) < 1
)


class TestHerdsListing:
    @given(
        valid_divisors,
        st.sampled_from(["r - 1", "r", "r + 1", "k * r"]),
        st.integers(0, 10**4),
        st.sampled_from(["text", "json"]),
    )
    @example([2, 3, 9], "k * r", 2, "json")
    @example([2, 3, 9], "r - 1", 0, "text")
    @example([2], "k * r", 10**4, "json")
    @settings(max_examples=100, deadline=None)
    def test_matches_the_materialised_reference(self, divisors, at, k, fmt):
        m = math.lcm(*divisors)
        r = sum(m // s for s in divisors)
        k %= 10**4 // r + 1  # keep k * r within 10^4
        limit = {"r - 1": r - 1, "r": r, "r + 1": r + 1, "k * r": k * r}[at]
        argv = ["herds", "--divisors", ",".join(map(str, divisors)),
                "--limit", str(limit), "--format", fmt]
        assert run_cli(argv) == (0, herds_reference(divisors, limit, fmt), "")

    @pytest.mark.parametrize("limit", [100_000, 0, -5, 16, 17, 34])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_classic_limits(self, limit, fmt):
        argv = ["herds", "--divisors", "2,3,9", "--limit", str(limit), "--format", fmt]
        assert run_cli(argv) == (0, herds_reference((2, 3, 9), limit, fmt), "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_single_divisor(self, fmt):
        argv = ["herds", "--divisors", "3", "--limit", "10", "--format", fmt]
        assert run_cli(argv) == (0, herds_reference((3,), 10, fmt), "")


divisor_text = st.lists(st.integers(-1, 40), max_size=5).map(
    lambda d: ",".join(map(str, d))
)


@st.composite
def argvs(draw):
    """Argv lists over the whole grammar: every subcommand and format, with
    valid and invalid values, a dropped required option, or --help."""
    command = draw(st.sampled_from(COMMANDS))
    if command == "generate":
        opts = ["--heirs", str(draw(st.integers(0, 4))),
                "--max-divisor", str(draw(st.integers(0, 30)))]
        loan = draw(st.none() | st.integers(-1, 20))
        if loan is not None:
            opts += ["--max-loan", str(loan)]
        if draw(st.booleans()):
            opts.append("--duplicates")
    else:
        opts = ["--divisors", draw(divisor_text)]
        if command == "herds":
            opts += ["--limit", str(draw(st.integers(-10, 10**4)))]
        elif command != "check":
            opts += ["--herd", str(draw(st.integers(-2, 10**6)))]
    opts += draw(st.sampled_from([[], ["--format", "text"], ["--format", "json"]]))
    mangle = draw(st.sampled_from(["none", "none", "drop", "help"]))
    if mangle == "drop":
        opts = opts[2:]
    elif mangle == "help":
        opts = ["--help", *opts]
    return [command, *opts]


def _leaves(node):
    if isinstance(node, dict):
        node = node.values()
    elif not isinstance(node, list):
        return [node]
    return [leaf for child in node for leaf in _leaves(child)]


def assert_contract(argv):
    """Run argv in process, check what must hold for every argv, and return
    its exit code, stdout and stderr.

    The code is 0, 1 or 2; stdout is empty iff the code is 2, and stderr is
    empty iff it is not. JSON output re-serialises to the same bytes and
    holds no number, only strings, bools and nulls. `herds` output equals
    `herds_reference`.
    """
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2)
    assert (out == "") == (code == 2)
    assert (err == "") == (code != 2)
    if "--help" in argv:
        assert code == 0
        return code, out, err
    if code != 2 and argv[-2:] == ["--format", "json"]:
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) + "\n" == out
        assert all(leaf is None or isinstance(leaf, (str, bool))
                   for leaf in _leaves(payload))
    if code == 0 and argv[0] == "herds":
        divisors = [int(s) for s in argv[argv.index("--divisors") + 1].split(",")]
        limit = int(argv[argv.index("--limit") + 1])
        fmt = "json" if argv[-1] == "json" else "text"
        assert out == herds_reference(divisors, limit, fmt)
    return code, out, err


@given(argvs())
@example(["herds", "--divisors", "2,3,9", "--limit", "10000", "--format", "json"])
@example(["herds", "--divisors", "2", "--limit", "10000"])
@example(["generate", "--heirs", "4", "--max-divisor", "30", "--duplicates"])
@example(["solve", "--divisors", "", "--herd", "17"])
@settings(max_examples=200, deadline=None)
def test_argv_fuzz_keeps_the_exit_code_contract(argv):
    assert_contract(argv)


CLASSIC = ["--divisors", "2,3,9"]
# name -> (argv, exit code). An argv with output runs again with
# `--format json`: the same code, and the same numbers as the text.
FIXED = {
    "check": (["check", *CLASSIC], 0),
    "solve-17": (["solve", *CLASSIC, "--herd", "17"], 0),
    "solve-16": (["solve", *CLASSIC, "--herd", "16"], 1),
    "solve-57": (["solve", "--divisors", "3,4,5,6", "--herd", "57"], 0),
    "solve-quartet-50": (["solve", "--divisors", "3,6,9,12", "--herd", "50"], 0),
    "herds-60": (["herds", *CLASSIC, "--limit", "60"], 0),
    "herds-10": (["herds", *CLASSIC, "--limit", "10"], 0),
    "breakdown-17": (["breakdown", *CLASSIC, "--herd", "17"], 0),
    "breakdown-16": (["breakdown", *CLASSIC, "--herd", "16"], 0),
    "breakdown-57": (["breakdown", "--divisors", "3,4,5,6", "--herd", "57"], 0),
    "generate-borrow-one": (
        ["generate", "--heirs", "3", "--max-divisor", "9", "--max-loan", "1"], 0
    ),
    "generate-quartets": (
        ["generate", "--heirs", "4", "--max-divisor", "12", "--max-loan", "11"], 0
    ),
    "generate-none": (["generate", "--heirs", "2", "--max-divisor", "2"], 0),
    "explain-17": (["explain", *CLASSIC, "--herd", "17"], 0),
    "explain-16": (["explain", *CLASSIC, "--herd", "16"], 1),
    "explain-quartet-50": (["explain", "--divisors", "3,6,9,12", "--herd", "50"], 0),
    "herd-0": (["solve", *CLASSIC, "--herd", "0"], 2),
    "divisor-0": (["solve", "--divisors", "0", "--herd", "17"], 2),
    "divisor-x": (["solve", "--divisors", "2,x,9", "--herd", "17"], 2),
    "missing-herd": (["solve", *CLASSIC], 2),
    "unknown-command": (["conquer"], 2),
    "format-xml": (["check", *CLASSIC, "--format", "xml"], 2),
}
# text prints the raw share 16/2 as "8", JSON as {"num": "8", "den": "1"}
NUMBERS_DIFFER = {"breakdown-16"}


@pytest.mark.parametrize("name", FIXED)
def test_a_fixed_argv_keeps_the_contract(name):
    argv, code = FIXED[name]
    got, text, _ = assert_contract(argv)
    assert got == code
    if code != 2:
        got, as_json, _ = assert_contract([*argv, "--format", "json"])
        assert got == code
        if name not in NUMBERS_DIFFER:
            assert set(re.findall(r"\d+", text)) == set(re.findall(r"\d+", as_json))
