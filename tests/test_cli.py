"""Command-line behavior: exit codes, payloads, stream discipline."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from herdsplit import cli
from herdsplit.cli import run, to_json

GOLDEN = Path(__file__).parent / "golden"

SOLVE_17_JSON = """\
{
  "divisors": [
    "2",
    "3",
    "9"
  ],
  "r": "17",
  "m": "18",
  "herd": "17",
  "feasible": true,
  "loan": "1",
  "augmented": "18",
  "multiplier": "1",
  "shares": [
    "9",
    "6",
    "2"
  ]
}
"""

SOLVE_16_TEXT = """\
divisors: 2, 3, 9
r: 17
m: 18
herd: 16
feasible: no
nearest feasible below: none
nearest feasible above: 17
"""

GENERATE_TEXT = """\
heirs: 3
max divisor: 9
max loan: 1
duplicates: no
count: 6
puzzles (divisors r m minimal_herd minimal_loan):
2,3,7 41 42 41 1
2,3,8 23 24 23 1
2,3,9 17 18 17 1
2,4,5 19 20 19 1
2,4,6 11 12 11 1
2,4,8 7 8 7 1
"""

JSON_FIXTURES = [
    ["check", "--divisors", "2,3,9", "--format", "json"],
    ["solve", "--divisors", "2,3,9", "--herd", "17", "--format", "json"],
    ["solve", "--divisors", "2,3,9", "--herd", "16", "--format", "json"],
    ["solve", "--divisors", "3,4,5,6", "--herd", "57", "--format", "json"],
    ["solve", "--divisors", "3,6,9,12", "--herd", "50", "--format", "json"],
    ["herds", "--divisors", "2,3,9", "--limit", "60", "--format", "json"],
    ["herds", "--divisors", "2,3,9", "--limit", "10", "--format", "json"],
    ["breakdown", "--divisors", "2,3,9", "--herd", "17", "--format", "json"],
    ["breakdown", "--divisors", "2,3,9", "--herd", "16", "--format", "json"],
    ["breakdown", "--divisors", "3,4,5,6", "--herd", "57", "--format", "json"],
    ["generate", "--heirs", "3", "--max-divisor", "9", "--max-loan", "1",
     "--format", "json"],
    ["generate", "--heirs", "4", "--max-divisor", "12", "--max-loan", "11",
     "--format", "json"],
    ["explain", "--divisors", "2,3,9", "--herd", "17", "--format", "json"],
    ["explain", "--divisors", "3,6,9,12", "--herd", "50", "--format", "json"],
]


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecExamples:
    def test_solve_seventeen_json_bytes(self, capsys):
        code, out, err = invoke(
            capsys, ["solve", "--divisors", "2,3,9", "--herd", "17",
                     "--format", "json"]
        )
        assert code == 0
        assert out == SOLVE_17_JSON
        assert err == ""
        payload = json.loads(out)
        assert payload["loan"] == "1"
        assert payload["shares"] == ["9", "6", "2"]

    def test_solve_sixteen_names_r_and_nearest_feasible(self, capsys):
        code, out, err = invoke(
            capsys, ["solve", "--divisors", "2,3,9", "--herd", "16"]
        )
        assert code == 1
        assert out == SOLVE_16_TEXT
        assert err == ""
        assert "17" in out  # both r and the nearest feasible herd

    def test_check_rejects_an_exact_unit_sum(self, capsys):
        code, out, err = invoke(capsys, ["check", "--divisors", "2,3,6"])
        assert code == 2
        assert out == ""
        assert err == "error: share sum equals 1\n"


class TestJsonRoundTrip:
    @pytest.mark.parametrize("argv", JSON_FIXTURES, ids=lambda a: " ".join(a[:5]))
    def test_parse_then_reserialize_is_byte_identical(self, capsys, argv):
        code = run(argv)
        out = capsys.readouterr().out
        assert code in (0, 1)
        payload = json.loads(out)
        assert to_json(payload) == out

    @pytest.mark.parametrize("argv", JSON_FIXTURES, ids=lambda a: " ".join(a[:5]))
    def test_integers_are_decimal_strings(self, capsys, argv):
        run(argv)
        payload = json.loads(capsys.readouterr().out)

        def walk(node):
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)
            else:
                assert node is None or isinstance(node, (str, bool))

        walk(payload)


class TestFormatsAgree:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--divisors", "2,3,9"],
            ["solve", "--divisors", "2,3,9", "--herd", "17"],
            ["solve", "--divisors", "2,3,9", "--herd", "16"],
            ["herds", "--divisors", "2,3,9", "--limit", "60"],
            ["breakdown", "--divisors", "3,4,5,6", "--herd", "57"],
            ["generate", "--heirs", "3", "--max-divisor", "9", "--max-loan", "1"],
            ["explain", "--divisors", "2,3,9", "--herd", "17"],
        ],
        ids=lambda a: " ".join(a[:3]),
    )
    def test_text_and_json_contain_the_same_numbers(self, capsys, argv):
        run(argv)
        text = capsys.readouterr().out
        run(argv + ["--format", "json"])
        as_json = capsys.readouterr().out
        assert set(re.findall(r"\d+", text)) == set(re.findall(r"\d+", as_json))


class TestExitCodesAndStreams:
    def test_feasible_commands_exit_zero(self, capsys):
        for argv in (
            ["check", "--divisors", "2,3,9"],
            ["herds", "--divisors", "2,3,9", "--limit", "10"],
            ["breakdown", "--divisors", "2,3,9", "--herd", "16"],
            ["generate", "--heirs", "2", "--max-divisor", "2"],
        ):
            code, out, err = invoke(capsys, argv)
            assert code == 0, argv
            assert out
            assert err == ""

    def test_infeasible_explain_exits_one(self, capsys):
        code, out, err = invoke(capsys, ["explain", "--divisors", "2,3,9",
                                         "--herd", "16"])
        assert code == 1
        assert out == SOLVE_16_TEXT

    def test_zero_herd_is_invalid_input(self, capsys):
        code, out, err = invoke(capsys, ["solve", "--divisors", "2,3,9",
                                         "--herd", "0"])
        assert code == 2
        assert out == ""
        assert "herd" in err

    def test_empty_divisors_is_invalid_input(self, capsys):
        code, out, err = invoke(capsys, ["solve", "--divisors", "0",
                                         "--herd", "17"])
        assert code == 2
        assert "divisor" in err

    def test_unparseable_divisors_exit_two(self, capsys):
        code, out, err = invoke(capsys, ["solve", "--divisors", "2,x,9",
                                         "--herd", "17"])
        assert code == 2
        assert out == ""
        assert err != ""

    def test_missing_required_flag_exits_two(self, capsys):
        code, _, err = invoke(capsys, ["solve", "--divisors", "2,3,9"])
        assert code == 2
        assert err != ""

    def test_unknown_subcommand_exits_two(self, capsys):
        code, _, err = invoke(capsys, ["conquer"])
        assert code == 2
        assert err != ""

    def test_bad_format_exits_two(self, capsys):
        code, _, err = invoke(capsys, ["check", "--divisors", "2,3,9",
                                       "--format", "xml"])
        assert code == 2
        assert err != ""

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, ["--help"])
        assert code == 0
        assert "check" in out and "generate" in out

    def test_node_budget_overflow_is_invalid_input(self, capsys, monkeypatch):
        from herdsplit.errors import BoundsTooLarge

        def explode(bounds):
            raise BoundsTooLarge("enumeration exceeded the node budget of 10000000")

        monkeypatch.setattr("herdsplit.cli.generator.enumerate_specs", explode)
        code, out, err = invoke(
            capsys, ["generate", "--heirs", "6", "--max-divisor", "120"]
        )
        assert code == 2
        assert out == ""
        assert "budget" in err


class TestGenerateOutput:
    def test_generate_text_table(self, capsys):
        code, out, err = invoke(
            capsys,
            ["generate", "--heirs", "3", "--max-divisor", "9", "--max-loan", "1"],
        )
        assert code == 0
        assert out == GENERATE_TEXT

    def test_generate_unbounded_loan_says_so(self, capsys):
        _, out, _ = invoke(capsys, ["generate", "--heirs", "1",
                                    "--max-divisor", "2"])
        assert "max loan: unbounded" in out


# golden file stem -> argv; every one exits 0 and prints the file's bytes
TEXT_GOLDENS = {
    "check": ["check", "--divisors", "2,3,9"],
    "herds_rows": ["herds", "--divisors", "2,3,9", "--limit", "60"],
    "herds_none": ["herds", "--divisors", "2,3,9", "--limit", "16"],
    "breakdown_feasible": ["breakdown", "--divisors", "2,3,9", "--herd", "17"],
    # 18 is not a multiple of r = 17, yet every raw share 18/s is integral
    "breakdown_infeasible": ["breakdown", "--divisors", "2,3,9", "--herd", "18"],
    "explain": ["explain", "--divisors", "2,3,9", "--herd", "17"],
    "generate_unbounded": ["generate", "--heirs", "2", "--max-divisor", "6"],
    "generate_none": ["generate", "--heirs", "3", "--max-divisor", "3"],
    "help": ["--help"],
    **{
        f"help_{name}": [name, "--help"]
        for name in ("check", "solve", "herds", "breakdown", "generate", "explain")
    },
}


@pytest.mark.parametrize("name", sorted(TEXT_GOLDENS))
def test_text_output_matches_golden_bytes(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    code, out, err = invoke(capsys, TEXT_GOLDENS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()
    assert err == ""


class TestInternalErrors:
    def test_deep_generate_crash_is_not_read_as_infeasible(self):
        # 1001 heirs need a DFS deeper than the default recursion limit
        proc = subprocess.run(
            [sys.executable, "-m", "herdsplit", "generate", "--heirs", "1001",
             "--max-divisor", "2000", "--duplicates"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode not in (0, 1)
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")

    def test_unexpected_exception_exits_internal(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(cli._DISPATCH, "check", boom)
        code, out, err = invoke(capsys, ["check", "--divisors", "2,3,9"])
        assert code == cli.EXIT_INTERNAL == 3
        assert out == ""
        assert err == "error: internal: RuntimeError: kaboom\n"


def test_module_entry_point_matches_in_process_run():
    proc = subprocess.run(
        [sys.executable, "-m", "herdsplit", "solve", "--divisors", "2,3,9",
         "--herd", "17", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == SOLVE_17_JSON
    assert proc.stderr == ""


def _lifted_digit_limit(fn):
    """Run fn with CPython's int<->str digit limit lifted, then restore it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn()
    finally:
        sys.set_int_max_str_digits(old)


def test_entry_point_prints_an_lcm_past_the_int_str_digit_limit():
    primes = []
    n = 1000003
    while len(primes) < 800:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            primes.append(n)
        n += 2
    proc = subprocess.run(
        [sys.executable, "-m", "herdsplit", "check",
         "--divisors", ",".join(map(str, primes)), "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    m = json.loads(proc.stdout)["m"]
    assert len(m) > 4300
    assert m == _lifted_digit_limit(lambda: str(math.lcm(*primes)))


def test_entry_point_accepts_a_herd_past_the_int_str_digit_limit():
    herd = "17" + "0" * 4400
    proc = subprocess.run(
        [sys.executable, "-m", "herdsplit", "solve", "--divisors", "2,3,9",
         "--herd", herd, "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["herd"] == herd
    assert payload["loan"] == "1" + "0" * 4400
