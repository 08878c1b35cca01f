"""Command-line behavior: exit codes, payloads, stream discipline."""

import errno
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from herdsplit import cli
from herdsplit.cli import run, to_json

GOLDEN = Path(__file__).parent / "golden"

SOLVE_17_JSON = (GOLDEN / "solve_feasible_json.txt").read_text()
SOLVE_16_TEXT = (GOLDEN / "solve_infeasible.txt").read_text()
GENERATE_TEXT = (GOLDEN / "generate.txt").read_text()

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


def _boom(args):
    raise RuntimeError("kaboom")


SOLVE_17 = ["solve", "--divisors", "2,3,9", "--herd", "17"]
FULL_STDOUT_ERROR = "error: internal: OSError: [Errno 28] No space left on device\n"
NO_STDOUT_ERROR = (
    "error: internal: AttributeError: 'NoneType' object has no attribute 'write'\n"
)

# outcome -> argv; the "check" command is replaced by _boom
STREAM_OUTCOMES = {
    "help": ["--help"],
    "ok": SOLVE_17,
    "infeasible": ["solve", "--divisors", "2,3,9", "--herd", "16"],
    "invalid": ["solve", "--divisors", "2,3,9", "--herd", "0"],
    "usage": ["solve", "--divisors", "2,3,9"],
    "internal": ["check", "--divisors", "2,3,9"],
}
# (failing method, errno), or None for a stream that is None (fd closed)
STREAM_FAILURES = [
    (method, err) for err in (errno.ENOSPC, errno.EPIPE) for method in ("write", "flush")
] + [None]
FAILURE_IDS = [f"{f[1]}-{f[0]}" if f else "none" for f in STREAM_FAILURES]


class FailingStream(io.StringIO):  # no descriptor to point at devnull
    """A stream whose `method` raises OSError(err); it records every write
    and flush called on it."""

    def __init__(self, method, err):
        super().__init__()
        self.method, self.err, self.calls = method, err, []

    def _call(self, name):
        self.calls.append(name)
        if name == self.method:
            raise OSError(self.err, os.strerror(self.err))

    def write(self, text):
        self._call("write")
        return super().write(text)

    def flush(self):
        self._call("flush")


def _run_with_a_failed_stream(capsys, monkeypatch, stream, outcome, failure):
    """Run an outcome's argv once as is and once with `stream` failing.
    Return the first run's code, stdout and stderr, and the second run's
    (code, stdout, stderr) as the other stream saw them. Check that the
    failing stream was touched only when it had text to take."""
    monkeypatch.setitem(cli._DISPATCH, "check", _boom)
    argv = STREAM_OUTCOMES[outcome]
    code, out, err = invoke(capsys, argv)
    text = out if stream == "stdout" else err
    fake = failure and FailingStream(*failure)
    monkeypatch.setattr(sys, stream, fake)
    got = invoke(capsys, argv)
    if fake:
        tried = ["write"] if fake.method == "write" else ["write", "flush"]
        assert fake.calls == (tried if text else [])
    return code, out, err, got


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


# golden file stem -> argv; each prints the file's bytes
TEXT_GOLDENS = {
    "check": ["check", "--divisors", "2,3,9"],
    "solve_infeasible": ["solve", "--divisors", "2,3,9", "--herd", "16"],
    "herds_rows": ["herds", "--divisors", "2,3,9", "--limit", "60"],
    "herds_none": ["herds", "--divisors", "2,3,9", "--limit", "16"],
    "breakdown_feasible": ["breakdown", "--divisors", "2,3,9", "--herd", "17"],
    # 18 is not a multiple of r = 17, yet every raw share 18/s is integral
    "breakdown_infeasible": ["breakdown", "--divisors", "2,3,9", "--herd", "18"],
    "explain": ["explain", "--divisors", "2,3,9", "--herd", "17"],
    "generate": ["generate", "--heirs", "3", "--max-divisor", "9", "--max-loan", "1"],
    "generate_unbounded": ["generate", "--heirs", "2", "--max-divisor", "6"],
    "generate_none": ["generate", "--heirs", "3", "--max-divisor", "3"],
    "help": ["--help"],
    **{
        f"help_{name}": [name, "--help"]
        for name in ("check", "solve", "herds", "breakdown", "generate", "explain")
    },
    # JSON payloads: each pins the key order of its command's fields
    **{
        f"{name}_json": [*argv, "--format", "json"]
        for name, argv in {
            "check": ["check", "--divisors", "2,3,9"],
            "solve_feasible": ["solve", "--divisors", "2,3,9", "--herd", "17"],
            "solve_infeasible": ["solve", "--divisors", "2,3,9", "--herd", "16"],
            "breakdown_feasible": ["breakdown", "--divisors", "2,3,9", "--herd", "17"],
            "breakdown_infeasible": ["breakdown", "--divisors", "2,3,9",
                                     "--herd", "18"],
            "explain": ["explain", "--divisors", "2,3,9", "--herd", "17"],
            "generate": ["generate", "--heirs", "3", "--max-divisor", "9",
                         "--max-loan", "1"],
            "generate_unbounded": ["generate", "--heirs", "2", "--max-divisor", "6"],
            "generate_none": ["generate", "--heirs", "3", "--max-divisor", "3"],
            "herds_rows": ["herds", "--divisors", "2,3,9", "--limit", "60"],
            "herds_none": ["herds", "--divisors", "2,3,9", "--limit", "16"],
        }.items()
    },
}
# goldens that exit nonzero; every other one exits 0
GOLDEN_EXIT = {"solve_infeasible": 1, "solve_infeasible_json": 1}


@pytest.mark.parametrize("name", sorted(TEXT_GOLDENS))
def test_text_output_matches_golden_bytes(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    code, out, err = invoke(capsys, TEXT_GOLDENS[name])
    assert code == GOLDEN_EXIT.get(name, 0)
    assert out == (GOLDEN / f"{name}.txt").read_text()
    assert err == ""


class TestInternalErrors:
    def test_crash_in_a_module_process_exits_internal(self):
        # the whole process path: cli.main, its sys.exit and the real streams
        code = (
            "import sys\n"
            "from herdsplit import cli\n"
            "def boom(args):\n"
            "    raise RuntimeError('kaboom')\n"
            "cli._DISPATCH['check'] = boom\n"
            "sys.argv = ['herdsplit', 'check', '--divisors', '2,3,9']\n"
            "cli.main()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == cli.EXIT_INTERNAL
        assert proc.stdout == ""
        assert proc.stderr == "error: internal: RuntimeError: kaboom\n"

    def test_unexpected_exception_exits_internal(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._DISPATCH, "check", _boom)
        code, out, err = invoke(capsys, ["check", "--divisors", "2,3,9"])
        assert code == cli.EXIT_INTERNAL == 3
        assert out == ""
        assert err == "error: internal: RuntimeError: kaboom\n"

    # The in-process stream matrix: each outcome x each standard stream x
    # each way a stream can fail. A stream with no text is never touched.
    @pytest.mark.parametrize("failure", STREAM_FAILURES, ids=FAILURE_IDS)
    @pytest.mark.parametrize("outcome", STREAM_OUTCOMES)
    def test_a_failed_stdout_exits_internal_unless_the_reader_is_gone(
        self, capsys, monkeypatch, outcome, failure
    ):
        code, out, err, failed = _run_with_a_failed_stream(
            capsys, monkeypatch, "stdout", outcome, failure
        )
        if out and (failure is None or failure[1] != errno.EPIPE):
            internal = FULL_STDOUT_ERROR if failure else NO_STDOUT_ERROR
            code, err = cli.EXIT_INTERNAL, err + internal
        assert failed == (code, "", err)

    @pytest.mark.parametrize("failure", STREAM_FAILURES, ids=FAILURE_IDS)
    @pytest.mark.parametrize("outcome", STREAM_OUTCOMES)
    def test_a_failed_diagnostic_keeps_the_exit_code(
        self, capsys, monkeypatch, outcome, failure
    ):
        # a buffered stderr is flushed inside run, so its failure cannot be
        # left for the flush at exit
        code, out, _, failed = _run_with_a_failed_stream(
            capsys, monkeypatch, "stderr", outcome, failure
        )
        assert failed == (code, out, "")


def _lifted_digit_limit(fn):
    """Run fn with CPython's int<->str digit limit lifted, then restore it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn()
    finally:
        sys.set_int_max_str_digits(old)


def _seven_digit_primes(count):
    primes = []
    n = 1000003
    while len(primes) < count:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            primes.append(n)
        n += 2
    return primes


PRIMES_800 = _seven_digit_primes(800)
LCM_800_CHECK = ["check", "--divisors", ",".join(map(str, PRIMES_800)),
                 "--format", "json"]
HUGE_HERD = "17" + "0" * 4400
HUGE_HERD_SOLVE = ["solve", "--divisors", "2,3,9", "--herd", HUGE_HERD,
                   "--format", "json"]


def assert_lcm_800_payload(stdout):
    m = json.loads(stdout)["m"]
    assert len(m) > 4300
    assert m == _lifted_digit_limit(lambda: str(math.lcm(*PRIMES_800)))


def assert_huge_herd_payload(stdout):
    payload = json.loads(stdout)
    assert payload["herd"] == HUGE_HERD
    assert payload["loan"] == "1" + "0" * 4400


@pytest.mark.parametrize(
    "argv, check",
    [(LCM_800_CHECK, assert_lcm_800_payload),
     (HUGE_HERD_SOLVE, assert_huge_herd_payload)],
    ids=["lcm-800-primes", "herd-4402-digits"],
)
def test_run_in_process_exits_as_the_entry_point_past_the_digit_limit(
    capsys, argv, check
):
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(capsys, argv)
    assert (code, err) == (0, "")
    check(out)
    # the lift lasts for the call only; the caller's limit comes back
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "argv, expected",
    [(["check", "--help"], 0),
     (["solve", "--divisors", "2,3,9", "--herd", "16"], 1),
     (["check", "--divisors", "2,3,9", "--format", "xml"], 2),
     (["check", "--divisors", "2,2"], 2),
     (["check", "--divisors", "2,3,9"], 3)],
    ids=["help", "infeasible", "usage-error", "invalid-spec", "internal-error"],
)
def test_run_restores_the_callers_digit_limit_on_every_exit(
    capsys, monkeypatch, argv, expected
):
    if expected == cli.EXIT_INTERNAL:
        monkeypatch.setitem(cli._DISPATCH, "check", _boom)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)  # not the default, so a reset would show
    try:
        code, _, _ = invoke(capsys, argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(old)
    assert code == expected


def test_the_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ["generate", "--heirs", "2", "--max-divisor", "6"]
    code, out, _ = invoke(capsys, [*argv, "--duplicates"])
    assert code == 0 and "duplicates: yes\n" in out
    code, out, _ = invoke(capsys, argv)
    assert code == 0 and "duplicates: no\n" in out


# -S skips site, whose .pth files may preload modules the CLI never uses.
LAZY_IMPORTS = """
import sys
sys.path.insert(0, sys.argv[1])
from herdsplit.cli import run
code = run(sys.argv[2:])
print(*sorted({"json", "typing"} & sys.modules.keys()), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, code, stdout, loaded",
    [
        (["solve", "--divisors", "2,3,9", "--herd", "16"], 1, SOLVE_16_TEXT, ""),
        (["check", "--divisors", "2,3,9", "--format", "json"], 0,
         (GOLDEN / "check_json.txt").read_text(), "json"),
    ],
    ids=["text-solve", "json-check"],
)
def test_a_command_loads_only_the_modules_it_uses(argv, code, stdout, loaded):
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LAZY_IMPORTS, src, *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, stdout)
    assert proc.stderr == loaded + "\n"
