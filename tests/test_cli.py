"""Command-line behavior in process: golden bytes, internal errors and
failed streams, the int<->str digit limit, and the modules a command loads."""

import errno
import io
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from herdsplit import cli
from herdsplit.cli import run

GOLDEN = Path(__file__).parent / "golden"

SOLVE_16_TEXT = (GOLDEN / "solve_infeasible.txt").read_text()


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
# site-packages goes back on the path by hand, so an installed numpy stays
# importable and would show if a command loaded it.
LAZY_IMPORTS = """
import sys
sys.path.insert(0, sys.argv[1])
sys.path.append(sys.argv[2])
from herdsplit.cli import run
code = run(sys.argv[3:])
watched = {"dataclasses", "fractions", "inspect", "json", "numpy", "typing"}
print(*sorted(watched & sys.modules.keys()), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, code, stdout, loaded",
    [
        (["solve", "--divisors", "2,3,9", "--herd", "16"], 1, SOLVE_16_TEXT, ""),
        (["check", "--divisors", "2,3,9", "--format", "json"], 0,
         (GOLDEN / "check_json.txt").read_text(), "fractions json"),
        (["breakdown", "--divisors", "2,3,9", "--herd", "17"], 0,
         (GOLDEN / "breakdown_feasible.txt").read_text(), "fractions"),
        (["generate", "--heirs", "3", "--max-divisor", "9", "--max-loan", "1"], 0,
         (GOLDEN / "generate.txt").read_text(), ""),
        (["herds", "--divisors", "2,3,9", "--limit", "60", "--format", "json"], 0,
         (GOLDEN / "herds_rows_json.txt").read_text(), "json"),
    ],
    ids=["text-solve", "json-check", "text-breakdown", "text-generate", "json-herds"],
)
def test_a_command_loads_only_the_modules_it_uses(argv, code, stdout, loaded):
    src = str(Path(__file__).parent.parent / "src")
    site_packages = sysconfig.get_path("purelib")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LAZY_IMPORTS, src, site_packages, *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, stdout)
    assert proc.stderr == loaded + "\n"
