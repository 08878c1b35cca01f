"""The CLI's process contract in one table: each case's argv, how its stdout
and stderr are wired, and the exit code and texts it must give.

Every case runs through `python -m herdsplit`, and also through the
`herdsplit` console script when the interpreter's scripts directory holds
one, as `pip install -e .` puts there. A case with a stream that is not a
plain pipe runs buffered and unbuffered: a buffered stream fails at its
flush, an unbuffered one at its write. A case with a memory cap runs with
its address space capped (`RLIMIT_AS`, set in the child alone), on Linux
only.
"""

import contextlib
import os
import subprocess
import sys
import sysconfig
from pathlib import Path
from typing import NamedTuple

import pytest

from herdsplit.cli import _execute
from references import (
    HUGE_HERD_SOLVE,
    LCM_800_CHECK,
    assert_huge_herd_payload,
    assert_lcm_800_payload,
)
from test_cli import FULL_STDOUT_ERROR, GOLDEN, NO_STDOUT_ERROR, SOLVE_16_TEXT, SOLVE_17

LAUNCHERS = {"module": [sys.executable, "-m", "herdsplit"]}
SCRIPT = Path(sysconfig.get_path("scripts"), "herdsplit")
if SCRIPT.exists():
    LAUNCHERS["script"] = [str(SCRIPT)]

# How a stream is wired: "pipe" is read whole, "full" is /dev/full,
# "closed" is closed by /bin/sh, "gone" is a pipe whose reader left before
# the start, "head" is a pipe whose reader leaves after 10 characters.
NEEDS = {"full": "/dev/full", "closed": "/bin/sh"}


class Case(NamedTuple):
    argv: list[str]
    code: int
    err: object = ""  # what a piped stderr reads, or a check of it
    out: object = ""  # what a piped stdout reads, or a check of it
    stdout: str = "pipe"
    stderr: str = "pipe"
    cap_mb: int = 0  # the child's address-space cap in MiB; 0 for none


def _prints_count(n):
    def check(out):
        assert f"count: {n}" in out.splitlines()

    return check


SOLVE_17_JSON = (GOLDEN / "solve_feasible_json.txt").read_text()
SOLVE_0 = ["solve", "--divisors", "2,3,9", "--herd", "0"]
HERD_0_ERROR = "error: herd must be >= 1, got 0\n"
DIVISOR_0_ERROR = "error: divisor 0 is not a positive integer\n"
BUDGET_ERROR = "error: enumeration exceeded the node budget of 10000000\n"
USAGE = ["solve", "--divisors", "2,3,9"]
SOLVE_17_AS_JSON = [*SOLVE_17, "--format", "json"]
GENERATE = ["generate", "--heirs", "3", "--max-divisor", "9", "--max-loan", "1"]
HUGE_GENERATE = ["generate", "--max-divisor", str(10**12), "--heirs"]
MINUS_5000_ONES = "-" + "1" * 5000
HERDS = ["herds", "--divisors", "2,3,9", "--limit"]
MEMORY_ERROR = "error: internal: MemoryError: \n"

CASES = {
    "solve-json": Case(SOLVE_17_AS_JSON, 0, out=SOLVE_17_JSON),
    "infeasible": Case(
        ["solve", "--divisors", "2,3,9", "--herd", "16"], 1, out=SOLVE_16_TEXT
    ),
    "generate": Case(GENERATE, 0, out=(GOLDEN / "generate.txt").read_text()),
    # with duplicates (gap 0) the search must still advance and end
    "generate-duplicates": Case([*GENERATE, "--duplicates"], 0, out=_prints_count(11)),
    # distinct divisors that cannot fit end the search at once
    "generate-no-room": Case(
        ["generate", "--heirs", "1200", "--max-divisor", "1201"], 0, out=_prints_count(0)
    ),
    # the loan cap, not the divisor cap, ends a borrow-one search
    "generate-loan-cap": Case(
        [*HUGE_GENERATE, "5", "--max-loan", "1"], 0, out=_prints_count(1043)
    ),
    # the first slot alone would place 10**12 - 1 divisors: no output at all
    "generate-over-budget": Case([*HUGE_GENERATE, "1"], 2, BUDGET_ERROR),
    "herd-0": Case(SOLVE_0, 2, HERD_0_ERROR),
    "divisor-0": Case(["check", "--divisors", "2,0,5"], 2, DIVISOR_0_ERROR),
    # past CPython's 4300-digit limit, read from argv and printed back
    "lcm-800-primes": Case(LCM_800_CHECK, 0, out=assert_lcm_800_payload),
    "herd-4402-digits": Case(HUGE_HERD_SOLVE, 0, out=assert_huge_herd_payload),
    "herd-minus-5000-ones": Case(
        ["solve", "--divisors", "2,3,9", "--herd", MINUS_5000_ONES],
        2,
        f"error: herd must be >= 1, got {MINUS_5000_ONES}\n",
    ),
    # a stdout that cannot take its text exits 3 with one line
    "full-stdout-solve": Case(SOLVE_17, 3, FULL_STDOUT_ERROR, stdout="full"),
    "full-stdout-help": Case(["--help"], 3, FULL_STDOUT_ERROR, stdout="full"),
    # a closed stdout fails only a command that has text for it
    "closed-stdout-help": Case(["--help"], 3, NO_STDOUT_ERROR, stdout="closed"),
    "closed-stdout-solve": Case(SOLVE_17, 3, NO_STDOUT_ERROR, stdout="closed"),
    "closed-stdout-invalid": Case(SOLVE_0, 2, HERD_0_ERROR, stdout="closed"),
    # a diagnostic that stderr cannot take keeps the code
    "full-stderr-invalid": Case(SOLVE_0, 2, stderr="full"),
    "full-stderr-usage": Case(USAGE, 2, stderr="full"),
    "full-stderr-internal": Case(SOLVE_17, 3, stdout="full", stderr="full"),
    "closed-stderr-help": Case(
        ["--help"], 0, out=(GOLDEN / "help.txt").read_text(), stderr="closed"
    ),
    "closed-stderr-invalid": Case(SOLVE_0, 2, stderr="closed"),
    "closed-stderr-usage": Case(USAGE, 2, stderr="closed"),
    "closed-stderr-ok": Case(SOLVE_17_AS_JSON, 0, out=SOLVE_17_JSON, stderr="closed"),
    # a reader that is gone leaves the command's code, quietly
    "gone-herds": Case([*HERDS, "100"], 0, stdout="gone"),
    "gone-help": Case(["--help"], 0, stdout="gone"),
    # 1e6 / 17 rows are far more than a pipe buffer holds, so the child is
    # still writing when the reader goes away
    "head-text": Case([*HERDS, "1000000"], 0, out="divisors: ", stdout="head"),
    "head-json": Case(
        [*HERDS, "1000000", "--format", "json"], 0, out='{\n  "divis', stdout="head"
    ),
    # running out of memory exits 3, never 1 and never hangs: this search
    # passes its node budget, and its 454,870 records fill 128 MiB
    "memory-generate": Case(
        ["generate", "--heirs", "4", "--max-divisor", "60"], 3, MEMORY_ERROR,
        cap_mb=128,
    ),
    # a search past its node budget exits 2 before it builds one record, so
    # it never fills the memory its records would take
    "budget-generate": Case(
        ["generate", "--heirs", "3", "--max-divisor", "400"], 2, BUDGET_ERROR,
        cap_mb=128,
    ),
    "memory-herds": Case([*HERDS, str(10**30)], 3, MEMORY_ERROR, cap_mb=128),
}


def _wire(stack, wiring):
    """The Popen argument for one stream's wiring; `stack` closes it."""
    if wiring in ("pipe", "head"):
        return subprocess.PIPE
    if wiring == "full":
        return stack.enter_context(open("/dev/full", "w"))
    if wiring == "closed":
        return subprocess.DEVNULL  # /bin/sh closes the descriptor
    read_end, write_end = os.pipe()  # "gone"
    os.close(read_end)
    stack.callback(os.close, write_end)
    return write_end


def _capped(mb):
    """A preexec_fn that caps the child's address space at `mb` MiB."""
    import resource  # POSIX only, and a capped case runs on Linux alone

    cap = mb * 2**20
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def launch(launcher, case, unbuffered):
    """Run a case; return its exit code and what its stdout and stderr read.

    PYTHONUNBUFFERED is set or cleared here, never inherited.
    """
    env = {**os.environ, "COLUMNS": "80"}  # argparse wraps help to COLUMNS
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    wirings = {1: case.stdout, 2: case.stderr}
    closes = " ".join(f"{fd}>&-" for fd, w in wirings.items() if w == "closed")
    cmd = [*LAUNCHERS[launcher], *case.argv]
    if closes:
        cmd = ["/bin/sh", "-c", f'exec "$@" {closes}', "sh", *cmd]
    out = ""
    with contextlib.ExitStack() as stack:
        stdout, stderr = (_wire(stack, wiring) for wiring in wirings.values())
        proc = stack.enter_context(
            subprocess.Popen(
                cmd, stdout=stdout, stderr=stderr, env=env, text=True,
                preexec_fn=_capped(case.cap_mb) if case.cap_mb else None,
            )
        )
        stack.callback(proc.kill)  # ends a process past its timeout
        if case.stdout == "head":
            out = proc.stdout.read(10)
            proc.stdout.close()
        rest, err = proc.communicate(timeout=60)
    return proc.returncode, out + (rest or ""), err or ""


def _params():
    for launcher in LAUNCHERS:
        for name, case in CASES.items():
            wirings = {case.stdout, case.stderr}
            marks = [
                pytest.mark.skipif(not os.path.exists(path), reason=f"needs {path}")
                for path in map(NEEDS.get, wirings & NEEDS.keys())
            ]
            if case.cap_mb:
                marks.append(pytest.mark.skipif(
                    sys.platform != "linux", reason="needs Linux's RLIMIT_AS"
                ))
            modes = ["buffered"] if wirings == {"pipe"} else ["buffered", "unbuffered"]
            for mode in modes:
                yield pytest.param(
                    launcher, case, mode == "unbuffered",
                    id=f"{launcher}-{mode}-{name}", marks=marks,
                )


def _check(expected, got):
    if callable(expected):
        expected(got)
    else:
        assert got == expected


@pytest.mark.parametrize("launcher, case, unbuffered", _params())
def test_the_process_keeps_the_contract(launcher, case, unbuffered):
    code, out, err = launch(launcher, case, unbuffered)
    assert code == case.code, err
    _check(case.out, out)
    _check(case.err, err)


# main ends in a normal interpreter exit, so whatever runs at exit still runs
SOLVE_17_TEXT = _execute(SOLVE_17)[1]
ATEXIT_BEFORE_MAIN = """
import atexit, runpy
atexit.register(print, "atexit callback ran")
runpy.run_module("herdsplit", run_name="__main__")
"""


@pytest.mark.parametrize(
    "cmd, tail",
    [
        ([sys.executable, "-m", "cProfile", "-m", "herdsplit", *SOLVE_17],
         "function calls"),
        ([sys.executable, "-c", ATEXIT_BEFORE_MAIN, *SOLVE_17],
         "atexit callback ran\n"),
    ],
    ids=["cprofile", "atexit"],
)
def test_the_exit_runs_what_was_registered_for_it(cmd, tail):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(SOLVE_17_TEXT)
    assert tail in proc.stdout[len(SOLVE_17_TEXT):]
