"""Correctness checks the benchmark applies to every timed operation.

Expected values come from the benchmark's own integer arithmetic
(m = lcm, r = sum(m // s), loan = (herd / r) * (m - r)), not from the
solver, so a wrong closed form and a wrong scan cannot agree by accident.
"""

import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from time import perf_counter

from herdsplit import (
    Infeasible,
    LoanSolution,
    NotFoundWithinBound,
    fractional_breakdown,
    oracle_solve,
    solve,
)
from herdsplit import _kernels

# A CLI process still running after this long is killed and counted as failed.
PROCESS_TIMEOUT_S = 60


def closed_form(divisors):
    """(m, r) for a divisor tuple; the spec is valid iff r < m."""
    m = lcm(*divisors)
    return m, sum(m // s for s in divisors)


def backend_of(herd, bound, heirs):
    """Scan backend `oracle_solve` will use for these inputs."""
    pick = getattr(_kernels, "_effective_backend", None)
    return pick(herd, bound, heirs) if pick else "unknown"


class Outcome:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
        return ok


class ScanStats:
    """Per-backend oracle scans: calls, values scanned, loans found, seconds.

    Values scanned are x + 1 when the scan finds loan x and bound + 1 when it
    finds none. Seconds are only known in a traced run.
    """

    def __init__(self):
        self.calls = {}
        self.values = {}
        self.seconds = {}
        self.hits = 0

    def record(self, backend, bound, result, seconds):
        if isinstance(result, LoanSolution):
            self.hits += 1
            values = result.loan + 1
        else:
            values = bound + 1
        self.calls[backend] = self.calls.get(backend, 0) + 1
        self.values[backend] = self.values.get(backend, 0) + values
        self.seconds[backend] = self.seconds.get(backend, 0.0) + seconds


def check_pair(tracer, scans, spec, m, r, herd, bound):
    """Solve, break down and brute-force one (spec, herd) pair.

    Returns (seconds spent in herdsplit, failure reason or None). The oracle
    must equal `solve`, except that a feasible loan beyond the bound must
    come back as NotFoundWithinBound.
    """
    t0 = perf_counter()
    with tracer.span("solver.solve"):
        formula = solve(spec, herd)
    with tracer.span("solver.fractional_breakdown"):
        bd = fractional_breakdown(spec, herd)
    with tracer.span("kernels.oracle_solve") as sp:
        scanned = oracle_solve(spec, herd, bound)
    elapsed = perf_counter() - t0
    divisors = spec.divisors
    scans.record(backend_of(herd, bound, len(divisors)), bound, scanned, sp.duration)

    if bd.leftover != Fraction(herd * (m - r), m) or len(bd.raw_shares) != len(divisors):
        return elapsed, "breakdown leftover"
    if herd % r:
        below = herd // r * r
        if not (
            isinstance(formula, Infeasible)
            and formula.r == r
            and formula.nearest_above == below + r
            and formula.nearest_below == (below or None)
        ):
            return elapsed, "solve on an infeasible herd"
        if bd.topups:
            return elapsed, "topups on an infeasible herd"
        expected = NotFoundWithinBound(herd=herd, bound=bound)
    else:
        a = herd // r
        aug = a * m
        if not (
            isinstance(formula, LoanSolution)
            and formula.herd == herd
            and formula.loan == a * (m - r)
            and formula.augmented == aug
            and formula.multiplier == a
            and formula.shares == tuple(aug // s for s in divisors)
            and sum(formula.shares) == herd
        ):
            return elapsed, "solve on a feasible herd"
        if sum(bd.topups, Fraction(0)) != bd.leftover:
            return elapsed, "topups do not absorb the leftover"
        if formula.loan <= bound:
            expected = formula
        else:
            expected = NotFoundWithinBound(herd=herd, bound=bound)
    if scanned != expected:
        return elapsed, f"oracle {scanned!r} != {expected!r}"
    return elapsed, None


@dataclass
class ProcessResult:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float  # this child's peak RSS
    cpu_s: float  # this child's user + system time


def run_process(argv, env, cwd):
    """Run one process to completion; rusage comes from wait4 on its pid."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd
    )
    killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    killer.start()
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ProcessResult(
        code=proc.returncode,
        stdout=out,
        stderr=err[0],
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )


def cli_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    return env


def herdsplit_argv(args):
    return [sys.executable, "-m", "herdsplit", *args]


def reserialises(text):
    """True when parsing and re-rendering the JSON gives the same bytes."""
    return json.dumps(json.loads(text), indent=2) + "\n" == text


def _frac(q):
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _join(values):
    return ", ".join(str(v) for v in values)


def cli_answer_reason(command, fmt, divisors, herd, result):
    """None when a short CLI call printed the right answer, else a reason.

    Checks the exit code, an empty stderr, byte-stable JSON, and the facts
    the call reports: r and m always; loan and shares, or the nearest
    feasible herds; the leftover and top-ups for a breakdown.
    """
    m, r = closed_form(divisors)
    feasible = herd is not None and herd % r == 0
    want_code = 1 if herd is not None and not feasible and command != "breakdown" else 0
    if result.code != want_code:
        return f"{command}: exit {result.code}, expected {want_code}"
    if result.stderr:
        return f"{command}: stderr {result.stderr[:80]!r}"
    text = result.stdout.decode()
    facts = {"r": str(r), "m": str(m), "divisors": [str(s) for s in divisors]}
    lines = [f"r: {r}", f"m: {m}", f"divisors: {_join(divisors)}"]
    if command == "check":
        facts["reduced"] = _frac(Fraction(r, m))
        lines.append(f"share sum: {Fraction(r, m)}")
    elif feasible:
        a = herd // r
        loan = a * (m - r)
        shares = [a * m // s for s in divisors]
        facts.update(herd=str(herd), feasible=True)
        lines += [f"herd: {herd}", "feasible: yes"]
        if command == "breakdown":
            facts["leftover"] = _frac(Fraction(herd * (m - r), m))
            facts["topups"] = [_frac(Fraction(loan, s)) for s in divisors]
            lines.append(f"topups: {_join(Fraction(loan, s) for s in divisors)}")
        else:
            facts.update(loan=str(loan), shares=[str(x) for x in shares])
            lines += [f"loan: {loan}", f"shares: {_join(shares)}"]
            if command == "explain":
                lines.append(f"Borrow {loan}: the pool grows from {herd} to {a * m}.")
    else:
        below = herd // r * r
        facts.update(herd=str(herd), feasible=False)
        lines += [f"herd: {herd}", "feasible: no"]
        if command == "breakdown":
            facts["leftover"] = _frac(Fraction(herd * (m - r), m))
            facts["topups"] = []
            lines.append("topups: none")
        else:
            facts["nearest_above"] = str(below + r)
            lines.append(f"nearest feasible above: {below + r}")
    if fmt == "json":
        if not reserialises(text):
            return f"{command}: JSON does not re-serialise to the same bytes"
        payload = json.loads(text)
        wrong = [k for k, v in facts.items() if payload.get(k) != v]
        if command == "explain" and feasible:
            steps = payload.get("steps") or [""]
            if len(steps) != len(divisors) + 3 or steps[0] != lines[-1]:
                wrong.append("steps")
        if wrong:
            return f"{command} json: wrong {wrong}"
    else:
        printed = set(text.splitlines())
        missing = [line for line in lines if line not in printed]
        if missing:
            return f"{command} text: missing {missing}"
    return None


def import_probe(env, cwd):
    """(herdsplit.cli import ms, numpy import ms, ProcessResult) from a fresh
    `python -X importtime` process. numpy reads 0 when it is not imported."""
    res = run_process(
        [sys.executable, "-X", "importtime", "-c", "import herdsplit.cli"], env, cwd
    )
    if res.code:
        raise RuntimeError(f"import probe exited {res.code}: {res.stderr[-200:]!r}")
    ours = numpy = 0
    for line in res.stderr.decode().splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative_us = int(parts[1])
        name = parts[2].rstrip()
        top_level = not name.startswith("  ")
        name = name.strip()
        if top_level and (name == "herdsplit" or name.startswith("herdsplit.")):
            ours += cumulative_us
        elif name == "numpy":
            numpy = max(numpy, cumulative_us)
    return ours / 1e3, numpy / 1e3, res
