"""The four benchmark workloads.

Each workload is built from its seed (inputs and warm-up happen in the
constructor, which is the timed set-up), then runs one operation at a time
in a closed loop. `op(tracer)` returns the seconds spent in herdsplit and a
failure reason or None; `finish(tracer, outcome)` runs the checks that need
a whole run's output.
"""

import contextlib
import io
import json
import os
import random
import resource
from itertools import combinations, combinations_with_replacement
from statistics import median
from time import perf_counter

from herdsplit import SearchBounds, cli, enumerate_specs, oracle_solve, solver

from checks import (
    ScanStats,
    backend_of,
    check_pair,
    cli_answer_reason,
    cli_env,
    closed_form,
    herdsplit_argv,
    reserialises,
    run_process,
)
from spans import NullTracer

INT64_GUARD = 2**62  # herdsplit scans in Python once (herd + bound) * k reaches it
FRESH_BOUND = 200_000  # oracle-fresh scan bound off the guarded path
FRESH_BATCH = 512  # oracle-fresh inputs are generated this many at a time
GOLDEN = (5**0.5 - 1) / 2


def _spec_rng(rng, heirs, top, min_r=1, max_m=None):
    """Random divisor tuple (input order kept) with sum 1/s < 1."""
    while True:
        divisors = tuple(rng.randint(2, top) for _ in range(rng.randint(*heirs)))
        m, r = closed_form(divisors)
        if r < m and r >= min_r and (max_m is None or m <= max_m):
            return divisors, m, r


def _minimal_loan(divisors):
    m, r = closed_form(divisors)
    return m - r


def _infeasible_herd(rng, a, r):
    return a * r + rng.randint(1, r - 1)


class _Workload:
    """Shared bookkeeping: scan stats and, for CLI workloads, child processes."""

    op_name = "op"

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.env = cli_env(root / "src")  # for CLI processes and import probes
        self.start()

    def start(self):
        """Rewind the input stream and clear the per-run statistics."""
        self.scans = ScanStats()
        self.procs = []  # (label, ProcessResult) for every timed CLI process

    def validate(self, tracer, divisors):
        with tracer.span("solver.validate_spec"):
            return solver.validate_spec(divisors)

    def finish(self, tracer, outcome):
        pass

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def report(self):
        """Extra end-to-end figures as (name, value, unit, note) rows."""
        return []


class OracleGrid(_Workload):
    """The criterion-4 desk grid: k = 1..4, s in 2..12, sum 1/s < 1.

    Specs come in a seeded order; each gets herds 1..300 with bound 10 * m,
    so every spec is reused 300 times and every scan is short.
    """

    op_name = "check"
    HERDS = 300

    def __init__(self, root, seed):
        self.grid = []
        for k in range(1, 5):
            for divisors in combinations_with_replacement(range(2, 13), k):
                m, r = closed_form(divisors)
                if r < m:
                    self.grid.append((divisors, m, r))
        if len(self.grid) != 1161:
            raise RuntimeError(f"desk grid has {len(self.grid)} specs, not 1161")
        super().__init__(root, seed)
        warm = random.Random(seed ^ 0x5EED).choice(self.grid)
        spec = solver.validate_spec(warm[0])
        for herd in range(1, 31):
            check_pair(_NULL, ScanStats(), spec, warm[1], warm[2], herd, 10 * warm[1])

    def start(self):
        super().start()
        # Seeded golden-ratio order over the specs sorted by m: every prefix
        # spreads evenly over cheap and costly specs, so how far a run gets
        # does not change its mix.
        u = random.Random(self.seed).random()
        by_m = sorted(self.grid, key=lambda spec: (spec[1], spec[0]))
        self.order = [
            spec for _, spec in sorted(
                ((p * GOLDEN + u) % 1.0, spec) for p, spec in enumerate(by_m)
            )
        ]
        self.next_spec = 0
        self.herd = self.HERDS

    def op(self, tracer):
        spent = 0.0
        if self.herd == self.HERDS:
            if self.next_spec == len(self.order):
                self.next_spec = 0
            divisors, self.m, self.r = self.order[self.next_spec]
            self.next_spec += 1
            t0 = perf_counter()
            self.spec = self.validate(tracer, divisors)
            spent = perf_counter() - t0
            self.herd = 0
        self.herd += 1
        dt, reason = check_pair(
            tracer, self.scans, self.spec, self.m, self.r, self.herd, 10 * self.m
        )
        return spent + dt, reason


class OracleFresh(_Workload):
    """A new random spec per check (k = 1..5, s in 2..60).

    Half the herds are feasible and half are not; off the guarded path the
    bound is 200,000, so scans run up to 2 * 10^5 values. About 5% of herds
    are so large that (herd + bound) * k >= 2^62, which routes them to the
    Python scan; those use bound 10 * m with m <= 20,000.
    """

    op_name = "check"
    AGREEMENT_SAMPLES = 12
    AGREEMENT_EVERY = 97

    def __init__(self, root, seed):
        super().__init__(root, seed)
        warm = random.Random(seed ^ 0x5EED)
        for item in self._batch(warm, 8):
            if item[3] + item[4] < INT64_GUARD // 8:
                spec = solver.validate_spec(item[0])
                check_pair(_NULL, ScanStats(), spec, *item[1:])

    def start(self):
        super().start()
        self.rng = random.Random(self.seed)
        self.queue = self._batch(self.rng, FRESH_BATCH)
        self.done = 0
        self.agreement = []  # (spec, herd, bound) sampled off the guarded path

    @staticmethod
    def _batch(rng, n):
        out = []
        for _ in range(n):
            kind = rng.random()
            if kind < 0.05:
                divisors, m, r = _spec_rng(rng, (1, 5), 60, min_r=2, max_m=20_000)
                k = len(divisors)
                a = -(-INT64_GUARD // (k * r)) + rng.randint(0, 1000)
                herd = a * r if kind < 0.025 else _infeasible_herd(rng, a, r)
                out.append((divisors, m, r, herd, 10 * m))
                continue
            divisors, m, r = _spec_rng(rng, (1, 5), 60, min_r=2)
            a = max(1, rng.randint(1, FRESH_BOUND) // (m - r))
            herd = a * r if kind < 0.525 else _infeasible_herd(rng, a, r)
            out.append((divisors, m, r, herd, FRESH_BOUND))
        out.reverse()  # consumed with pop()
        return out

    def op(self, tracer):
        if not self.queue:
            self.queue = self._batch(self.rng, FRESH_BATCH)
        divisors, m, r, herd, bound = self.queue.pop()
        t0 = perf_counter()
        spec = self.validate(tracer, divisors)
        spent = perf_counter() - t0
        dt, reason = check_pair(tracer, self.scans, spec, m, r, herd, bound)
        self.done += 1
        if (
            self.done % self.AGREEMENT_EVERY == 0
            and len(self.agreement) < self.AGREEMENT_SAMPLES
            and backend_of(herd, bound, len(divisors)) != "python"
        ):
            self.agreement.append((spec, herd, bound))
        return spent + dt, reason

    def finish(self, tracer, outcome):
        """The default scan backend must agree with the forced Python scan."""
        for spec, herd, bound in self.agreement:
            with tracer.op("bench.agreement"):
                default = oracle_solve(spec, herd, bound)
                os.environ["HERDSPLIT_BACKEND"] = "python"
                try:
                    forced = oracle_solve(spec, herd, bound)
                finally:
                    del os.environ["HERDSPLIT_BACKEND"]
            outcome.record(
                forced == default,
                f"python scan {forced!r} != default scan {default!r}",
            )


class _CliWorkload(_Workload):
    def __init__(self, root, seed):
        super().__init__(root, seed)
        warm = self.run(["check", "--divisors", "2,3,9"], _NULL)
        if warm.code != 0:
            raise RuntimeError(f"warm-up CLI call exited {warm.code}: {warm.stderr!r}")

    def run(self, args, tracer, label="cli"):
        with tracer.span("cli.process"):
            res = run_process(herdsplit_argv(args), self.env, self.root)
        self.procs.append((label, res))
        return res

    def peak_rss_mb(self):
        return max(res.rss_mb for _, res in self.procs)

    def _proc_rows(self, label, name):
        walls = [res.wall_s for lab, res in self.procs if lab == label]
        rss = max(res.rss_mb for lab, res in self.procs if lab == label)
        return [
            (f"{name}_s", median(walls), "s", f"median of n={len(walls)}"),
            (f"{name}_rss_mb", rss, "MB", f"max of n={len(walls)}"),
        ]


class CliShort(_CliWorkload):
    """A fixed interleaved mix of small CLI calls, each a fresh process.

    The pattern is fixed; the seed draws each call's divisors (k = 1..4,
    s in 2..20) and herd. One call per cycle is an infeasible `solve`, which
    must exit 1. Every answer with a herd is also cross-checked in-process
    against the brute-force oracle: a feasible herd's scan is bounded by its
    loan, which the scan must reach; an infeasible herd's by 10 * m.
    """

    op_name = "call"
    # (command, format, herd kind): F feasible, I infeasible, None no herd
    PATTERN = (
        ("solve", "text", "F"),
        ("check", "json", None),
        ("breakdown", "text", "F"),
        ("explain", "json", "F"),
        ("solve", "json", "F"),
        ("breakdown", "json", "I"),
        ("explain", "text", "F"),
        ("check", "text", None),
        ("solve", "text", "I"),
        ("breakdown", "json", "F"),
        ("explain", "text", "F"),
        ("solve", "json", "F"),
    )

    def start(self):
        super().start()
        self.rng = random.Random(self.seed)
        self.calls = 0

    def op(self, tracer):
        command, fmt, kind = self.PATTERN[self.calls % len(self.PATTERN)]
        self.calls += 1
        divisors, m, r = _spec_rng(self.rng, (1, 4), 20, min_r=2)
        a = self.rng.randint(1, 50)
        herd = None if kind is None else a * r if kind == "F" else _infeasible_herd(self.rng, a, r)
        args = [command, "--divisors", ",".join(map(str, divisors)), "--format", fmt]
        if herd is not None:
            args += ["--herd", str(herd)]
        res = self.run(args, tracer, label="call")
        reason = cli_answer_reason(command, fmt, divisors, herd, res)
        if reason is None and herd is not None:
            spec = self.validate(tracer, divisors)
            bound = herd // r * (m - r) if kind == "F" else 10 * m
            _, reason = check_pair(tracer, self.scans, spec, m, r, herd, bound)
        return res.wall_s, reason

    def report(self):
        walls = sorted(res.wall_s for _, res in self.procs)
        pct, tail = tail_of(walls)
        return [
            ("call_p50_ms", median(walls) * 1e3, "ms", f"n={len(walls)}"),
            ("call_tail_ms", tail * 1e3, "ms", f"p{pct:g} of n={len(walls)}"),
        ]


class CliBulk(_CliWorkload):
    """The CLI used two opposite ways, each round a fresh process of each:
    a large `herds` listing in JSON (rendering-bound) and a 5-heir
    `generate` search (generator-DFS-bound).

    Rounds after the first must repeat the first round's bytes; the first
    round is checked in full in `finish`. The seed picks which listed herds
    the oracle re-derives.
    """

    op_name = "round"
    DIVISORS = (2, 3, 9)
    LIMIT = 5_000_000
    HERDS = ["herds", "--divisors", "2,3,9", "--limit", str(LIMIT), "--format", "json"]
    BOUNDS = SearchBounds(heirs=5, max_divisor=40, max_loan=1)
    GENERATE = ["generate", "--heirs", "5", "--max-divisor", "40", "--max-loan", "1"]
    SPOT_CHECKS = 20

    def __init__(self, root, seed):
        self.first = None  # every round must repeat the first one's bytes
        self.records = 0
        self.enumerate_s = 0.0
        super().__init__(root, seed)

    def op(self, tracer):
        herds = self.run(self.HERDS, tracer, label="herds")
        gen = self.run(self.GENERATE, tracer, label="generate")
        outputs = (herds.code, herds.stdout, gen.code, gen.stdout)
        if self.first is None:
            self.first = outputs
        reason = None
        if herds.code or gen.code or herds.stderr or gen.stderr:
            reason = f"exit codes {herds.code}, {gen.code}: {herds.stderr[:80]!r}{gen.stderr[:80]!r}"
        elif outputs != self.first:
            reason = "output differs from the first round"
        return herds.wall_s + gen.wall_s, reason

    def finish(self, tracer, outcome):
        if self.first is None:
            outcome.record(False, "no round completed")
            return
        _, herds_out, _, gen_out = self.first
        with tracer.op("bench.check_herds"):
            outcome.record(*self._check_herds(tracer, herds_out.decode()))
        with tracer.op("bench.check_generate"):
            self._check_generate(tracer, gen_out.decode(), outcome)
        if tracer.enabled:
            with tracer.op("bench.replay_herds"):
                outcome.record(*self._replay_herds(tracer, herds_out.decode()))

    def _check_herds(self, tracer, text):
        m, r = closed_form(self.DIVISORS)
        if not reserialises(text):
            return False, "herds JSON does not re-serialise to the same bytes"
        payload = json.loads(text)
        rows = payload["herds"]
        if len(rows) != self.LIMIT // r:
            return False, f"herds printed {len(rows)} rows, expected {self.LIMIT // r}"
        for a, row in enumerate(rows, start=1):
            if row != {"herd": str(a * r), "loan": str(a * (m - r))}:
                return False, f"herds row {a} is {row}"
        spec = self.validate(tracer, self.DIVISORS)
        for a in random.Random(self.seed).sample(range(1, len(rows) + 1), self.SPOT_CHECKS):
            _, reason = check_pair(tracer, self.scans, spec, m, r, a * r, a * (m - r))
            if reason:
                return False, f"herds row {a}: {reason}"
        return True, None

    def _check_generate(self, tracer, text, outcome):
        with tracer.span("generator.enumerate_specs") as sp:
            records = enumerate_specs(self.BOUNDS)
        self.enumerate_s = sp.duration
        self.records = len(records)
        lines = text.splitlines()
        header = "puzzles (divisors r m minimal_herd minimal_loan):"
        printed = lines[lines.index(header) + 1 :] if header in lines else []
        expected = [
            f"{','.join(map(str, rec.divisors))} {rec.r} {rec.m} "
            f"{rec.minimal_herd} {rec.minimal_loan}"
            for rec in records
        ]
        outcome.record(
            printed == expected and f"count: {len(records)}" in lines,
            "generate output differs from in-process enumerate_specs",
        )
        # Independent brute force over every increasing 5-tuple in 2..40;
        # m - r >= 1 always, so the loan bound of 1 means m - r == 1.
        brute = [
            d for d in combinations(range(2, self.BOUNDS.max_divisor + 1), self.BOUNDS.heirs)
            if _minimal_loan(d) == 1
        ]
        outcome.record(
            brute == [rec.divisors for rec in records],
            "enumerate_specs differs from a brute-force scan of the bounds",
        )
        for rec in records:
            m, r = closed_form(rec.divisors)
            ok = (rec.m, rec.r, rec.minimal_herd, rec.minimal_loan) == (m, r, r, m - r)
            reason = f"generate record {rec}"
            if ok:
                spec = self.validate(tracer, rec.divisors)
                _, reason = check_pair(tracer, self.scans, spec, m, r, r, 10 * m)
                ok = reason is None
            outcome.record(ok, reason)

    def _replay_herds(self, tracer, text):
        """In-process `cli.run` on the herds argv, with solver calls spanned,
        so the span's self time is the rendering."""
        buf = io.StringIO()
        with _spanned(tracer, solver, ("validate_spec", "feasible_herds")):
            with contextlib.redirect_stdout(buf), tracer.span("cli.run"):
                code = cli.run(self.HERDS)
        same = code == 0 and buf.getvalue() == text
        return same, "in-process herds output differs from the process output"

    def report(self):
        return self._proc_rows("herds", "herds_json") + self._proc_rows(
            "generate", "generate"
        )


@contextlib.contextmanager
def _spanned(tracer, module, names):
    """Wrap module-level functions so calls made inside herdsplit get spans."""
    saved = {name: getattr(module, name) for name in names}

    def wrap(name, fn):
        label = f"{module.__name__.split('.')[-1]}.{name}"

        def traced(*args, **kwargs):
            with tracer.span(label):
                return fn(*args, **kwargs)

        return traced

    for name, fn in saved.items():
        setattr(module, name, wrap(name, fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def tail_of(sorted_values):
    """(percentile, value) of the highest percentile with >= 10 values above."""
    n = len(sorted_values)
    if n <= 10:
        return 100.0, sorted_values[-1]
    return round(100 * (n - 10) / n, 2), sorted_values[n - 11]


_NULL = NullTracer()  # for untimed warm-up calls

WORKLOADS = {
    "oracle-grid": OracleGrid,
    "oracle-fresh": OracleFresh,
    "cli-short": CliShort,
    "cli-bulk": CliBulk,
}
