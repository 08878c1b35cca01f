"""Acceptance suite: one test per criterion, every equality exact.

Each test prints an ACCEPTANCE line; the conftest summary repeats a
PASS/FAIL line per criterion at the end of the run.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from herdsplit.cli import run, to_json
from herdsplit.generator import SearchBounds, enumerate_specs
from herdsplit.solver import (
    Infeasible,
    LoanSolution,
    NotFoundWithinBound,
    fraction_sum,
    fractional_breakdown,
    oracle_solve,
    solve,
    validate_spec,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_classic_instance():
    with criterion(1, "classic 17-unit instance"):
        spec = validate_spec((2, 3, 9))
        sol = solve(spec, 17)
        assert sol == LoanSolution(
            herd=17, loan=1, augmented=18, multiplier=1, shares=(9, 6, 2)
        )
        bd = fractional_breakdown(spec, 17)
        assert bd.raw_shares == (Fraction(17, 2), Fraction(17, 3), Fraction(17, 9))
        assert bd.leftover == Fraction(17, 18)
        assert bd.topups == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 9))
        assert sum(bd.topups, Fraction(0)) == bd.leftover


def test_criterion_2_four_heirs_fifty_seven():
    with criterion(2, "57 units split 1/3:1/4:1/5:1/6"):
        sol = solve(validate_spec((3, 4, 5, 6)), 57)
        assert sol.loan == 3
        assert sol.augmented == 60
        assert sol.shares == (20, 15, 12, 10)
        assert sum(sol.shares) == 57


def test_criterion_3_quartet_illustration():
    with criterion(3, "quartet r=25 m=36 at herd 50"):
        spec = validate_spec((3, 6, 9, 12))
        fs = fraction_sum(spec)
        assert (fs.r, fs.m) == (25, 36)
        sol = solve(spec, 50)
        assert sol.multiplier == 2
        assert sol.loan == 22
        assert sol.shares == (24, 12, 8, 6)
        assert sum(sol.shares) == 50


def test_criterion_4_feasibility_theorem_full_grid():
    with criterion(4, "solve vs oracle over the full desk grid"):
        specs = [
            divisors
            for k in range(1, 5)
            for divisors in combinations_with_replacement(range(2, 13), k)
            if sum(Fraction(1, s) for s in divisors) < 1
        ]
        assert len(specs) == 1161
        started = time.perf_counter()
        checked = feasible = beyond_bound = 0
        for divisors in specs:
            spec = validate_spec(divisors)
            bound = 10 * spec.fraction_sum.m
            for herd in range(1, 301):
                formula = solve(spec, herd)
                scanned = oracle_solve(spec, herd, bound)
                checked += 1
                if isinstance(formula, Infeasible):
                    assert scanned == NotFoundWithinBound(herd=herd, bound=bound)
                elif formula.loan <= bound:
                    feasible += 1
                    assert scanned == formula
                else:
                    # The unique loan lies beyond the scan window, which is
                    # the one regime where the bounded oracle cannot see it.
                    beyond_bound += 1
                    assert scanned == NotFoundWithinBound(herd=herd, bound=bound)
        elapsed = time.perf_counter() - started
        assert checked == len(specs) * 300
        assert feasible > 0
        print(
            f"grid: {checked} pairs, {feasible} feasible within bound, "
            f"{beyond_bound} beyond bound, {elapsed:.1f}s"
        )


def test_criterion_5_loan_formula_and_scaling():
    with criterion(5, "loan formula on 1000 random feasible instances"):
        rng = random.Random(0x17E1)
        seen = 0
        while seen < 1000:
            k = rng.randint(1, 5)
            divisors = tuple(rng.randint(2, 40) for _ in range(k))
            if sum(Fraction(1, s) for s in divisors) >= 1:
                continue
            spec = validate_spec(divisors)
            fs = spec.fraction_sum
            a = rng.randint(1, 10**6)
            sol = solve(spec, a * fs.r)
            assert isinstance(sol, LoanSolution)
            assert sol.loan == a * (fs.m - fs.r)
            assert sol.loan >= 1
            assert sol.multiplier == a
            base = solve(spec, fs.r)
            assert sol.shares == tuple(a * share for share in base.shares)
            seen += 1


def test_criterion_6_generator_matches_brute_force():
    with criterion(6, "three-heir borrow-one enumeration"):
        records = enumerate_specs(SearchBounds(heirs=3, max_divisor=9, max_loan=1))
        assert [rec.divisors for rec in records] == [
            (2, 3, 7),
            (2, 3, 8),
            (2, 3, 9),
            (2, 4, 5),
            (2, 4, 6),
            (2, 4, 8),
        ]
        brute = []
        for divisors in combinations(range(2, 10), 3):
            if sum(Fraction(1, s) for s in divisors) >= 1:
                continue
            m = math.lcm(*divisors)
            r = sum(m // s for s in divisors)
            if m - r == 1:
                brute.append(divisors)
        assert [rec.divisors for rec in records] == brute


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


def test_criterion_7_cli_examples_and_round_trip(capsys):
    with criterion(7, "CLI exit codes, payloads, JSON round-trip"):
        code = run(["solve", "--divisors", "2,3,9", "--herd", "17",
                    "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == SOLVE_17_JSON
        payload = json.loads(captured.out)
        assert payload["loan"] == "1"
        assert payload["shares"] == ["9", "6", "2"]

        code = run(["solve", "--divisors", "2,3,9", "--herd", "16"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == SOLVE_16_TEXT

        code = run(["check", "--divisors", "2,3,6"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "share sum equals 1" in captured.err

        fixtures = [
            ["check", "--divisors", "2,3,9"],
            ["solve", "--divisors", "2,3,9", "--herd", "17"],
            ["solve", "--divisors", "2,3,9", "--herd", "16"],
            ["solve", "--divisors", "3,4,5,6", "--herd", "57"],
            ["solve", "--divisors", "3,6,9,12", "--herd", "50"],
            ["herds", "--divisors", "2,3,9", "--limit", "60"],
            ["breakdown", "--divisors", "2,3,9", "--herd", "17"],
            ["breakdown", "--divisors", "3,4,5,6", "--herd", "57"],
            ["generate", "--heirs", "3", "--max-divisor", "9", "--max-loan", "1"],
            ["explain", "--divisors", "3,6,9,12", "--herd", "50"],
        ]
        for argv in fixtures:
            code = run(argv + ["--format", "json"])
            out = capsys.readouterr().out
            assert code in (0, 1)
            assert to_json(json.loads(out)) == out
