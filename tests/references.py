"""References the test files share: a unit-step loan scan, written apart
from the package, one strategy for valid divisor lists, and two argvs
past CPython's 4300-digit int<->str limit with checks of their JSON."""

import json
import math
import sys
from fractions import Fraction

from hypothesis import strategies as st


def exhaustive_hits(divisors, herd, bound):
    """All loans in 0..bound that work, found by plain big-int scanning.

    Deliberately reimplements the scan, one x at a time and with no early
    exit, so that the packaged kernel is checked against something that
    shares no code with it.
    """
    hits = []
    for x in range(bound + 1):
        t = herd + x
        if all(t % s == 0 for s in divisors) and sum(t // s for s in divisors) == herd:
            hits.append(x)
    return hits


def unit_sum(divisors):
    """sum(1/s) over the divisors, exactly."""
    return sum((Fraction(1, s) for s in divisors), Fraction(0))


def valid_divisors(max_heirs=5, max_divisor=30, repeats=False):
    """Lists of divisors in 2..max_divisor whose unit fractions sum below 1.

    With `repeats`, up to three runs of one to four equal divisors, so up
    to 12 heirs, in which some divisor appears more than once.
    """
    if repeats:
        lists = (
            st.lists(
                st.tuples(st.integers(2, max_divisor), st.integers(1, 4)),
                min_size=1,
                max_size=3,
            )
            .map(lambda runs: [s for s, n in runs for _ in range(n)])
            .filter(lambda ds: len(set(ds)) < len(ds))
        )
    else:
        lists = st.lists(st.integers(2, max_divisor), min_size=1, max_size=max_heirs)
    return lists.filter(lambda ds: unit_sum(ds) < 1)


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
