"""References the test files share: a unit-step loan scan, written apart
from the package, and one strategy for valid divisor lists."""

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
