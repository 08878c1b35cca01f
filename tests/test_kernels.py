"""The oracle's loan scan against an independent unit-step scan."""

import ast
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from herdsplit import _kernels
from herdsplit._kernels import scan_first_loan

from references import exhaustive_hits


def first_hit(divisors, herd, bound):
    hits = exhaustive_hits(divisors, herd, bound)
    return hits[0] if hits else None


# Unit fractions summing to 1 or more, repeats, and sums below 1.
SPECIAL_DIVISORS = [(1,), (1, 2), (2, 2), (2, 3, 6), (3, 3, 3), (2, 3, 9), (3, 6, 9, 12)]


@settings(max_examples=700, deadline=None)
@given(
    st.one_of(
        st.sampled_from(SPECIAL_DIVISORS),
        st.lists(st.integers(1, 15), min_size=1, max_size=4).map(tuple),
    ),
    st.one_of(
        st.integers(-60, 400),
        st.integers(-60, 5000),
        st.integers(2**62 - 300, 2**62 + 300),
        st.integers(10**30 - 300, 10**30 + 300),
    ),
    st.one_of(st.integers(-1, 400), st.integers(0, 5000)),
)
@example((1,), 0, 0)
@example((1,), -5, -1)
@example((1, 2), 2, 4)
@example((1, 2), -6, 10)
@example((2, 2), 2**62, 0)
@example((2, 3, 6), 6 * 10**29, 5)
@example((2, 3, 9), 17, 0)
@example((2, 3, 9), 17, -1)
@example((5, 5, 5), 2**62 + 1, 400)
@example((7, 8), 690, 2055)  # a `most` taken with floor instead of ceil jumps past the hit
@example((2,), 5000, 5000)
@example((1, 2), 4000, 5000)
def test_strided_scan_matches_the_unit_step_scan(divisors, herd, bound):
    assert scan_first_loan(herd, bound, divisors) == first_hit(divisors, herd, bound)


# (divisors, herd, bound, loan): known loans, no hit, the inclusive bound,
# values past int64, and bounds no walk could cover.
KNOWN = {
    "halves-5": ((2,), 5, 20, 5),
    "pair-10": ((2, 3), 10, 60, 2),
    "classic-17": ((2, 3, 9), 17, 180, 1),
    "classic-16": ((2, 3, 9), 16, 180, None),
    "classic-16-wide": ((2, 3, 9), 16, 10**4, None),
    "quartet-50": ((3, 6, 9, 12), 50, 360, 22),
    "quartet-25-late-hit": ((3, 6, 9, 12), 25, 360, 11),
    "fifths-12": ((5, 5, 5), 12, 150, 8),
    "sevenths-13-past-bound": ((7,), 13, 70, None),
    "halves-4": ((2,), 4, 10, 4),
    "bound-on-the-loan": ((2,), 4, 4, 4),
    "bound-below-the-loan": ((2,), 4, 3, None),
    "negative-bound": ((2, 3, 9), 17, -1, None),
    # (1, 2) splits every t >= herd into a total of 3t/2, past the herd
    "below-the-window-2": ((1, 2), 2, 4, None),
    "below-the-window-3": ((1, 2), 3, 4, None),
    "below-the-window-6": ((1, 2), 6, 4, None),
    "huge-herd": ((2, 3, 9), 10**30, 200, None),
    "huge-negative-herd": ((2,), -(10**30), 5, None),
    "past-int64-no-hit": ((2,), 2**62, 10, None),
    "past-int64-hit": ((2, 3, 6), 6 * 2**62, 10, 0),
    "huge-bound-unit": ((1,), 2**61, 2**61, 0),
    "huge-bound-overfull": ((1, 2), 2**61, 2**61, None),
    # without the early exit each of these walks ~10**17 candidates
    "early-exit-16": ((2, 3, 9), 16, 10**18, None),
    "early-exit-17": ((2, 3, 9), 17, 10**18, 1),
    "early-exit-17000": ((2, 3, 9), 17000, 10**18, 1000),
    "early-exit-overfull": ((1, 2), 3, 10**18, None),
    # the hit is ~10**14 strides of 9 past the herd: far past any walk
    "far-hit": ((2, 3, 9), 17 * 10**15, 10**16, 10**15),
    "far-miss": ((2, 3, 9), 17 * 10**15 + 1, 10**16, None),
}


@pytest.mark.parametrize(
    "divisors, herd, bound, loan", list(KNOWN.values()), ids=list(KNOWN)
)
def test_the_scan_finds_the_known_loan(divisors, herd, bound, loan):
    assert scan_first_loan(herd, bound, divisors) == loan
    if bound <= 10**4:
        assert first_hit(divisors, herd, bound) == loan


class TestSmallGrid:
    """Every herd 1..39 at four bounds on four small tuples, unit step agreeing."""

    def test_exhaustive_small_grid(self):
        for divisors in [(2,), (2, 3), (2, 4), (3, 3)]:
            for herd in range(1, 40):
                for bound in (0, 1, 7, 50):
                    expected = first_hit(divisors, herd, bound)
                    assert scan_first_loan(herd, bound, divisors) == expected


def test_empty_or_non_positive_divisors_are_rejected():
    # A float, bool or str divisor is rejected too, not scanned as a number
    # or surfaced as a TypeError from comparing it with an int.
    non_ints = [(2.0, 3), (2.5, 3), (True, 3), ("3",), (3, "3")]
    for divisors in [(), (0,), (-2,), (-2, 3), (3, 0), *non_ints]:
        for bound in (-1, 0, 12):
            with pytest.raises(ValueError, match="divisors must be integers >= 1"):
                scan_first_loan(3, bound, divisors)


def test_the_scan_shares_nothing_with_the_closed_form():
    tree = ast.parse(Path(_kernels.__file__).read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == []
    names = {
        getattr(node, field)
        for node in ast.walk(tree)
        for field in ("id", "attr", "name", "arg")
        if hasattr(node, field)
    }
    banned = {"lcm", "gcd", "fraction_sum", "_m_and_r", "math", "herdsplit", "float"}
    assert not names & banned
    # A float estimate of sum(1/s_i) would be the closed form in disguise.
    nodes = list(ast.walk(tree))
    assert not [n for n in nodes if isinstance(n, ast.Div)]
    assert not [n for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, float)]
