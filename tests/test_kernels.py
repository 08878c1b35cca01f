"""The oracle's loan scan against an independent unit-step scan."""

import ast
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from herdsplit import _kernels
from herdsplit._kernels import scan_first_loan

from scan_reference import exhaustive_hits

CASES = [
    ((2,), 5, 20),
    ((2, 3), 10, 60),
    ((2, 3, 9), 17, 180),
    ((2, 3, 9), 16, 180),
    ((3, 6, 9, 12), 50, 360),
    ((5, 5, 5), 12, 150),
    ((7,), 13, 70),
]


def first_hit(divisors, herd, bound):
    hits = exhaustive_hits(divisors, herd, bound)
    return hits[0] if hits else None


# Unit fractions summing to 1 or more, repeats, and sums below 1.
SPECIAL_DIVISORS = [(1,), (1, 2), (2, 2), (2, 3, 6), (3, 3, 3), (2, 3, 9), (3, 6, 9, 12)]


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.sampled_from(SPECIAL_DIVISORS),
        st.lists(st.integers(1, 15), min_size=1, max_size=4).map(tuple),
    ),
    st.one_of(
        st.integers(-60, 400),
        st.integers(2**62 - 300, 2**62 + 300),
        st.integers(10**30 - 300, 10**30 + 300),
    ),
    st.integers(-1, 400),
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
def test_strided_scan_matches_the_unit_step_scan(divisors, herd, bound):
    assert scan_first_loan(herd, bound, divisors) == first_hit(divisors, herd, bound)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.sampled_from(SPECIAL_DIVISORS),
        st.lists(st.integers(1, 15), min_size=1, max_size=4).map(tuple),
    ),
    st.integers(-60, 5000),
    st.integers(0, 5000),
)
@example((7, 8), 690, 2055)  # a `most` taken with floor instead of ceil jumps past the hit
@example((2,), 5000, 5000)
@example((1, 2), 4000, 5000)
def test_the_skip_over_hundreds_of_strides_matches_the_unit_step_scan(divisors, herd, bound):
    assert scan_first_loan(herd, bound, divisors) == first_hit(divisors, herd, bound)


@pytest.mark.parametrize("divisors, herd, bound", CASES)
def test_examples_match_the_unit_step_scan(divisors, herd, bound):
    assert scan_first_loan(herd, bound, divisors) == first_hit(divisors, herd, bound)


class TestSmallGrid:
    """Every herd 1..39 at four bounds on four small tuples, unit step agreeing."""

    def test_exhaustive_small_grid(self):
        for divisors in [(2,), (2, 3), (2, 4), (3, 3)]:
            for herd in range(1, 40):
                for bound in (0, 1, 7, 50):
                    expected = first_hit(divisors, herd, bound)
                    assert scan_first_loan(herd, bound, divisors) == expected


class TestKnownAnswers:
    """Known loans, a late hit, no hit at all, and a hit on the bound itself."""

    def test_known_loans_are_found(self):
        assert scan_first_loan(4, 10, (2,)) == 4
        assert scan_first_loan(17, 180, (2, 3, 9)) == 1

    def test_a_late_hit_is_found(self):
        # the loan is 11, several strides past the first candidate
        assert scan_first_loan(25, 360, (3, 6, 9, 12)) == 11

    def test_no_hit_returns_none(self):
        assert scan_first_loan(16, 180, (2, 3, 9)) is None

    def test_the_bound_is_inclusive(self):
        assert scan_first_loan(4, 4, (2,)) == 4
        assert scan_first_loan(4, 3, (2,)) is None


class TestHugeValues:
    """Values near and past 2**63 are scanned on exact ints, with no separate path."""

    def test_a_huge_herd_matches_the_unit_step_scan(self):
        herd = 10**30  # far beyond int64
        assert scan_first_loan(herd, 100, (2, 3, 9)) == first_hit((2, 3, 9), herd, 100)
        assert scan_first_loan(2**61, 2**61, (1,)) == 0
        assert scan_first_loan(2**61, 2**61, (1, 2)) is None

    def test_huge_values_still_scan_exactly(self):
        herd = 10**30  # far beyond int64
        assert scan_first_loan(herd, 200, (2, 3, 9)) is None
        assert scan_first_loan(2**62, 10, (2,)) is None
        assert scan_first_loan(6 * 2**62, 10, (2, 3, 6)) == 0

    def test_a_huge_negative_herd_finds_nothing(self):
        assert scan_first_loan(-(10**30), 5, (2,)) is None
        assert scan_first_loan(-(10**30), 5, (2,)) == first_hit((2,), -(10**30), 5)


def test_negative_bound_finds_nothing():
    assert scan_first_loan(17, -1, (2, 3, 9)) is None


def test_a_huge_bound_stops_at_the_first_total_past_the_herd():
    # Without the early exit each call would walk ~10**17 candidates.
    assert scan_first_loan(16, 10**18, (2, 3, 9)) is None
    assert scan_first_loan(17, 10**18, (2, 3, 9)) == 1
    assert scan_first_loan(17 * 1000, 10**18, (2, 3, 9)) == 1000
    assert scan_first_loan(3, 10**18, (1, 2)) is None


def test_a_far_hit_is_reached_by_skipping_strides():
    # The hit is ~10**14 strides of 9 past the herd: far past any walk.
    assert scan_first_loan(17 * 10**15, 10**16, (2, 3, 9)) == 10**15
    assert scan_first_loan(17 * 10**15 + 1, 10**16, (2, 3, 9)) is None


def test_a_total_below_the_window_is_no_hit():
    for herd in (2, 3, 6):  # (1, 2) splits t = 2 into total 3 < t
        assert first_hit((1, 2), herd, 4) is None
        assert scan_first_loan(herd, 4, (1, 2)) is None


def test_empty_or_non_positive_divisors_are_rejected():
    for divisors in [(), (0,), (-2,), (-2, 3), (3, 0)]:
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
