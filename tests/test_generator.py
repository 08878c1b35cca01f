"""Puzzle enumeration against a brute-force filter, plus bounds handling."""

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from herdsplit.errors import BoundsTooLarge
from herdsplit.generator import PuzzleRecord, SearchBounds, enumerate_specs
from herdsplit.solver import _m_and_r, _m_and_r_step, solve, validate_spec


def brute_force_records(bounds):
    """Filter every candidate tuple directly; no search, no pruning."""
    pick = combinations_with_replacement if bounds.allow_duplicates else combinations
    out = []
    for divisors in pick(range(2, bounds.max_divisor + 1), bounds.heirs):
        if sum(Fraction(1, s) for s in divisors) >= 1:
            continue
        m = math.lcm(*divisors)
        r = sum(m // s for s in divisors)
        if bounds.max_loan is not None and m - r > bounds.max_loan:
            continue
        out.append(
            PuzzleRecord(
                divisors=divisors, r=r, m=m, minimal_herd=r, minimal_loan=m - r
            )
        )
    return out


def brute_force_node_count(bounds):
    """Count the admissible prefixes directly: one node per placement."""
    pick = combinations_with_replacement if bounds.allow_duplicates else combinations
    k, top, cap = bounds.heirs, bounds.max_divisor, bounds.max_loan

    def admissible(prefix):
        *before, s = prefix
        later = k - len(prefix)
        if sum(Fraction(1, d) for d in prefix) + Fraction(later, top) >= 1:
            return False
        # distinct later divisors must still fit below top
        if not bounds.allow_duplicates and s > top - later:
            return False
        if cap is None:
            return True
        # every later divisor is >= s, so the loan is at least
        # s * (1 - sum(before)) - (later + 1)
        short = 1 - sum(Fraction(1, d) for d in before)
        if s * short > cap + later + 1:
            return False
        # on the last slot the loan is M * (s * short - 1) / gcd(M, s) with
        # M = lcm(before), and gcd(M, s) <= s
        m = math.lcm(*before)
        return later > 0 or s * (short - Fraction(cap, m)) <= 1

    return sum(
        admissible(prefix)
        for length in range(1, k + 1)
        for prefix in pick(range(2, top + 1), length)
    )


def on_the_grid(test):
    """Run ``test`` on every bound of heirs 1-4 x max_divisor x max_loan x
    duplicates: 240 bounds, each checked against the brute force above."""
    test = pytest.mark.parametrize("allow_duplicates", [False, True])(test)
    test = pytest.mark.parametrize("max_loan", [None, 0, 1, 3, 11])(test)
    test = pytest.mark.parametrize("max_divisor", [2, 3, 5, 9, 12, 16])(test)
    return pytest.mark.parametrize("heirs", [1, 2, 3, 4])(test)


class TestEnumerate:
    @on_the_grid
    def test_matches_brute_force(self, heirs, max_divisor, max_loan, allow_duplicates):
        """The records, sorted and unique, under the default node budget."""
        bounds = SearchBounds(heirs, max_divisor, max_loan, allow_duplicates)
        assert enumerate_specs(bounds) == brute_force_records(bounds)

    @on_the_grid
    def test_budget_is_the_placement_count(
        self, heirs, max_divisor, max_loan, allow_duplicates, monkeypatch
    ):
        """A budget of exactly the admissible placement count is enough, and
        one node less raises before any record is built."""
        bounds = SearchBounds(heirs, max_divisor, max_loan, allow_duplicates)
        n = brute_force_node_count(bounds)
        enumerate_specs(bounds, node_budget=n)
        if n:
            built = 0

            def counting_record(**fields):
                nonlocal built
                built += 1
                return PuzzleRecord(**fields)

            monkeypatch.setattr("herdsplit.generator.PuzzleRecord", counting_record)
            with pytest.raises(BoundsTooLarge):
                enumerate_specs(bounds, node_budget=n - 1)
            assert built == 0

    def test_contains_the_classic_triple(self):
        records = enumerate_specs(SearchBounds(heirs=3, max_divisor=9, max_loan=1))
        classic = [rec for rec in records if rec.divisors == (2, 3, 9)]
        assert classic == [
            PuzzleRecord(divisors=(2, 3, 9), r=17, m=18, minimal_herd=17, minimal_loan=1)
        ]

    def test_four_heirs_include_the_quartet(self):
        records = enumerate_specs(SearchBounds(heirs=4, max_divisor=12, max_loan=11))
        quartet = [rec for rec in records if rec.divisors == (3, 6, 9, 12)]
        assert quartet == [
            PuzzleRecord(
                divisors=(3, 6, 9, 12), r=25, m=36, minimal_herd=25, minimal_loan=11
            )
        ]

    def test_single_heir_single_choice(self):
        records = enumerate_specs(SearchBounds(heirs=1, max_divisor=2))
        assert records == [
            PuzzleRecord(divisors=(2,), r=1, m=2, minimal_herd=1, minimal_loan=1)
        ]

    def test_duplicates_flag_admits_repeated_divisors(self):
        records = enumerate_specs(
            SearchBounds(heirs=2, max_divisor=4, allow_duplicates=True)
        )
        assert [rec.divisors for rec in records] == [
            (2, 3),
            (2, 4),
            (3, 3),
            (3, 4),
            (4, 4),
        ]

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # 1200 slots deep, past CPython's default limit of 1000 frames: from
        # a budget of 6,516 up the prefix reaches depth 1,199 before it
        # raises. A small budget also fails fast if a slot is undercharged.
        bounds = SearchBounds(heirs=1200, max_divisor=2000, allow_duplicates=True)
        with pytest.raises(BoundsTooLarge):
            enumerate_specs(bounds, node_budget=10**4)

    def test_every_record_round_trips_through_solve(self):
        records = enumerate_specs(
            SearchBounds(heirs=3, max_divisor=12, allow_duplicates=True)
        )
        assert records
        for rec in records:
            assert rec.minimal_loan >= 1
            sol = solve(validate_spec(rec.divisors), rec.minimal_herd)
            assert sol.loan == rec.minimal_loan
            assert sol.shares == tuple(rec.m // s for s in rec.divisors)

    def test_oversized_span_raises_before_placing_anything(self, monkeypatch):
        calls = 0

        def counting_step(m, r, s):
            nonlocal calls
            calls += 1
            return _m_and_r_step(m, r, s)

        monkeypatch.setattr("herdsplit.generator._m_and_r_step", counting_step)
        with pytest.raises(BoundsTooLarge):
            enumerate_specs(SearchBounds(heirs=1, max_divisor=10**12), node_budget=1000)
        assert calls == 0

    def test_distinct_divisors_that_cannot_fit_end_at_once(self):
        # 1200 distinct divisors in 2..1201 must start at 2, but a sum below
        # 1 needs the first past 600, so the first span is empty
        assert enumerate_specs(SearchBounds(1200, 1201), node_budget=1) == []


class TestPinnedSearch:
    """Exact figures of the DFS, so a faster search must keep them."""

    def test_node_count_is_pinned(self):
        # one node per admissible placement, with each span ended by the loan cap
        bounds = SearchBounds(heirs=5, max_divisor=40, max_loan=1)
        with pytest.raises(BoundsTooLarge):
            enumerate_specs(bounds, node_budget=890)
        assert len(enumerate_specs(bounds, node_budget=891)) == 170

    def test_borrow_one_family_is_finite(self):
        # the loan cap, not max_divisor, ends every span: five heirs that
        # borrow one unit give 1,043 puzzles, the largest divisor 3,612
        bounds = SearchBounds(heirs=5, max_divisor=10**12, max_loan=1)
        with pytest.raises(BoundsTooLarge):
            enumerate_specs(bounds, node_budget=13516)
        records = enumerate_specs(bounds, node_budget=13517)
        assert len(records) == 1043
        assert max(rec.divisors[-1] for rec in records) == 3612
        assert all(rec.minimal_loan == 1 for rec in records)

    def test_four_heirs_with_duplicates_match_brute_force(self):
        bounds = SearchBounds(heirs=4, max_divisor=30, allow_duplicates=True)
        assert enumerate_specs(bounds) == brute_force_records(bounds)


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
def test_the_step_folds_to_lcm_and_sum(divisors):
    m, r = 1, 0
    for s in divisors:
        m, r = _m_and_r_step(m, r, s)
    lcm = math.lcm(*divisors)
    assert (m, r) == (lcm, sum(lcm // s for s in divisors))
    assert _m_and_r(tuple(divisors)) == (m, r)
