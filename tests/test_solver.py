"""Solver fixtures from the worked instances, plus structural properties."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from herdsplit.errors import EmptySpec, HerdZero, NonPositiveDivisor, ShareOverflow
from herdsplit.solver import (
    Infeasible,
    LoanSolution,
    explain,
    feasible_herds,
    fraction_sum,
    fractional_breakdown,
    solve,
    validate_spec,
)

CLASSIC = (2, 3, 9)  # 17 units, borrow 1
FOUR_SONS = (3, 4, 5, 6)  # 57 units, borrow 3
QUARTET = (3, 6, 9, 12)  # minimal herd 25, borrow 11


def spec_divisors(max_heirs=5, max_divisor=30):
    return st.lists(
        st.integers(2, max_divisor), min_size=1, max_size=max_heirs
    ).filter(lambda ds: sum(Fraction(1, s) for s in ds) < 1)


def repeated_divisors():
    """Specs of up to 12 heirs in which some divisor appears more than once."""
    return (
        st.lists(
            st.tuples(st.integers(2, 30), st.integers(1, 4)),
            min_size=1,
            max_size=3,
        )
        .map(lambda runs: [s for s, n in runs for _ in range(n)])
        .filter(
            lambda ds: len(set(ds)) < len(ds)
            and sum(Fraction(1, s) for s in ds) < 1
        )
    )


class TestValidateSpec:
    def test_classic_is_valid(self):
        spec = validate_spec(CLASSIC)
        assert spec.divisors == CLASSIC
        assert spec.fraction_sum.reduced == Fraction(17, 18)

    def test_exact_unit_sum_is_rejected(self):
        with pytest.raises(ShareOverflow) as excinfo:
            validate_spec((2, 3, 6))
        assert excinfo.value.total == 1
        assert str(excinfo.value) == "share sum equals 1"

    def test_sum_above_one_reports_exact_total(self):
        with pytest.raises(ShareOverflow) as excinfo:
            validate_spec((2, 2, 2))
        assert excinfo.value.total == Fraction(3, 2)
        assert "3/2" in str(excinfo.value)

    def test_empty_is_rejected(self):
        with pytest.raises(EmptySpec):
            validate_spec(())

    def test_zero_divisor_is_rejected(self):
        with pytest.raises(NonPositiveDivisor):
            validate_spec((2, 0, 5))

    def test_negative_divisor_is_rejected(self):
        with pytest.raises(NonPositiveDivisor):
            validate_spec((2, -3))

    def test_divisor_one_always_overflows(self):
        with pytest.raises(ShareOverflow):
            validate_spec((1,))

    def test_duplicates_are_permitted_in_input_order(self):
        spec = validate_spec((4, 4, 3))
        assert spec.divisors == (4, 4, 3)

    def test_single_heir_is_permitted(self):
        assert validate_spec((2,)).divisors == (2,)

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    @example([1])
    @example([2, 3, 6])
    @example([2, 3, 7, 42])
    @example([2, 3, 7, 43])
    @settings(max_examples=400)
    def test_accepts_exactly_the_lists_summing_below_one(self, divisors):
        total = sum((Fraction(1, s) for s in divisors), Fraction(0))
        if total < 1:
            assert validate_spec(divisors).fraction_sum.reduced == total
            return
        with pytest.raises(ShareOverflow) as excinfo:
            validate_spec(divisors)
        assert excinfo.value.total == total
        assert str(excinfo.value) == str(ShareOverflow(total))


class TestFractionSum:
    @pytest.mark.parametrize(
        "divisors, r, m",
        [
            (QUARTET, 25, 36),
            (CLASSIC, 17, 18),
            (FOUR_SONS, 57, 60),
            ((2,), 1, 2),
        ],
    )
    def test_examples(self, divisors, r, m):
        fs = fraction_sum(validate_spec(divisors))
        assert (fs.r, fs.m) == (r, m)

    @given(spec_divisors())
    def test_reduced_matches_independent_unit_fraction_sum(self, divisors):
        fs = fraction_sum(validate_spec(divisors))
        assert fs.reduced == sum((Fraction(1, s) for s in divisors), Fraction(0))

    @given(spec_divisors())
    def test_r_stays_below_m(self, divisors):
        fs = fraction_sum(validate_spec(divisors))
        assert 0 < fs.r < fs.m

    @given(spec_divisors(max_divisor=12))
    @settings(max_examples=60)
    def test_feasibility_agrees_between_unreduced_and_reduced_forms(self, divisors):
        # r = g*p and m = g*q with p/q the reduced sum; divisibility by the
        # unreduced r must match the reduced-form test p | N and g | N/p.
        fs = fraction_sum(validate_spec(divisors))
        p, q = fs.reduced.numerator, fs.reduced.denominator
        g = fs.m // q
        assert (g * p, g * q) == (fs.r, fs.m)
        for herd in range(1, 3 * fs.m + 1):
            unreduced = herd % fs.r == 0
            reduced = herd % p == 0 and (herd // p) % g == 0
            assert unreduced == reduced


class TestSolve:
    @pytest.mark.parametrize(
        "divisors, herd, loan, shares",
        [
            (CLASSIC, 17, 1, (9, 6, 2)),
            (FOUR_SONS, 57, 3, (20, 15, 12, 10)),
            (QUARTET, 50, 22, (24, 12, 8, 6)),
            (QUARTET, 25, 11, (12, 6, 4, 3)),
            (CLASSIC, 34, 2, (18, 12, 4)),
        ],
    )
    def test_feasible_examples(self, divisors, herd, loan, shares):
        sol = solve(validate_spec(divisors), herd)
        assert isinstance(sol, LoanSolution)
        assert sol.loan == loan
        assert sol.shares == shares
        assert sol.augmented == herd + loan
        assert sum(sol.shares) == herd

    def test_sixteen_is_infeasible_for_the_classic_ratios(self):
        result = solve(validate_spec(CLASSIC), 16)
        assert result == Infeasible(herd=16, r=17, nearest_below=None, nearest_above=17)

    def test_nearest_feasible_herds_straddle_the_request(self):
        result = solve(validate_spec(CLASSIC), 40)
        assert result == Infeasible(herd=40, r=17, nearest_below=34, nearest_above=51)

    @pytest.mark.parametrize("herd", [0, -5])
    def test_nonpositive_herd_is_rejected(self, herd):
        with pytest.raises(HerdZero):
            solve(validate_spec(CLASSIC), herd)

    @given(spec_divisors(), st.integers(1, 50))
    def test_solution_invariants(self, divisors, a):
        spec = validate_spec(divisors)
        fs = spec.fraction_sum
        sol = solve(spec, a * fs.r)
        assert isinstance(sol, LoanSolution)
        assert sol.multiplier == a
        assert sol.augmented == sol.herd + sol.loan == a * fs.m
        assert sol.loan == a * (fs.m - fs.r) >= 1
        assert sum(sol.shares) == sol.herd
        for s, share in zip(divisors, sol.shares):
            assert share * s == sol.augmented

    @given(spec_divisors(), st.integers(1, 50))
    def test_scaling_linearity(self, divisors, a):
        spec = validate_spec(divisors)
        base = solve(spec, spec.fraction_sum.r)
        scaled = solve(spec, a * spec.fraction_sum.r)
        assert scaled.shares == tuple(a * share for share in base.shares)
        assert scaled.loan == a * base.loan


@st.composite
def spec_with_permutation(draw):
    divisors = tuple(draw(spec_divisors()))
    perm = tuple(draw(st.permutations(range(len(divisors)))))
    return divisors, perm


@given(spec_with_permutation())
def test_order_equivariance(spec_perm):
    divisors, perm = spec_perm
    permuted = tuple(divisors[i] for i in perm)
    spec_a = validate_spec(divisors)
    spec_b = validate_spec(permuted)
    fs_a, fs_b = spec_a.fraction_sum, spec_b.fraction_sum
    assert (fs_a.r, fs_a.m) == (fs_b.r, fs_b.m)

    herd = fs_a.r
    sol_a, sol_b = solve(spec_a, herd), solve(spec_b, herd)
    assert sol_b.shares == tuple(sol_a.shares[i] for i in perm)
    assert (sol_b.herd, sol_b.loan, sol_b.augmented) == (
        sol_a.herd,
        sol_a.loan,
        sol_a.augmented,
    )

    bd_a, bd_b = fractional_breakdown(spec_a, herd), fractional_breakdown(spec_b, herd)
    assert bd_b.raw_shares == tuple(bd_a.raw_shares[i] for i in perm)
    assert bd_b.topups == tuple(bd_a.topups[i] for i in perm)
    assert bd_b.leftover == bd_a.leftover


class TestFeasibleHerds:
    @pytest.mark.parametrize(
        "divisors, limit, expected",
        [
            (CLASSIC, 60, [(17, 1), (34, 2), (51, 3)]),
            (QUARTET, 100, [(25, 11), (50, 22), (75, 33), (100, 44)]),
            (CLASSIC, 10, []),
        ],
    )
    def test_examples(self, divisors, limit, expected):
        assert feasible_herds(validate_spec(divisors), limit) == expected

    def test_rows_increase_and_the_limit_is_inclusive(self):
        spec = validate_spec(CLASSIC)
        rows = feasible_herds(spec, 17)
        assert rows == [(17, 1)]


class TestMinimalInstance:
    @given(spec_divisors())
    def test_shares_at_the_minimum_are_m_over_each_divisor(self, divisors):
        spec = validate_spec(divisors)
        fs = spec.fraction_sum
        herd, loan = fs.r, fs.m - fs.r
        assert loan >= 1
        sol = solve(spec, herd)
        assert sol.loan == loan
        assert sol.shares == tuple(fs.m // s for s in divisors)


class TestFractionalBreakdown:
    def test_classic_breakdown(self):
        bd = fractional_breakdown(validate_spec(CLASSIC), 17)
        assert bd.raw_shares == (Fraction(17, 2), Fraction(17, 3), Fraction(17, 9))
        assert bd.leftover == Fraction(17, 18)
        assert bd.topups == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 9))
        assert sum(bd.topups, Fraction(0)) == bd.leftover

    def test_four_sons_breakdown(self):
        bd = fractional_breakdown(validate_spec(FOUR_SONS), 57)
        assert bd.leftover == Fraction(57, 20)
        assert bd.topups == (
            Fraction(1),
            Fraction(3, 4),
            Fraction(3, 5),
            Fraction(1, 2),
        )
        assert sum(bd.topups, Fraction(0)) == bd.leftover

    def test_halving_a_pair(self):
        bd = fractional_breakdown(validate_spec((2,)), 2)
        assert bd.raw_shares == (Fraction(1),)
        assert bd.leftover == Fraction(1)
        assert bd.topups == (Fraction(1),)

    def test_infeasible_herd_still_gets_raw_shares_and_leftover(self):
        bd = fractional_breakdown(validate_spec(CLASSIC), 16)
        assert bd.raw_shares == (Fraction(8), Fraction(16, 3), Fraction(16, 9))
        assert bd.leftover == 16 - sum(bd.raw_shares, Fraction(0))
        assert bd.topups == ()

    def test_zero_herd_raises(self):
        with pytest.raises(HerdZero):
            fractional_breakdown(validate_spec(CLASSIC), 0)

    @given(spec_divisors(), st.integers(1, 400))
    @settings(max_examples=150)
    def test_breakdown_invariants(self, divisors, herd):
        spec = validate_spec(divisors)
        fs = spec.fraction_sum
        bd = fractional_breakdown(spec, herd)
        assert bd.raw_shares == tuple(Fraction(herd, s) for s in divisors)
        # leftover = herd * (m - r) / m as an exact reduced rational
        assert bd.leftover == Fraction(herd * (fs.m - fs.r), fs.m)
        assert bd.leftover == herd - sum(bd.raw_shares, Fraction(0))
        if herd % fs.r == 0:
            sol = solve(spec, herd)
            assert sum(bd.topups, Fraction(0)) == bd.leftover
            for raw, topup, share in zip(bd.raw_shares, bd.topups, sol.shares):
                assert raw + topup == share
        else:
            assert bd.topups == ()

    @given(st.one_of(spec_divisors(), repeated_divisors()), st.integers(1, 10**30))
    @settings(max_examples=150)
    @example([3, 3], 10**30)
    @example([6, 6, 6, 6, 6], 10**30 - 1)
    def test_leftover_is_the_herd_less_its_raw_shares(self, divisors, a):
        spec = validate_spec(divisors)
        for herd in (a, a * spec.fraction_sum.r):  # the second is feasible
            bd = fractional_breakdown(spec, herd)
            assert bd.leftover == herd - sum(bd.raw_shares, Fraction(0))
        assert sum(bd.topups, Fraction(0)) == bd.leftover


class TestExplain:
    def test_classic_narration_has_six_steps_and_returns_one(self):
        steps = explain(solve(validate_spec(CLASSIC), 17))
        assert len(steps) == 6
        assert "Borrow 1" in steps[0]
        assert steps[1] == "Heir 1 takes 1/2 of 18: 9."
        assert steps[2] == "Heir 2 takes 1/3 of 18: 6."
        assert steps[3] == "Heir 3 takes 1/9 of 18: 2."
        assert "9 + 6 + 2 = 17" in steps[4]
        assert steps[-1].startswith("Return 1")

    def test_quartet_narration_has_seven_steps_and_returns_twenty_two(self):
        steps = explain(solve(validate_spec(QUARTET), 50))
        assert len(steps) == 7
        assert steps[-1].startswith("Return 22")

    def test_single_heir_narration_has_four_steps(self):
        steps = explain(solve(validate_spec((2,)), 2))
        assert len(steps) == 4

    @given(spec_divisors(), st.integers(1, 20))
    @settings(max_examples=60)
    def test_every_narration_number_comes_from_the_solution(self, divisors, a):
        spec = validate_spec(divisors)
        sol = solve(spec, a * spec.fraction_sum.r)
        steps = explain(sol)
        assert len(steps) == len(divisors) + 3
        for i, (s, share) in enumerate(zip(divisors, sol.shares), start=1):
            assert f"1/{s} of {sol.augmented}: {share}" in steps[i]
