"""Differential checks between the closed-form solver and the brute scan."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from herdsplit.errors import InvalidInput
from herdsplit.solver import (
    Infeasible,
    LoanSolution,
    NotFoundWithinBound,
    oracle_solve,
    solve,
    validate_spec,
)

from scan_reference import exhaustive_hits

CLASSIC = (2, 3, 9)
QUARTET = (3, 6, 9, 12)


class TestOracleExamples:
    def test_classic_herd(self):
        sol = oracle_solve(validate_spec(CLASSIC), 17, 100)
        assert isinstance(sol, LoanSolution)
        assert (sol.loan, sol.shares) == (1, (9, 6, 2))

    def test_sixteen_has_no_loan_within_a_thousand(self):
        result = oracle_solve(validate_spec(CLASSIC), 16, 1000)
        assert result == NotFoundWithinBound(herd=16, bound=1000)
        # and none within ten thousand either
        wider = oracle_solve(validate_spec(CLASSIC), 16, 10**4)
        assert wider == NotFoundWithinBound(herd=16, bound=10**4)

    def test_quartet_herd_of_fifty(self):
        sol = oracle_solve(validate_spec(QUARTET), 50, 100)
        assert sol.loan == 22
        assert sol.shares == (24, 12, 8, 6)

    def test_bound_is_inclusive(self):
        assert oracle_solve(validate_spec(CLASSIC), 17, 1).loan == 1
        assert oracle_solve(validate_spec(CLASSIC), 17, 0) == NotFoundWithinBound(
            herd=17, bound=0
        )

    def test_zero_herd_raises(self):
        with pytest.raises(InvalidInput, match="^herd must be >= 1, got 0$"):
            oracle_solve(validate_spec(CLASSIC), 0, 10)


class TestUniqueness:
    @pytest.mark.parametrize(
        "divisors, herd",
        [
            (CLASSIC, 17),
            (CLASSIC, 34),
            (QUARTET, 25),
            (QUARTET, 50),
            ((3, 4, 5, 6), 57),
            ((2,), 5),
        ],
    )
    def test_no_second_loan_within_ten_m(self, divisors, herd):
        spec = validate_spec(divisors)
        bound = 10 * spec.fraction_sum.m
        hits = exhaustive_hits(divisors, herd, bound)
        assert len(hits) == 1
        assert hits[0] == solve(spec, herd).loan


def small_specs():
    return st.lists(st.integers(2, 16), min_size=1, max_size=4).filter(
        lambda ds: sum(Fraction(1, s) for s in ds) < 1
    )


@given(small_specs(), st.integers(1, 500))
@settings(max_examples=120, deadline=None)
def test_oracle_and_solver_agree(divisors, herd):
    spec = validate_spec(divisors)
    bound = 10 * spec.fraction_sum.m
    formula = solve(spec, herd)
    scanned = oracle_solve(spec, herd, bound)
    if isinstance(formula, Infeasible):
        assert scanned == NotFoundWithinBound(herd=herd, bound=bound)
    elif formula.loan <= bound:
        assert scanned == formula
    else:
        # The true loan lies beyond the scan window; the oracle only
        # guarantees detection within its bound.
        assert scanned == NotFoundWithinBound(herd=herd, bound=bound)


@given(small_specs(), st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_oracle_matches_the_independent_exhaustive_scan(divisors, herd):
    spec = validate_spec(divisors)
    bound = 3 * spec.fraction_sum.m
    hits = exhaustive_hits(divisors, herd, bound)
    scanned = oracle_solve(spec, herd, bound)
    if hits:
        assert isinstance(scanned, LoanSolution)
        assert scanned.loan == hits[0]
    else:
        assert scanned == NotFoundWithinBound(herd=herd, bound=bound)


def specs_up_to_60():
    return (
        st.lists(st.integers(2, 60), min_size=1, max_size=5)
        .filter(lambda ds: sum(Fraction(1, s) for s in ds) < 1)
        .map(validate_spec)
        .filter(lambda spec: spec.fraction_sum.m <= 10**5)
    )


@given(specs_up_to_60(), st.integers(1, 10**12), st.data())
@settings(max_examples=300, deadline=None)
def test_oracle_and_solver_agree_on_multipliers_up_to_a_trillion(spec, a, data):
    r = spec.fraction_sum.r
    formula = solve(spec, a * r)
    assert oracle_solve(spec, a * r, formula.loan) == formula
    assume(r > 1)
    herd = a * r + data.draw(st.integers(1, r - 1), label="j")
    assert isinstance(solve(spec, herd), Infeasible)
    assert oracle_solve(spec, herd, formula.loan) == NotFoundWithinBound(
        herd=herd, bound=formula.loan
    )
