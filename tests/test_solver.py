"""The closed form on worked instances, plus its structural properties."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from herdsplit.errors import ShareOverflow
from herdsplit.solver import (
    Infeasible,
    LoanSolution,
    NotFoundWithinBound,
    explain,
    fraction_sum,
    fractional_breakdown,
    oracle_solve,
    solve,
    validate_spec,
)

from references import exhaustive_hits, unit_sum, valid_divisors

# (divisors, herd, r, m, loan, shares); an infeasible herd has loan None
# and (nearest_below, nearest_above) in place of the shares.
WORKED = {
    "classic-16": ((2, 3, 9), 16, 17, 18, None, (None, 17)),
    "classic-17": ((2, 3, 9), 17, 17, 18, 1, (9, 6, 2)),
    "classic-18": ((2, 3, 9), 18, 17, 18, None, (17, 34)),
    "classic-34": ((2, 3, 9), 34, 17, 18, 2, (18, 12, 4)),
    "classic-40": ((2, 3, 9), 40, 17, 18, None, (34, 51)),
    "four-sons-57": ((3, 4, 5, 6), 57, 57, 60, 3, (20, 15, 12, 10)),
    "quartet-25": ((3, 6, 9, 12), 25, 25, 36, 11, (12, 6, 4, 3)),
    "quartet-26": ((3, 6, 9, 12), 26, 25, 36, None, (25, 50)),
    "quartet-50": ((3, 6, 9, 12), 50, 25, 36, 22, (24, 12, 8, 6)),
    "halves-2": ((2,), 2, 1, 2, 2, (2,)),
    "halves-5": ((2,), 5, 1, 2, 5, (5,)),
    "pair-10": ((2, 3), 10, 5, 6, 2, (6, 4)),
    "fifths-12": ((5, 5, 5), 12, 3, 5, 8, (4, 4, 4)),
    "sevenths-13": ((7,), 13, 1, 7, 78, (13,)),  # the loan lies past 10*m
    "input-order-10": ((4, 4, 3), 10, 10, 12, 2, (3, 3, 4)),
}
worked = pytest.mark.parametrize(
    "divisors, herd, r, m, loan, shares", list(WORKED.values()), ids=list(WORKED)
)


@worked
def test_solve_gives_the_worked_answer(divisors, herd, r, m, loan, shares):
    spec = validate_spec(list(divisors))
    fs = fraction_sum(spec)
    assert (spec.divisors, fs.r, fs.m) == (divisors, r, m)
    if loan is None:
        below, above = shares
        assert solve(spec, herd) == Infeasible(herd, r, below, above)
    else:
        assert solve(spec, herd) == LoanSolution(
            herd, loan, herd + loan, herd // r, shares
        )


@worked
def test_the_breakdown_tops_the_raw_shares_up_to_the_worked_shares(
    divisors, herd, r, m, loan, shares
):
    bd = fractional_breakdown(validate_spec(divisors), herd)
    assert bd.raw_shares == tuple(Fraction(herd, s) for s in divisors)
    assert bd.leftover == herd - sum(bd.raw_shares, Fraction(0))
    if loan is None:
        assert bd.topups == ()
    else:
        assert bd.topups == tuple(Fraction(loan, s) for s in divisors)
        assert tuple(a + b for a, b in zip(bd.raw_shares, bd.topups)) == shares


@worked
def test_the_oracle_finds_the_worked_loan_and_no_other(
    divisors, herd, r, m, loan, shares
):
    spec = validate_spec(divisors)
    bound = 10 * m
    found = loan is not None and loan <= bound
    assert exhaustive_hits(divisors, herd, bound) == ([loan] if found else [])
    expected = solve(spec, herd) if found else NotFoundWithinBound(herd, bound)
    assert oracle_solve(spec, herd, bound) == expected
    if loan is not None:  # the bound is inclusive
        assert oracle_solve(spec, herd, loan) == solve(spec, herd)
        assert oracle_solve(spec, herd, loan - 1) == NotFoundWithinBound(herd, loan - 1)


@given(st.lists(st.integers(1, 40), min_size=1, max_size=8))
@example([1])
@example([2, 3, 6])
@example([2, 3, 7, 42])
@example([2, 3, 7, 43])
@settings(max_examples=400)
def test_accepts_exactly_the_lists_summing_below_one(divisors):
    total = unit_sum(divisors)
    if total < 1:
        assert validate_spec(divisors).fraction_sum.reduced == total
        return
    with pytest.raises(ShareOverflow) as excinfo:
        validate_spec(divisors)
    assert excinfo.value.total == total
    assert str(excinfo.value) == str(ShareOverflow(total))


@given(valid_divisors(max_divisor=12))
@settings(max_examples=60)
def test_feasibility_agrees_between_unreduced_and_reduced_forms(divisors):
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


@given(valid_divisors(), st.integers(1, 50))
@example([2], 1)
def test_a_multiple_of_r_splits_and_is_narrated_share_by_share(divisors, a):
    spec = validate_spec(divisors)
    m, r = spec.fraction_sum.m, spec.fraction_sum.r
    sol = solve(spec, a * r)
    assert sol == LoanSolution(
        a * r, a * (m - r), a * m, a, tuple(a * (m // s) for s in divisors)
    )
    steps = explain(sol)
    assert len(steps) == len(divisors) + 3
    for i, (s, share) in enumerate(zip(divisors, sol.shares), start=1):
        assert f"1/{s} of {sol.augmented}: {share}" in steps[i]


@st.composite
def spec_with_permutation(draw):
    divisors = tuple(draw(valid_divisors()))
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


@given(
    st.one_of(valid_divisors(), valid_divisors(repeats=True)),
    st.one_of(st.integers(1, 400), st.integers(1, 10**30)),
)
@settings(max_examples=300)
@example([3, 3], 10**30)
@example([6, 6, 6, 6, 6], 10**30 - 1)
def test_leftover_is_the_herd_less_its_raw_shares(divisors, a):
    spec = validate_spec(divisors)
    fs = spec.fraction_sum
    for herd in (a, a * fs.r):  # the second is feasible
        bd = fractional_breakdown(spec, herd)
        assert bd.raw_shares == tuple(Fraction(herd, s) for s in divisors)
        assert bd.leftover == herd - sum(bd.raw_shares, Fraction(0))
        if herd % fs.r:
            assert bd.topups == ()
    assert sum(bd.topups, Fraction(0)) == bd.leftover
    shares = tuple(raw + topup for raw, topup in zip(bd.raw_shares, bd.topups))
    assert shares == solve(spec, herd).shares


@given(
    valid_divisors(max_divisor=60)
    .map(validate_spec)
    .filter(lambda spec: spec.fraction_sum.m <= 10**5),
    st.integers(1, 10**12),
    st.data(),
)
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
