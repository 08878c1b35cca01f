"""Borrow-and-return division of indivisible units in unit-fraction ratios.

Heir i of k is entitled to 1/s_i of a herd of N indivisible units, with
1/s_1 + ... + 1/s_k < 1. Over the common denominator m = lcm{s_i} the
share sum is r/m with r = sum(m // s_i), kept unreduced on purpose. The
whole trick is characterized by r:

* a herd splits exactly after borrowing iff r divides N;
* then a = N/r, the augmented total is T = a*m = N + x, heir i takes
  T/s_i, the integer shares sum back to N, and the loan x = a*(m - r)
  goes back untouched (and is never zero, because r < m).

`fractional_breakdown` exposes the fractional view of the same fact: the
raw entitlements N/s_i leave a leftover of N*(m - r)/m, and the per-heir
top-ups x/s_i absorb it exactly.
"""

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

from . import _kernels
from .errors import InvalidInput, ShareOverflow, require_int


@dataclass(frozen=True)
class FractionSum:
    """The share sum written over the lcm denominator, unreduced."""

    m: int  # lcm of the divisors
    r: int  # sum of m // s_i; feasible herds are the positive multiples
    reduced: Fraction  # r/m in lowest terms


def _m_and_r_step(m: int, r: int, s: int) -> tuple[int, int]:
    """(m, r) of a divisor tuple with s appended, from the tuple's (m, r).

    m' = lcm(m, s), and every old term m // s_i scales by m' // m.
    """
    grown = math.lcm(m, s)
    return grown, r * (grown // m) + grown // s


def _m_and_r(divisors: tuple[int, ...]) -> tuple[int, int]:
    """(m, r) for positive divisors: m = lcm, r = sum(m // s_i)."""
    m, r = 1, 0
    for s in divisors:
        m, r = _m_and_r_step(m, r, s)
    return m, r


@dataclass(frozen=True)
class ShareSpec:
    """Validated divisor list: heir i gets 1/divisors[i], input order kept.

    Only constructible when the unit fractions sum to strictly less than 1.
    """

    divisors: tuple[int, ...]
    fraction_sum: FractionSum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            divisors = tuple(self.divisors)
        except TypeError:
            raise InvalidInput(
                "divisors must be an iterable of integers, got {!r}", self.divisors
            ) from None
        if not divisors:
            raise InvalidInput("at least one divisor is required")
        for s in divisors:
            if type(s) is not int or s < 1:
                raise InvalidInput("divisor {!r} is not a positive integer", s)
        m, r = _m_and_r(divisors)
        fs = FractionSum(m=m, r=r, reduced=Fraction(r, m))
        if r >= m:  # sum(1/s_i) = r/m
            raise ShareOverflow(fs.reduced)
        object.__setattr__(self, "divisors", divisors)
        object.__setattr__(self, "fraction_sum", fs)


@dataclass(frozen=True)
class LoanSolution:
    """A feasible split: borrow `loan`, divide `augmented`, return `loan`."""

    herd: int
    loan: int
    augmented: int  # herd + loan = multiplier * m
    multiplier: int  # herd // r
    shares: tuple[int, ...]  # shares[i] * s_i == augmented; sum == herd


@dataclass(frozen=True)
class Infeasible:
    """Diagnosis for a herd that is not a multiple of r."""

    herd: int
    r: int
    nearest_below: int | None  # largest feasible herd < herd, if any
    nearest_above: int  # smallest feasible herd > herd


@dataclass(frozen=True)
class NotFoundWithinBound:
    """A bounded brute-force scan found no working loan."""

    herd: int
    bound: int


@dataclass(frozen=True)
class FractionalBreakdown:
    """Exact fractional view of a division attempt."""

    raw_shares: tuple[Fraction, ...]  # herd / s_i
    leftover: Fraction  # herd - sum(raw_shares) = herd*(m - r)/m
    topups: tuple[Fraction, ...]  # loan / s_i when feasible, else empty


def validate_spec(divisors: Iterable[int]) -> ShareSpec:
    """Build a ShareSpec; reject empty, non-integer, nonpositive or overfull input."""
    return ShareSpec(divisors)


def fraction_sum(spec: ShareSpec) -> FractionSum:
    """The (r, m) pair for the spec, plus the reduced share sum r/m."""
    return spec.fraction_sum


def _loan(fs: FractionSum, herd: int) -> int | None:
    """The loan herd/r * (m - r) when r divides `herd`, else None."""
    require_int("herd", herd, 1)
    if herd % fs.r:
        return None
    return herd // fs.r * (fs.m - fs.r)


def _solution(spec: ShareSpec, herd: int, augmented: int) -> LoanSolution:
    """The split of `augmented` = herd + loan, a multiple of every divisor."""
    return LoanSolution(
        herd=herd,
        loan=augmented - herd,
        augmented=augmented,
        multiplier=augmented // spec.fraction_sum.m,
        shares=tuple(augmented // s for s in spec.divisors),
    )


def solve(spec: ShareSpec, herd: int) -> LoanSolution | Infeasible:
    """Split `herd` per the spec, or diagnose why no loan can work."""
    fs = spec.fraction_sum
    loan = _loan(fs, herd)
    if loan is None:
        below = herd // fs.r * fs.r
        return Infeasible(
            herd=herd,
            r=fs.r,
            nearest_below=below if below >= fs.r else None,
            nearest_above=below + fs.r,
        )
    return _solution(spec, herd, herd + loan)


def feasible_herds(spec: ShareSpec, limit: int) -> list[tuple[int, int]]:
    """All (herd, loan) pairs with herd <= limit, in increasing order."""
    require_int("limit", limit)
    fs = spec.fraction_sum
    per_step_loan = fs.m - fs.r
    return [(a * fs.r, a * per_step_loan) for a in range(1, limit // fs.r + 1)]


def fractional_breakdown(spec: ShareSpec, herd: int) -> FractionalBreakdown:
    """Raw fractional shares, leftover, and (when feasible) the top-ups.

    The leftover herd - sum(herd/s_i) is herd*(m - r)/m, read off the
    spec's (m, r) since sum(1/s_i) = r/m exactly. Works for any herd >= 1;
    the top-up list is empty when the herd is infeasible, since the
    leftover only decomposes into loan/s_i terms when a loan exists.
    """
    fs = spec.fraction_sum
    loan = _loan(fs, herd)
    raw = tuple(Fraction(herd, s) for s in spec.divisors)
    leftover = Fraction(herd * (fs.m - fs.r), fs.m)
    topups = () if loan is None else tuple(Fraction(loan, s) for s in spec.divisors)
    return FractionalBreakdown(raw_shares=raw, leftover=leftover, topups=topups)


def oracle_solve(
    spec: ShareSpec, herd: int, loan_bound: int
) -> LoanSolution | NotFoundWithinBound:
    """Brute-force reference: the first loan x in 0..loan_bound that makes
    every (herd + x)/s_i integral with the shares summing to herd.

    The scan (`_kernels.scan_first_loan`) uses none of the closed form
    above; it agrees with `solve` whenever the true loan lies within the
    bound. It jumps over the strides whose share total provably stays
    below the herd (one stride of max(s_i) adds at most
    sum(ceil(max(s_i) / s_i)) to the total), so a far loan costs
    O(log herd) totals plus at most one lcm-period of strides, not
    loan / max(s_i) strides.
    """
    require_int("herd", herd, 1)
    require_int("loan_bound", loan_bound)
    x = _kernels.scan_first_loan(herd, loan_bound, spec.divisors)
    if x is None:
        return NotFoundWithinBound(herd=herd, bound=loan_bound)
    return _solution(spec, herd, herd + x)


def explain(solution: LoanSolution) -> list[str]:
    """Narrate a solution: borrow, divide per heir, tally, return.

    Always len(shares) + 3 steps, every number drawn from the solution.
    """
    steps = [
        f"Borrow {solution.loan}: the pool grows from "
        f"{solution.herd} to {solution.augmented}."
    ]
    for i, share in enumerate(solution.shares, start=1):
        s = solution.augmented // share
        steps.append(f"Heir {i} takes 1/{s} of {solution.augmented}: {share}.")
    tally = " + ".join(str(share) for share in solution.shares)
    steps.append(f"Together the heirs hold {tally} = {solution.herd}.")
    steps.append(f"Return {solution.loan}: the borrowed units were never used.")
    return steps
