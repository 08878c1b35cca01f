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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from . import _kernels
from .arith import Rational, rat_sum
from .errors import (
    EmptySpec,
    HerdZero,
    InfeasibleHerd,
    NonPositiveDivisor,
    ShareOverflow,
)


@dataclass(frozen=True)
class FractionSum:
    """The share sum written over the lcm denominator, unreduced."""

    m: int  # lcm of the divisors
    r: int  # sum of m // s_i; feasible herds are the positive multiples
    reduced: Rational  # r/m in lowest terms


def _m_and_r(divisors: tuple[int, ...]) -> tuple[int, int]:
    """(m, r) for positive divisors: m = lcm, r = sum(m // s_i)."""
    m = math.lcm(*divisors)
    return m, sum(m // s for s in divisors)


@dataclass(frozen=True)
class ShareSpec:
    """Validated divisor list: heir i gets 1/divisors[i], input order kept.

    Only constructible when the unit fractions sum to strictly less than 1;
    use `validate_spec` for a checked build from raw input.
    """

    divisors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "divisors", tuple(self.divisors))
        if not self.divisors:
            raise EmptySpec("at least one divisor is required")
        for s in self.divisors:
            if s < 1:
                raise NonPositiveDivisor(f"divisor {s} is not a positive integer")
        fs = self.fraction_sum
        if fs.r >= fs.m:  # sum(1/s_i) = r/m
            raise ShareOverflow(fs.reduced)

    @cached_property
    def fraction_sum(self) -> FractionSum:
        m, r = _m_and_r(self.divisors)
        return FractionSum(m=m, r=r, reduced=Fraction(r, m))

    @property
    def heirs(self) -> int:
        return len(self.divisors)


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

    raw_shares: tuple[Rational, ...]  # herd / s_i
    leftover: Rational  # herd - sum(raw_shares)
    topups: tuple[Rational, ...]  # loan / s_i when feasible, else empty


def validate_spec(divisors: Iterable[int]) -> ShareSpec:
    """Build a ShareSpec, rejecting empty, nonpositive, or overfull input."""
    return ShareSpec(tuple(divisors))


def fraction_sum(spec: ShareSpec) -> FractionSum:
    """The (r, m) pair for the spec, plus the reduced share sum r/m."""
    return spec.fraction_sum


def _loan(fs: FractionSum, herd: int) -> int | None:
    """The loan herd/r * (m - r) when r divides `herd`, else None."""
    if herd < 1:
        raise HerdZero(f"herd must be >= 1, got {herd}")
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


def required_loan(spec: ShareSpec, herd: int) -> int:
    """The unique loan for a feasible herd: herd/r * (m - r)."""
    fs = spec.fraction_sum
    loan = _loan(fs, herd)
    if loan is None:
        raise InfeasibleHerd(
            f"herd {herd} is not a multiple of r = {fs.r}; no loan works"
        )
    return loan


def feasible_herds(spec: ShareSpec, limit: int) -> list[tuple[int, int]]:
    """All (herd, loan) pairs with herd <= limit, in increasing order."""
    fs = spec.fraction_sum
    per_step_loan = fs.m - fs.r
    return [(a * fs.r, a * per_step_loan) for a in range(1, limit // fs.r + 1)]


def minimal_instance(spec: ShareSpec) -> tuple[int, int]:
    """The smallest feasible herd and its loan: (r, m - r)."""
    fs = spec.fraction_sum
    return (fs.r, fs.m - fs.r)


def fractional_breakdown(spec: ShareSpec, herd: int) -> FractionalBreakdown:
    """Raw fractional shares, leftover, and (when feasible) the top-ups.

    Works for any herd >= 1; the top-up list is empty when the herd is
    infeasible, since the leftover only decomposes into loan/s_i terms
    when a loan exists.
    """
    loan = _loan(spec.fraction_sum, herd)
    raw = tuple(Fraction(herd, s) for s in spec.divisors)
    leftover = herd - rat_sum(raw)
    topups = () if loan is None else tuple(Fraction(loan, s) for s in spec.divisors)
    return FractionalBreakdown(raw_shares=raw, leftover=leftover, topups=topups)


def oracle_solve(
    spec: ShareSpec, herd: int, loan_bound: int
) -> LoanSolution | NotFoundWithinBound:
    """Brute-force reference: scan x = 0..loan_bound for the first loan
    that makes every (herd + x)/s_i integral with the shares summing to herd.

    Independent of the closed form above; agrees with `solve` whenever the
    true loan lies within the bound.
    """
    if herd < 1:
        raise HerdZero(f"herd must be >= 1, got {herd}")
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
