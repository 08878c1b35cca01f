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

import functools
import math
import operator
from collections.abc import Iterable

from . import _kernels
from .errors import InvalidInput, ShareOverflow, require_int


@functools.cache  # fractions loads on the first Fraction built, not at import
def _fraction_class():
    from fractions import Fraction

    return Fraction


def _ratios(numerator: int, denominators: Iterable[int]) -> list:
    """numerator/d for each d, as Fractions in lowest terms, one gcd each.

    The package's one Fraction builder, valid for an int numerator >= 0 and
    int denominators >= 1, which is what every caller passes. Then
    numerator//g over d//g, with g = gcd(numerator, d), is already reduced
    with a positive denominator, so it skips Fraction()'s type dispatch and
    stores the two slots directly, as CPython's own
    Fraction._from_coprime_ints does.
    """
    Fraction = _fraction_class()
    new, gcd = object.__new__, math.gcd
    out = []
    for d in denominators:
        g = gcd(numerator, d)
        q = new(Fraction)
        q._numerator = numerator // g
        q._denominator = d // g
        out.append(q)
    return out


class _Record:
    """Base of the immutable result records: a slotted class of fields.

    The fields are the class's own `_fields` when it names them, else its
    own `__slots__`. Like a frozen dataclass, a record is built from its
    fields by position or keyword, shows them in its repr, compares them
    with `==` only against its own class, hashes them, and raises
    AttributeError on assignment or deletion. A subclass that names no
    field of its own keeps its parent's.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        own = cls.__dict__
        fields = own.get("_fields") or own.get("__slots__")
        if not fields:
            return
        cls._fields = cls.__match_args__ = fields
        cls._values = operator.attrgetter(*fields)  # one field: its bare value
        if "__init__" not in own:  # from source, as dataclasses does: no *args cost
            source = f"def __init__(self, {', '.join(fields)}):\n" + "".join(
                f" _set(self, {f!r}, {f})\n" for f in fields
            )
            namespace = {"_set": object.__setattr__}
            exec(source, namespace)
            cls.__init__ = namespace["__init__"]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):  # copy and pickle rebuild through the checked __init__
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FractionSum(_Record):
    """The share sum written over the lcm denominator, unreduced."""

    __slots__ = (
        "m",  # lcm of the divisors
        "r",  # sum of m // s_i; feasible herds are the positive multiples
    )

    @property
    def reduced(self):
        """r/m in lowest terms, built when read, so a spec builds no Fraction.

        Built by `_ratios`, like every Fraction the solver returns.
        """
        return _ratios(self.r, (self.m,))[0]

    def __repr__(self):
        return f"FractionSum(m={self.m!r}, r={self.r!r}, reduced={self.reduced!r})"


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


class ShareSpec(_Record):
    """Validated divisor list: heir i gets 1/divisors[i], input order kept.

    Only constructible when the unit fractions sum to strictly less than 1.
    `fraction_sum` stays out of repr, == and hash.
    """

    _fields = ("divisors",)
    __slots__ = ("divisors", "fraction_sum")

    def __init__(self, divisors: Iterable[int]):
        try:
            divisors = tuple(divisors)
        except TypeError:
            raise InvalidInput(
                "divisors must be an iterable of integers, got {!r}", divisors
            ) from None
        if not divisors:
            raise InvalidInput("at least one divisor is required")
        for s in divisors:
            if type(s) is not int or s < 1:
                raise InvalidInput("divisor {!r} is not a positive integer", s)
        m, r = _m_and_r(divisors)
        fs = FractionSum(m, r)
        if r >= m:  # sum(1/s_i) = r/m
            raise ShareOverflow(fs.reduced)
        object.__setattr__(self, "divisors", divisors)
        object.__setattr__(self, "fraction_sum", fs)


class LoanSolution(_Record):
    """A feasible split: borrow `loan`, divide `augmented`, return `loan`."""

    __slots__ = (
        "herd",
        "loan",
        "augmented",  # herd + loan = multiplier * m
        "multiplier",  # herd // r
        "shares",  # shares[i] * s_i == augmented; sum == herd
    )


class Infeasible(_Record):
    """Diagnosis for a herd that is not a multiple of r."""

    __slots__ = (
        "herd",
        "r",
        "nearest_below",  # largest feasible herd < herd, or None
        "nearest_above",  # smallest feasible herd > herd
    )


class NotFoundWithinBound(_Record):
    """A bounded brute-force scan found no working loan."""

    __slots__ = ("herd", "bound")


class FractionalBreakdown(_Record):
    """Exact fractional view of a division attempt, in Fractions."""

    __slots__ = (
        "raw_shares",  # herd / s_i
        "leftover",  # herd - sum(raw_shares) = herd*(m - r)/m
        "topups",  # loan / s_i when feasible, else empty
    )


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
    return LoanSolution(  # by position: keywords cost more per record
        herd,
        augmented - herd,
        augmented,
        augmented // spec.fraction_sum.m,
        tuple([augmented // s for s in spec.divisors]),
    )


def solve(spec: ShareSpec, herd: int) -> LoanSolution | Infeasible:
    """Split `herd` per the spec, or diagnose why no loan can work."""
    fs = spec.fraction_sum
    loan = _loan(fs, herd)
    if loan is None:
        below = herd // fs.r * fs.r
        return Infeasible(  # herd, r, nearest_below, nearest_above
            herd, fs.r, below if below >= fs.r else None, below + fs.r
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
    leftover only decomposes into loan/s_i terms when a loan exists. Every
    value is built reduced by `_ratios`, one gcd each.
    """
    fs = spec.fraction_sum
    loan = _loan(fs, herd)
    divisors = spec.divisors
    raw = tuple(_ratios(herd, divisors))
    leftover = _ratios(herd * (fs.m - fs.r), (fs.m,))[0]
    topups = () if loan is None else tuple(_ratios(loan, divisors))
    return FractionalBreakdown(raw, leftover, topups)


def oracle_solve(
    spec: ShareSpec, herd: int, loan_bound: int
) -> LoanSolution | NotFoundWithinBound:
    """Brute-force reference: the first loan x in 0..loan_bound that makes
    every (herd + x)/s_i integral with the shares summing to herd.

    The scan (`_kernels.scan_first_loan`) uses none of the closed form
    above; it agrees with `solve` whenever the true loan lies within the
    bound. Over the multiples of max(s_i) the share total strictly
    increases, so only the first multiple whose total reaches the herd can
    split it. The scan jumps to that multiple over the strides whose total
    provably stays below the herd (one stride of max(s_i) adds at most
    sum(ceil(max(s_i) / s_i)) to the total), in O(log herd) totals however
    far the loan, and then tests that one candidate.
    """
    require_int("herd", herd, 1)
    require_int("loan_bound", loan_bound)
    x = _kernels.scan_first_loan(herd, loan_bound, spec.divisors)
    if x is None:
        return NotFoundWithinBound(herd, loan_bound)
    return _solution(spec, herd, herd + x)


def explain(solution: LoanSolution) -> list[str]:
    """Narrate a solution: borrow, divide per heir, tally, return.

    Always len(shares) + 3 steps, every number drawn from the solution.
    Anything but a LoanSolution (an Infeasible included) is InvalidInput.
    """
    if not isinstance(solution, LoanSolution):
        raise InvalidInput("solution must be a LoanSolution, got {!r}", solution)
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
