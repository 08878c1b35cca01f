"""Enumerate puzzle divisor tuples whose minimal instance fits given bounds.

A puzzle here is a canonical (nondecreasing) divisor tuple together with
its smallest feasible herd r and the loan m - r that herd needs. The
classic one-borrowed-unit puzzles are exactly those with m - r = 1.
"""

from dataclasses import dataclass

from .errors import BoundsTooLarge, InvalidInput
from .solver import _m_and_r, validate_spec

DEFAULT_NODE_BUDGET = 10**7


@dataclass(frozen=True)
class SearchBounds:
    """Search box: exact heir count, divisor cap, optional loan cap."""

    heirs: int
    max_divisor: int
    max_loan: int | None = None  # None = unbounded
    allow_duplicates: bool = False

    def __post_init__(self):
        if self.heirs < 1:
            raise InvalidInput(f"heirs must be >= 1, got {self.heirs}")
        if self.max_divisor < 2:
            raise InvalidInput(f"max_divisor must be >= 2, got {self.max_divisor}")
        if self.max_loan is not None and self.max_loan < 0:
            raise InvalidInput(f"max_loan must be >= 0, got {self.max_loan}")


@dataclass(frozen=True)
class PuzzleRecord:
    """A canonical divisor tuple with its minimal feasible instance."""

    divisors: tuple[int, ...]  # nondecreasing
    r: int
    m: int
    minimal_herd: int  # == r
    minimal_loan: int  # == m - r, always >= 1


def canonicalize(divisors) -> tuple[int, ...]:
    """Nondecreasing form of a valid divisor list; idempotent."""
    spec = validate_spec(divisors)
    return tuple(sorted(spec.divisors))


def enumerate_specs(
    bounds: SearchBounds, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[PuzzleRecord]:
    """Every canonical tuple inside `bounds`, exactly once, in lex order.

    Depth-first search over nondecreasing tuples. A placement is cut when
    the partial sum already reaches 1, or when the remaining slots must
    push it there anyway (each later divisor is at most max_divisor, so it
    contributes at least 1/max_divisor). Each attempted placement costs one
    node against the budget; exceeding the budget raises rather than
    silently truncating.
    """
    k = bounds.heirs
    top = bounds.max_divisor
    records: list[PuzzleRecord] = []
    prefix: list[int] = []
    nodes = 0

    def emit():
        divisors = tuple(prefix)
        m, r = _m_and_r(divisors)
        loan = m - r
        if bounds.max_loan is None or loan <= bounds.max_loan:
            records.append(
                PuzzleRecord(
                    divisors=divisors, r=r, m=m, minimal_herd=r, minimal_loan=loan
                )
            )

    def extend(lo: int, num: int, den: int):
        # partial sum carried as the unreduced pair num/den; comparisons
        # against 1 and against the capacity bound stay exact this way and
        # cost integer multiplies instead of Fraction normalizations
        nonlocal nodes
        remaining = k - len(prefix)
        if remaining == 0:
            emit()
            return
        for s in range(lo, top + 1):
            nodes += 1
            if nodes > node_budget:
                raise BoundsTooLarge(
                    f"enumeration exceeded the node budget of {node_budget}"
                )
            new_num = num * s + den
            new_den = den * s
            # Larger s only shrinks the sum, so cuts skip this subtree
            # rather than the whole loop.
            if new_num >= new_den:
                continue
            # remaining - 1 more divisors, each contributing >= 1/top
            if new_num * top + (remaining - 1) * new_den >= new_den * top:
                continue
            prefix.append(s)
            extend(s if bounds.allow_duplicates else s + 1, new_num, new_den)
            prefix.pop()

    extend(2, 0, 1)
    return records
