"""Enumerate puzzle divisor tuples whose minimal instance fits given bounds.

A puzzle here is a canonical (nondecreasing) divisor tuple together with
its smallest feasible herd r and the loan m - r that herd needs. The
classic one-borrowed-unit puzzles are exactly those with m - r = 1.
"""

from dataclasses import dataclass

from .errors import BoundsTooLarge, InvalidInput
from .solver import _m_and_r_step

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


def enumerate_specs(
    bounds: SearchBounds, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[PuzzleRecord]:
    """Every canonical tuple inside `bounds`, exactly once, in lex order.

    Depth-first search over nondecreasing tuples. A prefix's partial sum
    only shrinks as its next divisor grows, so the divisors that fit the
    next slot form one closed-form span, up to max_divisor. Each admissible
    placement costs one node against the budget; a whole span is charged
    before it is walked, and exceeding the budget raises rather than
    silently truncating.
    """
    k = bounds.heirs
    top = bounds.max_divisor
    records: list[PuzzleRecord] = []
    prefix: list[int] = []
    nodes = 0

    def extend(lo: int, m: int, r: int):
        # The prefix's sum is exactly r/m, and each of the remaining - 1
        # later divisors adds at least 1/top, so s fits iff s*room > m*top.
        # The fitting s form one span, charged whole before it is walked.
        nonlocal nodes
        remaining = k - len(prefix)
        room = top * (m - r) - (remaining - 1) * m
        span = range(max(lo, m * top // room + 1) if room > 0 else top + 1, top + 1)
        nodes += len(span)
        if nodes > node_budget:
            raise BoundsTooLarge(
                f"enumeration exceeded the node budget of {node_budget}"
            )
        for s in span:
            new_m, new_r = _m_and_r_step(m, r, s)
            loan = new_m - new_r
            if remaining > 1:
                prefix.append(s)
                extend(s if bounds.allow_duplicates else s + 1, new_m, new_r)
                prefix.pop()
            elif bounds.max_loan is None or loan <= bounds.max_loan:
                records.append(
                    PuzzleRecord(
                        divisors=(*prefix, s),
                        r=new_r,
                        m=new_m,
                        minimal_herd=new_r,
                        minimal_loan=loan,
                    )
                )

    extend(2, 1, 0)
    return records
