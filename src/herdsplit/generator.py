"""Enumerate puzzle divisor tuples whose minimal instance fits given bounds.

A puzzle here is a canonical (nondecreasing) divisor tuple together with
its smallest feasible herd r and the loan m - r that herd needs. The
classic one-borrowed-unit puzzles are exactly those with m - r = 1.
"""

from dataclasses import dataclass

from .errors import BoundsTooLarge, require_int
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
        require_int("heirs", self.heirs, 1)
        require_int("max_divisor", self.max_divisor, 2)
        if self.max_loan is not None:
            require_int("max_loan", self.max_loan, 0)


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

    Depth-first search over nondecreasing tuples, in one loop. The divisors
    that fit a slot form one closed-form span up to max_divisor, or, without
    duplicates, up to max_divisor less the slots still to fill after it. A
    backtrack moves the deepest slot on to its span's next divisor. Each
    admissible placement is one node; a span is charged whole when its slot
    opens, and exceeding the budget raises rather than truncating.
    """
    top = bounds.max_divisor
    records: list[PuzzleRecord] = []
    prefix: list[int] = []
    sums: list[tuple[int, int]] = []  # sums[i] is the exact (m, r) of prefix[:i]
    m, r = 1, 0  # the exact (m, r) of the whole prefix
    nodes = 0
    s = 2  # the least divisor the opening slot may take
    while True:
        # The prefix's sum is exactly r/m, and each of the remaining - 1
        # later divisors adds at least 1/top, so s fits iff s*room > m*top.
        remaining = bounds.heirs - len(prefix)
        # Without duplicates the remaining - 1 later divisors are distinct and
        # larger, so this slot's span ends at top + 1 - remaining.
        hi = top if bounds.allow_duplicates else top + 1 - remaining
        room = top * (m - r) - (remaining - 1) * m
        s = max(s, m * top // room + 1) if room > 0 else hi + 1
        nodes += max(hi + 1 - s, 0)
        if nodes > node_budget:
            raise BoundsTooLarge(
                f"enumeration exceeded the node budget of {node_budget}"
            )
        if remaining == 1:
            for s in range(s, top + 1):
                new_m, new_r = _m_and_r_step(m, r, s)
                loan = new_m - new_r
                if bounds.max_loan is None or loan <= bounds.max_loan:
                    records.append(
                        PuzzleRecord(
                            divisors=(*prefix, s),
                            r=new_r,
                            m=new_m,
                            minimal_herd=new_r,
                            minimal_loan=loan,
                        )
                    )
            s = hi + 1
        while s > hi:
            if not prefix:
                return records
            s = prefix.pop() + 1
            m, r = sums.pop()
            if not bounds.allow_duplicates:
                hi -= 1
        prefix.append(s)
        sums.append((m, r))
        m, r = _m_and_r_step(m, r, s)
        if not bounds.allow_duplicates:
            s += 1
