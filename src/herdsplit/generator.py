"""Enumerate puzzle divisor tuples whose minimal instance fits given bounds.

A puzzle here is a canonical (nondecreasing) divisor tuple together with
its smallest feasible herd r and the loan m - r that herd needs. The
classic one-borrowed-unit puzzles are exactly those with m - r = 1.
"""

from .errors import BoundsTooLarge, InvalidInput, require_int
from .solver import _m_and_r_step, _Record

DEFAULT_NODE_BUDGET = 10**7


class SearchBounds(_Record):
    """Search box: exact heir count, divisor cap, optional loan cap."""

    __slots__ = ("heirs", "max_divisor", "max_loan", "allow_duplicates")

    def __init__(
        self,
        heirs: int,
        max_divisor: int,
        max_loan: int | None = None,  # None = unbounded
        allow_duplicates: bool = False,
    ):
        require_int("heirs", heirs, 1)
        require_int("max_divisor", max_divisor, 2)
        if max_loan is not None:
            require_int("max_loan", max_loan, 0)
        if type(allow_duplicates) is not bool:
            raise InvalidInput(
                "allow_duplicates must be a bool, got {!r}", allow_duplicates
            )
        self._store(heirs, max_divisor, max_loan, allow_duplicates)


class PuzzleRecord(_Record):
    """A canonical divisor tuple with its minimal feasible instance."""

    __slots__ = (
        "divisors",  # nondecreasing
        "r",
        "m",
        "minimal_herd",  # == r
        "minimal_loan",  # == m - r, always >= 1
    )


def enumerate_specs(
    bounds: SearchBounds, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[PuzzleRecord]:
    """Every canonical tuple inside `bounds`, exactly once, in lex order.

    Depth-first search over nondecreasing tuples, in one loop. The divisors
    that fit a slot form one closed-form span. `gap`, the least step from a
    divisor to the next, is 0 with duplicates and 1 without: a span ends
    `gap` below max_divisor per slot left after it, and a child's starts
    `gap` past its parent.

    A loan cap L ends each span sooner, whatever max_divisor is. Say the
    prefix sums to r/m and `remaining` slots are left, this one included.
    Every later divisor is at least this slot's s, so the final lcm is a
    multiple of s and the final sum at most r/m + remaining/s: the loan,
    lcm * (1 - sum), is at least s*(m - r)/m - remaining, and s can be no
    more than (L + remaining)*m // (m - r). On the last slot the loan is
    exactly (s*(m - r) - m)/gcd(m, s), and gcd(m, s) <= s, so when
    m - r > L the slot also ends at m // (m - r - L). The borrow-one family
    (L = 1: 1/s_1 + ... + 1/s_k + 1/lcm = 1) is thus finite:
    7, 52 and 1,043 puzzles for 3, 4 and 5 heirs, found in 18, 209 and
    13,517 nodes with max_divisor 10**12.

    A backtrack moves the deepest slot on to its span's next divisor. Each
    admissible placement is one node; a span is charged whole when its slot
    opens, and exceeding the budget raises. The search runs twice: a first
    walk charges every span and builds nothing, so a search past the budget
    raises before it builds any record, and only then does a second walk
    build them.
    """
    try:
        bounds.heirs  # the first read of the bounds, checked in signature order
    except AttributeError:
        raise InvalidInput("bounds must be a SearchBounds, got {!r}", bounds) from None
    require_int("node_budget", node_budget, 0)
    _walk(bounds, node_budget, build=False)
    return _walk(bounds, node_budget, build=True)


def _walk(bounds: SearchBounds, node_budget: int, build: bool) -> list[PuzzleRecord]:
    """`enumerate_specs`'s search; it builds the records only when `build`."""
    top, loan_cap = bounds.max_divisor, bounds.max_loan
    gap = 0 if bounds.allow_duplicates else 1
    records: list[PuzzleRecord] = []
    prefix: list[int] = []
    # sums[i] is the exact (m, r) of prefix[:i] and the end of slot i's span
    sums: list[tuple[int, int, int]] = []
    m, r = 1, 0  # the exact (m, r) of the whole prefix
    nodes = 0
    s = 2  # the least divisor the opening slot may take
    while True:
        # The prefix's sum is exactly r/m, and each of the remaining - 1
        # later divisors adds at least 1/top, so s fits iff s*room > m*top.
        remaining = bounds.heirs - len(prefix)
        hi = top - gap * (remaining - 1)
        room = top * (m - r) - (remaining - 1) * m
        if room > 0:
            s = max(s, m * top // room + 1)
            if loan_cap is not None:
                hi = min(hi, (loan_cap + remaining) * m // (m - r))
                if remaining == 1 and m - r > loan_cap:
                    hi = min(hi, m // (m - r - loan_cap))
        else:
            s = hi + 1
        nodes += max(hi + 1 - s, 0)
        if nodes > node_budget:
            raise BoundsTooLarge(
                f"enumeration exceeded the node budget of {node_budget}"
            )
        if remaining == 1:
            # the first walk only charges the span
            for s in range(s, hi + 1) if build else ():
                new_m, new_r = _m_and_r_step(m, r, s)
                loan = new_m - new_r
                if loan_cap is None or loan <= loan_cap:
                    records.append(  # by position: keywords cost more per record
                        PuzzleRecord((*prefix, s), new_r, new_m, new_r, loan)
                    )
            s = hi + 1
        while s > hi:
            if not prefix:
                return records
            s = prefix.pop() + 1
            m, r, hi = sums.pop()
        prefix.append(s)
        sums.append((m, r, hi))
        m, r = _m_and_r_step(m, r, s)
        s += gap
