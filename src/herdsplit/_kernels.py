"""Brute-force loan scan, the package's independent check on the closed form.

A loan x in 0..bound splits herd when every (herd + x) / s_i is an exact
integer and those integer shares sum back to herd. The scan tests the
candidates t = herd + x directly on exact ints, so no magnitude overflows.
t has to be a multiple of the largest divisor top, so only those multiples
are candidates.

From one multiple of top to the next, t // top grows by 1 and no other
t // s_i shrinks, so the share total sum(t // s_i) strictly increases over
the candidates. The first candidate whose total reaches herd therefore
settles the scan: every earlier one falls short of herd, every later one
passes it. That candidate is the answer if its total equals herd, every
divisor divides it and its loan is within bound; otherwise no loan is.

The scan finds it without walking. One stride of top raises t // s by at
most ceil(top / s), so the total rises by at most most = sum(ceil(top / s_i))
per stride. While the total at t is short of herd by short > 0, the next
ceil(short / most) - 1 strides stay below herd, so t jumps ceil(short / most)
strides at once. Each jump closes at least half the gap, so a scan takes
O(log herd) totals whatever the loan.

The scan never uses the closed form's m, r or lcm, nor a float or a true
division; this module imports nothing, so the oracle stays independent of
the solver it checks.
"""


def scan_first_loan(herd: int, bound: int, divisors: tuple[int, ...]) -> int | None:
    """First x in 0..bound that splits herd exactly, or None.

    Raises ValueError unless divisors is a non-empty tuple of ints >= 1,
    so a bool, float or str divisor raises it too.
    """
    # Plain loops, not min(), max() or sum() over a generator: the tuples
    # are short, and a builtin call costs more than its loop. Each divisor's
    # type is checked before it is compared with an int, so a float, bool or
    # str divisor raises the ValueError below, not a TypeError or a scan.
    top = 0
    for s in divisors:
        if type(s) is not int or s < 1:
            top = 0
            break
        if s > top:
            top = s
    if not top:  # empty, or a divisor that is not an int >= 1
        raise ValueError(f"divisors must be integers >= 1, got {divisors!r}")
    most = 0
    for s in divisors:
        most += -(-top // s)
    t = -(-herd // top) * top
    while True:
        short = herd
        for s in divisors:
            short -= t // s
        if short <= 0:
            break
        t += -(-short // most) * top
    if short or t - herd > bound:
        return None
    for s in divisors:
        if t % s:
            return None
    return t - herd
