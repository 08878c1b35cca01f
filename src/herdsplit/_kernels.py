"""Brute-force loan scan, the package's independent check on the closed form.

A loan x in 0..bound splits herd when every (herd + x) / s_i is an exact
integer and those integer shares sum back to herd. The scan tests the
candidates t = herd + x directly on exact ints, so no magnitude overflows.
t has to be a multiple of the largest divisor top, so it steps over those
multiples and tests every divisor on each.

The share total sum(t // s_i) never decreases as t grows, for any sign of t.
On positive divisors it strictly increases over the t that every divisor
divides, so the first such t whose total reaches herd settles the scan: it
hits if the total equals herd, and no later t can.

Before that walk the scan skips the strides that cannot reach herd. One
stride of top raises t // s by at most ceil(top / s), so the total rises by
at most most = sum(ceil(top / s_i)) per stride. While the total at t is
short of herd by short > 0, the next ceil(short / most) - 1 strides stay
below herd, so t jumps ceil(short / most) strides at once. Each jump closes
at least half the gap, and the walk that follows finds a hit, or settles
the scan, within one lcm-period of strides.

The scan never uses the closed form's m, r or lcm, nor a float or a true
division; this module imports nothing, so the oracle stays independent of
the solver it checks.
"""


def scan_first_loan(herd: int, bound: int, divisors: tuple[int, ...]) -> int | None:
    """First x in 0..bound that splits herd exactly, or None.

    Raises ValueError unless divisors is a non-empty tuple of integers >= 1.
    """
    if not divisors or min(divisors) < 1:
        raise ValueError(f"divisors must be integers >= 1, got {divisors!r}")
    top = max(divisors)
    # Plain loops, not sum() over a generator: a scan takes only a few
    # totals, and on a short window a generator per total costs more than
    # the strides the skip saves.
    most = 0
    for s in divisors:
        most += -(-top // s)
    start = -(-herd // top) * top
    while True:
        short = herd
        for s in divisors:
            short -= start // s
        if short <= 0:
            break
        start += -(-short // most) * top
    for t in range(start, herd + bound + 1, top):
        for s in divisors:
            if t % s:
                break
        else:
            total = 0
            for s in divisors:
                total += t // s
            if total >= herd:
                return t - herd if total == herd else None
    return None
