"""Brute-force loan scan, the package's independent check on the closed form.

A loan x in 0..bound splits herd when every (herd + x) / s_i is an exact
integer and those integer shares sum back to herd. The scan tests the
candidates t = herd + x directly on exact ints, so no magnitude overflows.
Its only shortcut is a stride: t has to be a multiple of the largest
divisor, so it steps over those multiples and tests every divisor on each.

On positive divisors the share total sum(t // s_i) strictly increases over
the t that every divisor divides, so the first such t whose total reaches
herd settles the scan: it hits if the total equals herd, and no later t can.

The scan never uses the closed form's m, r or lcm; this module imports
nothing, so the oracle stays independent of the solver it checks.
"""


def scan_first_loan(herd: int, bound: int, divisors: tuple[int, ...]) -> int | None:
    """First x in 0..bound that splits herd exactly, or None.

    Raises ValueError unless divisors is a non-empty tuple of integers >= 1.
    """
    if not divisors or min(divisors) < 1:
        raise ValueError(f"divisors must be integers >= 1, got {divisors!r}")
    top = max(divisors)
    for t in range(-(-herd // top) * top, herd + bound + 1, top):
        for s in divisors:
            if t % s:
                break
        else:
            total = sum(t // s for s in divisors)
            if total >= herd:
                return t - herd if total == herd else None
    return None
