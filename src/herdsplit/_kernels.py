"""Brute-force loan-scan kernels.

The reference scan tries x = 0, 1, ..., bound and stops at the first x for
which every (herd + x) / s_i is an exact integer and those integer shares
sum back to herd. It is the package's independent check on the closed-form
solver, so no path uses the closed form: each tests the values one by one.

* ``numpy``  - chunked vectorized scan, the default (``HERDSPLIT_BACKEND``
  ``auto`` or ``numpy``); numpy is imported by the first scan only.
  Consecutive calls on one divisor tuple reuse a memo of what the scan saw.
* ``python`` - unbounded-int loop, the reference; forced with
  ``HERDSPLIT_BACKEND=python`` and taken automatically whenever herd + bound
  could overflow int64 arithmetic, so the numpy path never wraps.
"""

import os

BACKEND_ENV_VAR = "HERDSPLIT_BACKEND"

_CHUNK = 1 << 14
# k shares of at most (herd + bound) each must stay clear of int64.
_INT64_GUARD = 2**62

# (divisors, lo, hi, top, first): the last positive divisors the numpy path
# scanned; first[sum(t // s_i)] = t for each t in [lo, hi] that every divisor
# divides; top the largest such total, or -_INT64_GUARD (below any herd the
# numpy path takes). Replaced whole, never mutated.
_memo = (None, 0, -1, -_INT64_GUARD, {})
_AHEAD = 8 * _CHUNK  # most values a memo extension scans past its answer


def backend_choice() -> str:
    """Resolve the backend name from the environment ("auto" by default)."""
    choice = os.environ.get(BACKEND_ENV_VAR, "auto").strip().lower()
    if choice in ("", "auto"):
        return "numpy"
    if choice not in ("numpy", "python"):
        raise ValueError(
            f"{BACKEND_ENV_VAR}={choice!r}: expected auto, numpy or python"
        )
    return choice


def _effective_backend(herd: int, bound: int, heirs: int) -> str:
    """Backend that will actually run, after the overflow guard."""
    choice = backend_choice()
    if max(herd + bound, -herd) * max(heirs, 1) >= _INT64_GUARD:
        return "python"
    return choice


def _scan_python(herd, bound, divisors):
    for x in range(bound + 1):
        t = herd + x
        for s in divisors:
            if t % s:
                break
        else:
            if sum(t // s for s in divisors) == herd:
                return x
    return None


def _divisible(lo, hi, divisors, chunk=_CHUNK):
    """Yield (last, t, totals) per chunk of [lo, hi]: the chunk's last value,
    the t in it that every divisor divides, in increasing order, and their
    share totals sum(t // s_i)."""
    import numpy as np

    divs = np.asarray(divisors, dtype=np.int64)
    for start in range(lo, hi + 1, chunk):
        last = min(start + chunk - 1, hi)
        t = np.arange(start, last + 1, dtype=np.int64)
        ok = np.ones(t.shape[0], dtype=np.bool_)
        for s in divs:
            ok &= t % s == 0
        cand = t[ok]
        yield last, cand, sum((cand // s for s in divs), np.zeros_like(cand))


def _scan_numpy(herd, bound, divisors, chunk=_CHUNK):
    for _, cand, totals in _divisible(herd, herd + bound, divisors, chunk):
        hit = totals == herd
        if hit.any():
            return int(cand[hit.argmax()]) - herd
    return None


def _scan_memo(herd, bound, divisors):
    """`_scan_numpy` for positive divisors, answered from `_memo` when the
    divisors repeat (recording for every new tuple put `oracle-fresh` peak
    RSS up 14%). Share totals strictly increase over the t every divisor
    divides, so a total names at most one t, and no t past a total >= herd
    hits: once [herd, hi] reaches end or such a total, the hit is first[herd]
    if it lies in [herd, end]. Until then the memo grows (or restarts at
    herd) by chunks, then by up to its span (at most _AHEAD) more, below the
    int64 guard.
    """
    global _memo
    end = herd + bound
    key, lo, hi, top, first = _memo
    if key != divisors:
        _memo = (divisors, 0, -1, -_INT64_GUARD, {})
        return _scan_numpy(herd, bound, divisors)
    if not lo <= herd <= hi + 1:
        lo, hi, top, first = herd, herd - 1, -_INT64_GUARD, {}
    if hi < end and top < herd:
        stop = cap = (_INT64_GUARD - 1) // len(divisors)
        ahead, first = min(hi - lo + 1, _AHEAD), dict(first)
        for hi, cand, totals in _divisible(hi + 1, cap, divisors):
            if cand.size:
                first.update(zip(totals.tolist(), cand.tolist()))
                top = int(totals[-1])
            if hi >= end or top >= herd:
                stop = min(stop, hi + ahead)
            if hi >= stop:
                break
        _memo = (divisors, lo, hi, top, first)
    t = first.get(herd)
    return t - herd if t is not None and herd <= t <= end else None


def scan_first_loan(herd: int, bound: int, divisors) -> int | None:
    """First x in 0..bound that splits herd exactly, or None.

    Exact for arbitrary magnitudes: the numpy path only runs when every
    intermediate value provably fits in int64.
    """
    if bound < 0:
        return None
    if _effective_backend(herd, bound, len(divisors)) == "python":
        return _scan_python(herd, bound, divisors)
    divisors = tuple(divisors)
    scan = _scan_memo if divisors and min(divisors) > 0 else _scan_numpy
    return scan(herd, bound, divisors)
