"""A second brute-force loan scan, shared by the oracle and kernel tests."""


def exhaustive_hits(divisors, herd, bound):
    """All loans in 0..bound that work, found by plain big-int scanning.

    Deliberately reimplements the scan, one x at a time and with no early
    exit, so that the packaged kernel is checked against something that
    shares no code with it.
    """
    hits = []
    for x in range(bound + 1):
        t = herd + x
        if all(t % s == 0 for s in divisors) and sum(t // s for s in divisors) == herd:
            hits.append(x)
    return hits
