"""One rule for bad input: every argument outside an operation's domain,
non-integers included, raises InvalidInput with one message format."""

from fractions import Fraction
from functools import partial

import pytest

from herdsplit import (
    InvalidInput,
    LoanSolution,
    NotFoundWithinBound,
    SearchBounds,
    feasible_herds,
    fractional_breakdown,
    oracle_solve,
    solve,
    validate_spec,
)

CLASSIC = validate_spec((2, 3, 9))
NOT_INTS = [17.0, True, "17", Fraction(17)]


def _herd_cases():
    for herd in NOT_INTS:
        message = f"herd must be an integer, got {herd!r}"
        for op, args in [
            (solve, ()),
            (fractional_breakdown, ()),
            (oracle_solve, (100,)),
        ]:
            call = partial(op, CLASSIC, herd, *args)
            yield pytest.param(call, message, id=f"{op.__name__}-{herd!r}")


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: validate_spec((2.0, 3, 9)),
            "divisor 2.0 is not a positive integer",
            id="float-divisor",
        ),
        pytest.param(
            lambda: validate_spec((True, 3)),
            "divisor True is not a positive integer",
            id="bool-divisor",
        ),
        *_herd_cases(),
        pytest.param(
            lambda: oracle_solve(CLASSIC, 17, 10.0),
            "loan_bound must be an integer, got 10.0",
            id="oracle-bound",
        ),
        pytest.param(
            lambda: feasible_herds(CLASSIC, 40.0),
            "limit must be an integer, got 40.0",
            id="herds-limit",
        ),
        pytest.param(
            lambda: SearchBounds(2.0, 6),
            "heirs must be an integer, got 2.0",
            id="heirs",
        ),
        pytest.param(
            lambda: SearchBounds(2, 6.0),
            "max_divisor must be an integer, got 6.0",
            id="max-divisor",
        ),
        pytest.param(
            lambda: SearchBounds(2, 6, 1.5),
            "max_loan must be an integer, got 1.5",
            id="max-loan",
        ),
        # rounds to 1.7e+18, a multiple of r = 17: in floats it would split, loan 1e+17
        pytest.param(
            lambda: solve(CLASSIC, float(17 * 10**17 + 17)),
            "herd must be an integer, got 1.7e+18",
            id="float-herd",
        ),
    ],
)
def test_a_non_integer_argument_is_invalid_input(call, message):
    with pytest.raises(InvalidInput) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_int_arguments_keep_their_results():
    herd = 17 * 10**17 + 17
    assert solve(CLASSIC, herd).loan == 100000000000000001
    assert oracle_solve(CLASSIC, 17, -1) == NotFoundWithinBound(herd=17, bound=-1)
    assert isinstance(oracle_solve(CLASSIC, 17, 10), LoanSolution)
    assert feasible_herds(CLASSIC, -5) == []
    assert feasible_herds(CLASSIC, 40) == [(17, 1), (34, 2)]
    assert SearchBounds(2, 6, 0).max_loan == 0
    assert fractional_breakdown(CLASSIC, 17).topups == (
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 9),
    )
