"""One rule for bad input: every argument outside an operation's domain,
non-integers included, raises InvalidInput with one message format."""

import sys
from fractions import Fraction
from functools import partial

import pytest

from herdsplit import (
    InvalidInput,
    LoanSolution,
    NotFoundWithinBound,
    SearchBounds,
    ShareOverflow,
    ShareSpec,
    enumerate_specs,
    explain,
    feasible_herds,
    fraction_sum,
    fractional_breakdown,
    oracle_solve,
    solve,
    validate_spec,
)

CLASSIC = validate_spec((2, 3, 9))
NOT_INTS = [17.0, True, "17", Fraction(17)]
# each operation that takes a herd, with the arguments after it
HERD_OPS = [(solve, ()), (fractional_breakdown, ()), (oracle_solve, (100,))]


def _herd_cases():
    for herd in NOT_INTS:
        message = f"herd must be an integer, got {herd!r}"
        for op, args in HERD_OPS:
            call = partial(op, CLASSIC, herd, *args)
            yield pytest.param(call, message, id=f"{op.__name__}-{herd!r}")


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: validate_spec(()),
            "at least one divisor is required",
            id="no-divisor",
        ),
        pytest.param(
            lambda: validate_spec((2, 0, 5)),
            "divisor 0 is not a positive integer",
            id="zero-divisor",
        ),
        pytest.param(
            lambda: validate_spec((2, -3)),
            "divisor -3 is not a positive integer",
            id="negative-divisor",
        ),
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
        *(
            pytest.param(
                partial(build, bad),
                f"divisors must be an iterable of integers, got {bad!r}",
                id=f"{build.__name__}-{bad!r}",
            )
            for build, bad in [
                (validate_spec, 5), (validate_spec, None), (ShareSpec, 17.0)
            ]
        ),
        *_herd_cases(),
        *(
            pytest.param(
                partial(op, CLASSIC, 0, *args),
                "herd must be >= 1, got 0",
                id=f"{op.__name__}-zero",
            )
            for op, args in HERD_OPS
        ),
        pytest.param(
            lambda: oracle_solve(CLASSIC, 17, 10.0),
            "loan_bound must be an integer, got 10.0",
            id="oracle-bound",
        ),
        pytest.param(
            lambda: oracle_solve(CLASSIC, 17, True),
            "loan_bound must be an integer, got True",
            id="oracle-bool-bound",
        ),
        # both are bad: the herd is reported first
        pytest.param(
            lambda: oracle_solve(CLASSIC, 0, 10.0),
            "herd must be >= 1, got 0",
            id="oracle-herd-first",
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
        *(
            pytest.param(
                partial(SearchBounds, 2, 6, allow_duplicates=flag),
                f"allow_duplicates must be a bool, got {flag!r}",
                id=f"allow-duplicates-{flag!r}",
            )
            for flag in ["no", 1, 0, None]
        ),
        *(
            pytest.param(
                partial(enumerate_specs, SearchBounds(2, 6), budget),
                f"node_budget must be an integer, got {budget!r}",
                id=f"node-budget-{budget!r}",
            )
            for budget in ["x", None, 10.5, True]
        ),
        *(
            pytest.param(
                partial(explain, bad),
                f"solution must be a LoanSolution, got {bad!r}",
                id=f"explain-{type(bad).__name__}",
            )
            for bad in [solve(CLASSIC, 16), None]
        ),
        # anything but a spec or bounds, checked before the later (bad) arguments
        *(
            pytest.param(
                partial(op, bad, *args),
                f"spec must be a ShareSpec, got {bad!r}",
                id=f"{op.__name__}-spec-{type(bad).__name__}",
            )
            for op, args in [
                (solve, (0,)),
                (fractional_breakdown, (0,)),
                (feasible_herds, (40.0,)),
                (fraction_sum, ()),
                (oracle_solve, (0, 10.0)),
            ]
            for bad in [(2, 3, 9), None]
        ),
        *(
            pytest.param(
                partial(enumerate_specs, bad, "x"),
                f"bounds must be a SearchBounds, got {bad!r}",
                id=f"enumerate-bounds-{type(bad).__name__}",
            )
            for bad in [None, (3, 9)]
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


BIG = 10**5000  # past CPython's 4300-digit int-to-str limit
BIG_TEXT = "1" + "0" * 5000


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            partial(validate_spec, (2, 2, BIG + 1)),
            ShareOverflow,
            f"share sum 1{'0' * 4999}2/1{'0' * 4999}1 exceeds 1",
            id="share-sum",
        ),
        pytest.param(
            partial(validate_spec, (-BIG,)),
            InvalidInput,
            f"divisor -{BIG_TEXT} is not a positive integer",
            id="divisor",
        ),
        pytest.param(
            partial(validate_spec, BIG),
            InvalidInput,
            f"divisors must be an iterable of integers, got {BIG_TEXT}",
            id="divisors",
        ),
        *(
            pytest.param(
                partial(op, CLASSIC, -BIG, *args),
                InvalidInput,
                f"herd must be >= 1, got -{BIG_TEXT}",
                id=f"{op.__name__}-herd",
            )
            for op, args in HERD_OPS
        ),
        pytest.param(
            partial(solve, CLASSIC, Fraction(BIG, 3)),
            InvalidInput,
            f"herd must be an integer, got Fraction({BIG_TEXT}, 3)",
            id="fraction-herd",
        ),
        pytest.param(
            partial(SearchBounds, -BIG, 6),
            InvalidInput,
            f"heirs must be >= 1, got -{BIG_TEXT}",
            id="heirs",
        ),
        pytest.param(
            partial(SearchBounds, 3, 9, -BIG),
            InvalidInput,
            f"max_loan must be >= 0, got -{BIG_TEXT}",
            id="max-loan",
        ),
        pytest.param(
            partial(SearchBounds, 3, 9, allow_duplicates=BIG),
            InvalidInput,
            f"allow_duplicates must be a bool, got {BIG_TEXT}",
            id="allow-duplicates",
        ),
    ],
)
def test_a_value_past_the_digit_limit_raises_the_package_class(call, error, message):
    # the text is built when read, so only str() needs the lifted limit
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert str(excinfo.value) == message
    finally:
        sys.set_int_max_str_digits(limit)


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


def test_a_spec_has_one_checked_build():
    spec = ShareSpec([2, 3, 9])
    assert spec == validate_spec((2, 3, 9)) == CLASSIC
    assert hash(spec) == hash(CLASSIC)
    assert repr(spec) == "ShareSpec(divisors=(2, 3, 9))"
    # a spec with other divisors is rebuilt by the same checked build
    assert validate_spec((2, 3, 7)).fraction_sum.m == 42
    with pytest.raises(ShareOverflow):
        validate_spec((2, 2))
