"""The package's public surface: every exported name, the retired ones, and
the contract every result record keeps."""

import copy
import importlib
import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import herdsplit
from herdsplit import (
    FractionalBreakdown,
    FractionSum,
    Infeasible,
    LoanSolution,
    NotFoundWithinBound,
    PuzzleRecord,
    SearchBounds,
    ShareSpec,
    solve,
    validate_spec,
)


def test_every_exported_name_resolves_once():
    assert len(set(herdsplit.__all__)) == len(herdsplit.__all__)
    for name in herdsplit.__all__:
        assert hasattr(herdsplit, name), name


def test_the_public_names_are_exactly_these():
    assert sorted(herdsplit.__all__) == [
        "BoundsTooLarge",
        "DEFAULT_NODE_BUDGET",
        "FractionSum",
        "FractionalBreakdown",
        "HerdsplitError",
        "Infeasible",
        "InvalidInput",
        "LoanSolution",
        "NotFoundWithinBound",
        "PuzzleRecord",
        "SearchBounds",
        "ShareOverflow",
        "ShareSpec",
        "enumerate_specs",
        "explain",
        "feasible_herds",
        "fraction_sum",
        "fractional_breakdown",
        "oracle_solve",
        "solve",
        "validate_spec",
    ]


# -S skips site, whose .pth files may preload modules; src/ is put on the path.
BARE_IMPORT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import herdsplit
seen = {"loaded": sorted(m for m in sys.modules if m.startswith("herdsplit."))}
seen["dir"] = dir(herdsplit)
seen["generator"] = herdsplit.generator.__name__
try:
    herdsplit.Rational
except AttributeError as exc:
    seen["unknown"] = str(exc)
star = {}
exec("from herdsplit import *", star)
seen["star"] = sorted(star.keys() - {"__builtins__"})
print(json.dumps(seen))
"""


def test_a_bare_import_loads_no_submodule_and_each_name_on_first_read():
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", BARE_IMPORT, src],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["loaded"] == []
    assert set(herdsplit.__all__) <= set(seen["dir"])
    assert seen["generator"] == "herdsplit.generator"
    assert seen["unknown"] == "module 'herdsplit' has no attribute 'Rational'"
    assert seen["star"] == sorted(herdsplit.__all__)


# Retired names; README's Library section gives the spelling to use for each.
@pytest.mark.parametrize(
    "name",
    [
        "Rational",
        "gcd",
        "lcm_all",
        "rat_sum",
        "required_loan",
        "minimal_instance",
        "canonicalize",
        "InfeasibleHerd",
        "EmptySpec",
        "NonPositiveDivisor",
        "HerdZero",
    ],
)
def test_retired_name_is_absent(name):
    assert name not in herdsplit.__all__
    assert not hasattr(herdsplit, name)


def test_retired_names_are_gone_from_their_modules_too():
    assert not hasattr(herdsplit.ShareSpec, "heirs")
    for name in ("InfeasibleHerd", "EmptySpec", "NonPositiveDivisor", "HerdZero"):
        assert not hasattr(herdsplit.errors, name), name
    assert not hasattr(herdsplit.generator, "canonicalize")


def test_arith_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("herdsplit.arith")


# record class, its fields by keyword, and its repr as a frozen dataclass gave it
RECORDS = [
    (ShareSpec, {"divisors": (2, 3, 9)}, "ShareSpec(divisors=(2, 3, 9))"),
    (FractionSum, {"m": 18, "r": 17}, "FractionSum(m=18, r=17, reduced=Fraction(17, 18))"),
    (
        LoanSolution,
        {"herd": 17, "loan": 1, "augmented": 18, "multiplier": 1, "shares": (9, 6, 2)},
        "LoanSolution(herd=17, loan=1, augmented=18, multiplier=1, shares=(9, 6, 2))",
    ),
    (
        Infeasible,
        {"herd": 16, "r": 17, "nearest_below": None, "nearest_above": 17},
        "Infeasible(herd=16, r=17, nearest_below=None, nearest_above=17)",
    ),
    (
        NotFoundWithinBound,
        {"herd": 17, "bound": -1},
        "NotFoundWithinBound(herd=17, bound=-1)",
    ),
    (
        FractionalBreakdown,
        {"raw_shares": (Fraction(17, 2),), "leftover": Fraction(17, 18), "topups": ()},
        "FractionalBreakdown(raw_shares=(Fraction(17, 2),), "
        "leftover=Fraction(17, 18), topups=())",
    ),
    (
        SearchBounds,
        {"heirs": 3, "max_divisor": 9},
        "SearchBounds(heirs=3, max_divisor=9, max_loan=None, allow_duplicates=False)",
    ),
    (
        PuzzleRecord,
        {"divisors": (2, 3, 9), "r": 17, "m": 18, "minimal_herd": 17, "minimal_loan": 1},
        "PuzzleRecord(divisors=(2, 3, 9), r=17, m=18, minimal_herd=17, minimal_loan=1)",
    ),
]


@pytest.mark.parametrize(
    "cls, fields, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)
def test_a_record_is_a_frozen_value(cls, fields, text):
    record = cls(*fields.values())
    assert repr(record) == text
    same = cls(**fields)
    assert same == record and not same != record
    assert hash(same) == hash(record) and len({same, record}) == 1
    assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))
    # == holds only within one class: not with a tuple, nor a subclass's twin
    twin = type("Twin", (cls,), {"__slots__": ()})(**fields)
    assert record != tuple(fields.values()) and record != twin and twin != record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize(
    "cls, fields, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)
def test_a_record_compares_every_field(cls, fields, text):
    record = cls(**fields)
    for name in cls.__match_args__:  # every field, defaulted ones included
        # the same record with this one field changed, past the frozen guard
        other = copy.copy(record)
        object.__setattr__(other, name, "changed")
        assert other != record and not other == record, name
        assert record != other and not record == other, name


@pytest.mark.parametrize(
    "cls, fields, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)
def test_a_record_round_trip_keeps_every_slot(cls, fields, text):
    def slots(of):  # each with its type: 0 == False, so a swap may compare equal
        return [(n, type(getattr(of, n)), getattr(of, n)) for n in cls.__slots__]

    record = cls(**fields)
    assert not hasattr(record, "__dict__")
    # each given field sits in its own slot; the copies then keep every slot
    assert {n: getattr(record, n) for n in fields} == fields
    if cls is ShareSpec:
        assert record.fraction_sum == FractionSum(18, 17)
    for made in [
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ]:
        assert type(made) is cls and not hasattr(made, "__dict__")
        assert slots(made) == slots(record)


def test_a_record_matches_its_fields_by_position():
    match solve(validate_spec([2, 3, 9]), 17):
        case LoanSolution(herd, loan, _, _, shares):
            assert (herd, loan, shares) == (17, 1, (9, 6, 2))
        case other:
            pytest.fail(f"no match: {other!r}")
    # a spec's one field is its divisors; fraction_sum is no positional field
    match validate_spec([2, 3, 9]):
        case ShareSpec(divisors):
            assert divisors == (2, 3, 9)
        case other:
            pytest.fail(f"no match: {other!r}")
