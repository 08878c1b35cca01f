"""The package's public surface: every exported name, and the retired ones."""

import importlib

import pytest

import herdsplit


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
