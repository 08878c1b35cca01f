"""The package's public surface: every exported name, and the retired ones."""

import importlib

import pytest

import herdsplit


def test_every_exported_name_resolves_once():
    assert len(set(herdsplit.__all__)) == len(herdsplit.__all__)
    for name in herdsplit.__all__:
        assert hasattr(herdsplit, name), name


# retired aliases: fractions.Fraction, math.gcd, math.lcm(*values) and
# sum(terms, Fraction(0)) are the spellings to use
@pytest.mark.parametrize("name", ["Rational", "gcd", "lcm_all", "rat_sum"])
def test_retired_name_is_absent(name):
    assert name not in herdsplit.__all__
    assert not hasattr(herdsplit, name)


def test_arith_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("herdsplit.arith")
