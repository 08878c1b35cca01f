"""Borrowed-unit fair division, exactly.

Divide N indivisible units among heirs in ratios 1/s_1 : ... : 1/s_k by
temporarily borrowing just enough units to make every share integral, then
returning the borrowed units untouched. All arithmetic is exact.

`import herdsplit` loads none of its submodules. A public name, or the
`errors`, `generator` or `solver` submodule, is imported the first time it
is read (PEP 562) and kept here after that.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    "BoundsTooLarge": "errors",
    "DEFAULT_NODE_BUDGET": "generator",
    "FractionSum": "solver",
    "FractionalBreakdown": "solver",
    "HerdsplitError": "errors",
    "Infeasible": "solver",
    "InvalidInput": "errors",
    "LoanSolution": "solver",
    "NotFoundWithinBound": "solver",
    "PuzzleRecord": "generator",
    "SearchBounds": "generator",
    "ShareOverflow": "errors",
    "ShareSpec": "solver",
    "enumerate_specs": "generator",
    "explain": "solver",
    "feasible_herds": "solver",
    "fraction_sum": "solver",
    "fractional_breakdown": "solver",
    "oracle_solve": "solver",
    "solve": "solver",
    "validate_spec": "solver",
}
__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _HOMES.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
