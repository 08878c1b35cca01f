"""Borrowed-unit fair division, exactly.

Divide N indivisible units among heirs in ratios 1/s_1 : ... : 1/s_k by
temporarily borrowing just enough units to make every share integral, then
returning the borrowed units untouched. All arithmetic is exact.
"""

from .errors import (
    BoundsTooLarge,
    EmptySpec,
    HerdsplitError,
    HerdZero,
    InvalidInput,
    NonPositiveDivisor,
    ShareOverflow,
)
from .generator import (
    DEFAULT_NODE_BUDGET,
    PuzzleRecord,
    SearchBounds,
    enumerate_specs,
)
from .solver import (
    FractionalBreakdown,
    FractionSum,
    Infeasible,
    LoanSolution,
    NotFoundWithinBound,
    ShareSpec,
    explain,
    feasible_herds,
    fraction_sum,
    fractional_breakdown,
    oracle_solve,
    solve,
    validate_spec,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsTooLarge",
    "DEFAULT_NODE_BUDGET",
    "EmptySpec",
    "FractionSum",
    "FractionalBreakdown",
    "HerdZero",
    "HerdsplitError",
    "Infeasible",
    "InvalidInput",
    "LoanSolution",
    "NonPositiveDivisor",
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
