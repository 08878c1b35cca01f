"""Exception types shared across the package."""

from fractions import Fraction


class HerdsplitError(Exception):
    """Base class for every error this package raises."""


class InvalidInput(HerdsplitError):
    """An argument lies outside an operation's domain."""


class EmptySpec(InvalidInput):
    """A share specification needs at least one divisor."""


class NonPositiveDivisor(InvalidInput):
    """Divisors must be positive integers."""


class ShareOverflow(InvalidInput):
    """The unit fractions sum to 1 or more, so no leftover exists to absorb.

    Carries the exact offending sum in ``total``.
    """

    def __init__(self, total: Fraction):
        self.total = total
        if total == 1:
            message = "share sum equals 1"
        else:
            message = f"share sum {total} exceeds 1"
        super().__init__(message)


class HerdZero(InvalidInput):
    """Herd size must be at least 1."""


class BoundsTooLarge(HerdsplitError):
    """An enumeration exceeded its node budget."""
