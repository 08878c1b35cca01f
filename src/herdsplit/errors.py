"""Exception types shared across the package, and its one integer check.

Input outside an operation's domain raises `InvalidInput`. Its only
subclass is `ShareOverflow`, which carries the exact share sum. Integer
arguments must be of type `int`: a bool, float, Fraction or string is
rejected by `require_int`, never computed with.
"""


class HerdsplitError(Exception):
    """Base class for every error this package raises."""


class InvalidInput(HerdsplitError):
    """An argument lies outside an operation's domain."""


class ShareOverflow(InvalidInput):
    """The unit fractions sum to 1 or more, so no leftover exists to absorb.

    Carries the exact offending sum, a Fraction, in ``total``.
    """

    def __init__(self, total):
        self.total = total
        if total == 1:
            message = "share sum equals 1"
        else:
            message = f"share sum {total} exceeds 1"
        super().__init__(message)


class BoundsTooLarge(HerdsplitError):
    """An enumeration exceeded its node budget."""


def require_int(name: str, value, least: int | None = None) -> None:
    """Raise InvalidInput unless `value` is an int (not a bool) >= `least`."""
    if type(value) is not int:
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidInput(f"{name} must be >= {least}, got {value}")
