"""Exception types shared across the package, and its one integer check.

Input outside an operation's domain raises `InvalidInput`. Its only
subclass is `ShareOverflow`, which carries the exact share sum. Integer
arguments must be of type `int`: a bool, float, Fraction or string is
rejected by `require_int`, never computed with.

An error's text is built when it is read, from a str.format template and
its values in ``args``. So a value past CPython's int-to-str digit limit
still raises the package's own class; its text needs a lifted limit.
"""


class HerdsplitError(Exception):
    """Base class for every error this package raises."""

    def __str__(self):
        if len(self.args) < 2:
            return super().__str__()
        template, *values = self.args
        return template.format(*values)


class InvalidInput(HerdsplitError):
    """An argument lies outside an operation's domain."""


class ShareOverflow(InvalidInput):
    """The unit fractions sum to 1 or more, so no leftover exists to absorb.

    Carries the exact offending sum, a Fraction, in ``total``.
    """

    def __init__(self, total):
        self.total = total
        if total == 1:
            super().__init__("share sum equals 1")
        else:
            super().__init__("share sum {} exceeds 1", total)


class BoundsTooLarge(HerdsplitError):
    """An enumeration exceeded its node budget."""


def require_int(name: str, value, least: int | None = None) -> None:
    """Raise InvalidInput unless `value` is an int (not a bool) >= `least`."""
    if type(value) is not int:
        raise InvalidInput("{} must be an integer, got {!r}", name, value)
    if least is not None and value < least:
        raise InvalidInput("{} must be >= {}, got {}", name, least, value)
