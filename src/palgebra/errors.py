"""Exceptions shared across the package."""

import sys


# the interpreter's default int-to-text limit, in decimal digits
_MAX_DIGITS = 4300
# A count estimated at more bits than this takes over a second to compute
# exactly; it is shown as "2^N or more" from a lower bound N instead.
COUNT_BITS_LIMIT = 1 << 23


def shown(count: int | str, power: int = 0) -> int | str:
    """count itself, or the text "2^N or more" when it has more decimal digits
    than the default int-to-text limit (or a lower one the interpreter is set
    to); such a count is never converted to text.  Text is a count already
    shown (one too large to compute, see ``free.count_jirr_or_text``).

    With power p > 0, count is the top of a tower of p twos, a lower bound
    too large to build: "2^count or more" for p = 1, "2^(2^count) or more"
    for p = 2.  Wherever count has too many digits, the text writes 2^N for
    it instead, with N = bit length - 1, and the tower grows by one."""
    if isinstance(count, str):
        return count
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or _MAX_DIGITS
    digits = min(limit, _MAX_DIGITS)
    # below 2^(3 * digits) = 8^digits, printable without building 10^digits
    while abs(count).bit_length() > 3 * digits and abs(count) >= 10 ** digits:
        count, power = count.bit_length() - 1, power + 1
    if not power:
        return count
    return "2^(" * (power - 1) + f"2^{count}" + ")" * (power - 1) + " or more"


class CapExceeded(Exception):
    """A construction would pass its size cap; carries the count and the cap.
    ``shown`` is the count as error output prints it (see shown)."""

    def __init__(self, what: str, count: int | str, cap: int):
        self.shown = shown(count)
        super().__init__(f"{what}: {self.shown} exceeds cap {cap}")
        self.what = what
        self.count = count
        self.cap = cap


class BudgetExceeded(Exception):
    """A valuation sweep would pass the configured budget; ``shown`` is the
    needed count as error output prints it (see shown)."""

    def __init__(self, what: str, needed: int | str, budget: int):
        self.shown = shown(needed)
        super().__init__(f"{what}: {self.shown} valuations exceed budget {budget}")
        self.what = what
        self.needed = needed
        self.budget = budget


class MalformedTables(Exception):
    """Operation tables or serialized algebra data are structurally broken."""


class NotACongruence(Exception):
    """A partition handed to quotient() is not compatible with the operations."""


class NotPrime(Exception):
    """A filter handed to the congruence constructor is not a prime filter."""


class BadIndex(Exception):
    """A (T, L) join-irreducible index violates its side conditions."""


class ParseError(Exception):
    """Term syntax error; ``pos`` is the 0-based offset in the input."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownIdentifier(ParseError):
    """An identifier that is not x<digits>."""


class UnboundVariable(Exception):
    """A term was evaluated under a valuation missing one of its variables."""
