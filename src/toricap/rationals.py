"""Exact rational parsing and formatting.

All scalar quantities in this package are `fractions.Fraction` values;
nothing on the computation path ever touches floating point.  The wire
format for a rational is the string "p/q" or "p" (plain integers are
also accepted on input).

``parse_rational`` is the one place where a caller's value becomes a
``Fraction``: every constructor and entry point that takes a rational, from
a domain file or the Python API, coerces it here.  ``as_pair`` is the one
place that decides what a pair is, for every vertex, point and direction a
caller hands in, and ``as_items`` what a sequence of them is.
``over_common_denominator`` is the one place where rationals are scaled to
integers, so that a loop over them can run in ``int`` arithmetic.
``Interval`` is the one closed rational bracket type: every capacity bound
in a report is one, and so is the Lagrangian-capacity certificate.

Python refuses to convert integers of more than ``sys.get_int_max_str_digits()``
decimal digits (4300 by default) between ``str`` and ``int``; a longer input
is a ``DomainError`` and a longer output an ``InapplicableError``.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DomainError, InapplicableError

_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+)\s*)?$")


def parse_rational(value) -> Fraction:
    """Parse "p/q" or "p" (or a plain int / Fraction) into a Fraction.

    Floats, bools and decimal strings are rejected with ``DomainError``:
    accepting them would hide representation error behind exact
    arithmetic.
    """
    # Strings (domain files) first: the ABC isinstance check against Fraction is slow.
    if isinstance(value, str):
        m = _RATIONAL_RE.match(value)
        if not m:
            raise DomainError(f"not a rational 'p/q' string: {value!r}")
        num, den = m.groups()
        try:
            num = int(num)
            if den is None:
                # An integer is already in lowest terms: no gcd to take.
                return Fraction(num)
            den = int(den)
        except ValueError:
            raise DomainError(
                f"rational {value.strip()[:12]}... has an integer of more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
        if den == 0:
            raise DomainError(f"zero denominator in rational: {value!r}")
        return Fraction(num, den)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(f"not a rational: {value!r}")


# A str iterates over its characters, a dict over its keys, and a set or
# frozenset in hash order: none of them is a pair or a sequence of items.
# The types are concrete, not ABCs, since every polygon vertex is checked.
_NOT_SEQUENCES = (str, dict, set, frozenset)


def as_pair(value, error: type, refusal: str) -> tuple:
    """The two items of a pair, or ``error(refusal.format(value))``.

    A pair unpacks into exactly two items and is none of
    ``_NOT_SEQUENCES``: "10" is not (1, 0), and {-2, 1} unpacks in hash
    order.  The refusal is formatted only for a value that is refused.
    """
    try:
        x, y = () if isinstance(value, _NOT_SEQUENCES) else value
    except (TypeError, ValueError):
        raise error(refusal.format(value)) from None
    return x, y


def as_items(value, error: type, refusal: str) -> tuple:
    """The items of a sequence as a tuple, or ``error(refusal.format(value))``.

    A sequence iterates and, like a pair, is none of ``_NOT_SEQUENCES``.
    """
    if not isinstance(value, _NOT_SEQUENCES):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise error(refusal.format(value))


def is_integer(value) -> bool:
    """Whether ``value`` is an int (a bool is an int, but not an integer here)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_count(value) -> bool:
    """Whether ``value`` is an integer >= 1."""
    return is_integer(value) and value >= 1


def over_common_denominator(values) -> tuple:
    """``(q, [v * q for v in values])``: q is the lcm of the denominators,
    so every scaled value is an ``int``."""
    ratios = [v.as_integer_ratio() for v in values]
    q = math.lcm(*(d for _, d in ratios))
    return q, [n * (q // d) for n, d in ratios]


def format_rational(value: Fraction) -> str:
    """Lowest-terms "p/q" (or "p" when the denominator is 1)."""
    try:
        return str(value)
    except ValueError:
        raise InapplicableError(
            f"a result has an integer of more than {sys.get_int_max_str_digits()} "
            "digits, too long to print"
        ) from None


@dataclass(frozen=True)
class Interval:
    """Closed rational bracket; exact when it pinches to a point.

    Both ends are coerced through ``parse_rational``.
    """

    lower: Fraction
    upper: Optional[Fraction]  # None = no finite upper bound claimed

    def __post_init__(self):
        # Every bracket a report builds has Fraction ends already.
        if type(self.lower) is not Fraction:
            object.__setattr__(self, "lower", parse_rational(self.lower))
        if self.upper is not None and type(self.upper) is not Fraction:
            object.__setattr__(self, "upper", parse_rational(self.upper))
        if self.upper is not None and self.lower > self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper
