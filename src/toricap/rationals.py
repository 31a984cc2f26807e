"""Exact rational parsing and formatting.

All scalar quantities in this package are `fractions.Fraction` values;
nothing on the computation path ever touches floating point.  The wire
format for a rational is the string "p/q" or "p" (plain integers are
also accepted on input).

One parser (``_ratio``) reads every rational a caller hands in, and two
entry points sit on it.  It splits a string at its "/" and reads both
sides with ``int``; a string with a "_" or one that ``int`` refuses goes
to a regular expression, which alone decides its value or its refusal,
so both ways give the same pair or the same message.  ``parse_rational``
makes one ``Fraction``, and ``over_common_denominator`` scales many
rationals to integers over one q, so that a loop over them runs in
``int`` arithmetic; a domain document's numbers go that way, straight to
integers.  ``as_pair`` is the one place
that decides what a pair is, for every vertex, point and direction a
caller hands in, and ``as_items`` what a sequence of them is.
``Interval`` is the one closed rational bracket type: every capacity bound
in a report is one, and so is the Lagrangian-capacity certificate.
``Value`` is the base of every immutable value type in the package, and
``Value._stored`` the one way to build such a value past its checks.

Python refuses to convert integers of more than ``sys.get_int_max_str_digits()``
decimal digits (4300 by default) between ``str`` and ``int``; a longer input
is a ``DomainError`` and a longer output an ``InapplicableError``.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import attrgetter

from .errors import DomainError, InapplicableError

_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+)\s*)?$")


def _pattern_ratio(value: str) -> tuple:
    """``(n, d)`` of a string read by the regular expression, or its refusal."""
    m = _RATIONAL_RE.match(value)
    if not m:
        raise DomainError(f"not a rational 'p/q' string: {value!r}") from None
    num, den = m.groups()
    try:
        return int(num), 1 if den is None else int(den)
    except ValueError:
        raise DomainError(
            f"rational {value.strip()[:12]}... has an integer of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def _ratio(value) -> tuple:
    """``(n, d)``, d > 0 and not reduced, for "p/q", "p", an int or a Fraction.

    A string is first split at its "/" and read by ``int``.  What ``int``
    accepts, the regular expression accepts with the same value, except
    underscores between digits, so a string with a "_" skips this step.
    Any string that ``int`` refuses goes the regular expression's way,
    which alone decides its value or its refusal: ``int`` strips fewer
    characters (``"\\x1c"`` to ``"\\x1f"``) than ``\\s`` does.
    """
    if isinstance(value, str):
        if "_" in value:
            n, d = _pattern_ratio(value)
        else:
            num, slash, den = value.partition("/")
            try:
                n, d = int(num), int(den) if slash else 1
            except ValueError:
                n, d = _pattern_ratio(value)
        if d == 0:
            raise DomainError(f"zero denominator in rational: {value!r}")
        return (-n, -d) if d < 0 else (n, d)
    if isinstance(value, Fraction):
        return value.as_integer_ratio()
    if is_integer(value):
        return value, 1
    raise DomainError(f"not a rational: {value!r}")


def parse_rational(value) -> Fraction:
    """Parse "p/q" or "p" (or a plain int / Fraction) into a Fraction.

    Floats, bools and decimal strings are a ``DomainError``: accepting them
    would hide representation error behind exact arithmetic.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(*_ratio(value))


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
    """``(q, [v * q for v in values])`` for the least q that makes every
    scaled value an ``int``, so "2/4" and "1/2" give the same q.

    Each distinct string is read once: a document repeats its values ("0"
    in both intercepts and in every staircase corner), and a repeat reuses
    the pair of its first reading.  Every other value goes to ``_ratio``
    each time, so an unhashable one is never hashed; the values are read in
    order, and the first bad one is refused.
    """
    pairs = {}
    ratios = []
    for v in values:
        if type(v) is str:
            r = pairs.get(v)
            if r is None:
                r = pairs[v] = _ratio(v)
        else:
            r = _ratio(v)
        ratios.append(r)
    q = math.lcm(*(d for _, d in ratios))
    scaled = [n * (q // d) for n, d in ratios]
    g = math.gcd(q, *scaled)
    if g > 1:
        q, scaled = q // g, [n // g for n in scaled]
    return q, scaled


def format_rational(value: Fraction) -> str:
    """Lowest-terms "p/q" (or "p" when the denominator is 1)."""
    try:
        return str(value)
    except ValueError:
        raise InapplicableError(
            f"a result has an integer of more than {sys.get_int_max_str_digits()} "
            "digits, too long to print"
        ) from None


class Value:
    """Base of the package's immutable value types.

    A subclass declares its fields as class annotations, after those of
    its base, and ``__init_subclass__`` reads them once into ``_fields``.
    It also builds the class's ``__eq__`` and ``__hash__`` once, over one
    ``attrgetter`` of the fields: equality holds only between instances
    of one class, and the hash is that of the tuple of fields.  ``repr``
    shows the fields alone, so what a ``functools.cached_property`` or a
    constructor keeps beside them in the instance ``__dict__`` takes no
    part in equality, hashing or ``repr``.  Instances refuse assignment
    and deletion; a constructor writes each field once into
    ``self.__dict__``.

    The generic constructor takes the fields by position or by name; a
    field with a class-level value defaults to it.  Only every field by
    name in field order is stored as given, without a check; any other
    call, positional ones included, goes through ``_field_values``.  A
    record built often (``ech.OrbitNumbers``, once per ``orbit_invariants``
    call) is built that way and has no constructor of its own; a class
    that checks or coerces its fields defines its own ``__init__``.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        inherited = cls._fields
        fields = inherited + tuple(n for n in cls.__annotations__ if n not in inherited)
        cls._fields = fields
        if not fields:
            return
        key = attrgetter(*fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        if len(fields) == 1:
            def __hash__(self):
                return hash((key(self),))
        else:
            def __hash__(self):
                return hash(key(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    def __init__(self, *args, **kwargs):
        if args or tuple(kwargs) != self._fields:
            kwargs = _field_values(type(self), args, kwargs)
        self.__dict__.update(kwargs)

    @classmethod
    def _stored(cls, **attrs):
        """An instance whose ``__dict__`` holds ``attrs`` exactly as given,
        built past every constructor check.

        The one way to build a value unchecked: each call site states why
        the checks it skips hold, and what it stores equals what the
        constructor would store from the same data.
        """
        value = cls.__new__(cls)
        value.__dict__.update(attrs)
        return value

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__qualname__} is immutable")


def _field_values(cls, args, kwargs) -> dict:
    """The fields of ``cls(*args, **kwargs)`` by name, or ``TypeError``."""
    fields = cls._fields
    if len(args) > len(fields):
        raise TypeError(f"{cls.__qualname__}() takes {len(fields)} arguments, got {len(args)}")
    values = dict(zip(fields, args))
    for name, value in kwargs.items():
        if name not in fields or name in values:
            raise TypeError(f"{cls.__qualname__}() got an unexpected or repeated argument {name!r}")
        values[name] = value
    for name in fields[len(args):]:
        if name not in values:
            try:
                values[name] = getattr(cls, name)
            except AttributeError:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}") from None
    return values


class Interval(Value):
    """Closed rational bracket; ``exact`` when it pinches to a point.

    Both ends are coerced through ``parse_rational``.  The constructor
    orders the ends once, in integers, and keeps ``exact`` as a plain
    ``bool`` in the instance ``__dict__`` beside the fields, so it takes
    no part in equality, hashing or ``repr``.  A domain constructor whose
    ends are ``Fraction``s it has already ordered in integers stores its
    bracket through ``Value._stored`` instead, ``exact`` saying whether
    they are equal.
    """

    lower: Fraction
    upper: Fraction | None  # None = no finite upper bound claimed

    def __init__(self, lower, upper):
        lower = parse_rational(lower)
        exact = False
        if upper is not None:
            upper = parse_rational(upper)
            # p/q <= r/s iff p s <= r q, for q, s > 0.
            ln, ld = lower.as_integer_ratio()
            un, ud = upper.as_integer_ratio()
            left, right = ln * ud, un * ld
            if left > right:
                raise ValueError(f"empty interval [{lower}, {upper}]")
            exact = left == right
        self.__dict__.update(lower=lower, upper=upper, exact=exact)
