"""Toric moment-domain models with exact rational data, one class per kind.

Three kinds of domain are supported:

* ``StandardDomain`` -- the ball, cylinder, cube and NDUC families in any
  dimension, kept symbolic (the cylinder and NDUC are unbounded and are
  never converted to a polygon).
* ``Polygon2D`` -- a bounded planar domain given by the chain of boundary
  vertices with positive coordinates, listed counterclockwise from the
  x-axis intercept to the y-axis intercept.  The origin and the two axis
  segments are implicit.  The chain is required to be convex, which makes
  the domain weakly convex by construction.  The constructor reads the
  chain straight to integers over the lcm of its denominators; the
  validation, the invariants and the point queries (on a point scaled by
  its own denominators) run in ``int`` arithmetic on them, and the
  ``vertices`` field is read off them when asked for.
* ``Rectilinear2D`` -- a connected finite union of axis-aligned
  rectangles touching a coordinate axis, answered on one integer lattice
  like a polygon.  It is defined in :mod:`toricap.unions`, which
  ``domain_from_dict`` imports on the first ``"rectilinear2d"`` document
  (``_load_union_kind``), so a process that reads no union never loads it.

Each kind derives from the plain base class ``ToricDomain`` and answers
everything that depends on its kind itself, so a new kind is one new
class plus its entry in the kind table ``_KINDS``, made where the class
is defined or, for a kind in a module of its own, by a loader that
``domain_from_dict`` calls on the kind's first document.  A kind keeps a
member only when a caller reads it without knowing the domain's kind, or
when two layers read it; a question that one layer asks of a domain it
knows to be a polygon is answered in that layer, from the lattice the
polygon keeps (``_q``, ``_points``, ``_halfplanes``).  The members:

* ``kind``, ``n``, ``to_dict()``, ``from_dict(data)``, ``summary()``;
* ``delta``, ``eta``, ``is_monotone``, ``cube_inclusion`` (read through
  :mod:`toricap.geometry`, and directly by the report, the c_L rules and
  the obstruction search once they have checked the domain),
  ``contains(p)``, ``on_boundary(p)``;
* ``inclusion_bracket`` for :mod:`toricap.capacities`: the trivial c_B/c_Z
  bracket, an ``Interval`` from a simplex inside the domain to a cylinder
  around it;
* on polygons only, ``cube_bound``, read by :mod:`toricap.geometry` and
  by the report in :mod:`toricap.capacities`; ``_supports(directions)``,
  read by :mod:`toricap.geometry` and :mod:`toricap.ech`; and
  ``_least_slack(q, points)``, the one halfplane pass behind ``contains``,
  ``on_boundary`` and the obstruction search's inclusion gate;
* ``cl_rules``, ``cl_slices(e, across)``, ``cl_candidates`` for
  :mod:`toricap.lagrangian`: the order of the Lagrangian-capacity rules;
  the closed intervals where the domain meets the line y = e (in x), or
  x = e (in y) when ``across``, as ``(s, [(lo, hi), ...])``, integer pairs
  over one scale s > 0 for the intervals [lo / s, hi / s], by decreasing
  hi (a union's s is its lattice's ``q``, a polygon's that of its one
  chord); and the candidate fiber positions of an interval, as integer
  points over the lattice's ``q``.

Every kind keeps one storage rule: its constructor computes every
invariant that exists and keeps it in the instance ``__dict__`` beside
the fields that ``rationals.Value`` compares, hashes and shows, so
equality, hashing, ``repr`` and serialization ignore it; a planar kind
keeps its integer lattice there too (a polygon's ``_q``, ``_points`` and
``_halfplanes``).  Where a polygon's ``cube_bound`` or a union's
``delta`` does not exist, the class refuses it with a ``_Refused``
member, as a standard region's class refuses ``contains`` and
``on_boundary``; its ``InapplicableError`` is an ``AttributeError`` too,
so introspection sees the member as missing.  Only the two fields read
back off the lattice, ``vertices`` and ``rects``, are computed on first
read.  All types are immutable values.  Constructors read every rational through the one
parser of ``rationals`` (``parse_rational``, or
``over_common_denominator`` for a planar lattice), and the planar
``contains`` and ``on_boundary`` coerce their point the same way
(``_point``); a dimension ``n`` must be an int, not a bool.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from functools import cached_property

from .errors import DomainError, InapplicableError
from .rationals import (
    Interval, Value, as_items, as_pair, format_rational, is_count, over_common_denominator,
    parse_rational,
)

STANDARD_KINDS = ("ball", "cylinder", "cube", "nduc")


class ToricDomain(Value):
    """Base class of the domain kinds; the module docstring lists the protocol."""


class _Refusal(InapplicableError, AttributeError):
    """The error a ``_Refused`` member raises: an ``AttributeError`` too,
    so that ``hasattr``, ``getattr`` with a default and ``inspect`` see
    the member as missing."""


class _Refused:
    """A member that a class refuses with ``InapplicableError`` on every
    read.  It defines ``__get__`` alone, so a value that a constructor
    stores under its name in the instance ``__dict__`` wins, at dict
    speed; read off the class, it is the descriptor itself."""

    def __init__(self, message: str):
        self.message = message

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        raise _Refusal(self.message)


def _checked(domain) -> ToricDomain:
    """The domain itself, or ``DomainError`` for anything that is not one."""
    if not isinstance(domain, ToricDomain):
        raise DomainError(f"not a toric domain: {domain!r}")
    return domain


def _require_polygon(refusal: str, *domains) -> None:
    """``InapplicableError(refusal)`` unless every domain is a polygon."""
    if not all(isinstance(domain, Polygon2D) for domain in domains):
        raise InapplicableError(refusal)


class StandardDomain(ToricDomain):
    """One of the four standard moment regions, of size ``a`` in dimension ``n``."""

    kind: str
    n: int
    a: Fraction

    # Every standard region is monotone; for the unbounded NDUC this is a
    # convention (it is sandwiched between the cube and itself at the same
    # size), not a claim about smooth boundaries.
    is_monotone = True
    cl_rules = ("MonotoneDiagonal",)
    contains = _Refused("membership test implemented for planar domains only")
    on_boundary = _Refused("boundary test implemented for planar domains only")

    def __init__(self, kind, n, a):
        if kind not in STANDARD_KINDS:
            raise DomainError(f"unknown standard domain kind: {kind!r}")
        if not is_count(n):
            raise DomainError(f"dimension must be an integer >= 1, got {n!r}")
        a = parse_rational(a)
        if a <= 0:
            raise DomainError(f"size must be positive, got {a}")
        # The cylinder, cube and NDUC all meet the diagonal at a, and the
        # diagonal point also realizes the largest smallest coordinate and
        # the inscribed cube of every standard region.  In the NDUC the
        # simplex corner can ride one cylinder, and the union-of-cylinders
        # region fits in no slab.  The ends are ``Fraction``s, ordered as
        # they stand, so the bracket is stored past its checks.
        delta = a / n if kind == "ball" else a
        bracket = (Interval._stored(lower=n * a, upper=None, exact=False) if kind == "nduc"
                   else Interval._stored(lower=a, upper=a, exact=True))
        self.__dict__.update(kind=kind, n=n, a=a, delta=delta, eta=delta, cube_inclusion=delta,
                             inclusion_bracket=bracket)

    def summary(self) -> dict:
        return {"a": self.a}

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n": self.n, "a": format_rational(self.a)}

    @classmethod
    def from_dict(cls, data: dict) -> "StandardDomain":
        try:
            n, a = data["n"], data["a"]
        except KeyError as exc:
            raise DomainError(f"standard domain missing field {exc}")
        return cls(data["kind"], n, a)


def _point(p) -> tuple:
    """A planar point as a pair of Fractions, coerced through ``parse_rational``."""
    x, y = as_pair(p, InapplicableError, "a point must be a coordinate pair, got {!r}")
    return parse_rational(x), parse_rational(y)


def _lattice_point(p) -> tuple:
    """``(q, [(x, y)])`` for the point p = (x / q, y / q), coerced by ``_point``."""
    (xn, xd), (yn, yd) = (c.as_integer_ratio() for c in _point(p))
    return xd * yd, ((xn * yd, yn * xd),)


def _canonical_chain(vertices) -> dict:
    """Validate and canonicalize a boundary vertex chain.

    Consecutive duplicate vertices and collinear midpoints are removed;
    every other defect raises ``DomainError`` naming the violated invariant.
    The result is the canonical counterclockwise chain from the x-axis
    intercept to the y-axis intercept, scaled to integers, by the names a
    ``Polygon2D`` keeps it under: vertex i is ``_points[i] / _q``, q the lcm
    of the denominators of the chain's coordinates.  Scaling by q > 0 keeps
    every sign, order and ratio.  The coordinates are read straight to
    integers, vertex by vertex, so the first bad vertex or number in chain
    order is refused, and every check compares those integers.  After the
    last vertex refusal one walk over the chain's edges refuses the first
    non-left turn and, from the same integers, gives the edge halfplanes
    ``_halfplanes`` and the invariants ``delta``, ``eta``, ``is_monotone``,
    ``cube_inclusion``, ``inclusion_bracket`` and, where it exists,
    ``cube_bound``.
    """
    vertices = as_items(vertices, DomainError, "vertices must be a sequence, got {!r}")
    refusal = "vertex is not a coordinate pair: {!r}"
    coords = []
    for v in vertices:
        try:
            coords += as_pair(v, DomainError, refusal)
        except DomainError:
            over_common_denominator(coords)  # a bad number before it is refused first
            raise
    q, flat = over_common_denominator(coords)
    # One sweep drops exact consecutive duplicates (the last kept vertex
    # always equals the previous input vertex) and collinear midpoints
    # (forward collinearity only; a collinear backtrack is a degenerate
    # chain, caught by the convexity check).
    points = []
    for p in zip(flat[0::2], flat[1::2]):
        if points and p == points[-1]:
            continue
        px, py = p
        while len(points) >= 2:
            (ax, ay), (bx, by) = points[-2], points[-1]
            ux, uy, vx, vy = bx - ax, by - ay, px - bx, py - by
            if ux * vy == uy * vx and ux * vx + uy * vy > 0:
                points.pop()
            else:
                break
        points.append(p)
    if len(points) < 2:
        raise DomainError("vertex chain needs at least two distinct vertices")
    first, last = points[0], points[-1]
    if first[1] != 0 or first[0] <= 0:
        raise DomainError(
            "first vertex must be the x-axis intercept (y = 0, x > 0)"
        )
    if last[0] != 0 or last[1] <= 0:
        raise DomainError(
            "last vertex must be the y-axis intercept (x = 0, y > 0)"
        )
    for x, y in points[1:-1]:
        if x <= 0 or y <= 0:
            vertex = (Fraction(x, q), Fraction(y, q))
            raise DomainError(f"intermediate vertex {vertex} must have positive coordinates")
    # q over the gcd of q and the chain's integers is the lcm of the chain's
    # own denominators, so the lattice depends on the canonical chain alone.
    g = math.gcd(q, *(c for p in points for c in p))
    if g > 1:
        q, points = q // g, [(x // g, y // g) for x, y in points]
    # One walk over the edges refuses the first non-left turn and builds
    # the halfplanes a x + b y <= c / q that cut the region
    # from the closed quadrant, one per edge: the normal (a, b) is the edge
    # direction turned by -90 degrees, pointing away from the region.  The
    # first edge climbs off the x-axis (its end has y > 0), so the axis
    # direction (1, 0) always turns left into it.
    # The diagonal ray exits through an edge whose outward normal has
    # positive coordinate sum s; the tightest such edge gives
    # delta = c / (s q), kept as (best_c, best_s), which starts at (1, 0)
    # so that every such edge beats it.
    # min(x, y) is concave, so over the convex region its maximum sits on
    # the diagonal, at (delta, delta), or at a vertex of the chain, the
    # largest at a vertex being ``top``; ``right`` and ``high`` are the
    # region's extents in x and y.
    planes = []
    best_c, best_s = 1, 0
    is_monotone = True
    (x, y), ux, uy = points[0], 1, 0
    top, right, high = 0, x, 0
    for bx, by in points[1:]:
        dx, dy = bx - x, by - y
        if ux * dy <= uy * dx:
            raise DomainError("vertex chain not convex/ordered (non-left turn)")
        c, s = dy * x - dx * y, dy - dx
        planes.append((dy, -dx, c))
        if s > 0 and c * best_s < best_c * s:
            best_c, best_s = c, s
        if dx > 0 or dy < 0:
            is_monotone = False
        low = bx if bx < by else by
        if low > top:
            top = low
        if bx > right:
            right = bx
        if by > high:
            high = by
        x, y, ux, uy = bx, by, dx, dy
    delta = Fraction(best_c, best_s * q)
    # By convexity the square [0, a]^2 is inside iff its corners are, and
    # both axis corners inside pull the simplex's hypotenuse inside; the
    # domain lies in the slab of its smaller extent.  The extents are maxima
    # over chain points that include the intercepts, so the ends are ordered.
    side, extent = min(points[0][0], points[-1][1]), min(right, high)
    lower = Fraction(side, q)
    # Both end edges at least diagonal-steep, direction (dx, dy) with
    # dx <= dy, make the supports of (1,-1) and (-1,1) attain exactly the
    # two axis intercepts: the first point's x, and the y of the last
    # point (x, y), where the walk ended on the last edge (ux, uy).
    (x0, _), (x1, y1) = points[:2]
    return {
        "_q": q, "_points": points, "_halfplanes": tuple(planes),
        "delta": delta,
        "eta": delta if top * best_s <= best_c else Fraction(top, q),
        "is_monotone": is_monotone,
        "cube_inclusion": delta if best_c <= side * best_s else lower,
        "inclusion_bracket": Interval._stored(lower=lower, upper=Fraction(extent, q),
                                              exact=side == extent),
        **({"cube_bound": Fraction(x0 + y, 2 * q)} if x1 - x0 <= y1 and ux <= uy else {}),
    }


def _chord(planes, level: Fraction, q: int) -> tuple:
    """``(s, [(lo, hi)])``, [lo / s, hi / s] being where the line y = level
    meets the region cut from x >= 0 by the lattice halfplanes ``(a, b, c)``:
    a x + b y <= c / q; ``(s, [])`` if it misses.

    With level = m / n, each plane bounds x by room / (a n q), where
    room = c n - b q m; the bounds are kept as integer pairs (numerator,
    positive denominator) and compared by cross-multiplying.  The chord
    lo0 / lo1 to hi0 / hi1, over n q, is returned over s = lo1 hi1 n q.
    """
    m, n = level.numerator, level.denominator
    lo, hi = (0, 1), None
    for a, b, c in planes:
        room = c * n - b * q * m
        if a > 0:
            if hi is None or room * hi[1] < hi[0] * a:
                hi = (room, a)
        elif a < 0:
            if room * lo[1] < lo[0] * a:  # -room / -a > lo
                lo = (-room, -a)
        elif room < 0:
            return n * q, []
    if lo[0] * hi[1] > hi[0] * lo[1]:
        return n * q, []
    return lo[1] * hi[1] * n * q, [(lo[0] * hi[1], hi[0] * lo[1])]


def _top(points, vx: int, vy: int) -> int:
    """``max(vx * x + vy * y)`` over a chain's integer points.  Chains are
    a few points long, so a plain loop costs less than ``max`` over a
    generator."""
    x, y = points[0]
    top = vx * x + vy * y
    for x, y in points:
        value = vx * x + vy * y
        if value > top:
            top = value
    return top


class Polygon2D(ToricDomain):
    """Weakly convex planar domain, stored as its canonical boundary chain.

    By the storage rule of every kind, the constructor keeps what
    ``_canonical_chain`` returns: the chain scaled to integers over the lcm
    q of its denominators (``_q``, ``_points``), its edge halfplanes and
    every invariant that exists; ``cube_bound`` needs both end edges at
    least diagonal-steep, and the class refuses it otherwise.  The
    ``vertices`` field, the chain as ``Fraction`` pairs read off the
    integers, is computed on its first read, so equality, hashing, ``repr``
    and serialization see the field alone.  Every comparison is a
    cross-multiplication, and each answer is one ``Fraction``.
    """

    vertices: tuple

    kind = "polygon2d"
    n = 2
    cl_rules = ("MonotoneDiagonal", "EtaOnBoundary", "LatticeWitness")
    cube_bound = _Refused("tangent-slope condition fails: both end edges must satisfy dx <= dy")

    def __init__(self, vertices):
        self.__dict__.update(_canonical_chain(vertices))

    @cached_property
    def vertices(self) -> tuple:
        q = self._q
        return tuple((Fraction(x, q), Fraction(y, q)) for x, y in self._points)

    def _supports(self, directions) -> tuple:
        """``(q, [top])`` with ``support(v) = top / q`` for each integer pair
        ``v`` of ``directions``, unchecked, so that a caller can add
        supports as integers."""
        points = self._points
        return self._q, [_top(points, vx, vy) for vx, vy in directions]

    def _least_slack(self, q: int, points) -> int:
        # The least slack over the points (x / q, y / q), integer pairs, of
        # x >= 0, y >= 0 and of each halfplane a x + b y <= c / self._q, each
        # times a positive integer: negative iff some point is off the closed
        # region, else 0 iff one is on its boundary.  Chains are a few points
        # long, so a plain loop costs less than ``min`` over generators.
        mine, planes = self._q, self._halfplanes
        least = None
        for x, y in points:
            slack = x if x < y else y
            for a, b, c in planes:
                room = c * q - (a * x + b * y) * mine
                if room < slack:
                    slack = room
            if least is None or slack < least:
                least = slack
        return least

    def contains(self, p) -> bool:
        return self._least_slack(*_lattice_point(p)) >= 0

    def on_boundary(self, p) -> bool:
        return self._least_slack(*_lattice_point(p)) == 0

    def cl_slices(self, e: Fraction, across: bool) -> tuple:
        # The first edge leaves the x-axis upwards and the last one reaches
        # the y-axis leftwards, so some plane bounds each chord from above.
        # Across, x and y swap roles.
        planes = self._halfplanes
        if across:
            planes = [(b, a, c) for a, b, c in planes]
        return _chord(planes, e, self._q)

    @property
    def cl_candidates(self) -> tuple:
        # The intermediate vertices, the ones with positive coordinates.
        return self._q, self._points[1:-1]

    def summary(self) -> dict:
        return {"vertices": len(self._points), "weakly_convex": True}

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "vertices": [
                [format_rational(x), format_rational(y)] for x, y in self.vertices
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Polygon2D":
        try:
            raw = data["vertices"]
        except KeyError:
            raise DomainError("polygon2d document missing 'vertices'")
        if not isinstance(raw, list):
            raise DomainError("'vertices' must be a list of coordinate pairs")
        return cls(raw)


def is_weakly_convex(vertices_or_polygon) -> bool:
    """Re-checkable predicate for untrusted vertex data.

    True iff the data canonicalizes into a valid convex boundary chain
    connecting the two coordinate axes.  A ``Polygon2D`` instance always
    passes (its constructor enforced the same invariants), and its chain
    is not checked again.
    """
    if isinstance(vertices_or_polygon, Polygon2D):
        return True
    vertices = getattr(vertices_or_polygon, "vertices", vertices_or_polygon)
    try:
        _canonical_chain(vertices)
    except DomainError:
        return False
    return True


_KINDS = {**dict.fromkeys(STANDARD_KINDS, StandardDomain), "polygon2d": Polygon2D}
# The rectangle-union kind is defined in ``toricap.unions``, and enters
# ``_KINDS`` when a process reads its first union document.
_UNION_KIND = "rectilinear2d"


def _load_union_kind() -> None:
    """Import the rectangle-union kind and enter it in ``_KINDS``."""
    from .unions import Rectilinear2D

    _KINDS[_UNION_KIND] = Rectilinear2D


def square_polygon(a: Fraction) -> Polygon2D:
    """The moment square [0, a]^2 as a vertex-chain polygon."""
    a = parse_rational(a)
    if a <= 0:
        raise DomainError(f"square side must be positive, got {a}")
    return Polygon2D(((a, 0), (a, a), (0, a)))


# ---------------------------------------------------------------------------
# JSON document format
# ---------------------------------------------------------------------------

def domain_from_dict(data: dict) -> ToricDomain:
    """Build a domain from a decoded JSON document.

    Only the document's shape is checked here; the constructors validate
    the raw field values and read them through the parser of ``rationals``.
    """
    if not isinstance(data, dict):
        raise DomainError("domain document must be a JSON object")
    try:
        kind = data["kind"]
    except KeyError:
        raise DomainError("domain document missing 'kind'")
    if not isinstance(kind, str) or kind not in _KINDS:
        if kind != _UNION_KIND:
            raise DomainError(f"unknown domain kind: {kind!r}")
        _load_union_kind()
    return _KINDS[kind].from_dict(data)


def domain_to_dict(domain: ToricDomain) -> dict:
    return _checked(domain).to_dict()


def parse_domain(text: str) -> ToricDomain:
    """Parse a UTF-8 JSON domain document; see the README for the schema."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise DomainError(f"domain document must be text, got {type(text).__name__}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:  # a ValueError too, so caught first
        raise DomainError(f"invalid JSON: the bytes are not valid {exc.encoding}") from None
    except ValueError:
        # The decoder's int() refuses a literal past Python's digit limit.
        raise DomainError(
            f"invalid JSON: a number has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise DomainError("invalid JSON: nested too deeply") from None
    return domain_from_dict(data)


def serialize_domain(domain: ToricDomain) -> str:
    """Canonical JSON for a domain; round-trips bit-exactly through parse."""
    return json.dumps(domain_to_dict(domain))
