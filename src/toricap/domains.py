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
  chain straight to integers over the lcm of its denominators
  (``_Lattice``); the validation, the invariants and the point queries
  (on a point scaled by its own denominators) run in ``int`` arithmetic
  on it, and the ``vertices`` field is read off it when asked for.
* ``Rectilinear2D`` -- a finite union of axis-aligned rectangles in the
  closed positive quadrant; the union must be connected and contain a
  neighborhood of a point on a coordinate axis.  Like a polygon, it is
  validated and answered on one integer lattice: the constructor reads
  the corners straight to integer boxes over the lcm of their
  denominators and builds its coverage grid (``_Coverage``) on them, and
  the ``rects`` field is read off the grid when asked for.

Each kind derives from the plain base class ``ToricDomain`` and answers
everything that depends on its kind itself, so a new kind is one new
class (plus its entry in ``_KINDS``):

* ``kind``, ``n``, ``to_dict()``, ``from_dict(data)``, ``summary()``;
* ``delta``, ``eta``, ``is_monotone``, ``cube_inclusion`` (read through
  :mod:`toricap.geometry`), ``contains(p)``, ``on_boundary(p)``;
* ``simplex_inclusion`` and ``cylinder_cover`` for :mod:`toricap.capacities`;
* on polygons only, ``support(v)`` and ``cube_bound`` for :mod:`toricap.geometry`,
  and ``affordable_directions(cap, vmax)`` for :mod:`toricap.ech`;
* ``cl_rules``, ``cl_slices(e, across)``, ``cl_candidates`` for
  :mod:`toricap.lagrangian`: the order of the Lagrangian-capacity rules;
  the closed intervals where the domain meets the line y = e (in x), or
  x = e (in y) when ``across``, as ``(s, [(lo, hi), ...])``, integer pairs
  over one scale s > 0 for the intervals [lo / s, hi / s], by decreasing
  hi (a union's s is its lattice's ``q``, a polygon's that of its one
  chord); and the candidate fiber positions of an interval, as integer
  points over the lattice's ``q``.

The invariants are ``rationals.cached_member`` members, computed at
most once per instance and kept in the instance ``__dict__`` beside the
fields that ``rationals.Value`` compares, hashes and shows, so equality,
hashing, ``repr`` and serialization ignore them; a member that raises
caches nothing and raises again.  The structures a constructor builds (a
polygon's ``_lattice``, a union's ``_grid``) are kept there too.  All
types are immutable values.
Constructors read every rational through the one parser of
``rationals`` (``parse_rational``, or ``over_common_denominator`` for a
planar lattice), and the planar ``contains`` and ``on_boundary`` coerce
their point the same way (``_point``); a dimension ``n`` must be an int,
not a bool.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import itemgetter, lt

from .errors import DomainError, InapplicableError
from .rationals import (
    Value, as_items, as_pair, cached_member, format_rational, is_count, is_integer,
    over_common_denominator, parse_rational,
)

STANDARD_KINDS = ("ball", "cylinder", "cube", "nduc")


class ToricDomain(Value):
    """Base class of the domain kinds; the module docstring lists the protocol."""


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

    def __init__(self, kind, n, a):
        if kind not in STANDARD_KINDS:
            raise DomainError(f"unknown standard domain kind: {kind!r}")
        if not is_count(n):
            raise DomainError(f"dimension must be an integer >= 1, got {n!r}")
        a = parse_rational(a)
        if a <= 0:
            raise DomainError(f"size must be positive, got {a}")
        self.__dict__.update(kind=kind, n=n, a=a)

    @cached_member
    def delta(self) -> Fraction:
        # The cylinder, cube and NDUC all meet the diagonal at a.
        return self.a / self.n if self.kind == "ball" else self.a

    # The diagonal point also realizes the largest smallest coordinate and
    # the inscribed cube of every standard region.
    eta = cube_inclusion = property(lambda self: self.delta)

    @property
    def simplex_inclusion(self) -> Fraction:
        # In the NDUC the simplex corner can ride one cylinder.
        return self.n * self.a if self.kind == "nduc" else self.a

    @property
    def cylinder_cover(self):
        # The union-of-cylinders region fits in no slab.
        return None if self.kind == "nduc" else self.a

    def contains(self, p):
        raise InapplicableError("membership test implemented for planar domains only")

    def on_boundary(self, p):
        raise InapplicableError("boundary test implemented for planar domains only")

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


class _Lattice:
    """A polygon's boundary chain scaled to integers.

    Vertex i of the chain is ``points[i] / q``, where q is the lcm of the
    denominators of the chain's coordinates, and ``edges[i]`` is
    ``points[i + 1] - points[i]``.  Scaling by q > 0 keeps every sign,
    order and ratio, so the chain's checks and invariants run on these
    integers.
    """

    __slots__ = ("q", "points", "edges")

    def __init__(self, q: int, points: list):
        self.q, self.points = q, points
        self.edges = [
            (bx - ax, by - ay) for (ax, ay), (bx, by) in zip(points, points[1:])
        ]


def _canonical_chain(vertices) -> _Lattice:
    """Validate and canonicalize a boundary vertex chain.

    Consecutive duplicate vertices and collinear midpoints are removed;
    every other defect raises ``DomainError`` naming the violated
    invariant.  The result is the ``_Lattice`` of the canonical
    counterclockwise chain from the x-axis intercept to the y-axis
    intercept.  The coordinates are read straight to integers, vertex by
    vertex, so the first bad vertex or number in chain order is refused,
    and every check compares those integers.
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
    lattice = _Lattice(q, points)
    for (ux, uy), (vx, vy) in zip(lattice.edges, lattice.edges[1:]):
        if ux * vy <= uy * vx:
            raise DomainError("vertex chain not convex/ordered (non-left turn)")
    return lattice


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


class Polygon2D(ToricDomain):
    """Weakly convex planar domain, stored as its canonical boundary chain.

    The constructor builds only the chain scaled to integers over the lcm
    q of its denominators (a ``_Lattice``), in the instance ``__dict__``.
    The ``vertices`` field, the chain as ``Fraction`` pairs, is read off
    the lattice when a caller asks for it, so equality, hashing, ``repr``
    and serialization see the field alone.  The validation and every
    invariant read the integers: comparisons become cross-multiplications,
    and each answer is built as one ``Fraction``.
    """

    vertices: tuple

    kind = "polygon2d"
    n = 2
    cl_rules = ("MonotoneDiagonal", "EtaOnBoundary", "LatticeWitness")

    def __init__(self, vertices):
        self.__dict__["_lattice"] = _canonical_chain(vertices)

    @cached_member
    def vertices(self) -> tuple:
        q = self._lattice.q
        return tuple((Fraction(x, q), Fraction(y, q)) for x, y in self._lattice.points)

    @property
    def x_intercept(self) -> Fraction:
        return Fraction(self._lattice.points[0][0], self._lattice.q)

    @property
    def y_intercept(self) -> Fraction:
        return Fraction(self._lattice.points[-1][1], self._lattice.q)

    @cached_member
    def _halfplanes(self) -> tuple:
        # The region is the closed quadrant cut by the halfplanes
        # a x + b y <= c / q, one per edge; the normal (a, b) is the edge
        # direction turned by -90 degrees, pointing away from the region.
        return tuple(
            (dy, -dx, dy * x - dx * y)
            for (x, y), (dx, dy) in zip(self._lattice.points, self._lattice.edges)
        )

    @cached_member
    def _diagonal(self) -> tuple:
        # The diagonal ray exits through a chain edge whose outward normal
        # has positive coordinate sum s; the tightest such edge gives
        # delta = c / (s q), kept here as the pair (c, s).
        best = None
        for a, b, c in self._halfplanes:
            s = a + b
            if s > 0 and (best is None or c * best[1] < best[0] * s):
                best = (c, s)
        return best

    @cached_member
    def delta(self) -> Fraction:
        c, s = self._diagonal
        return Fraction(c, s * self._lattice.q)

    @cached_member
    def eta(self) -> Fraction:
        # min(x, y) is concave, so over the convex region its maximum sits
        # on the diagonal, at (delta, delta), or at a vertex of the chain.
        c, s = self._diagonal
        top = max(min(p) for p in self._lattice.points)
        return self.delta if top * s <= c else Fraction(top, self._lattice.q)

    @cached_member
    def is_monotone(self) -> bool:
        return all(dx <= 0 and dy >= 0 for dx, dy in self._lattice.edges)

    def _min_intercept(self) -> Fraction:
        points = self._lattice.points
        return self.x_intercept if points[0][0] <= points[-1][1] else self.y_intercept

    @cached_member
    def cube_inclusion(self) -> Fraction:
        # By convexity the square [0, a]^2 is inside iff its corners are.
        c, s = self._diagonal
        points = self._lattice.points
        if c <= min(points[0][0], points[-1][1]) * s:
            return self.delta
        return self._min_intercept()

    @property
    def simplex_inclusion(self) -> Fraction:
        # By convexity both axis corners inside pull the hypotenuse inside.
        return self._min_intercept()

    def support(self, v) -> Fraction:
        """Max of v . p over the chain, for a nonzero integer pair ``v``."""
        refusal = "support direction must be an integer pair, got {!r}"
        vx, vy = as_pair(v, InapplicableError, refusal)
        if not (is_integer(vx) and is_integer(vy)):
            raise InapplicableError(refusal.format(v))
        if vx == 0 and vy == 0:
            raise InapplicableError("support direction must be nonzero")
        q, (top,) = self._supports(((vx, vy),))
        return Fraction(top, q)

    def _supports(self, directions) -> tuple:
        """``(q, [top])`` with ``support(v) = top / q`` for each integer pair
        ``v`` of ``directions``, unchecked, so that a caller can add
        supports as integers."""
        points = self._lattice.points
        return self._lattice.q, [max(vx * x + vy * y for x, y in points)
                                 for vx, vy in directions]

    def affordable_directions(self, cap: Fraction, vmax: int) -> tuple:
        """The primitive integer directions v with |v_x|, |v_y| <= vmax and
        0 < support(v) <= cap, sorted, as ``(q, [(v_x, v_y, top)])`` with
        ``support(v) = top / q``.

        With cap = N / D the test reads top * D <= N * q at every chain
        point, so each row v_x gets its interval of v_y from the chain in
        integers.  A row v_x <= 0 needs v_y >= 1 for a positive support, so
        it costs at least the y-intercept, and a row v_x >= 1 at least v_x
        times the x-intercept; a cap below both intercepts leaves no row.
        The walk takes one step per row and one per direction of a row's
        interval, each O(vertices).
        """
        q, points = self._lattice.q, self._lattice.points
        budget, den = cap.numerator * q, cap.denominator
        first = -vmax if points[-1][1] * den <= budget else 1
        last = min(vmax, budget // (points[0][0] * den))
        out = []
        for vx in range(first, last + 1):
            # Every chain point after the first has y > 0.
            top_y = min(vmax, *((budget - vx * x * den) // (y * den) for x, y in points[1:]))
            for vy in range(1 if vx <= 0 else -vmax, top_y + 1):
                if math.gcd(vx, vy) == 1:
                    out.append((vx, vy, max(vx * x + vy * y for x, y in points)))
        return q, out

    @cached_member
    def cube_bound(self) -> Fraction:
        # Both end edges at least diagonal-steep, direction (dx, dy) with
        # dx <= dy, make the supports of (1,-1) and (-1,1) attain exactly the
        # two axis intercepts.  The lattice edges are the chain's edges
        # scaled by q > 0, so they compare alike.
        (dx0, dy0), (dx1, dy1) = self._lattice.edges[0], self._lattice.edges[-1]
        if dx0 > dy0 or dx1 > dy1:
            raise InapplicableError(
                "tangent-slope condition fails: both end edges must satisfy dx <= dy"
            )
        points = self._lattice.points
        return Fraction(points[0][0] + points[-1][1], 2 * self._lattice.q)

    @property
    def cylinder_cover(self) -> Fraction:
        points = self._lattice.points
        top = min(max(x for x, _ in points), max(y for _, y in points))
        return Fraction(top, self._lattice.q)

    def _least_slack(self, p) -> int:
        # With p = (xn / xd, yn / yd), the slacks of x >= 0, y >= 0 and of
        # each halfplane a x + b y <= c / q, each times a positive integer
        # (the last ones times xd yd q): the least is negative off the
        # closed region and 0 on its boundary.
        (xn, xd), (yn, yd) = (c.as_integer_ratio() for c in _point(p))
        d, u, v = xd * yd, self._lattice.q * xn * yd, self._lattice.q * yn * xd
        return min(xn, yn, *(c * d - a * u - b * v for a, b, c in self._halfplanes))

    def contains(self, p) -> bool:
        return self._least_slack(p) >= 0

    def on_boundary(self, p) -> bool:
        return self._least_slack(p) == 0

    def cl_slices(self, e: Fraction, across: bool) -> tuple:
        # The first edge leaves the x-axis upwards and the last one reaches
        # the y-axis leftwards, so some plane bounds each chord from above.
        # Across, x and y swap roles.
        planes = self._halfplanes
        if across:
            planes = [(b, a, c) for a, b, c in planes]
        return _chord(planes, e, self._lattice.q)

    @property
    def cl_candidates(self) -> tuple:
        # The intermediate vertices, the ones with positive coordinates.
        return self._lattice.q, self._lattice.points[1:-1]

    def summary(self) -> dict:
        return {"vertices": len(self._lattice.points), "weakly_convex": True}

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
    passes (its constructor enforced the same invariants).
    """
    vertices = getattr(vertices_or_polygon, "vertices", vertices_or_polygon)
    try:
        _canonical_chain(vertices)
    except DomainError:
        return False
    return True


_CORNERS = ("x0", "x1", "y0", "y1")
# A rectangle object's corners in that order; a missing one raises the
# ``KeyError`` of the first, in that order too.
_corners = itemgetter(*_CORNERS)


def _check_box(q: int, x0: int, x1: int, y0: int, y1: int) -> None:
    """Refuse the box [x0, x1] x [y0, y1] / q off the quadrant or of no area."""
    if x0 < 0 or x1 < 0 or y0 < 0 or y1 < 0:
        raise DomainError("rectangle must lie in the positive quadrant")
    if not (x0 < x1 and y0 < y1):
        a, b, c, d = (Fraction(v, q) for v in (x0, x1, y0, y1))
        raise DomainError(f"degenerate rectangle [{a},{b}]x[{c},{d}]")


class Rect(Value):
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

    def __init__(self, x0, x1, y0, y1):
        q, box = over_common_denominator((x0, x1, y0, y1))
        _check_box(q, *box)
        self.__dict__.update(zip(_CORNERS, (Fraction(c, q) for c in box)))


def _floor_ceil(v: Fraction, q: int) -> tuple:
    """(floor(v q), ceil(v q)) for a rational v and an int q."""
    scaled = v.numerator * q
    return scaled // v.denominator, -(-scaled // v.denominator)


def _connected(boxes) -> bool:
    """Whether a union of closed integer boxes (x0, x1, y0, y1) is connected.

    Two boxes meet, edge and corner contacts included, iff their ranges
    overlap on both axes.  Boxes are swept in order of their left edges,
    and each is compared only with the later boxes that start at or before
    its right edge; a union-find counts the merges still needed, and the
    sweep stops when none is.  A box's root is found once, before its
    comparisons: a merge hangs the other root below it, so it stays a root.
    """
    boxes = sorted(boxes)
    parent = list(range(len(boxes)))
    needed = len(boxes) - 1
    for a, (_, x1, y0, y1) in enumerate(boxes):
        # Roots are found by path halving.
        ra = a
        while parent[ra] != ra:
            parent[ra] = ra = parent[parent[ra]]
        for b in range(a + 1, len(boxes)):
            bx0, _, by0, by1 = boxes[b]
            if bx0 > x1:
                break
            if by0 <= y1 and y0 <= by1:
                rb = b
                while parent[rb] != rb:
                    parent[rb] = rb = parent[parent[rb]]
                if rb != ra:
                    parent[rb] = ra
                    needed -= 1
                    if not needed:
                        return True
    return not needed


class _Coverage:
    """Coordinate-compressed cell coverage of a rectangle union, on one integer lattice.

    The constructor reads the flat list of corners (x0, x1, y0, y1 per
    rectangle) straight to integers: rectangle k is ``boxes[k] / q``, q the
    least common denominator.  It refuses, in this order, no rectangle, a
    bad box, a union off both axes and a disconnected union.  Scaling by
    q > 0 keeps every order and equality, so connectivity and the painted
    cells are read off the integer boxes in ``int`` arithmetic.
    ``xs`` and ``ys`` are the sorted distinct integer coordinates together
    with 0, and a dict ranks each box's coordinates on them.  Cell (i, j)
    is the open box between ``xs[i]``, ``xs[i + 1]`` and ``ys[j]``,
    ``ys[j + 1]``; every rectangle is a block of whole cells, so a cell is
    covered by the closed union iff some rectangle paints it, and the
    union is the closure of its painted cells.  ``columns[i]`` is column i
    as a bit mask: bit j is set iff cell (i, j) is painted.  The painting
    pass also keeps ``eta``, the largest smallest coordinate of a box's
    top-right corner, and ``diagonal``, the same over the boxes that meet
    the diagonal (0 when none does), both over q.
    """

    __slots__ = ("q", "boxes", "xs", "ys", "columns", "staircase", "cube", "diagonal", "eta")

    def __init__(self, corners: list):
        if not corners:
            raise DomainError("rectilinear domain needs at least one rectangle")
        q, flat = over_common_denominator(corners)
        x0s, x1s, y0s, y1s = flat[0::4], flat[1::4], flat[2::4], flat[3::4]
        # One pass over all corners; the box-by-box check runs only to name
        # the first bad box.
        if min(flat) < 0 or not (all(map(lt, x0s, x1s)) and all(map(lt, y0s, y1s))):
            for box in zip(x0s, x1s, y0s, y1s):
                _check_box(q, *box)
        if not (0 in x0s or 0 in y0s):
            raise DomainError("union must contain a neighborhood of a boundary-axis point")
        boxes = list(zip(x0s, x1s, y0s, y1s))
        if not _connected(boxes):
            raise DomainError("rectangle union is not connected")
        xs = sorted({0, *x0s, *x1s})
        ys = sorted({0, *y0s, *y1s})
        xr = dict(zip(xs, range(len(xs))))
        yr = dict(zip(ys, range(len(ys))))
        columns = [0] * (len(xs) - 1)
        diagonal = eta = 0
        for x0, x1, y0, y1 in boxes:
            run = (1 << yr[y1]) - (1 << yr[y0])
            for i in range(xr[x0], xr[x1]):
                columns[i] |= run
            # A box meets the diagonal iff its bottom-left corner's larger
            # coordinate is at most its top-right corner's smaller one.
            top = x1 if x1 < y1 else y1
            if top > eta:
                eta = top
            if top > diagonal and x0 <= top and y0 <= top:
                diagonal = top
        self.q, self.boxes, self.xs, self.ys, self.columns = q, boxes, xs, ys, columns
        self.diagonal, self.eta = diagonal, eta
        # Down-closed means every column is painted on a prefix of its
        # cells, and the prefixes never grow from left to right.
        # cube: the growing square [0, a]^2 first meets an unpainted cell
        # (i, j) when a exceeds max(xs[i], ys[j]); in each column the
        # lowest unpainted cell is the first one met.
        staircase = True
        cube = min(xs[-1], ys[-1])
        height = ny = len(ys) - 1
        for i, column in enumerate(columns):
            # The lowest unset bit: adding 1 carries through the set ones below it.
            h = (column ^ (column + 1)).bit_length() - 1
            if h < ny:
                corner = xs[i] if xs[i] > ys[h] else ys[h]
                if corner < cube:
                    cube = corner
                if column >> h:
                    staircase = False
            if h > height:
                staircase = False
            height = h
        self.staircase, self.cube = staircase, Fraction(cube, q)

    def slices(self, level: Fraction, across: bool) -> tuple:
        """``(q, [(lo, hi), ...])``: the interval [lo / q, hi / q] of each
        rectangle meeting the line y = level (x = level when ``across``),
        by decreasing hi.

        A box meets the line iff its lower side is at most floor(level q)
        and its upper side at least ceil(level q).
        """
        below, above = _floor_ceil(level, self.q)
        if across:
            hits = [(y1, y0) for x0, x1, y0, y1 in self.boxes if x0 <= below and x1 >= above]
        else:
            hits = [(x1, x0) for x0, x1, y0, y1 in self.boxes if y0 <= below and y1 >= above]
        hits.sort(reverse=True)
        return self.q, [(lo, hi) for hi, lo in hits]

    def quadrants(self, p) -> tuple:
        """Whether each of the four cells meeting the corners of p is painted.

        The cell beside p in direction (sx, sy) is the one that contains
        the points just right (sx > 0) or left (sx < 0) of p, and just
        above or below it; a cell outside the grid counts as unpainted.
        """
        xs, ys = self.xs, self.ys
        nx, ny = len(xs) - 1, len(ys) - 1
        (fx, cx), (fy, cy) = _floor_ceil(p[0], self.q), _floor_ceil(p[1], self.q)
        cols = (bisect_left(xs, cx) - 1, bisect_right(xs, fx) - 1)
        rows = (bisect_left(ys, cy) - 1, bisect_right(ys, fy) - 1)
        return tuple(
            0 <= i < nx and 0 <= j < ny and self.columns[i] >> j & 1 == 1
            for i in cols
            for j in rows
        )


class Rectilinear2D(ToricDomain):
    """Connected union of axis-aligned rectangles touching a coordinate axis.

    The constructor builds only the union's coverage grid (``_Coverage``),
    the rectangles as integer boxes over the lcm q of their denominators,
    as a polygon builds its ``_Lattice``; the grid checks every box and
    the union, and every invariant, membership and boundary test reads it.
    The ``rects`` field, the rectangles as ``Rect`` values, is read off the
    grid when a caller asks for it, so equality, hashing and ``repr`` see
    the field alone; ``to_dict`` formats the grid's boxes and builds none.
    """

    rects: tuple

    kind = "rectilinear2d"
    n = 2
    # The corner structure makes the fiber-torus witness the robust route,
    # so a non-diagonal lattice witness is preferred when one exists (same
    # value either way, since a staircase has diagonal radius equal to eta).
    cl_rules = ("LatticeWitness", "MonotoneDiagonal", "EtaOnBoundary")

    def __init__(self, rects):
        rects = as_items(rects, DomainError, "rects must be a sequence, got {!r}")
        if not all(isinstance(r, Rect) for r in rects):
            raise DomainError("rects must be Rect instances")
        self.__dict__["_grid"] = _Coverage([c for r in rects for c in (r.x0, r.x1, r.y0, r.y1)])

    @cached_member
    def rects(self) -> tuple:
        q = self._grid.q
        return tuple(Rect(*(Fraction(c, q) for c in box)) for box in self._grid.boxes)

    @cached_member
    def delta(self) -> Fraction:
        grid = self._grid
        if not grid.diagonal:
            raise InapplicableError("diagonal does not meet the domain")
        return Fraction(grid.diagonal, grid.q)

    @cached_member
    def eta(self) -> Fraction:
        # Per rectangle the smallest coordinate is largest at the top-right corner.
        return Fraction(self._grid.eta, self._grid.q)

    @cached_member
    def is_monotone(self) -> bool:
        return self._grid.staircase

    @cached_member
    def cube_inclusion(self) -> Fraction:
        return self._grid.cube

    @property
    def simplex_inclusion(self) -> Fraction:
        # Conservative for non-convex unions: the inscribed square contains
        # the simplex of the same size.
        return self.cube_inclusion

    @property
    def cylinder_cover(self) -> Fraction:
        # Every box has x0 < x1 and y0 < y1, so the last grid lines are the
        # largest x1 and y1.
        grid = self._grid
        return Fraction(min(grid.xs[-1], grid.ys[-1]), grid.q)

    def contains(self, p) -> bool:
        # Some cell whose closure holds p is painted.
        return any(self._grid.quadrants(_point(p)))

    def on_boundary(self, p) -> bool:
        # p is interior iff all four cells meeting its corners are painted.
        quadrants = self._grid.quadrants(_point(p))
        return any(quadrants) and not all(quadrants)

    def cl_slices(self, e: Fraction, across: bool) -> tuple:
        return self._grid.slices(e, across)

    @property
    def cl_candidates(self) -> tuple:
        # A rectangle's corners lie in the closed union.
        return self._grid.q, [
            p
            for x0, x1, y0, y1 in self._grid.boxes
            for p in ((x1, y1), (x0, y0), (x0, y1), (x1, y0))
            if p[0] > 0 and p[1] > 0
        ]

    def summary(self) -> dict:
        return {"rects": len(self._grid.boxes)}

    def to_dict(self) -> dict:
        q = self._grid.q
        return {"kind": self.kind, "rects": [
            dict(zip(_CORNERS, (format_rational(Fraction(c, q)) for c in box)))
            for box in self._grid.boxes
        ]}

    @classmethod
    def from_dict(cls, data: dict) -> "Rectilinear2D":
        try:
            raw = data["rects"]
        except KeyError:
            raise DomainError("rectilinear2d document missing 'rects'")
        if not isinstance(raw, list):
            raise DomainError("'rects' must be a list of rectangle objects")
        corners = []
        for item in raw:
            if not isinstance(item, dict):
                raise DomainError(f"rectangle is not an object: {item!r}")
            try:
                corners += _corners(item)
            except KeyError as exc:
                raise DomainError(f"rectangle missing corner field {exc}")
        # The grid reads the document's values; no Rect is built until a
        # caller reads ``rects``.
        domain = cls.__new__(cls)
        domain.__dict__["_grid"] = _Coverage(corners)
        return domain


_KINDS = {
    **dict.fromkeys(STANDARD_KINDS, StandardDomain),
    "polygon2d": Polygon2D,
    "rectilinear2d": Rectilinear2D,
}


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
        raise DomainError(f"unknown domain kind: {kind!r}")
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
