"""The rectangle-union domain kind, ``Rectilinear2D``, and its ``Rect`` value.

A ``Rectilinear2D`` is a finite union of axis-aligned rectangles in the
closed positive quadrant; the union must be connected and contain a
neighborhood of a point on a coordinate axis.  Like a polygon, it is
validated and answered on one integer lattice: the constructor reads the
corners straight to integer boxes over the lcm of their denominators and
paints its cell grid on them (``_coverage``), and the ``rects`` field is
read off the boxes when asked for.  The kind answers the protocol that
:mod:`toricap.domains` lists for every kind.

The kind is a module of its own so that a process that reads no union
does not load it: :func:`toricap.domains.domain_from_dict` imports it on
the first ``"rectilinear2d"`` document and enters it in the kind table.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, lt

from .domains import ToricDomain, _Refused, _point
from .errors import DomainError
from .rationals import Interval, Value, as_items, format_rational, over_common_denominator

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


def _coverage(corners: list) -> dict:
    """The integer lattice of a rectangle union, by the names a
    ``Rectilinear2D`` keeps it under.

    The flat list of corners (x0, x1, y0, y1 per rectangle) is read straight
    to integers: rectangle k is ``_boxes[k] / _q``, q the least common
    denominator.  It refuses, in this order, no rectangle, a bad box, a
    union off both axes and a disconnected union.  Scaling by q > 0 keeps
    every order and equality, so connectivity and the painted cells are read
    off the integer boxes in ``int`` arithmetic.  ``_xs`` and ``_ys`` are
    the sorted distinct integer coordinates together with 0, and a dict
    ranks each box's coordinates on them.  Cell (i, j) is the open box
    between ``_xs[i]``, ``_xs[i + 1]`` and ``_ys[j]``, ``_ys[j + 1]``; every
    rectangle is a block of whole cells, so a cell is covered by the closed
    union iff some rectangle paints it, and the union is the closure of its
    painted cells.  ``_columns[i]`` is column i as a bit mask: bit j is set
    iff cell (i, j) is painted.  The painting pass also finds ``eta``, the
    largest smallest coordinate of a box's top-right corner, and ``delta``,
    the same over the boxes that meet the diagonal, returned only when some
    box does; the scan of the columns after it finds ``is_monotone`` and
    ``cube_inclusion``, and with the grid's extents ``inclusion_bracket``.
    """
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
        # Per box the smallest coordinate is largest at the top-right
        # corner, and a box meets the diagonal iff its bottom-left
        # corner's larger coordinate is at most that corner's smaller one.
        top = x1 if x1 < y1 else y1
        if top > eta:
            eta = top
        if top > diagonal and x0 <= top and y0 <= top:
            diagonal = top
    # Down-closed means every column is painted on a prefix of its cells,
    # and the prefixes never grow from left to right.
    # cube: the growing square [0, a]^2 first meets an unpainted cell
    # (i, j) when a exceeds max(xs[i], ys[j]); in each column the lowest
    # unpainted cell is the first one met.  Every box has x0 < x1 and
    # y0 < y1, so the last grid lines are the largest x1 and y1, and the
    # union lies in the slab of the smaller one, ``extent``.
    staircase = True
    cube = extent = min(xs[-1], ys[-1])
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
    # The inclusion bracket is conservative for non-convex unions: the
    # inscribed square contains the simplex of the same size.  Its ends are
    # ordered in integers already (cube only shrinks from extent).
    inscribed = Fraction(cube, q)
    bracket = Interval._stored(lower=inscribed, upper=Fraction(extent, q), exact=cube == extent)
    return {"_q": q, "_boxes": boxes, "_xs": xs, "_ys": ys, "_columns": columns,
            "eta": Fraction(eta, q), "is_monotone": staircase,
            "cube_inclusion": inscribed, "inclusion_bracket": bracket,
            **({"delta": Fraction(diagonal, q)} if diagonal else {})}


class Rectilinear2D(ToricDomain):
    """Connected union of axis-aligned rectangles touching a coordinate axis.

    By the storage rule of every kind (see :mod:`toricap.domains`), the
    constructor keeps what ``_coverage`` returns: the rectangles as integer
    boxes over the lcm q of their denominators, the painted cell grid on
    them, which membership and boundary tests read, and every invariant,
    ``delta`` only when the union meets the diagonal; the class refuses it
    otherwise.  The ``rects`` field, the rectangles as ``Rect`` values read
    off the boxes, is computed on its first read, so equality, hashing and
    ``repr`` see the field alone; ``to_dict`` builds no ``Rect``.
    """

    rects: tuple

    kind = "rectilinear2d"
    n = 2
    # The corner structure makes the fiber-torus witness the robust route,
    # so a non-diagonal lattice witness is preferred when one exists (same
    # value either way, since a staircase has diagonal radius equal to eta).
    cl_rules = ("LatticeWitness", "MonotoneDiagonal", "EtaOnBoundary")
    delta = _Refused("diagonal does not meet the domain")

    def __init__(self, rects):
        rects = as_items(rects, DomainError, "rects must be a sequence, got {!r}")
        if not all(isinstance(r, Rect) for r in rects):
            raise DomainError("rects must be Rect instances")
        self.__dict__.update(_coverage([c for r in rects for c in (r.x0, r.x1, r.y0, r.y1)]))

    @cached_property
    def rects(self) -> tuple:
        q = self._q
        return tuple(Rect(*(Fraction(c, q) for c in box)) for box in self._boxes)

    def _quadrants(self, p) -> tuple:
        """Whether each of the four cells meeting the corners of p is painted.

        The cell beside p in direction (sx, sy) is the one that contains
        the points just right (sx > 0) or left (sx < 0) of p, and just
        above or below it; a cell outside the grid counts as unpainted.
        """
        x, y = _point(p)
        xs, ys = self._xs, self._ys
        nx, ny = len(xs) - 1, len(ys) - 1
        (fx, cx), (fy, cy) = _floor_ceil(x, self._q), _floor_ceil(y, self._q)
        cols = (bisect_left(xs, cx) - 1, bisect_right(xs, fx) - 1)
        rows = (bisect_left(ys, cy) - 1, bisect_right(ys, fy) - 1)
        return tuple(
            0 <= i < nx and 0 <= j < ny and self._columns[i] >> j & 1 == 1
            for i in cols
            for j in rows
        )

    def contains(self, p) -> bool:
        # Some cell whose closure holds p is painted.
        return any(self._quadrants(p))

    def on_boundary(self, p) -> bool:
        # p is interior iff all four cells meeting its corners are painted.
        quadrants = self._quadrants(p)
        return any(quadrants) and not all(quadrants)

    def cl_slices(self, e: Fraction, across: bool) -> tuple:
        # A box meets the line iff its lower side is at most floor(e q)
        # and its upper side at least ceil(e q).
        below, above = _floor_ceil(e, self._q)
        if across:
            hits = [(y1, y0) for x0, x1, y0, y1 in self._boxes if x0 <= below and x1 >= above]
        else:
            hits = [(x1, x0) for x0, x1, y0, y1 in self._boxes if y0 <= below and y1 >= above]
        hits.sort(reverse=True)
        return self._q, [(lo, hi) for hi, lo in hits]

    @property
    def cl_candidates(self) -> tuple:
        # A rectangle's corners lie in the closed union.
        return self._q, [
            p
            for x0, x1, y0, y1 in self._boxes
            for p in ((x1, y1), (x0, y0), (x0, y1), (x1, y0))
            if p[0] > 0 and p[1] > 0
        ]

    def summary(self) -> dict:
        return {"rects": len(self._boxes)}

    def to_dict(self) -> dict:
        q = self._q
        return {"kind": self.kind, "rects": [
            dict(zip(_CORNERS, (format_rational(Fraction(c, q)) for c in box)))
            for box in self._boxes
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
        # The lattice is read off the document's values, and ``_coverage``
        # makes the box check that ``Rect`` makes; no Rect is built until a
        # caller reads ``rects``.
        return cls._stored(**_coverage(corners))
