"""Exact geometric invariants of toric moment domains.

The quantities computed here are:

* ``support`` -- the maximum of an integer linear functional over the
  positive boundary chain of a polygon;
* ``delta`` -- the diagonal radius sup{ a : (a, ..., a) in the region };
* ``eta`` -- the min-coordinate (NDUC) radius sup over the region of the
  smallest coordinate, i.e. the least a such that the domain fits in the
  union-of-cylinders region of size a;
* ``is_monotone`` -- whether every outward normal along the positive
  boundary has nonnegative components;
* ``cube_inclusion`` -- the largest a with [0, a]^n contained in the
  region.

Everything is evaluated in exact rational arithmetic: for these shape
classes all suprema are attained at vertices, edge intersections or grid
corners, so no tolerances are needed.

A rectangle union is answered from one coordinate-compressed coverage
grid: the distinct rectangle coordinates (and 0) cut the quadrant into
cells, and one byte per cell records whether a rectangle paints it.  The
grid is built once per ``Rectilinear2D``, on first use, and kept on the
instance; the staircase test and ``cube_inclusion`` are read off it in
one pass over the cells, and membership and boundary tests bisect the
grid lines.  The cost of a union's invariants therefore depends on the
number of rectangles, not on the size of their coordinates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

from .domains import (
    Polygon2D,
    Rectilinear2D,
    StandardDomain,
    ToricDomain,
)
from .errors import DomainError, InapplicableError

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Polygon helpers
# ---------------------------------------------------------------------------

def support(domain: Polygon2D, v) -> Fraction:
    """Max of v . p over the boundary vertex chain.

    A linear functional over a polygonal curve attains its maximum at a
    vertex, so this is a finite exact maximum.  ``v`` must be a nonzero
    integer pair.
    """
    vx, vy = v
    if vx == 0 and vy == 0:
        raise InapplicableError("support direction must be nonzero")
    return max(vx * x + vy * y for x, y in domain.vertices)


def _chain_halfplanes(domain: Polygon2D):
    """Outward (normal, offset) pairs for the chain edges.

    The region is the intersection of the closed quadrant with the
    halfplanes ``normal . p <= offset``; normals of a counterclockwise
    chain point away from the region.
    """
    planes = []
    for p, q in zip(domain.vertices, domain.vertices[1:]):
        nu = (q[1] - p[1], p[0] - q[0])  # rotate edge direction by -90 degrees
        planes.append((nu, nu[0] * p[0] + nu[1] * p[1]))
    return planes


def polygon_contains(domain: Polygon2D, p) -> bool:
    """Closed membership test for the region bounded by chain and axes."""
    x, y = p
    if x < 0 or y < 0:
        return False
    return all(nu[0] * x + nu[1] * y <= c for nu, c in _chain_halfplanes(domain))


def _on_segment(p, a, b) -> bool:
    ax, ay = a
    bx, by = b
    px, py = p
    if (bx - ax) * (py - ay) != (by - ay) * (px - ax):
        return False
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def polygon_on_boundary(domain: Polygon2D, p) -> bool:
    """True iff p lies on the chain or on one of the implicit axis segments."""
    x, y = p
    if y == 0 and 0 <= x <= domain.x_intercept:
        return True
    if x == 0 and 0 <= y <= domain.y_intercept:
        return True
    return any(
        _on_segment(p, a, b)
        for a, b in zip(domain.vertices, domain.vertices[1:])
    )


# ---------------------------------------------------------------------------
# Rectilinear helpers: one coverage grid per union
# ---------------------------------------------------------------------------

class _Coverage:
    """Coordinate-compressed cell coverage of a rectangle union.

    ``xs`` and ``ys`` are the sorted distinct rectangle coordinates
    together with 0.  Cell (i, j) is the open box between ``xs[i]``,
    ``xs[i + 1]`` and ``ys[j]``, ``ys[j + 1]``; every rectangle is a block
    of whole cells, so a cell is covered by the closed union iff some
    rectangle paints it, and the union is the closure of its painted
    cells.  ``painted`` holds one byte per cell, column by column.
    """

    __slots__ = ("xs", "ys", "painted", "staircase", "cube")

    def __init__(self, rects):
        xs = sorted({ZERO, *(r.x0 for r in rects), *(r.x1 for r in rects)})
        ys = sorted({ZERO, *(r.y0 for r in rects), *(r.y1 for r in rects)})
        xi = {x: i for i, x in enumerate(xs)}
        yi = {y: j for j, y in enumerate(ys)}
        ny = len(ys) - 1
        painted = bytearray((len(xs) - 1) * ny)
        for r in rects:
            j0, j1 = yi[r.y0], yi[r.y1]
            run = b"\x01" * (j1 - j0)
            for i in range(xi[r.x0], xi[r.x1]):
                painted[i * ny + j0:i * ny + j1] = run
        self.xs, self.ys, self.painted = xs, ys, painted
        # Down-closed means every column is painted on a prefix of its
        # cells, and the prefixes never grow from left to right.
        # cube: the growing square [0, a]^2 first meets an unpainted cell
        # (i, j) when a exceeds max(xs[i], ys[j]); in each column the
        # lowest unpainted cell is the first one met.
        staircase = True
        cube = min(xs[-1], ys[-1])
        height = ny
        for i in range(len(xs) - 1):
            start, end = i * ny, (i + 1) * ny
            h = painted.find(0, start, end) - start
            if h < 0:
                h = ny
            else:
                cube = min(cube, max(xs[i], ys[h]))
                if painted.find(1, start + h, end) >= 0:
                    staircase = False
            if h > height:
                staircase = False
            height = h
        self.staircase = staircase
        self.cube = cube

    def quadrants(self, p) -> tuple:
        """Whether each of the four cells meeting the corners of p is painted.

        The cell beside p in direction (sx, sy) is the one that contains
        the points just right (sx > 0) or left (sx < 0) of p, and just
        above or below it; a cell outside the grid counts as unpainted.
        """
        x, y = p
        xs, ys = self.xs, self.ys
        nx, ny = len(xs) - 1, len(ys) - 1
        cols = (bisect_left(xs, x) - 1, bisect_right(xs, x) - 1)
        rows = (bisect_left(ys, y) - 1, bisect_right(ys, y) - 1)
        return tuple(
            0 <= i < nx and 0 <= j < ny and self.painted[i * ny + j] == 1
            for i in cols
            for j in rows
        )


def _coverage(domain: Rectilinear2D) -> _Coverage:
    """The coverage grid of a union, built on first use and kept on the domain.

    The grid lives in the instance ``__dict__`` and not in a dataclass
    field, so equality, hashing and serialization ignore it.
    """
    grid = domain.__dict__.get("_coverage")
    if grid is None:
        grid = _Coverage(domain.rects)
        object.__setattr__(domain, "_coverage", grid)
    return grid


def rectilinear_contains(domain: Rectilinear2D, p) -> bool:
    """Closed membership: some cell whose closure holds p is painted."""
    return any(_coverage(domain).quadrants(p))


def rectilinear_on_boundary(domain: Rectilinear2D, p) -> bool:
    """True iff p is in the closed union but not in its interior.

    p is interior iff all four cells meeting its corners are painted,
    and in the closed union iff at least one of them is.  The four cells
    are found by bisecting the grid lines, so the test costs
    O(log(rectangles)) comparisons.
    """
    quadrants = _coverage(domain).quadrants(p)
    return any(quadrants) and not all(quadrants)


# ---------------------------------------------------------------------------
# The invariants
# ---------------------------------------------------------------------------

def delta(domain: ToricDomain) -> Fraction:
    """Diagonal radius: the largest a with (a, ..., a) in the region."""
    if isinstance(domain, StandardDomain):
        if domain.kind == "ball":
            return domain.a / domain.n
        return domain.a  # cylinder, cube and NDUC all meet the diagonal at a
    if isinstance(domain, Polygon2D):
        # The diagonal ray exits through a chain edge whose outward normal
        # has positive coordinate sum; the tightest such edge gives delta.
        best = None
        for nu, c in _chain_halfplanes(domain):
            s = nu[0] + nu[1]
            if s > 0:
                t = c / s
                best = t if best is None or t < best else best
        if best is None:
            raise DomainError("bounded polygon without a diagonal exit edge")
        return best
    if isinstance(domain, Rectilinear2D):
        hits = [
            min(r.x1, r.y1)
            for r in domain.rects
            if max(r.x0, r.y0) <= min(r.x1, r.y1)
        ]
        if not hits:
            raise InapplicableError("diagonal does not meet the domain")
        return max(hits)
    raise DomainError(f"not a toric domain: {domain!r}")


def eta(domain: ToricDomain) -> Fraction:
    """Min-coordinate radius: sup over the region of the smallest coordinate.

    Equivalently the least a such that every point of the region has some
    coordinate <= a.  For a convex (or concave) region this coincides
    with the diagonal radius.
    """
    if isinstance(domain, StandardDomain):
        if domain.kind == "ball":
            return domain.a / domain.n
        return domain.a
    if isinstance(domain, Polygon2D):
        return delta(domain)  # the chain is convex by construction
    if isinstance(domain, Rectilinear2D):
        # Per rectangle the smallest coordinate is maximized at the
        # top-right corner.
        return max(min(r.x1, r.y1) for r in domain.rects)
    raise DomainError(f"not a toric domain: {domain!r}")


def is_monotone(domain: ToricDomain) -> bool:
    """Whether outward normals along the positive boundary are componentwise >= 0.

    For vertex chains this reads edge-wise: each edge direction (dx, dy)
    must have dx <= 0 and dy >= 0.  The NDUC region is accepted by
    convention (it is sandwiched between the cube and itself at the same
    size); this is a convention for the unbounded model, not a claim
    about smooth boundaries.  A rectilinear union is monotone iff it is a
    staircase region (downward closed), i.e. iff its painted grid cells
    are closed under moving left and down.
    """
    if isinstance(domain, StandardDomain):
        return True
    if isinstance(domain, Polygon2D):
        return all(dx <= 0 and dy >= 0 for dx, dy in domain.edges())
    if isinstance(domain, Rectilinear2D):
        return _coverage(domain).staircase
    raise DomainError(f"not a toric domain: {domain!r}")


def cube_inclusion(domain: ToricDomain) -> Fraction:
    """Largest a with the cube region [0, a]^n contained in the domain.

    This is an exact lower bound for the cube capacity.  For a convex
    polygon the square is contained iff its corners are, so the answer is
    min(delta, x-intercept, y-intercept); for monotone domains it equals
    delta.  For a rectangle union the growing square first leaves the
    union at an unpainted grid cell (i, j), when its side passes
    max(xs[i], ys[j]), so the answer is the least such value over the
    lowest unpainted cell of each grid column, capped by the extents.
    """
    if isinstance(domain, StandardDomain):
        if domain.kind == "ball":
            return domain.a / domain.n
        return domain.a
    if isinstance(domain, Polygon2D):
        return min(delta(domain), domain.x_intercept, domain.y_intercept)
    if isinstance(domain, Rectilinear2D):
        return _coverage(domain).cube
    raise DomainError(f"not a toric domain: {domain!r}")


def domain_contains(domain: ToricDomain, p) -> bool:
    """Closed membership test for 2-dimensional domains."""
    if isinstance(domain, Polygon2D):
        return polygon_contains(domain, p)
    if isinstance(domain, Rectilinear2D):
        return rectilinear_contains(domain, p)
    raise InapplicableError("membership test implemented for planar domains only")


def domain_on_boundary(domain: ToricDomain, p) -> bool:
    """Boundary membership test for 2-dimensional domains."""
    if isinstance(domain, Polygon2D):
        return polygon_on_boundary(domain, p)
    if isinstance(domain, Rectilinear2D):
        return rectilinear_on_boundary(domain, p)
    raise InapplicableError("boundary test implemented for planar domains only")
