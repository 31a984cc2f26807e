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
  region;
* ``cube_bound`` -- the closed-form upper bound (x-intercept +
  y-intercept)/2 for the cube capacity of a weakly convex polygon whose
  first and last boundary edges are at least diagonal-steep;
* ``domain_contains`` and ``domain_on_boundary`` -- closed membership
  and boundary tests for planar domains; the tests check the
  Lagrangian-capacity rules and their witnesses against them.

Everything is answered by the domain's own kind: each function checks
its argument (a ``ToricDomain``, else ``DomainError``; a polygon for
``support`` and ``cube_bound``, else ``InapplicableError``) and reads the
member of the same name (see :mod:`toricap.domains` for the protocol).
Everything is evaluated in exact rational arithmetic: for these shape
classes all suprema are attained at vertices, edge intersections or grid
corners, so no tolerances are needed.

A rectangle union is answered on one integer lattice, like a polygon:
its constructor scales every rectangle coordinate once to an integer
over the lcm q of their denominators.  The distinct scaled coordinates
(and 0) cut the quadrant into the cells of one coverage grid, and one bit
per cell records whether a rectangle paints it; the integer boxes also
decide connectivity.  The staircase test and ``cube_inclusion`` are read
off the grid in one pass over its columns, ``delta``, ``eta`` and the
cylinder cover off the integer boxes, and membership and boundary tests
bisect the grid lines at floor(p q) and ceil(p q).  The cost of a
union's invariants therefore depends on the number of rectangles, not
on the size of their coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .domains import Polygon2D, ToricDomain, _checked, _require_polygon


def support(domain: Polygon2D, v) -> Fraction:
    """Max of v . p over the boundary vertex chain.

    A linear functional over a polygonal curve attains its maximum at a
    vertex, so this is a finite exact maximum.  ``v`` must be a nonzero
    integer pair; any other kind of domain raises ``InapplicableError``.
    """
    _require_polygon("support values are defined on polygon domains", domain)
    return domain.support(v)


def delta(domain: ToricDomain) -> Fraction:
    """Diagonal radius: the largest a with (a, ..., a) in the region.

    A rectangle union off the diagonal raises ``InapplicableError``.
    """
    return _checked(domain).delta


def eta(domain: ToricDomain) -> Fraction:
    """Min-coordinate radius: sup over the region of the smallest coordinate.

    Equivalently the least a such that every point of the region has some
    coordinate <= a.  It is at least the diagonal radius, and equal to it
    for monotone domains, but a convex polygon can exceed it: min(x, y) is
    concave, so its maximum over the polygon sits on the diagonal or at a
    vertex of the chain, and a vertex such as (3, 5) on the chain
    (1, 0), (3, 5), (0, 6) gives eta = 3 against delta = 5/3.
    """
    return _checked(domain).eta


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
    return _checked(domain).is_monotone


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
    return _checked(domain).cube_inclusion


def domain_contains(domain: ToricDomain, p) -> bool:
    """Closed membership test for 2-dimensional domains.

    ``p`` must be a pair (``InapplicableError`` otherwise) of rationals,
    each coerced through ``parse_rational``, so a float raises
    ``DomainError``.  A polygon scales p by its own denominators, and p
    is in the closed region iff its least integer slack to the axes and
    the chain's edge halfplanes is >= 0.
    """
    return _checked(domain).contains(p)


def domain_on_boundary(domain: ToricDomain, p) -> bool:
    """Boundary membership test for 2-dimensional domains.

    A polygon point is on the boundary iff the least slack of the same
    integer pass as ``domain_contains`` is 0: p is in the closed region
    and on an axis or on the line of some chain edge.  For a rectangle
    union, p is on the boundary iff at least one but not all of the four
    grid cells meeting its corners are painted; the cells are found by
    bisecting the grid lines, so the test costs O(log(rectangles))
    comparisons.  ``p`` is checked and coerced as in ``domain_contains``.
    """
    return _checked(domain).on_boundary(p)


def cube_bound(domain: Polygon2D) -> Fraction:
    """Closed-form upper bound (x-intercept + y-intercept)/2 for the cube capacity.

    Requires the boundary chain to leave the x-axis and arrive at the
    y-axis at least diagonally (edge direction dx <= dy at both ends);
    otherwise, or on a domain of another kind, the call refuses.

    The bound is backed by the paper's theorem for cube sources: the
    degree-d obstructions to embedding a cube (``ech.finite_d_bound``)
    are certified upper bounds that decrease to this value.  It is not
    backed by ``ech.obstruction_search``, whose statuses are claims about
    the combinatorial model under its bounds.  It reads only the
    polygon's integer lattice, so it needs nothing from the ECH model;
    a polygon computes it at most once.
    """
    _require_polygon("the boundary-slope bound applies to polygon domains", domain)
    return domain.cube_bound
