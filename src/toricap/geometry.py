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
* ``finite_d_bound`` -- the weakest inequality any admissible factor of
  the canonical degree-d test product can impose, an upper bound that
  decreases to ``cube_bound`` as d grows;
* ``domain_contains`` and ``domain_on_boundary`` -- closed membership
  and boundary tests for planar domains; the tests check the
  Lagrangian-capacity rules and their witnesses against them.

Everything is answered by the domain's own kind: each function checks
its argument (a ``ToricDomain``, else ``DomainError``; a polygon for
``support`` and the two cube bounds, else ``InapplicableError``) and
reads the member of the same name, or ``support`` checks its direction
and reads the polygon's ``_supports`` (see :mod:`toricap.domains` for
the protocol).  Everything is evaluated in exact rational arithmetic:
for these shape classes all suprema are attained at vertices, edge
intersections or grid corners, so no tolerances are needed.

The two cube bounds are certified by the paper's theorem for cube
sources: the degree-d obstructions to embedding a cube are upper bounds
for its capacity that decrease to ``cube_bound``.  They read only the
polygon's integer lattice and run no search, so they do not rest on
``ech.obstruction_search``, whose statuses are claims about the
combinatorial model under its bounds.

That certificate is in doubt (ROADMAP item 20).  The hypothesis of the
theorem cannot be read in this repository, which holds the paper's
abstract alone, and three rows contradict the bound.  An open
parallelogram p + A(0, s)^2 with A in GL(2, Z) inside the domain holds a
polydisk P(s, s), so c_P >= s; yet ``cube_bound`` is 1/5 on Omega_{2/5},
which holds the parallelogram with corner (0, 1/10), basis (1, 0),
(1, 1) and side 3/10, 1/10 on the strip polygon (1/10, 0),
(2, 19/10), (19/10, 2), (0, 1/10), which holds the one with corner
(1/2, 119/200), the same basis and side 19/100, and 7/20 on the chain
(11/20, 0), (5/4, 7/5), (0, 3/20), which holds the one with corner
(53/50, 6/5), basis (-1, -2), (-1, -1) and side 2/5.  Strict xfails in
``tests/test_capacities.py`` pin the three rows.
"""

from __future__ import annotations

from fractions import Fraction

from .domains import Polygon2D, ToricDomain, _checked, _require_polygon
from .errors import InapplicableError
from .rationals import as_pair, is_count, is_integer


def support(domain: Polygon2D, v) -> Fraction:
    """Max of v . p over the boundary vertex chain.

    A linear functional over a polygonal curve attains its maximum at a
    vertex, so this is a finite exact maximum.  ``v`` must be a nonzero
    integer pair; any other kind of domain raises ``InapplicableError``.
    """
    _require_polygon("support values are defined on polygon domains", domain)
    refusal = "support direction must be an integer pair, got {!r}"
    vx, vy = as_pair(v, InapplicableError, refusal)
    if not (is_integer(vx) and is_integer(vy)):
        raise InapplicableError(refusal.format(v))
    if vx == 0 and vy == 0:
        raise InapplicableError("support direction must be nonzero")
    q, (top,) = domain._supports(((vx, vy),))
    return Fraction(top, q)


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
    """
    _require_polygon("the boundary-slope bound applies to polygon domains", domain)
    return domain.cube_bound


def finite_d_bound(domain: Polygon2D, d: int) -> Fraction:
    """Certified cube-capacity bound extracted from the degree-d test product.

    Any admissible factor forces the inequality
    a < (d_i * (x0 + y1) + k) / (2 d_i + 3 k - 1) for some k in {0, 1, 2}
    and some integer d_i in [ceil(d/3), d]; the max over all admissible
    pairs is therefore a sound upper bound.  It is non-increasing in d
    and converges to ``cube_bound`` from above.
    """
    if not is_count(d):
        raise InapplicableError(f"degree must be an integer >= 1, got {d!r}")
    s = 2 * cube_bound(domain)  # x0 + y1; cube_bound validates the slope precondition
    # For fixed k the bound is a Moebius function of d_i whose denominator
    # stays positive for d_i >= 1, hence monotone there: the maximum over
    # the range is attained at one of its two ends.
    return max(
        Fraction(di * s + k, 2 * di + 3 * k - 1)
        for di in (-(-d // 3), d)
        for k in (0, 1, 2)
    )
