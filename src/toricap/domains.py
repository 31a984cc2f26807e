"""Toric moment-domain models with exact rational data.

Three shape classes are supported:

* ``StandardDomain`` -- the ball, cylinder, cube and NDUC families in any
  dimension, kept symbolic (the cylinder and NDUC are unbounded and are
  never converted to a polygon).
* ``Polygon2D`` -- a bounded planar domain given by the chain of boundary
  vertices with positive coordinates, listed counterclockwise from the
  x-axis intercept to the y-axis intercept.  The origin and the two axis
  segments are implicit.  The chain is required to be convex, which makes
  the domain weakly convex by construction.
* ``Rectilinear2D`` -- a finite union of axis-aligned rectangles in the
  closed positive quadrant; the union must be connected and contain a
  neighborhood of a point on a coordinate axis.

All types are immutable values; geometric operations live in
:mod:`toricap.geometry`.  Constructors coerce every rational field through
``parse_rational``; a dimension ``n`` must be an int, not a bool.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError
from .rationals import format_rational, parse_rational

STANDARD_KINDS = ("ball", "cylinder", "cube", "nduc")


@dataclass(frozen=True)
class StandardDomain:
    """One of the four standard moment regions, of size ``a`` in dimension ``n``."""

    kind: str
    n: int
    a: Fraction

    def __post_init__(self):
        if self.kind not in STANDARD_KINDS:
            raise DomainError(f"unknown standard domain kind: {self.kind!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"dimension must be an integer >= 1, got {self.n!r}")
        object.__setattr__(self, "a", parse_rational(self.a))
        if self.a <= 0:
            raise DomainError(f"size must be positive, got {self.a}")


def _cross(u, v) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _dot(u, v) -> Fraction:
    return u[0] * v[0] + u[1] * v[1]


def _canonical_chain(vertices) -> tuple:
    """Validate and canonicalize a boundary vertex chain.

    Consecutive duplicate vertices and collinear midpoints are removed;
    every other defect raises ``DomainError`` naming the violated
    invariant.  The result is the canonical counterclockwise chain from
    the x-axis intercept to the y-axis intercept.
    """
    pts = []
    for v in vertices:
        try:
            # A string would unpack into its characters: "10" is not (1, 0).
            x, y = () if isinstance(v, str) else v
        except (TypeError, ValueError):
            raise DomainError(f"vertex is not a coordinate pair: {v!r}")
        pts.append((parse_rational(x), parse_rational(y)))
    # Drop exact consecutive duplicates before any edge-based checks.
    deduped = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    if len(deduped) < 2:
        raise DomainError("vertex chain needs at least two distinct vertices")
    # Remove collinear midpoints (forward collinearity only; a collinear
    # backtrack is a degenerate chain, caught by the convexity check).
    chain = [deduped[0]]
    for p in deduped[1:]:
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            e1 = (b[0] - a[0], b[1] - a[1])
            e2 = (p[0] - b[0], p[1] - b[1])
            if _cross(e1, e2) == 0 and _dot(e1, e2) > 0:
                chain.pop()
            else:
                break
        chain.append(p)
    first, last = chain[0], chain[-1]
    if first[1] != 0 or first[0] <= 0:
        raise DomainError(
            "first vertex must be the x-axis intercept (y = 0, x > 0)"
        )
    if last[0] != 0 or last[1] <= 0:
        raise DomainError(
            "last vertex must be the y-axis intercept (x = 0, y > 0)"
        )
    for p in chain[1:-1]:
        if p[0] <= 0 or p[1] <= 0:
            raise DomainError(
                f"intermediate vertex {p} must have positive coordinates"
            )
    edges = [
        (q[0] - p[0], q[1] - p[1]) for p, q in zip(chain, chain[1:])
    ]
    for e in edges:
        if e == (0, 0):
            raise DomainError("degenerate zero-length edge in vertex chain")
    for e1, e2 in zip(edges, edges[1:]):
        if _cross(e1, e2) <= 0:
            raise DomainError("vertex chain not convex/ordered (non-left turn)")
    return tuple(chain)


@dataclass(frozen=True)
class Polygon2D:
    """Weakly convex planar domain, stored as its canonical boundary chain."""

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", _canonical_chain(self.vertices))

    @property
    def x_intercept(self) -> Fraction:
        return self.vertices[0][0]

    @property
    def y_intercept(self) -> Fraction:
        return self.vertices[-1][1]

    def edges(self):
        """Directed edges of the boundary chain, intercept to intercept."""
        return [
            (q[0] - p[0], q[1] - p[1])
            for p, q in zip(self.vertices, self.vertices[1:])
        ]


def is_weakly_convex(vertices_or_polygon) -> bool:
    """Re-checkable predicate for untrusted vertex data.

    True iff the data canonicalizes into a valid convex boundary chain
    connecting the two coordinate axes.  A ``Polygon2D`` instance always
    passes (its constructor enforced the same invariants).
    """
    if isinstance(vertices_or_polygon, Polygon2D):
        vertices = vertices_or_polygon.vertices
    else:
        vertices = vertices_or_polygon
    try:
        _canonical_chain(vertices)
    except DomainError:
        return False
    return True


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

    def __post_init__(self):
        for name in ("x0", "x1", "y0", "y1"):
            c = parse_rational(getattr(self, name))
            if c < 0:
                raise DomainError("rectangle must lie in the positive quadrant")
            object.__setattr__(self, name, c)
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise DomainError(
                f"degenerate rectangle [{self.x0},{self.x1}]x[{self.y0},{self.y1}]"
            )

    def contains(self, p) -> bool:
        return self.x0 <= p[0] <= self.x1 and self.y0 <= p[1] <= self.y1

    def intersects(self, other: "Rect") -> bool:
        return (
            self.x0 <= other.x1
            and other.x0 <= self.x1
            and self.y0 <= other.y1
            and other.y0 <= self.y1
        )


@dataclass(frozen=True)
class Rectilinear2D:
    """Connected union of axis-aligned rectangles touching a coordinate axis."""

    rects: tuple

    def __post_init__(self):
        rects = tuple(self.rects)
        if not rects:
            raise DomainError("rectilinear domain needs at least one rectangle")
        for r in rects:
            if not isinstance(r, Rect):
                raise DomainError("rects must be Rect instances")
        if not any(r.x0 == 0 or r.y0 == 0 for r in rects):
            raise DomainError(
                "union must contain a neighborhood of a boundary-axis point"
            )
        # Connectivity of the closed union via union-find over rectangles.
        parent = list(range(len(rects)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                if rects[i].intersects(rects[j]):
                    parent[find(i)] = find(j)
        if len({find(i) for i in range(len(rects))}) != 1:
            raise DomainError("rectangle union is not connected")
        object.__setattr__(self, "rects", rects)


ToricDomain = Union[StandardDomain, Polygon2D, Rectilinear2D]


def square_polygon(a: Fraction) -> Polygon2D:
    """The moment square [0, a]^2 as a vertex-chain polygon."""
    a = parse_rational(a)
    if a <= 0:
        raise DomainError(f"square side must be positive, got {a}")
    return Polygon2D(((a, 0), (a, a), (0, a)))


def is_square_polygon(domain) -> Fraction | None:
    """Return the side length if the polygon is a moment square, else None."""
    if not isinstance(domain, Polygon2D):
        return None
    v = domain.vertices
    if len(v) == 3:
        a = v[0][0]
        if v == ((a, Fraction(0)), (a, a), (Fraction(0), a)):
            return a
    return None


# ---------------------------------------------------------------------------
# JSON document format
# ---------------------------------------------------------------------------

def domain_from_dict(data: dict) -> ToricDomain:
    """Build a domain from a decoded JSON document.

    Only the document's shape is checked here; the constructors validate
    the raw field values and coerce them through ``parse_rational``.
    """
    if not isinstance(data, dict):
        raise DomainError("domain document must be a JSON object")
    try:
        kind = data["kind"]
    except KeyError:
        raise DomainError("domain document missing 'kind'")
    if kind in STANDARD_KINDS:
        try:
            n = data["n"]
            a = data["a"]
        except KeyError as exc:
            raise DomainError(f"standard domain missing field {exc}")
        return StandardDomain(kind, n, a)
    if kind == "polygon2d":
        try:
            raw = data["vertices"]
        except KeyError:
            raise DomainError("polygon2d document missing 'vertices'")
        if not isinstance(raw, list):
            raise DomainError("'vertices' must be a list of coordinate pairs")
        for item in raw:
            if not isinstance(item, list) or len(item) != 2:
                raise DomainError(f"vertex is not a coordinate pair: {item!r}")
        return Polygon2D(raw)
    if kind == "rectilinear2d":
        try:
            raw = data["rects"]
        except KeyError:
            raise DomainError("rectilinear2d document missing 'rects'")
        if not isinstance(raw, list):
            raise DomainError("'rects' must be a list of rectangle objects")
        rects = []
        for item in raw:
            if not isinstance(item, dict):
                raise DomainError(f"rectangle is not an object: {item!r}")
            try:
                rects.append(Rect(item["x0"], item["x1"], item["y0"], item["y1"]))
            except KeyError as exc:
                raise DomainError(f"rectangle missing corner field {exc}")
        return Rectilinear2D(tuple(rects))
    raise DomainError(f"unknown domain kind: {kind!r}")


def domain_to_dict(domain: ToricDomain) -> dict:
    if isinstance(domain, StandardDomain):
        return {"kind": domain.kind, "n": domain.n, "a": format_rational(domain.a)}
    if isinstance(domain, Polygon2D):
        return {
            "kind": "polygon2d",
            "vertices": [
                [format_rational(x), format_rational(y)]
                for x, y in domain.vertices
            ],
        }
    if isinstance(domain, Rectilinear2D):
        return {
            "kind": "rectilinear2d",
            "rects": [
                {
                    "x0": format_rational(r.x0),
                    "x1": format_rational(r.x1),
                    "y0": format_rational(r.y0),
                    "y1": format_rational(r.y1),
                }
                for r in domain.rects
            ],
        }
    raise DomainError(f"not a toric domain: {domain!r}")


def parse_domain(text: str) -> ToricDomain:
    """Parse a UTF-8 JSON domain document; see the README for the schema."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc}") from exc
    return domain_from_dict(data)


def serialize_domain(domain: ToricDomain) -> str:
    """Canonical JSON for a domain; round-trips bit-exactly through parse."""
    return json.dumps(domain_to_dict(domain))
