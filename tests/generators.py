"""Deterministic random generators shared by property and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction

from toricap import CombOrbit, CombOrbitSet, Polygon2D, Rect, Rectilinear2D


def random_fraction(rng: random.Random, max_den: int, lo=Fraction(1, 20), hi=Fraction(3)) -> Fraction:
    den = rng.randint(1, max_den)
    lo_num = int(lo * den) + 1
    hi_num = max(lo_num, int(hi * den))
    return Fraction(rng.randint(lo_num, hi_num), den)


def make_staircase(rng: random.Random, max_den: int = 20) -> Rectilinear2D:
    """Union of origin-anchored rectangles: always a monotone staircase."""
    k = rng.randint(1, 5)
    xs = sorted({random_fraction(rng, max_den) for _ in range(k)})
    ys = sorted({random_fraction(rng, max_den) for _ in range(len(xs))}, reverse=True)
    n = min(len(xs), len(ys))
    rects = tuple(
        Rect(Fraction(0), xs[i], Fraction(0), ys[i]) for i in range(n)
    )
    return Rectilinear2D(rects)


def scaled(domain, c: Fraction):
    """The polygon or rectangle union c * domain."""
    if isinstance(domain, Polygon2D):
        return Polygon2D(tuple((c * x, c * y) for x, y in domain.vertices))
    return Rectilinear2D(tuple(Rect(c * r.x0, c * r.x1, c * r.y0, c * r.y1)
                               for r in domain.rects))


def rects_meet(a: Rect, b: Rect) -> bool:
    """Whether two closed rectangles meet, edge and corner contacts included."""
    return a.x0 <= b.x1 and b.x0 <= a.x1 and a.y0 <= b.y1 and b.y0 <= a.y1


def rect_contains(r: Rect, p) -> bool:
    """Whether the closed rectangle ``r`` holds the point ``p``."""
    return r.x0 <= p[0] <= r.x1 and r.y0 <= p[1] <= r.y1


def make_touching_union(rng: random.Random) -> Rectilinear2D:
    """Rectangles on a 1/4 grid, so edges coincide and corners touch."""
    q = lambda lo, hi: Fraction(rng.randint(lo, hi), 4)
    rects = [Rect(Fraction(0), q(1, 8), Fraction(0), q(1, 8))]
    for _ in range(rng.randint(0, 6)):
        base = rng.choice(rects)
        # Start at a corner or on an edge of an existing rectangle.
        x0 = rng.choice((base.x0, base.x1, q(0, 8)))
        y0 = rng.choice((base.y0, base.y1, q(0, 8)))
        cand = Rect(x0, x0 + q(1, 6), y0, y0 + q(1, 6))
        if any(rects_meet(cand, r) for r in rects):
            rects.append(cand)
    return Rectilinear2D(tuple(rects))


def _hull_chain(points):
    """Counterclockwise hull chain from the max-x axis point to the max-y axis point."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]  # counterclockwise, no repeated endpoints
    i = hull.index((Fraction(0), Fraction(0)))
    hull = hull[i:] + hull[:i]
    return hull[1:]


def make_monotone_polygon(rng: random.Random, max_den: int = 20) -> Polygon2D:
    """Convex chain with all edges going up-left: a monotone polygon.

    Built as the convex hull of axis intercepts plus random interior
    points, so every vertex keeps its sampled denominator.
    """
    x0 = random_fraction(rng, max_den, lo=Fraction(1, 4))
    y1 = random_fraction(rng, max_den, lo=Fraction(1, 4))
    pts = [(Fraction(0), Fraction(0)), (x0, Fraction(0)), (Fraction(0), y1)]
    for _ in range(rng.randint(0, 6)):
        den_x = rng.randint(1, max_den)
        den_y = rng.randint(1, max_den)
        px = Fraction(rng.randint(1, max(1, int(x0 * den_x) - 1)), den_x)
        py = Fraction(rng.randint(1, max(1, int(y1 * den_y) - 1)), den_y)
        if 0 < px < x0 and 0 < py < y1:
            pts.append((px, py))
    return Polygon2D(tuple(_hull_chain(pts)))


# Directions ordered by angle, from below the diagonal up through down-left.
_DIRECTION_PALETTE = [
    (3, 1), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (1, 3), (0, 1),
    (-1, 3), (-1, 2), (-2, 3), (-1, 1), (-3, 2), (-2, 1), (-3, 1),
    (-1, 0), (-3, -1), (-2, -1), (-1, -1), (-2, -3), (-1, -2), (-1, -3),
]


def make_weakly_convex_polygon(rng: random.Random, max_den: int = 12) -> Polygon2D:
    """General weakly convex chain, frequently non-monotone.

    Edge directions are a sorted subset of an angle-ordered palette with
    positive rational lengths; the chain closes onto both axes by
    construction.
    """
    while True:
        k = rng.randint(1, 5)
        idx = sorted(rng.sample(range(len(_DIRECTION_PALETTE)), k))
        dirs = [_DIRECTION_PALETTE[i] for i in idx]
        if dirs[0][1] <= 0 or dirs[-1][0] >= 0:
            continue
        lengths = [random_fraction(rng, max_den, lo=Fraction(1, 10), hi=Fraction(2))
                   for _ in dirs]
        dx = sum(l * d[0] for l, d in zip(lengths, dirs))
        dy = sum(l * d[1] for l, d in zip(lengths, dirs))
        if dx >= 0 or dy <= 0:
            continue
        x, y = -dx, Fraction(0)
        chain = [(x, y)]
        for l, d in zip(lengths, dirs):
            x += l * d[0]
            y += l * d[1]
            chain.append((x, y))
        return Polygon2D(tuple(chain))


def make_orbit(rng: random.Random, vmax: int = 5, elliptic_only: bool = False) -> CombOrbit:
    import math

    while True:
        x = rng.randint(-vmax, vmax)
        y = rng.randint(-vmax, vmax)
        if (x, y) == (0, 0) or (x < 0 and y < 0):
            continue
        if math.gcd(abs(x), abs(y)) != 1:
            continue
        return CombOrbit((x, y), 1 if elliptic_only else rng.randint(0, 1))


def make_orbit_set(rng: random.Random, vmax: int = 5, max_mult: int = 4,
                   forbidden=(), elliptic_only: bool = False,
                   max_size: int = 4) -> CombOrbitSet:
    size = rng.randint(1, max_size)
    factors = {}
    guard = 0
    while len(factors) < size and guard < 100:
        guard += 1
        o = make_orbit(rng, vmax, elliptic_only)
        if o in factors or o in forbidden:
            continue
        factors[o] = 1 if o.s == 0 else rng.randint(1, max_mult)
    return CombOrbitSet(tuple(factors.items()))
