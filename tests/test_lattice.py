"""The polygon and rectangle-union lattices against the Fraction formulas
they replaced.

``Polygon2D`` validates its chain and answers its invariants on the chain
scaled to integers, and ``Rectilinear2D`` does the same with its
rectangles.  The oracles below keep the earlier formulas, written
directly on the ``Fraction`` coordinates: every value must be equal, and
every invalid input must be refused with the same message.
"""

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cmp_to_key

import pytest

from toricap import (
    DomainError,
    InapplicableError,
    Polygon2D,
    Rect,
    Rectilinear2D,
    is_weakly_convex,
    omega_a,
    square_polygon,
)
from toricap.geometry import cube_bound, cube_inclusion, delta, eta, is_monotone, support
from toricap.rationals import parse_rational

from generators import (
    make_monotone_polygon,
    make_staircase,
    make_touching_union,
    make_weakly_convex_polygon,
    random_fraction,
    rects_meet,
)

F = Fraction
ZERO = F(0)


# ---------------------------------------------------------------------------
# Oracle: the chain and its invariants in Fraction arithmetic
# ---------------------------------------------------------------------------

def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def oracle_chain(vertices) -> tuple:
    pts = []
    for v in vertices:
        try:
            x, y = () if isinstance(v, (str, dict)) else v
        except (TypeError, ValueError):
            raise DomainError(f"vertex is not a coordinate pair: {v!r}")
        pts.append((parse_rational(x), parse_rational(y)))
    deduped = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    if len(deduped) < 2:
        raise DomainError("vertex chain needs at least two distinct vertices")
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
        raise DomainError("first vertex must be the x-axis intercept (y = 0, x > 0)")
    if last[0] != 0 or last[1] <= 0:
        raise DomainError("last vertex must be the y-axis intercept (x = 0, y > 0)")
    for p in chain[1:-1]:
        if p[0] <= 0 or p[1] <= 0:
            raise DomainError(f"intermediate vertex {p} must have positive coordinates")
    edges = oracle_edges(chain)
    for e in edges:
        if e == (0, 0):
            raise DomainError("degenerate zero-length edge in vertex chain")
    for e1, e2 in zip(edges, edges[1:]):
        if _cross(e1, e2) <= 0:
            raise DomainError("vertex chain not convex/ordered (non-left turn)")
    return tuple(chain)


def oracle_edges(chain) -> list:
    return [(q[0] - p[0], q[1] - p[1]) for p, q in zip(chain, chain[1:])]


def oracle_halfplanes(chain) -> list:
    planes = []
    for p, q in zip(chain, chain[1:]):
        nu = (q[1] - p[1], p[0] - q[0])
        planes.append((nu, nu[0] * p[0] + nu[1] * p[1]))
    return planes


def oracle_chord(planes, level) -> list:
    lo, hi = ZERO, None
    for (a, b), c in planes:
        room = c - b * level
        if a > 0:
            hi = room / a if hi is None else min(hi, room / a)
        elif a < 0:
            lo = max(lo, room / a)
        elif room < 0:
            return []
    return [(lo, hi)] if lo <= hi else []


def oracle_on_segment(p, a, b) -> bool:
    (px, py), (ax, ay), (bx, by) = p, a, b
    if (bx - ax) * (py - ay) != (by - ay) * (px - ax):
        return False
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def oracle_answers(chain, levels, points, directions) -> dict:
    planes = oracle_halfplanes(chain)
    edges = oracle_edges(chain)
    d = min(c / (nu[0] + nu[1]) for nu, c in planes if nu[0] + nu[1] > 0)
    x0, y1 = chain[0][0], chain[-1][1]
    # The closed boundary: the axis segment to the x-intercept, the chain,
    # and the axis segment back from the y-intercept.
    loop = [(F(0), F(0)), *chain, (F(0), F(0))]
    return {
        "delta": d,
        "eta": max(d, *(min(v) for v in chain)),
        "is_monotone": all(dx <= 0 and dy >= 0 for dx, dy in edges),
        "cube_inclusion": min(d, x0, y1),
        "inclusion_lower": min(x0, y1),
        "inclusion_upper": min(max(x for x, _ in chain), max(y for _, y in chain)),
        "cl_candidates": [p for p in chain if p[0] > 0 and p[1] > 0],
        "cl_slices": [
            (oracle_chord(planes, e),
             oracle_chord([((b, a), c) for (a, b), c in planes], e))
            for e in levels
        ],
        "contains": [
            x >= 0 and y >= 0 and all(nu[0] * x + nu[1] * y <= c for nu, c in planes)
            for x, y in points
        ],
        "on_boundary": [
            any(oracle_on_segment(p, a, b) for a, b in zip(loop, loop[1:])) for p in points
        ],
        "cube_bound": (x0 + y1) / 2
        if edges[0][0] <= edges[0][1] and edges[-1][0] <= edges[-1][1]
        else "tangent-slope condition fails: both end edges must satisfy dx <= dy",
        "support": [max(vx * x + vy * y for x, y in chain) for vx, vy in directions],
    }


def _value_or_refusal(f, *args):
    try:
        return f(*args)
    except InapplicableError as exc:
        return str(exc)


def _candidate_fractions(dom) -> list:
    """``cl_candidates``, integer points over the lattice's q, as Fraction pairs."""
    q, points = dom.cl_candidates
    assert all(type(c) is int for c in (q, *(c for p in points for c in p)))
    return [(Fraction(x, q), Fraction(y, q)) for x, y in points]


def _slice_fractions(dom, e) -> tuple:
    """``cl_slices`` at ``e`` along and across, integer pairs over one scale
    per line, as lists of Fraction pairs."""
    lines = []
    for across in (False, True):
        s, slices = dom.cl_slices(e, across)
        assert all(type(c) is int for c in (s, *(c for p in slices for c in p)))
        assert s > 0
        lines.append([(Fraction(lo, s), Fraction(hi, s)) for lo, hi in slices])
    return tuple(lines)


def lattice_answers(dom, levels, points, directions) -> dict:
    return {
        "delta": delta(dom),
        "eta": eta(dom),
        "is_monotone": is_monotone(dom),
        "cube_inclusion": cube_inclusion(dom),
        "inclusion_lower": dom.inclusion_bracket.lower,
        "inclusion_upper": dom.inclusion_bracket.upper,
        "cl_candidates": _candidate_fractions(dom),
        "cl_slices": [_slice_fractions(dom, e) for e in levels],
        "contains": [dom.contains(p) for p in points],
        "on_boundary": [dom.on_boundary(p) for p in points],
        "cube_bound": _value_or_refusal(cube_bound, dom),
        "support": [support(dom, v) for v in directions],
    }


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (-1, 1), (2, -1), (-3, 5), (-1, -1)]


def _chains() -> list:
    rng = random.Random(4801)
    chains = []
    for digits in range(2, 13):
        max_den = 10 ** digits - 1
        for _ in range(6):
            chains.append(make_weakly_convex_polygon(rng, max_den=max_den).vertices)
            chains.append(make_monotone_polygon(rng, max_den=max_den).vertices)
    chains += [omega_a(F(k, 48)).vertices for k in range(1, 24)]
    chains += [square_polygon(F(k, 7)).vertices for k in (1, 3, 7, 22)]
    chains += [square_polygon(F(10**12 + 1, 10**12 - 11)).vertices]
    return chains


CHAINS = _chains()


def _probes(chain, rng):
    """Lines at delta, at the smaller coordinate of each vertex (eta is one
    of these) and at random levels; vertices, edge midpoints, points on
    and past the axis segments, each edge's line continued one edge length
    past either end (on a halfplane's line, off the region), and random
    points, in and out of the polygon, some over denominators coprime to
    the chain's lattice."""
    d = min(c / (nu[0] + nu[1]) for nu, c in oracle_halfplanes(chain) if nu[0] + nu[1] > 0)
    top = max(max(v) for v in chain)
    levels = [d, top, F(1, 10**9)] + [min(v) for v in chain]
    levels += [top * F(rng.randint(1, 999), 1000) for _ in range(3)]
    points = list(chain) + [
        ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2) for p, q in zip(chain, chain[1:])]
    points += [(top * F(rng.randint(-50, 1100), 1000), top * F(rng.randint(-50, 1100), 1000))
               for _ in range(6)]
    x0, y1 = chain[0][0], chain[-1][1]
    points += [(F(0), F(0)), (x0 / 3, F(0)), (2 * x0, F(0)), (F(0), y1 / 3), (F(0), 2 * y1)]
    points += [(2 * b[0] - a[0], 2 * b[1] - a[1])
               for p, q in zip(chain, chain[1:]) for a, b in ((p, q), (q, p))]
    lattice = math.lcm(*(c.denominator for v in chain for c in v))
    dx, dy = [n for n in (7919, 7907, 7901, 7883) if lattice % n][:2]
    points += [(F(top * dx * rng.randint(-50, 1100) // 1000, dx),
                F(top * dy * rng.randint(-50, 1100) // 1000, dy)) for _ in range(6)]
    # Beside each edge midpoint, by 1/dx of the lattice step in x.
    points += [((p[0] + q[0]) / 2 + s * F(1, dx * lattice), (p[1] + q[1]) / 2)
               for p, q in zip(chain, chain[1:]) for s in (-1, 1)]
    return levels, points


@pytest.mark.parametrize("chain", CHAINS, ids=[f"chain{i}" for i in range(len(CHAINS))])
def test_lattice_matches_fraction_oracle(chain):
    rng = random.Random(str(chain))
    # Raw input in other forms: strings, a duplicate vertex, a collinear midpoint.
    raw = [[str(x), str(y)] for x, y in chain]
    raw.insert(1, raw[0])
    a, b = chain[0], chain[1]
    raw.insert(2, [str(a[0] + (b[0] - a[0]) / 3), str(a[1] + (b[1] - a[1]) / 3)])
    assert oracle_chain(raw) == chain
    dom = Polygon2D(raw)
    assert dom.vertices == chain and dom == Polygon2D(chain)
    levels, points = _probes(chain, rng)
    mine = lattice_answers(dom, levels, points, DIRECTIONS)
    expected = oracle_answers(chain, levels, points, DIRECTIONS)
    assert mine == expected
    # The same points as "p/q" string pairs.
    texts = [(str(x), str(y)) for x, y in points]
    assert [dom.contains(p) for p in texts] == expected["contains"]
    assert [dom.on_boundary(p) for p in texts] == expected["on_boundary"]
    assert all(type(mine[k]) is Fraction for k in
               ("delta", "eta", "cube_inclusion", "inclusion_lower", "inclusion_upper"))


def test_generated_chains_cover_both_eta_cases():
    # eta comes from the diagonal on some chains and from a vertex on others.
    kinds = {eta(Polygon2D(c)) == delta(Polygon2D(c)) for c in CHAINS}
    assert kinds == {True, False}
    assert {is_monotone(Polygon2D(c)) for c in CHAINS} == {True, False}


# One raw chain per refusal of the validation (the zero-length edge cannot
# survive deduplication), and a vertex on an axis inside the chain.
REFUSALS = {
    "pair": [("1", "0"), "10", ("0", "1")],
    "pair-dict": [("1", "0"), {"1": "1", "0": "1"}, ("0", "1")],
    "distinct": [(F(1, 3), 0), ("1/3", "0")],
    "first": [(1, F(1, 5)), (1, 1), (0, 1)],
    "last": [(1, 0), (1, 1), (F(1, 5), 1)],
    "intermediate": [(1, 0), (F(-1, 3), F(1, 2)), (0, 1)],
    "intermediate-on-axis": [(1, 0), (0, F(1, 2)), (0, 1)],
    "turn": [(1, 0), (F(1, 2), F(1, 2)), (1, 1), (0, 1)],
}


def _refusal(chain):
    try:
        oracle_chain(chain)
    except DomainError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_refusal_keeps_its_message(name):
    expected = _refusal(REFUSALS[name])
    assert expected is not None
    with pytest.raises(DomainError) as refused:
        Polygon2D(REFUSALS[name])
    assert str(refused.value) == expected
    assert not is_weakly_convex(REFUSALS[name])


REFUSAL_PREFIXES = {
    "distinct": "vertex chain needs", "first": "first vertex", "last": "last vertex",
    "intermediate": "intermediate vertex", "turn": "vertex chain not convex",
}


def test_mutated_chains_refused_alike():
    rng = random.Random(4802)
    seen = set()
    for chain in CHAINS * 3:
        raw = list(chain)
        i = rng.randrange(len(raw))
        move = rng.randrange(5)
        if move == 0:
            raw.reverse()
        elif move == 1:
            raw[i] = (raw[i][0], -raw[i][1] - 1)
        elif move == 2:
            raw[i] = (raw[i][0] + F(rng.randint(-9, 9), 13), raw[i][1])
        elif move == 3:
            del raw[i]
        else:
            j = rng.randrange(len(raw))
            raw[i], raw[j] = raw[j], raw[i]
        expected = _refusal(raw)
        try:
            got = Polygon2D(raw)
        except DomainError as exc:
            assert str(exc) == expected, raw
            seen |= {k for k, v in REFUSAL_PREFIXES.items() if expected.startswith(v)}
        else:
            assert expected is None and got.vertices == oracle_chain(raw), raw
            seen.add("valid")
    assert seen >= {"first", "last", "intermediate", "turn", "valid"}, seen


# ---------------------------------------------------------------------------
# Rectangle unions: the Fraction coverage grid as an oracle
# ---------------------------------------------------------------------------

# Orders (numerator, denominator, index) triples of rationals by value.
_BY_VALUE = cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1])


def oracle_ranks(values) -> tuple:
    """Grid lines (the sorted distinct values and 0) and each value's rank."""
    lines, ranks, last = [ZERO], [0] * len(values), (0, 1)
    triples = sorted(
        ((v.numerator, v.denominator, k) for k, v in enumerate(values)), key=_BY_VALUE
    )
    for num, den, k in triples:
        if (num, den) != last:
            last = (num, den)
            lines.append(values[k])
        ranks[k] = len(lines) - 1
    return lines, ranks


def oracle_coverage(rects) -> dict:
    """The union's grid lines, rank boxes, painted cells, staircase test and
    inscribed cube, in Fraction arithmetic; refusals as ``Rectilinear2D``'s."""
    if not any(r.x0 == 0 or r.y0 == 0 for r in rects):
        raise DomainError("union must contain a neighborhood of a boundary-axis point")
    reached, todo = {0}, [0]
    while todo:
        a = todo.pop()
        for b, r in enumerate(rects):
            if b not in reached and rects_meet(rects[a], r):
                reached.add(b)
                todo.append(b)
    if len(reached) < len(rects):
        raise DomainError("rectangle union is not connected")
    n = len(rects)
    xs, xr = oracle_ranks([r.x0 for r in rects] + [r.x1 for r in rects])
    ys, yr = oracle_ranks([r.y0 for r in rects] + [r.y1 for r in rects])
    boxes = list(zip(xr[:n], xr[n:], yr[:n], yr[n:]))
    ny = len(ys) - 1
    painted = bytearray((len(xs) - 1) * ny)
    for i0, i1, j0, j1 in boxes:
        for i in range(i0, i1):
            painted[i * ny + j0:i * ny + j1] = b"\x01" * (j1 - j0)
    staircase, cube, height = True, min(xs[-1], ys[-1]), ny
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
    return {"xs": xs, "ys": ys, "boxes": boxes, "painted": painted,
            "staircase": staircase, "cube": cube}


def oracle_slices(grid, level, across) -> list:
    lines, spans = (grid["xs"], grid["ys"]) if across else (grid["ys"], grid["xs"])
    below, above = bisect_right(lines, level), bisect_left(lines, level)
    boxes = grid["boxes"]
    if across:
        boxes = [(j0, j1, i0, i1) for i0, i1, j0, j1 in boxes]
    hits = [(hi, lo) for lo, hi, b0, b1 in boxes if b0 < below and b1 >= above]
    return [(spans[lo], spans[hi]) for hi, lo in sorted(hits, reverse=True)]


def oracle_quadrants(grid, p) -> tuple:
    (x, y), xs, ys = p, grid["xs"], grid["ys"]
    nx, ny = len(xs) - 1, len(ys) - 1
    cols = (bisect_left(xs, x) - 1, bisect_right(xs, x) - 1)
    rows = (bisect_left(ys, y) - 1, bisect_right(ys, y) - 1)
    return tuple(
        0 <= i < nx and 0 <= j < ny and grid["painted"][i * ny + j] == 1
        for i in cols
        for j in rows
    )


def oracle_union_answers(rects, levels, points) -> dict:
    grid = oracle_coverage(rects)
    hits = [top for r in rects if max(r.x0, r.y0) <= (top := min(r.x1, r.y1))]
    quadrants = [oracle_quadrants(grid, p) for p in points]
    return {
        "delta": max(hits) if hits else "diagonal does not meet the domain",
        "eta": max(min(r.x1, r.y1) for r in rects),
        "is_monotone": grid["staircase"],
        "cube_inclusion": grid["cube"],
        "inclusion_lower": grid["cube"],
        "inclusion_upper": min(max(r.x1 for r in rects), max(r.y1 for r in rects)),
        "cl_candidates": [
            p for r in rects for p in ((r.x1, r.y1), (r.x0, r.y0), (r.x0, r.y1), (r.x1, r.y0))
            if p[0] > 0 and p[1] > 0
        ],
        "cl_slices": [
            (oracle_slices(grid, e, False), oracle_slices(grid, e, True)) for e in levels
        ],
        "contains": [any(q) for q in quadrants],
        "on_boundary": [any(q) and not all(q) for q in quadrants],
    }


def union_lattice_answers(dom, levels, points) -> dict:
    try:
        d = delta(dom)
    except InapplicableError as exc:
        d = str(exc)
    return {
        "delta": d,
        "eta": eta(dom),
        "is_monotone": is_monotone(dom),
        "cube_inclusion": cube_inclusion(dom),
        "inclusion_lower": dom.inclusion_bracket.lower,
        "inclusion_upper": dom.inclusion_bracket.upper,
        "cl_candidates": _candidate_fractions(dom),
        "cl_slices": [_slice_fractions(dom, e) for e in levels],
        "contains": [dom.contains(p) for p in points],
        "on_boundary": [dom.on_boundary(p) for p in points],
    }


# Denominators that are distinct primes near 10^6 and 10^9, so that q, their
# lcm, runs to tens of digits.
PRIMES = [999_961, 999_979, 999_983, 1_000_003, 1_000_033, 1_000_037,
          10**9 + 7, 10**9 + 9, 10**9 + 21, 10**9 + 33]


def _connected_union(rng, n, max_den) -> tuple:
    """n rectangles, each overlapping an earlier one; the first on both axes."""
    side = lambda lo, hi: random_fraction(rng, max_den, lo=lo, hi=hi)
    rects = [Rect(ZERO, side(F(1, 2), F(2)), ZERO, side(F(1, 4), F(1)))]
    while len(rects) < n:
        base = rng.choice(rects)
        ax, ay = side(base.x0, base.x1), side(base.y0, base.y1)
        x0 = max(ZERO, ax - side(F(1, 10**6), F(1)))
        y0 = max(ZERO, ay - side(F(1, 10**6), F(1)))
        rects.append(Rect(x0, ax + side(F(1, 10), F(1)), y0, ay + side(F(1, 10), F(1))))
    return tuple(rects)


def _l_shape(rng, thickness) -> tuple:
    arm_x = F(3, 2) + random_fraction(rng, 97, lo=ZERO, hi=F(1, 50))
    arm_y = F(3, 2) + random_fraction(rng, 97, lo=ZERO, hi=F(1, 50))
    return (Rect(ZERO, arm_x, ZERO, thickness), Rect(ZERO, thickness, ZERO, arm_y))


def _prime_union(rng) -> tuple:
    """A staircase row of boxes whose every coordinate has its own prime denominator."""
    rects, x = [], ZERO
    for _ in range(rng.randint(2, 6)):
        p, r = rng.sample(PRIMES, 2)
        w, h = F(rng.randint(p // 10, p), p), F(rng.randint(r // 10, 3 * r), r)
        s = rng.choice(PRIMES)  # y0 < 1/10 <= every height: each box meets the last
        y0 = ZERO if not rects else F(rng.randint(0, s // 20), s)
        rects.append(Rect(x, x + w, y0, y0 + h))
        x += w * F(rng.randint(1, 9), 10)
    return tuple(rects)


def _union_families() -> dict:
    rng = random.Random(4803)
    dens = [10**k - 1 for k in range(1, 10)] + [10**9]
    return {
        "staircase": [make_staircase(rng, max_den=d).rects for d in dens for _ in range(4)],
        "touching": [make_touching_union(rng).rects for _ in range(40)],
        "connected": [_connected_union(rng, rng.choice((2, 4, 8, 16)), d)
                      for d in dens for _ in range(4)],
        "lshape": [_l_shape(rng, F(1, 10**k)) for k in range(1, 10)]
                  + [_l_shape(rng, F(3, 10**k)) for k in range(2, 10)],
        "primes": [_prime_union(rng) for _ in range(30)],
    }


UNION_FAMILIES = _union_families()


def _union_probes(rects, rng):
    """Levels and points on the grid lines, between them, past them and off
    the lattice: an offset of 1/(10^12 + 39) has a denominator that divides
    no q here, so the floor and ceil of the scaled value differ."""
    coords = sorted({ZERO, *(c for r in rects for c in (r.x0, r.x1, r.y0, r.y1))})
    top, tiny = coords[-1], F(1, 10**12 + 39)
    levels = coords + [c + tiny for c in coords] + [c - tiny for c in coords[1:]]
    levels += [top * F(rng.randint(1, 1008), 1009) for _ in range(4)]
    points = [(rng.choice(coords), rng.choice(coords)) for _ in range(12)]
    points += [((a + b) / 2, rng.choice(coords)) for a, b in zip(coords, coords[1:])]
    points += [(c + sx * tiny, rng.choice(coords) + sy * tiny)
               for c in coords for sx in (-1, 1) for sy in (-1, 0, 1)]
    points += [(top * F(rng.randint(-50, 1100), 997), top * F(rng.randint(-50, 1100), 991))
               for _ in range(8)]
    points += [(top + 1, ZERO), (F(-1, 5), F(-1, 5)), (ZERO, top)]
    return levels, points


@pytest.mark.parametrize("family", sorted(UNION_FAMILIES))
def test_union_lattice_matches_fraction_oracle(family):
    rng = random.Random(family)
    for rects in UNION_FAMILIES[family]:
        # Raw input in other forms: strings, and a repeated rectangle.
        raw = [Rect(*(str(c) for c in (r.x0, r.x1, r.y0, r.y1))) for r in rects]
        dom = Rectilinear2D(tuple(raw) + (raw[0],))
        assert dom.rects == rects + (rects[0],)
        grid = vars(dom)["_grid"]
        assert grid.q == math.lcm(*(c.denominator for r in rects for c in
                                    (r.x0, r.x1, r.y0, r.y1)))
        levels, points = _union_probes(rects, rng)
        mine = union_lattice_answers(dom, levels, points)
        assert mine == oracle_union_answers(dom.rects, levels, points), rects
        assert all(type(mine[k]) is Fraction for k in
                   ("eta", "cube_inclusion", "inclusion_lower", "inclusion_upper"))


def test_union_families_reach_every_branch():
    unions = [Rectilinear2D(rects) for family in UNION_FAMILIES.values() for rects in family]
    assert {is_monotone(d) for d in unions} == {True, False}
    # q runs past 10^30 on the prime unions.
    assert max(vars(d)["_grid"].q for d in unions) > 10**30
    # Some unions answer delta = eta, some eta > delta, and the cube
    # inclusion is capped by a gap in some column and by the extent in others.
    assert {delta(d) == eta(d) for d in unions} == {True, False}
    assert {cube_inclusion(d) == d.inclusion_bracket.upper for d in unions} == {True, False}


def _union_refusal(rects):
    try:
        oracle_coverage(rects)
    except DomainError as exc:
        return str(exc)
    return None


def test_moved_unions_refused_alike():
    """Translated unions (off an axis, off the diagonal) and unions split
    in two answer or are refused exactly as the oracle says."""
    rng = random.Random(4804)
    seen = set()
    for rects in [r for family in UNION_FAMILIES.values() for r in family[:12]]:
        shift = (random_fraction(rng, rng.choice((7, 10**6, 10**9)), lo=ZERO, hi=F(4)),
                 random_fraction(rng, rng.choice((7, 10**6, 10**9)), lo=ZERO, hi=F(4)))
        sx, sy = rng.choice([(shift[0], ZERO), (ZERO, shift[1]), shift])
        moved = tuple(Rect(r.x0 + sx, r.x1 + sx, r.y0 + sy, r.y1 + sy) for r in rects)
        top = max(r.x1 for r in rects)
        split = rects + tuple(Rect(r.x0 + top + shift[0], r.x1 + top + shift[0], r.y0, r.y1)
                              for r in rects[:2])
        for raw in (moved, split):
            expected = _union_refusal(raw)
            try:
                dom = Rectilinear2D(raw)
            except DomainError as exc:
                assert str(exc) == expected, raw
                seen.add(expected)
                continue
            assert expected is None, raw
            levels, points = _union_probes(raw, rng)
            mine = union_lattice_answers(dom, levels, points)
            assert mine == oracle_union_answers(raw, levels, points), raw
            seen.add("diagonal" if isinstance(mine["delta"], str) else "valid")
    assert seen == {"union must contain a neighborhood of a boundary-axis point",
                    "rectangle union is not connected", "diagonal", "valid"}, seen
