"""The polygon lattice against the Fraction formulas it replaced.

``Polygon2D`` validates its chain and answers its invariants on the chain
scaled to integers.  The oracle below keeps the earlier formulas, written
directly on the ``Fraction`` vertices: every value must be equal, and
every invalid chain must be refused with the same message.
"""

import random
from fractions import Fraction

import pytest

from toricap import DomainError, Polygon2D, is_weakly_convex, omega_a, square_polygon
from toricap.domains import _canonical_chain
from toricap.ech import _slope_condition
from toricap.geometry import cube_inclusion, delta, eta, is_monotone, support
from toricap.rationals import parse_rational

from generators import make_monotone_polygon, make_weakly_convex_polygon

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
            x, y = () if isinstance(v, str) else v
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
        "simplex_inclusion": min(x0, y1),
        "cylinder_cover": min(max(x for x, _ in chain), max(y for _, y in chain)),
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
        "slope_condition": edges[0][0] <= edges[0][1] and edges[-1][0] <= edges[-1][1],
        "support": [max(vx * x + vy * y for x, y in chain) for vx, vy in directions],
    }


def lattice_answers(dom, levels, points, directions) -> dict:
    return {
        "delta": delta(dom),
        "eta": eta(dom),
        "is_monotone": is_monotone(dom),
        "cube_inclusion": cube_inclusion(dom),
        "simplex_inclusion": dom.simplex_inclusion,
        "cylinder_cover": dom.cylinder_cover,
        "cl_candidates": dom.cl_candidates,
        "cl_slices": [tuple(dom.cl_slices(e)) for e in levels],
        "contains": [dom.contains(p) for p in points],
        "on_boundary": [dom.on_boundary(p) for p in points],
        "slope_condition": _slope_condition(dom),
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
    and past the axis segments, and random points, in and out of the
    polygon."""
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
    assert mine == oracle_answers(chain, levels, points, DIRECTIONS)
    assert all(type(mine[k]) is Fraction for k in
               ("delta", "eta", "cube_inclusion", "simplex_inclusion", "cylinder_cover"))


def test_generated_chains_cover_both_eta_cases():
    # eta comes from the diagonal on some chains and from a vertex on others.
    kinds = {eta(Polygon2D(c)) == delta(Polygon2D(c)) for c in CHAINS}
    assert kinds == {True, False}
    assert {is_monotone(Polygon2D(c)) for c in CHAINS} == {True, False}


# One raw chain per refusal of the validation (the zero-length edge cannot
# survive deduplication), and a vertex on an axis inside the chain.
REFUSALS = {
    "pair": [("1", "0"), "10", ("0", "1")],
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
            got = _canonical_chain(raw)
        except DomainError as exc:
            assert str(exc) == expected, raw
            seen |= {k for k, v in REFUSAL_PREFIXES.items() if expected.startswith(v)}
        else:
            assert expected is None and got[0] == oracle_chain(raw), raw
            seen.add("valid")
    assert seen >= {"first", "last", "intermediate", "turn", "valid"}, seen
