"""Support values, diagonal/min-coordinate radii, monotonicity, cube inclusion."""

import json
import math
import random
from fractions import Fraction

import pytest

from toricap import (
    CLRule,
    DomainError,
    InapplicableError,
    Polygon2D,
    Rect,
    Rectilinear2D,
    StandardDomain,
    capacity_report,
    cube_inclusion,
    delta,
    domain_to_dict,
    eta,
    is_monotone,
    lagrangian_capacity,
    omega_a,
    parse_domain,
    report_to_dict,
    serialize_domain,
    square_polygon,
    support,
)
from toricap.domains import STANDARD_KINDS
from toricap.geometry import domain_contains, domain_on_boundary
from toricap.rationals import cached_member

from generators import (
    make_monotone_polygon,
    make_staircase,
    make_touching_union,
    make_weakly_convex_polygon,
    rect_contains,
    rects_meet,
    scaled,
)

F = Fraction


@pytest.fixture
def om310():
    return omega_a(F(3, 10))


# ---------------------------------------------------------------------------
# support
# ---------------------------------------------------------------------------

def test_support_examples(om310):
    assert support(om310, (1, -1)) == F(2, 5)
    assert support(square_polygon(F(1)), (1, 1)) == 2
    assert support(om310, (0, 1)) == F(7, 10)


def test_support_zero_vector(om310):
    with pytest.raises(InapplicableError, match="nonzero"):
        support(om310, (0, 0))
    # A bool is an int to Python, but not a direction component; a
    # direction is a pair.
    for v in ((True, False), (1, True), (1.5, 0), ("1", 0), (F(1), 0),
              (1, 2, 3), (1,), 5, None, "12", {-2, 1}, frozenset({1, 2})):
        with pytest.raises(InapplicableError, match="integer pair"):
            support(om310, v)


rng_polygons = [
    make_weakly_convex_polygon(random.Random(seed)) for seed in range(12)
] + [make_monotone_polygon(random.Random(seed)) for seed in range(12)]

DIRECTIONS = [(x, y) for x in range(-6, 7) for y in range(-6, 7) if (x, y) != (0, 0)]


def test_support_homogeneous():
    for poly in rng_polygons:
        for v in DIRECTIONS:
            once = support(poly, v)
            for k in range(1, 6):
                assert support(poly, (k * v[0], k * v[1])) == k * once, (poly, v, k)


def test_support_subadditive():
    rng = random.Random(73)
    corners = [(x, y) for x in (-6, 6) for y in (-6, 6)]
    pairs = [(v, w) for v in corners for w in corners]
    pairs += [(rng.choice(DIRECTIONS), rng.choice(DIRECTIONS)) for _ in range(100)]
    checks = 0
    for v, w in pairs:
        s = (v[0] + w[0], v[1] + w[1])
        if s == (0, 0):
            continue
        poly = rng.choice(rng_polygons)
        assert support(poly, s) <= support(poly, v) + support(poly, w), (poly, v, w)
        checks += 1
    assert checks >= 100


# ---------------------------------------------------------------------------
# delta / eta
# ---------------------------------------------------------------------------

def test_delta_examples(om310):
    assert delta(Polygon2D(((F(1), F(0)), (F(0), F(1))))) == F(1, 2)
    assert delta(om310) == F(1, 2)
    for n in (1, 2, 3, 5):
        assert delta(StandardDomain("cube", n, F(7, 4))) == F(7, 4)
    assert delta(StandardDomain("ball", 4, F(1))) == F(1, 4)
    assert delta(StandardDomain("cylinder", 2, F(3))) == 3


def test_eta_examples():
    assert eta(omega_a(F(1, 5))) == F(1, 2)
    assert eta(StandardDomain("nduc", 2, F(5, 7))) == F(5, 7)
    cross_domain = Rectilinear2D(
        (Rect(F(0), F(2), F(0), F(1, 2)), Rect(F(0), F(1, 2), F(0), F(2)))
    )
    assert eta(cross_domain) == F(1, 2)


def test_eta_rectilinear_matches_grid_oracle():
    # Independent oracle: max of min(x, y) over all grid corner candidates
    # that belong to the union.
    rng = random.Random(5)
    for _ in range(30):
        dom = rng.choice([make_staircase(rng), _random_rectilinear(rng)])
        xs = sorted({c for r in dom.rects for c in (r.x0, r.x1)})
        ys = sorted({c for r in dom.rects for c in (r.y0, r.y1)})
        best = max(
            min(x, y)
            for x in xs
            for y in ys
            if any(rect_contains(r, (x, y)) for r in dom.rects)
        )
        assert eta(dom) == best


def _random_rectilinear(rng):
    base = Rect(F(0), F(rng.randint(1, 3)), F(0), F(rng.randint(1, 4), 4))
    rects = [base]
    for _ in range(rng.randint(0, 3)):
        x0 = F(rng.randint(0, 8), 4)
        y0 = F(rng.randint(0, 8), 4)
        w = F(rng.randint(1, 6), 4)
        h = F(rng.randint(1, 6), 4)
        cand = Rect(x0, x0 + w, y0, y0 + h)
        if any(rects_meet(cand, r) for r in rects):
            rects.append(cand)
    return Rectilinear2D(tuple(rects))


def test_delta_error_when_diagonal_missed():
    dom = Rectilinear2D(
        (
            Rect(F(0), F(4), F(0), F(1, 4)),
            Rect(F(3), F(4), F(0), F(1)),
        )
    )
    # Rect 1 straddles the diagonal; shrink it so nothing does.
    missing = Rectilinear2D(
        (
            Rect(F(2), F(4), F(0), F(1, 4)),
            Rect(F(3), F(4), F(0), F(1)),
        )
    )
    assert delta(dom) == F(1, 4)
    with pytest.raises(InapplicableError, match="diagonal"):
        delta(missing)


def _chain_radii(chain):
    """Oracle (delta, eta) of a vertex chain, from its vertices and diagonal crossings.

    The diagonal meets the chain where x - y changes sign along an edge;
    the largest crossing is delta.  min(x, y) is concave, so its maximum
    over the convex region is at a crossing or at a vertex.
    """
    crossings = []
    for (px, py), (qx, qy) in zip(chain, chain[1:]):
        fp, fq = px - py, qx - qy
        if fp * fq <= 0 and fp != fq:
            crossings.append(px + fp / (fp - fq) * (qx - px))
    d = max(crossings)
    return d, max([d] + [min(x, y) for x, y in chain])


def test_delta_le_eta():
    rng = random.Random(11)
    for _ in range(40):
        dom = rng.choice(
            [make_staircase(rng), make_weakly_convex_polygon(rng), _random_rectilinear(rng)]
        )
        try:
            d = delta(dom)
        except InapplicableError:
            continue
        assert d <= eta(dom)
        if isinstance(dom, Polygon2D):
            assert (d, eta(dom)) == _chain_radii(dom.vertices)
    # Random chains reach eta > delta; so do these by hand.
    polygons = [make_weakly_convex_polygon(rng) for _ in range(60)]
    polygons += [make_monotone_polygon(rng) for _ in range(20)]
    polygons += [omega_a(F(i, 12)) for i in range(1, 6)]
    above = 0
    for poly in polygons:
        d, e = _chain_radii(poly.vertices)
        assert (delta(poly), eta(poly)) == (d, e), poly
        above += e > d
    assert above >= 10


def test_eta_above_delta_regression():
    # eta is the vertex (3, 5), above the diagonal exit (5/3, 5/3); no rule
    # certifies a value, so c_L and c_N are honest intervals.
    poly = Polygon2D(((F(1), F(0)), (F(3), F(5)), (F(0), F(6))))
    assert delta(poly) == F(5, 3) and eta(poly) == 3
    report = capacity_report(poly)
    assert report.c_L.rule is CLRule.INTERVAL_ONLY and report.c_L.value is None
    assert (report.c_L.lower, report.c_L.upper) == (F(5, 3), 3)
    assert (report.c_N.lower, report.c_N.upper) == (F(5, 3), 3)
    assert not report.c_N.exact


def test_delta_eta_monotone_under_scaling():
    rng = random.Random(13)
    for _ in range(25):
        poly = make_weakly_convex_polygon(rng)
        lam = F(rng.randint(1, 9), 10)
        smaller = Polygon2D(tuple((lam * x, lam * y) for x, y in poly.vertices))
        assert delta(smaller) == lam * delta(poly) <= delta(poly)
        assert eta(smaller) <= eta(poly)


def test_invariants_scale_with_the_domain():
    # Scaling by c > 0 scales the radii, the inscribed cube and the slab,
    # and keeps the monotone test and the c_L rule; the certificate's
    # bracket and witness scale with the domain.
    rng = random.Random(79)
    ends = [F(num, den) for num in (1, 10**9) for den in (1, 10**9)]
    for c in ends + [F(rng.randint(1, 10**9), rng.randint(1, 10**9)) for _ in range(36)]:
        domains = [make_weakly_convex_polygon(rng), make_monotone_polygon(rng),
                   make_staircase(rng, max_den=10**6), make_touching_union(rng),
                   _random_rectilinear(rng)]
        for dom in domains:
            big = scaled(dom, c)
            for f in (delta, eta, cube_inclusion):
                assert f(big) == c * f(dom), (dom, c, f)
            assert big.inclusion_bracket.upper == c * dom.inclusion_bracket.upper
            assert is_monotone(big) == is_monotone(dom)
            mine, theirs = lagrangian_capacity(dom), lagrangian_capacity(big)
            assert theirs.rule is mine.rule, (dom, c)
            assert (theirs.lower, theirs.upper) == (c * mine.lower, c * mine.upper)
            assert theirs.witness == (None if mine.witness is None
                                      else tuple(c * w for w in mine.witness))


# ---------------------------------------------------------------------------
# is_monotone
# ---------------------------------------------------------------------------

def test_is_monotone_examples():
    assert not is_monotone(omega_a(F(1, 5)))
    assert is_monotone(Polygon2D(((F(1), F(0)), (F(0), F(1)))))
    assert is_monotone(square_polygon(F(1)))
    assert is_monotone(StandardDomain("nduc", 3, F(2)))
    assert is_monotone(StandardDomain("cylinder", 2, F(1)))


def test_is_monotone_rectilinear():
    rng = random.Random(17)
    for _ in range(25):
        assert is_monotone(make_staircase(rng))
    not_staircase = Rectilinear2D(
        (
            Rect(F(0), F(1), F(0), F(1, 4)),
            Rect(F(2, 3), F(1), F(0), F(1, 2)),
        )
    )
    assert not is_monotone(not_staircase)


# ---------------------------------------------------------------------------
# cube_inclusion
# ---------------------------------------------------------------------------

def test_cube_inclusion_examples():
    assert cube_inclusion(omega_a(F(1, 5))) == F(1, 2)
    assert cube_inclusion(omega_a(F(3, 10))) == F(2, 5)
    assert cube_inclusion(square_polygon(F(7, 9))) == F(7, 9)
    assert cube_inclusion(StandardDomain("nduc", 2, F(3))) == 3
    assert cube_inclusion(StandardDomain("ball", 3, F(1))) == F(1, 3)


# Brute coverage oracles, independent of toricap.geometry: membership by
# comparing against every rectangle, boxes by painting the cells between
# all coordinates, and boundary points by probing the four diagonal
# neighbours closer than any gap between coordinates.

def _brute_contains(rects, p):
    x, y = p
    return any(r.x0 <= x <= r.x1 and r.y0 <= y <= r.y1 for r in rects)


def _box_covered(rects, ax, ay):
    """Whether [0, ax] x [0, ay] (ax, ay > 0) is covered by the closed union."""
    xs = sorted({F(0), ax, *(c for r in rects for c in (r.x0, r.x1))})
    ys = sorted({F(0), ay, *(c for r in rects for c in (r.y0, r.y1))})
    xs = [x for x in xs if x <= ax]
    ys = [y for y in ys if y <= ay]
    return all(
        _brute_contains(rects, ((x0 + x1) / 2, (y0 + y1) / 2))
        for x0, x1 in zip(xs, xs[1:])
        for y0, y1 in zip(ys, ys[1:])
    )


def _brute_staircase(rects):
    return all(_box_covered(rects, r.x1, r.y1) for r in rects)


def _brute_on_boundary(rects, p):
    if not _brute_contains(rects, p):
        return False
    coords = sorted({*p, *(c for r in rects for c in (r.x0, r.x1, r.y0, r.y1))})
    eps = min((b - a for a, b in zip(coords, coords[1:])), default=F(1)) / 2
    x, y = p
    return not all(
        _brute_contains(rects, (x + sx * eps, y + sy * eps))
        for sx in (-1, 1)
        for sy in (-1, 1)
    )


def test_cube_inclusion_rectilinear_matches_coverage_oracle():
    rng = random.Random(23)
    for _ in range(30):
        dom = rng.choice([make_staircase(rng), _random_rectilinear(rng)])
        a = cube_inclusion(dom)
        if a > 0:
            assert _box_covered(dom.rects, a, a)
        candidates = sorted(
            {c for r in dom.rects for c in (r.x0, r.x1, r.y0, r.y1) if c > a}
        )
        for c in candidates[:3]:
            assert not _box_covered(dom.rects, c, c)


def test_monotone_sandwich():
    rng = random.Random(29)
    for _ in range(30):
        dom = make_staircase(rng)
        assert cube_inclusion(dom) == delta(dom) == eta(dom)
    for _ in range(30):
        dom = make_monotone_polygon(rng)
        assert cube_inclusion(dom) == delta(dom) == eta(dom)


# ---------------------------------------------------------------------------
# boundary predicate
# ---------------------------------------------------------------------------

def test_boundary_predicates(om310):
    assert domain_on_boundary(om310, (F(1, 2), F(1, 2)))
    assert not domain_on_boundary(om310, (F(1, 4), F(1, 4)))
    assert domain_on_boundary(om310, (F(2, 5), F(0)))
    cross_domain = Rectilinear2D(
        (Rect(F(0), F(1), F(0), F(1, 2)), Rect(F(0), F(1, 2), F(0), F(1)))
    )
    assert domain_on_boundary(cross_domain, (F(1, 2), F(1, 2)))
    assert domain_on_boundary(cross_domain, (F(1), F(1, 2)))
    assert not domain_on_boundary(cross_domain, (F(1, 4), F(1, 4)))
    assert not domain_on_boundary(cross_domain, (F(3, 4), F(3, 4)))


CROSS = Rectilinear2D((Rect(F(0), F(1), F(0), F(1, 2)), Rect(F(0), F(1, 2), F(0), F(1))))

BAD_POINTS = [
    (5, InapplicableError, "coordinate pair"),
    (None, InapplicableError, "coordinate pair"),
    ((1,), InapplicableError, "coordinate pair"),
    ((1, 2, 3), InapplicableError, "coordinate pair"),
    ("10", InapplicableError, "coordinate pair"),
    ({"a": 1, "b": 2}, InapplicableError, "coordinate pair"),
    ({"1": 0, "0": 1}, InapplicableError, "coordinate pair"),
    ({F(3, 2), F(1, 5)}, InapplicableError, "coordinate pair"),
    (frozenset({0, 1}), InapplicableError, "coordinate pair"),
    ((0.5, 0.25), DomainError, "not a rational"),
    ((0.5, 0.1), DomainError, "not a rational"),
    ((F(1, 2), 0.25), DomainError, "not a rational"),
    ((True, 0), DomainError, "not a rational"),
    (("1.5", "0"), DomainError, "not a rational"),
]


@pytest.mark.parametrize("point,error,message", BAD_POINTS,
                         ids=[repr(p) for p, _, _ in BAD_POINTS])
def test_membership_refuses_bad_points(om310, point, error, message):
    # The members refuse a point with the wrappers' exception and message.
    for dom in (om310, CROSS):
        refusals = set()
        for probe in (domain_contains, domain_on_boundary,
                      type(dom).contains, type(dom).on_boundary):
            with pytest.raises(error, match=message) as refused:
                probe(dom, point)
            refusals.add((refused.type, str(refused.value)))
        assert len(refusals) == 1, refusals


def test_membership_coerces_rational_coordinates(om310):
    for dom in (om310, CROSS):
        for raw, exact in [(("1", "0"), (F(1), F(0))), (("1/2", "1/2"), (F(1, 2), F(1, 2))),
                           ([1, F(1, 4)], (F(1), F(1, 4))), ((F(1, 5), "1/5"), (F(1, 5),) * 2),
                           (("1/2", "1/10"), (F(1, 2), F(1, 10)))]:
            for wrapper, member in ((domain_contains, dom.contains),
                                    (domain_on_boundary, dom.on_boundary)):
                assert wrapper(dom, raw) == member(raw) == wrapper(dom, exact), (dom, raw)
    assert not domain_contains(om310, ("1", "0"))
    assert domain_on_boundary(om310, ("1/2", "1/2"))


CORNER_TOUCHING = [
    Rectilinear2D((Rect(F(0), F(1), F(0), F(1)), Rect(F(1), F(2), F(1), F(2)))),
    Rectilinear2D((
        Rect(F(0), F(1, 2), F(0), F(3)),
        Rect(F(1, 2), F(2), F(3), F(7, 2)),
        Rect(F(0), F(3), F(0), F(1, 3)),
    )),
    Rectilinear2D((Rect(F(0), F(1), F(0), F(1)), Rect(F(1), F(2), F(0), F(1)),
                   Rect(F(2), F(3), F(1), F(2)))),
]


def test_rectilinear_coverage_matches_brute_oracle():
    rng = random.Random(41)
    domains = CORNER_TOUCHING + [make_touching_union(rng) for _ in range(40)]
    domains += [make_staircase(rng) for _ in range(10)]
    for dom in domains:
        rects = dom.rects
        assert is_monotone(dom) == _brute_staircase(rects)
        coords = sorted({F(0), *(c for r in rects for c in (r.x0, r.x1, r.y0, r.y1))})
        top = coords[-1]
        # Grid lines and their corners, midpoints between them, points
        # beyond the extent and points with negative coordinates.
        probes = coords + [(a + b) / 2 for a, b in zip(coords, coords[1:])]
        probes += [top + F(1, 7), F(-1, 5), F(-1)]
        for x in probes:
            for y in probes:
                p = (x, y)
                assert domain_contains(dom, p) == _brute_contains(rects, p), p
                assert domain_on_boundary(dom, p) == _brute_on_boundary(rects, p), p


def test_corner_touching_union_boundary():
    dom = CORNER_TOUCHING[0]
    assert domain_on_boundary(dom, (F(1), F(1)))
    assert not domain_on_boundary(dom, (F(1, 2), F(1, 2)))
    assert not domain_contains(dom, (F(3, 2), F(1, 2)))
    assert not is_monotone(dom)
    assert cube_inclusion(dom) == 1


# ---------------------------------------------------------------------------
# per-instance caching
# ---------------------------------------------------------------------------

def _answers(dom):
    """Every invariant and test of a domain, and its full report."""
    out = [delta(dom), eta(dom), is_monotone(dom), cube_inclusion(dom),
           report_to_dict(capacity_report(dom))]
    if not isinstance(dom, StandardDomain):
        p = (F(1, 3), F(1, 3))
        out += [domain_contains(dom, p), domain_on_boundary(dom, p)]
    return out


def _fields_by_name(dom) -> dict:
    """The fields of a value, by name, in the order its class lists them."""
    return {name: getattr(dom, name) for name in type(dom)._fields}


def test_cached_invariants_keep_value_semantics():
    rng = random.Random(53)
    domains = [StandardDomain(kind, n, F(5, 7)) for kind in STANDARD_KINDS for n in (1, 3)]
    domains += [omega_a(F(3, 10)), Polygon2D(((F(1), F(0)), (F(3), F(5)), (F(0), F(6))))]
    # A collinear midpoint whose denominator the chain drops, and a duplicate.
    domains += [Polygon2D(((1, 0), (1, F(1, 7)), (1, 1), (1, 1), (F(0), F(1)))),
                Polygon2D(((F(1, 3), 0), (F(1, 3), 0), (0, F(1, 3))))]
    domains += [make_weakly_convex_polygon(rng) for _ in range(10)]
    domains += CORNER_TOUCHING + [make_touching_union(rng) for _ in range(10)]
    domains += [make_staircase(rng) for _ in range(5)]
    # Unreduced strings: q is still the lcm of the lowest-terms denominators,
    # 4 and 12, not 8 and 72 (and the loop checks it as for every domain).
    domains += [
        Polygon2D((("2/4", "0"), ("6/8", "2/8"), ("0", "10/20"))),
        parse_domain(json.dumps({"kind": "rectilinear2d", "rects": [
            {"x0": "0", "x1": "4/6", "y0": "0/3", "y1": "2/8"},
            {"x0": "0/9", "x1": "3/9", "y0": "0", "y1": "6/4"},
        ]})),
    ]
    unreduced_polygon, unreduced_union = domains[-2:]
    assert vars(unreduced_polygon)["_lattice"].q == 4 and vars(unreduced_union)["_grid"].q == 12
    for dom in domains:
        if isinstance(dom, Rectilinear2D):
            # The coverage grid is built by the constructor, beside the fields.
            assert "_grid" in vars(dom) and "_grid" not in repr(dom)
            assert "_grid" not in type(dom)._fields
        if isinstance(dom, Polygon2D):
            # So is the integer lattice of the chain.
            assert "_lattice" in vars(dom) and "_lattice" not in repr(dom)
            assert "_lattice" not in type(dom)._fields
            assert "_lattice" not in serialize_domain(dom)
        answers = _answers(dom)
        # Computed once: the answers sit in the instance, beside the fields.
        cached = {"delta"} if isinstance(dom, StandardDomain) else {
            "delta", "eta", "is_monotone", "cube_inclusion"}
        assert cached <= vars(dom).keys(), dom
        fresh = type(dom)(**_fields_by_name(dom))  # same fields, nothing cached
        assert not vars(fresh).keys() & cached
        assert fresh == dom and hash(fresh) == hash(dom), dom
        assert repr(fresh) == repr(dom)
        assert serialize_domain(fresh) == serialize_domain(dom)
        # A second read, and a fresh instance, give the same answers.
        assert _answers(dom) == answers == _answers(fresh)
        # So does the domain read back from its own document.
        reread = parse_domain(serialize_domain(dom))
        assert reread == dom and hash(reread) == hash(dom), dom
        assert repr(reread) == repr(dom)
        assert serialize_domain(reread) == serialize_domain(dom)
        assert _answers(reread) == answers
        if isinstance(dom, Polygon2D):
            # The lattice is a function of the field: the same q and integers.
            mine, theirs = vars(dom)["_lattice"], vars(fresh)["_lattice"]
            assert theirs is not mine
            for other in (theirs, vars(reread)["_lattice"]):
                assert (other.q, other.points) == (mine.q, mine.points)
            assert dom.cl_candidates == reread.cl_candidates == (mine.q, mine.points[1:-1])
            assert mine.q == math.lcm(*(c.denominator for v in dom.vertices for c in v))
        if isinstance(dom, Rectilinear2D):
            # The union's lattice: q is the lcm of the rectangles'
            # denominators, and the grid lines and boxes are ints.
            mine, theirs = vars(dom)["_grid"], vars(fresh)["_grid"]
            assert theirs is not mine
            coords = [(r.x0, r.x1, r.y0, r.y1) for r in dom.rects]
            assert mine.q == math.lcm(*(c.denominator for box in coords for c in box))
            assert all(type(c) is int for c in mine.xs + mine.ys)
            assert all(type(c) is int for box in mine.boxes for c in box)
            assert mine.boxes == [tuple(c * mine.q for c in box) for box in coords]
            # Equal rectangles in other forms make an equal union.
            again = Rectilinear2D(tuple(
                Rect(*(str(c) for c in (r.x0, r.x1, r.y0, r.y1))) for r in dom.rects
            ))
            for other in (theirs, vars(again)["_grid"], vars(reread)["_grid"]):
                assert (other.q, other.boxes) == (mine.q, mine.boxes)
            assert again == dom and hash(again) == hash(dom)
            assert repr(again) == repr(dom)
            assert serialize_domain(again) == serialize_domain(dom)
            assert _answers(again) == answers
            # A replaced field gets a grid of its own.
            grown = type(dom)(**{**_fields_by_name(dom), "rects": dom.rects + (dom.rects[0],)})
            assert grown != dom and serialize_domain(grown) != serialize_domain(dom)
            assert _answers(grown) == answers
    for kind in STANDARD_KINDS:
        dom = StandardDomain(kind, 2, F(1))
        for probe in (domain_contains, domain_on_boundary):
            with pytest.raises(InapplicableError, match="planar"):
                probe(dom, (F(1, 2), F(1, 2)))


def test_raising_invariant_raises_again():
    # The first edge (2, 1) is shallower than the diagonal, and the union
    # misses the diagonal: each member raises on every read and caches
    # nothing in the instance.
    shallow = Polygon2D(((2, 0), (4, 1), (0, 3)))
    off_diagonal = Rectilinear2D(
        (Rect(F(2), F(4), F(0), F(1, 4)), Rect(F(3), F(4), F(0), F(1)))
    )
    for dom, name, match in ((shallow, "cube_bound", "tangent-slope"),
                             (off_diagonal, "delta", "diagonal")):
        before = dict(vars(dom))
        for _ in range(2):
            with pytest.raises(InapplicableError, match=match):
                getattr(dom, name)
        assert vars(dom) == before and name not in vars(dom)
    assert eta(off_diagonal) == 1  # the other invariants still answer
    with pytest.raises(InapplicableError, match="diagonal"):
        capacity_report(off_diagonal)
    # A successful read keeps its value in the instance; the class keeps
    # the descriptor.
    for dom, name in ((shallow, "delta"), (off_diagonal, "eta"),
                      (omega_a(F(3, 10)), "cube_bound")):
        value = getattr(dom, name)
        assert isinstance(vars(type(dom))[name], cached_member)
        assert getattr(type(dom), name) is vars(type(dom))[name]
        assert vars(dom)[name] is value and getattr(dom, name) is value


@pytest.mark.parametrize(
    "thing", [None, 3, "ball", (F(1), F(0)), {"kind": "ball"}],
    ids=["none", "int", "str", "pair", "document"],
)
def test_non_domain_raises_domain_error(thing):
    for fn in (delta, eta, is_monotone, cube_inclusion, capacity_report,
               lagrangian_capacity, domain_to_dict):
        with pytest.raises(DomainError, match="not a toric domain"):
            fn(thing)
    for probe in (domain_contains, domain_on_boundary):
        with pytest.raises(DomainError, match="not a toric domain"):
            probe(thing, (F(1, 2), F(1, 2)))
