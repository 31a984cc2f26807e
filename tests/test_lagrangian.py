"""Fiber-area arithmetic and the capacity certificate cascade."""

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
    a_min_brute,
    a_min_closed,
    cube_normalized_value,
    delta,
    eta,
    is_monotone,
    lagrangian_capacity,
    omega_a,
    square_polygon,
)

from toricap.geometry import domain_contains, domain_on_boundary
from toricap.lagrangian import _RULES, _lattice_witness

from generators import (
    make_monotone_polygon,
    make_staircase,
    make_touching_union,
    make_weakly_convex_polygon,
    random_fraction,
    scaled,
)

F = Fraction


def _fractions(lo, hi, max_den):
    """The fractions in [lo, hi] with denominator at most max_den, ascending."""
    return sorted({F(n, d) for d in range(1, max_den + 1)
                   for n in range(math.ceil(lo * d), math.floor(hi * d) + 1)})


POSITIVE = _fractions(F(1, 12), F(4), 12)
SCALES = _fractions(F(1, 5), F(5), 6)


# ---------------------------------------------------------------------------
# minimal fiber area
# ---------------------------------------------------------------------------

def test_a_min_closed_examples():
    assert a_min_closed([F(1, 2), F(1, 2)]) == F(1, 2)
    assert a_min_closed([F(2, 3), F(1, 2)]) == F(1, 6)
    assert a_min_closed([F(1), F(1), F(1)]) == 1


def test_a_min_brute_examples():
    assert a_min_brute([F(1, 2), F(1, 2)], 2) == F(1, 2)
    # minimum attained at k = (1, -1): 2/3 - 1/2 = 1/6
    assert a_min_brute([F(2, 3), F(1, 2)], 3) == F(1, 6)
    assert a_min_brute([F(1), F(1)], 1) == 1


def test_a_min_errors():
    with pytest.raises(InapplicableError):
        a_min_closed([F(0), F(1)])
    with pytest.raises(InapplicableError):
        a_min_closed([F(-1, 2)])
    for bad in (0, True, 2.0):
        with pytest.raises(InapplicableError, match="enumeration bound"):
            a_min_brute([F(1, 2)], bad)
    with pytest.raises(InapplicableError, match="limit"):
        a_min_brute([F(1, 2), F(1, 3)], 2000)  # 4001^2 > 16,000,000 points
    with pytest.raises(InapplicableError):
        a_min_closed([])
    for bad in (5, None, "12", {"1": 0}, {F(1, 2), F(1, 3)}, frozenset({F(1, 2)})):
        with pytest.raises(DomainError, match="fiber position must be a sequence"):
            a_min_closed(bad)
        with pytest.raises(DomainError, match="fiber position must be a sequence"):
            a_min_brute(bad, 2)


def test_a_min_oracle_agreement():
    # Coordinates over one denominator q <= 12, in 1..3 dimensions, where
    # the K=50 box provably reaches the minimal positive combination.
    rng = random.Random(59)
    ends = [(q, dim) for q in (1, 12) for dim in (1, 3)]
    for q, dim in ends + [(rng.randint(1, 12), rng.randint(1, 3)) for _ in range(56)]:
        coords = [F(rng.randint(1, 2 * q), q) for _ in range(dim)]
        assert a_min_closed(coords) == a_min_brute(coords, 50), coords


def test_a_min_brute_agrees_on_big_integers():
    # Numerators beyond 64 bits: the sumset is exact for big integers.
    coords = [F(3 * 2**61, 1), F(2**61, 3)]
    assert a_min_brute(coords, 2) == a_min_closed(coords) == F(2**61, 3)
    # And a mid-size point on 4 axes.
    coords = [F(1, 2), F(2, 3), F(3, 4), F(4, 5)]
    assert a_min_brute(coords, 3) == a_min_closed(coords) == F(1, 60)


def test_a_min_homogeneous():
    rng = random.Random(61)
    cases = [([POSITIVE[0]], SCALES[0]), ([POSITIVE[-1]] * 3, SCALES[-1])]
    cases += [(rng.choices(POSITIVE, k=rng.randint(1, 3)), rng.choice(SCALES))
              for _ in range(58)]
    for coords, lam in cases:
        assert a_min_closed([lam * c for c in coords]) == lam * a_min_closed(coords), (coords, lam)


def test_a_min_permutation_invariant():
    rng = random.Random(67)
    for case in range(40):
        coords = rng.choices(POSITIVE, k=2 + case % 3)
        shuffled = rng.sample(coords, len(coords))
        assert a_min_closed(shuffled) == a_min_closed(coords), coords


# ---------------------------------------------------------------------------
# the certificate cascade
# ---------------------------------------------------------------------------

def test_cascade_eta_on_boundary():
    cert = lagrangian_capacity(omega_a(F(3, 10)))
    assert cert.rule is CLRule.ETA_ON_BOUNDARY
    assert cert.value == F(1, 2)
    assert cert.witness == (F(1, 2), F(1, 2))


def test_cascade_monotone_diagonal():
    cert = lagrangian_capacity(Polygon2D(((F(1), F(0)), (F(0), F(1)))))
    assert cert.rule is CLRule.MONOTONE_DIAGONAL
    assert cert.value == F(1, 2)
    for kind, expected in (("ball", F(1, 3)), ("cylinder", F(1)),
                           ("cube", F(1)), ("nduc", F(1))):
        cert = lagrangian_capacity(StandardDomain(kind, 3, F(1)))
        assert cert.rule is CLRule.MONOTONE_DIAGONAL
        assert cert.value == expected


def test_cascade_lattice_witness():
    e = F(1, 2)
    dom = Rectilinear2D(
        (Rect(F(0), 2 * e, F(0), e), Rect(F(0), e, F(0), 2 * e))
    )
    cert = lagrangian_capacity(dom)
    assert cert.rule is CLRule.LATTICE_WITNESS
    assert cert.value == e
    assert cert.witness == (F(1), F(1, 2))


def test_cascade_lattice_witness_non_staircase():
    # eta attained away from the diagonal, at a non-lattice-free corner
    dom = Rectilinear2D(
        (
            Rect(F(0), F(1), F(0), F(1, 4)),
            Rect(F(2, 3), F(1), F(0), F(1, 2)),
        )
    )
    assert not is_monotone(dom)
    cert = lagrangian_capacity(dom)
    assert cert.rule is CLRule.LATTICE_WITNESS
    assert cert.value == F(1, 2)
    assert cert.witness == (F(1), F(1, 2))


def test_cascade_interval_only():
    dom = Rectilinear2D(
        (
            Rect(F(0), F(1), F(0), F(1, 4)),
            Rect(F(2, 3), F(7, 8), F(0), F(1, 2)),
        )
    )
    cert = lagrangian_capacity(dom)
    assert cert.rule is CLRule.INTERVAL_ONLY
    assert cert.value is None
    assert cert.lower == F(1, 4)
    assert cert.upper == eta(dom) == F(1, 2)


def test_certificate_bracket_invariants():
    # Oracle: a definite certificate is pinched at the minimal fiber area of
    # its witness, a point of the domain; an interval leaves a gap, and its
    # lower end is the best a_min_closed of the diagonal point and the
    # candidates, each on its own.  Large denominators give the candidates
    # a common denominator far from each one's own.
    rng = random.Random(31)
    domains = [make_weakly_convex_polygon(rng) for _ in range(400)]
    domains += [make_monotone_polygon(rng) for _ in range(200)]
    domains += [make_staircase(rng) for _ in range(200)]
    domains += [make_touching_union(rng) for _ in range(400)]
    domains += [omega_a(F(k, 97)) for k in range(1, 49)]
    domains += [make_weakly_convex_polygon(rng, 10**6) for _ in range(400)]
    domains += [scaled(make_touching_union(rng), random_fraction(rng, 10**6))
                for _ in range(300)]
    rules = set()
    interval_kinds = set()
    for dom in domains:
        cert = lagrangian_capacity(dom)
        rules.add(cert.rule)
        if cert.rule is CLRule.INTERVAL_ONLY:
            assert cert.value is None and cert.witness is None, dom
            assert cert.lower < cert.upper == eta(dom), dom
            d = delta(dom)
            q, points = dom.cl_candidates
            candidates = [(d, d), *((Fraction(x, q), Fraction(y, q)) for x, y in points)]
            assert cert.lower == max(a_min_closed(p) for p in candidates), dom
            interval_kinds.add(type(dom))
        else:
            w = cert.witness
            assert cert.lower == cert.upper == cert.value == min(w) == a_min_closed(w), dom
            assert domain_contains(dom, w), dom
            assert cert.value <= eta(dom), dom
    assert rules == set(CLRule)
    assert interval_kinds == {Polygon2D, Rectilinear2D}


def test_monotone_consistency():
    rng = random.Random(37)
    for _ in range(20):
        dom = rng.choice([make_staircase(rng), make_monotone_polygon(rng)])
        cert = lagrangian_capacity(dom)
        assert cert.value == cube_normalized_value(dom) == delta(dom)


# ---------------------------------------------------------------------------
# closed-form lattice witness against the extent/e scan
# ---------------------------------------------------------------------------

def _scan_witness(domain, e):
    """Reference: probe every (k1*e, k2*e) up to the extent, keep the max by (x, y)."""
    if isinstance(domain, Polygon2D):
        max_x = max(x for x, _ in domain.vertices)
        max_y = max(y for _, y in domain.vertices)
    else:
        max_x = max(r.x1 for r in domain.rects)
        max_y = max(r.y1 for r in domain.rects)
    found = []
    for k1 in range(1, int(max_x / e) + 1):
        for k2 in (range(1, int(max_y / e) + 1) if k1 == 1 else (1,)):
            p = (k1 * e, k2 * e)
            if max(k1, k2) >= 2 and domain_on_boundary(domain, p):
                found.append(p)
    return max(found) if found else None


def _translated(dom, dx, dy):
    """The union shifted by (dx, dy); rectangles on the x-axis stretch to stay on it."""
    return Rectilinear2D(tuple(
        Rect(r.x0 + dx, r.x1 + dx, r.y0 + dy if r.y0 else r.y0, r.y1 + dy)
        for r in dom.rects
    ))


def test_lattice_witness_matches_scan_on_unions():
    # Besides the unions on the 1/4 grid, their translates off the
    # diagonal, where eta is attained away from it.
    rng = random.Random(43)
    unions = [make_touching_union(rng) for _ in range(150)]
    unions += [_translated(dom, F(rng.randint(1, 12), 4), F(rng.randint(0, 3), 4))
               for dom in unions[:60]]
    assert any(all(max(r.x0, r.y0) > min(r.x1, r.y1) for r in dom.rects)
               for dom in unions)
    for dom in unions:
        assert _lattice_witness(dom) == _scan_witness(dom, eta(dom)), dom


def test_lattice_witness_matches_scan_on_polygons():
    # Reports reach the polygon witness only when eta > delta (otherwise
    # (eta, eta) is on the chain and EtaOnBoundary fires first), so the
    # set holds at least 40 such polygons besides monotone ones and Omega_a.
    rng = random.Random(47)
    polygons = []
    while sum(eta(p) > delta(p) for p in polygons) < 40:
        polygons.append(make_weakly_convex_polygon(rng))
    polygons += [make_monotone_polygon(rng) for _ in range(20)]
    polygons += [omega_a(F(i, 12)) for i in range(1, 6)]
    polygons.append(Polygon2D(((F(1), F(0)), (F(3), F(5)), (F(0), F(6)))))
    for poly in polygons:
        assert _lattice_witness(poly) == _scan_witness(poly, eta(poly)), poly


def test_eta_on_boundary_matches_oracle():
    # No domain point has min(x, y) > eta, so the rule's closed form
    # delta == eta must agree with the boundary test at (eta, eta).
    rng = random.Random(53)
    domains = [make_weakly_convex_polygon(rng) for _ in range(60)]
    domains += [make_monotone_polygon(rng) for _ in range(20)]
    domains += [omega_a(F(i, 24)) for i in range(1, 12)]
    domains += [make_touching_union(rng) for _ in range(60)]
    domains += [make_staircase(rng) for _ in range(20)]
    fired = set()
    for dom in domains:
        e = eta(dom)
        on_boundary = domain_on_boundary(dom, (e, e))
        rules = dom.cl_rules
        earlier = rules[:rules.index("EtaOnBoundary")]
        preempted = any(_RULES[rule](dom) is not None for rule in earlier)
        assert (_RULES["EtaOnBoundary"](dom) is not None) == on_boundary, dom
        picked = lagrangian_capacity(dom).rule is CLRule.ETA_ON_BOUNDARY
        assert picked == (on_boundary and not preempted), dom
        fired.add((type(dom), picked))
    assert len(fired) == 4  # both outcomes on both kinds


# ---------------------------------------------------------------------------
# cube-normalized collapse
# ---------------------------------------------------------------------------

def test_cube_normalized_examples():
    assert cube_normalized_value(StandardDomain("cube", 4, F(1))) == 1
    assert cube_normalized_value(StandardDomain("ball", 4, F(1))) == F(1, 4)
    assert cube_normalized_value(StandardDomain("cylinder", 2, F(1))) == 1
    with pytest.raises(InapplicableError, match="not monotone"):
        cube_normalized_value(omega_a(F(1, 5)))
