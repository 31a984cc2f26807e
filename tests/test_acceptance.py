"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  Every comparison is exact rational equality.
"""

import random
import time
from fractions import Fraction

from toricap import (
    CLRule,
    Polygon2D,
    Rect,
    Rectilinear2D,
    SearchStatus,
    StandardDomain,
    a_min_brute,
    a_min_closed,
    capacity_report,
    cross_term,
    cube_bound,
    cube_inclusion,
    delta,
    eta,
    finite_d_bound,
    lagrangian_capacity,
    obstruction_search,
    omega_a,
    orbit_invariants,
    parse_orbit_set,
    square_polygon,
    verify_witness,
    verify_xa,
)

from generators import make_monotone_polygon, make_orbit_set, make_staircase

F = Fraction

XA_VALUES = (F(1, 8), F(1, 5), F(1, 4), F(3, 10), F(1, 3), F(2, 5), F(9, 20))


def _report(criterion: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_family_closed_forms():
    t0 = time.time()
    ok = True
    for a in XA_VALUES:
        check = verify_xa(a)
        r = check.report
        ok &= check.passed
        ok &= r.c_P.exact and r.c_P.lower == min(1 - 2 * a, F(1, 2))
        ok &= r.c_L.value == F(1, 2)
        ok &= r.c_N.exact and r.c_N.lower == F(1, 2)
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 5,
            elapsed, f"pinched-corner family closed forms at {len(XA_VALUES)} parameters")


def test_criterion_2_cube_normalization_sandwich():
    t0 = time.time()
    rng = random.Random(2024)
    ok = True
    for make, count in ((make_staircase, 200), (make_monotone_polygon, 200)):
        for _ in range(count):
            dom = make(rng, max_den=20)
            d = delta(dom)
            ok &= cube_inclusion(dom) == d == eta(dom)
            r = capacity_report(dom)
            ok &= r.monotone
            ok &= {r.delta, r.eta, r.c_P.lower, r.c_P.upper,
                   r.c_N.lower, r.c_N.upper, r.c_L.value} == {d}
    elapsed = time.time() - t0
    _report(2, ok and elapsed < 30,
            elapsed, "400 random monotone domains collapse to delta")


def test_criterion_3_a_min_oracle():
    # Points drawn over a common denominator <= 12: the 64-level box then
    # provably reaches the minimal combination (Bezout coefficients stay
    # below numerator/2 <= 24 < 50).
    t0 = time.time()
    rng = random.Random(77)
    ok = True
    count = 0
    for dim, n_points in ((2, 300), (3, 200)):
        for _ in range(n_points):
            q = rng.randint(1, 12)
            point = [F(rng.randint(1, 2 * q), q) for _ in range(dim)]
            count += 1
            ok &= a_min_closed(point) == a_min_brute(point, 50)
    elapsed = time.time() - t0
    _report(3, ok and count >= 500 and elapsed < 60,
            elapsed, f"closed form equals K=50 oracle on {count} points")


def test_criterion_4_cube_bound_and_finite_degree():
    t0 = time.time()
    ok = True
    for a in (F(3, 10), F(1, 3), F(2, 5)):
        ok &= cube_bound(omega_a(a)) == 1 - 2 * a
    dom = omega_a(F(3, 10))
    s = dom.vertices[0][0] + dom.vertices[-1][1]
    values = {d: finite_d_bound(dom, d) for d in (3, 9, 30, 90, 300)}
    ok &= values[3] == F(4, 5)
    ok &= values[30] == F(8, 19)
    prev = None
    for d in (3, 9, 30, 90, 300):
        ok &= abs(values[d] - F(2, 5)) <= F(3 * s + 6, d)
        if prev is not None:
            ok &= values[d] <= prev
        prev = values[d]
    elapsed = time.time() - t0
    _report(4, ok and elapsed < 5,
            elapsed, "slope bound exact; finite-degree bounds pinned and shrinking")


def test_criterion_5_index_additivity():
    t0 = time.time()
    rng = random.Random(505)
    ok = True
    for _ in range(1000):
        a = make_orbit_set(rng, vmax=5, max_mult=4)
        b = make_orbit_set(rng, vmax=5, max_mult=4, forbidden=set(a.orbits()))
        na, nb = orbit_invariants(a), orbit_invariants(b)
        np_ = orbit_invariants(a.product(b))
        ok &= np_.index == na.index + nb.index + 2 * cross_term(a, b)
        ok &= np_.x == na.x + nb.x
        ok &= np_.y == na.y + nb.y
        ok &= np_.m == na.m + nb.m
        ok &= np_.h == na.h + nb.h
    elapsed = time.time() - t0
    _report(5, ok and elapsed < 30,
            elapsed, "index additivity identity on 1000 disjoint pairs")


def test_criterion_6_obstruction_search():
    om = omega_a(F(3, 10))
    e11 = parse_orbit_set("e(1,1)")

    t0 = time.time()
    ok = True

    # Randomized witnesses re-verify.
    rng = random.Random(606)
    found = 0
    for _ in range(30):
        dom = rng.choice(
            [omega_a(F(rng.randint(1, 11), 24)),
             square_polygon(F(rng.randint(1, 4), 4))]
        )
        alpha = make_orbit_set(rng, vmax=1, max_mult=1, elliptic_only=True,
                               max_size=2)
        if orbit_invariants(alpha).index <= 0:
            continue
        report = obstruction_search(dom, dom, alpha, vmax=2, lmax=2)
        if report.status is SearchStatus.FEASIBLE_WITNESS:
            found += 1
            ok &= verify_witness(dom, dom, report.witness, alpha)
    ok &= found >= 10

    # Identity instance returns the test set itself.
    report = obstruction_search(om, om, e11, vmax=3, lmax=3)
    ok &= report.status is SearchStatus.FEASIBLE_WITNESS
    ok &= report.witness.alpha == e11
    small_elapsed = time.time() - t0
    ok &= small_elapsed < 30

    # Half cube against the pinched corner at degree 30.
    t1 = time.time()
    ok &= finite_d_bound(om, 30) == F(8, 19) < F(1, 2)
    alpha = parse_orbit_set("e(1,-1)^30 * e(-1,1)^30 * e(1,1)^2")
    report = obstruction_search(square_polygon(F(1, 2)), om, alpha, vmax=3, lmax=3)
    ok &= report.status is SearchStatus.INFEASIBLE_WITHIN_BOUNDS
    ok &= report.obstructed_a == F(1, 2)
    big_elapsed = time.time() - t1
    ok &= big_elapsed < 600

    elapsed = time.time() - t0
    _report(6, ok, elapsed,
            f"witnesses re-verify ({found} found); identity feasible; "
            f"half-cube instance infeasible in {big_elapsed:.2f}s")


def test_criterion_7_spot_checks():
    t0 = time.time()
    ok = True

    b = F(7, 3)
    r = capacity_report(StandardDomain("nduc", 2, b))
    ok &= r.c_P.exact and r.c_P.lower == b

    e = F(1, 2)
    dom = Rectilinear2D(
        (Rect(F(0), 2 * e, F(0), e), Rect(F(0), e, F(0), 2 * e))
    )
    cert = lagrangian_capacity(dom)
    ok &= cert.value == e
    ok &= cert.rule is CLRule.LATTICE_WITNESS

    elapsed = time.time() - t0
    _report(7, ok and elapsed < 5, elapsed,
            "NDUC cube capacity exact; figure-style union certified by lattice witness")
