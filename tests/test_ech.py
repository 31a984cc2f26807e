"""Orbit sets, index/action algebra, bounds, and the obstruction search."""

import contextlib
import copy
import gc
import itertools
import math
import pickle
import random
import signal
import sys
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

from toricap import (
    CombOrbit,
    CombOrbitSet,
    DomainError,
    InapplicableError,
    Polygon2D,
    Rect,
    Rectilinear2D,
    SearchStatus,
    StandardDomain,
    action,
    capacity_report,
    cross_term,
    cube_bound,
    cube_inclusion,
    delta,
    enumerate_orbit_sets,
    enumeration_truncated,
    finite_d_bound,
    format_orbit_set,
    leq_relation,
    obstruction_search,
    omega_a,
    orbit_invariants,
    parse_orbit_set,
    square_polygon,
    support,
    verify_witness,
)

from toricap import ech
from toricap.ech import candidate_orbits
from toricap.rationals import over_common_denominator

from generators import (
    make_monotone_polygon, make_orbit, make_orbit_set, make_weakly_convex_polygon, scaled,
)

F = Fraction
EMPTY_ORBIT_SET = CombOrbitSet(())


@pytest.fixture
def om310():
    return omega_a(F(3, 10))


class DeadlinePassed(TimeoutError):
    """A block ran past the seconds that its ``deadline`` gave it."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``DeadlinePassed`` in the block once ``seconds`` of wall time pass.

    An alarm that lands after the block ends but before the timer is
    disarmed raises from the ``with`` statement itself, so a caller that
    reads the exception catches it outside the block.  The previous
    SIGALRM handler comes back either way.
    """
    def on_alarm(signum, frame):
        raise DeadlinePassed(f"ran past its {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        yield
    finally:
        try:
            signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# orbit validation and literals
# ---------------------------------------------------------------------------

def test_orbit_validation():
    with pytest.raises(DomainError, match="primitive"):
        CombOrbit((2, 2), 1)
    with pytest.raises(DomainError, match="nonnegative"):
        CombOrbit((-1, -1), 1)
    with pytest.raises(DomainError, match="nonzero"):
        CombOrbit((0, 0), 1)
    for bad in ((True, False), (1.0, 0), (1, False), 5, (1,), (1, 0, 0), "10", {1: 0, 0: 1},
                {1, -2}, frozenset({0, 1})):
        with pytest.raises(DomainError, match="integer pair"):
            CombOrbit(bad, 1)
    for bad in (True, 1.0, 2):
        with pytest.raises(DomainError, match="marker"):
            CombOrbit((1, 1), bad)
    assert CombOrbit((0, -1), 1)  # one nonnegative component suffices
    assert CombOrbit((-3, 1), 0)


def test_orbit_set_validation():
    e11 = CombOrbit((1, 1), 1)
    h10 = CombOrbit((1, 0), 0)
    with pytest.raises(DomainError, match="multiplicity 1"):
        CombOrbitSet(((h10, 2),))
    with pytest.raises(DomainError, match="repeated"):
        CombOrbitSet(((e11, 1), (e11, 2)))
    for bad in (0, True, 2.0):
        with pytest.raises(DomainError, match=">= 1"):
            CombOrbitSet(((e11, bad),))
    # Each factor's shape is checked before the factors are sorted.
    for bad in (5, None, "ab", ((1, 2),), ((e11,),), ((e11, 1, 1),), ((e11, 1), 5),
                {(e11, 1)}, ((e11, 1), frozenset({e11, 2}))):
        with pytest.raises(DomainError, match="must pair a CombOrbit"):
            CombOrbitSet(bad)


def test_literal_round_trip():
    text = "e(-1,1)^30 * e(1,-1)^30 * e(1,1)^2"
    alpha = parse_orbit_set(text)
    assert format_orbit_set(alpha) == text
    assert parse_orbit_set(format_orbit_set(alpha)) == alpha
    assert format_orbit_set(parse_orbit_set("h(1,0)")) == "h(1,0)"
    assert format_orbit_set(EMPTY_ORBIT_SET) == "1"


def test_literal_errors():
    with pytest.raises(DomainError, match="bad orbit factor"):
        parse_orbit_set("e(1,1) + e(1,0)")
    with pytest.raises(DomainError, match="multiplicity 1"):
        parse_orbit_set("h(1,0)^2")
    with pytest.raises(DomainError, match="duplicate"):
        parse_orbit_set("e(1,1) * e(1,1)")
    with pytest.raises(DomainError, match="primitive"):
        parse_orbit_set("e(2,4)")


# ---------------------------------------------------------------------------
# invariants and action
# ---------------------------------------------------------------------------

def test_orbit_invariants_examples():
    n = orbit_invariants(parse_orbit_set("e(1,1)"))
    assert (n.x, n.y, n.index, n.m, n.h) == (1, 1, 4, 1, 0)
    n = orbit_invariants(parse_orbit_set("e(1,-1) * e(-1,1) * e(1,1)^2"))
    assert (n.x, n.y, n.index, n.m, n.h) == (2, 2, 20, 4, 0)
    n = orbit_invariants(parse_orbit_set("h(1,0)"))
    assert (n.x, n.y, n.index, n.m, n.h) == (1, 0, 1, 1, 1)


def test_orbit_invariants_permutation_invariant():
    e1 = CombOrbit((1, -1), 1)
    e2 = CombOrbit((-1, 1), 1)
    e3 = CombOrbit((1, 1), 1)
    a = CombOrbitSet(((e1, 1), (e2, 1), (e3, 2)))
    b = CombOrbitSet(((e3, 2), (e1, 1), (e2, 1)))
    assert a == b
    assert orbit_invariants(a) == orbit_invariants(b)


def test_action_examples(om310):
    assert action(om310, parse_orbit_set("e(1,-1)")) == F(2, 5)
    alpha = parse_orbit_set("e(1,-1) * e(-1,1) * e(1,1)^2")
    assert action(om310, alpha) == F(2, 5) + F(2, 5) + 2
    assert action(square_polygon(F(1)), parse_orbit_set("e(1,1)")) == 2


def test_index_additivity_random_pairs():
    rng = random.Random(41)
    for _ in range(60):
        a = make_orbit_set(rng)
        b = make_orbit_set(rng, forbidden=set(a.orbits()))
        na, nb = orbit_invariants(a), orbit_invariants(b)
        prod = a.product(b)
        np_ = orbit_invariants(prod)
        assert np_.index == na.index + nb.index + 2 * cross_term(a, b)
        assert np_.x == na.x + nb.x and np_.y == na.y + nb.y
        assert np_.m == na.m + nb.m and np_.h == na.h + nb.h


def test_action_additivity_and_monotonicity(om310):
    rng = random.Random(43)
    for _ in range(25):
        a = make_orbit_set(rng)
        b = make_orbit_set(rng, forbidden=set(a.orbits()))
        assert action(om310, a.product(b)) == action(om310, a) + action(om310, b)
        lam = F(rng.randint(1, 9), 10)
        smaller = Polygon2D(tuple((lam * x, lam * y) for x, y in om310.vertices))
        assert action(smaller, a) <= action(om310, a)


# ---------------------------------------------------------------------------
# the comparison relation
# ---------------------------------------------------------------------------

def test_leq_examples(om310):
    e11 = parse_orbit_set("e(1,1)")
    assert leq_relation(om310, om310, e11, e11).holds
    sq = parse_orbit_set("e(1,1)^2")
    res = leq_relation(om310, om310, sq, sq)
    assert not res.holds and res.failed == "iii"
    res = leq_relation(om310, om310, parse_orbit_set("h(1,1)"), e11)
    assert not res.holds and res.failed == "i"


def test_leq_half_integer_h(om310):
    # alpha with odd h exercises the exact h/2 comparison: x + y - 1/2
    # against an integer right side.
    alpha = parse_orbit_set("h(1,1)")
    target = parse_orbit_set("h(1,1)")
    res = leq_relation(om310, om310, alpha, target)
    # (iii): 2 - 1/2 = 3/2 >= 1 + 1 + 1 - 1 = 2 is false
    assert not res.holds and res.failed == "iii"


def test_leq_action_failure(om310):
    smaller = Polygon2D(tuple((F(1, 2) * x, F(1, 2) * y) for x, y in om310.vertices))
    e11 = parse_orbit_set("e(1,1)")
    res = leq_relation(om310, smaller, e11, e11)
    assert not res.holds and res.failed == "ii"
    assert leq_relation(smaller, om310, e11, e11).holds


# ---------------------------------------------------------------------------
# the orbit-set algebra against its defining formulas
# ---------------------------------------------------------------------------

def _invariants_reference(alpha):
    """The five integers by their generator sums, over ordered factor pairs."""
    fx = [(o.v[0], o.v[1], o.s, m) for o, m in alpha.factors]
    x = sum(m * vx for vx, _, _, m in fx)
    y = sum(m * vy for _, vy, _, m in fx)
    double = sum(m1 * m2 * max(x1 * y2, x2 * y1)
                 for x1, y1, _, m1 in fx for x2, y2, _, m2 in fx)
    s_term = sum(s * m for _, _, s, m in fx)
    return (x, y, x + y + double + s_term, sum(m for *_, m in fx),
            sum(1 for _, _, s, _ in fx if s == 0))


def _action_reference(domain, alpha):
    """A ``Fraction`` sum of the supports."""
    return sum((m * support(domain, o.v) for o, m in alpha.factors), start=F(0))


def _leq_reference(source, target, alpha, alpha_prime):
    """The comparison with (iii) over the rationals: x + y - h/2 against
    x' + y' + m' - 1."""
    _, _, index, _, _ = a = _invariants_reference(alpha)
    _, _, index_prime, _, _ = b = _invariants_reference(alpha_prime)
    if index != index_prime:
        return "i"
    if _action_reference(source, alpha) > _action_reference(target, alpha_prime):
        return "ii"
    if a[0] + a[1] - F(a[4], 2) < b[0] + b[1] + b[3] - 1:
        return "iii"
    return None


def _product_reference(alpha, beta):
    """Multiplicities of shared orbits added in a dict, through the constructor."""
    merged = dict(alpha.factors)
    for o, m in beta.factors:
        merged[o] = merged.get(o, 0) + m
    return CombOrbitSet(tuple(merged.items()))


def test_orbit_set_algebra_matches_formula_oracle(om310):
    rng = random.Random(97)
    sets = [make_orbit_set(rng, vmax=rng.choice((1, 2, 3)), max_mult=3) for _ in range(240)]
    sets.append(EMPTY_ORBIT_SET)
    by_index = {}
    for alpha in sets:
        numbers = orbit_invariants(alpha)
        assert (numbers.x, numbers.y, numbers.index, numbers.m, numbers.h) == (
            _invariants_reference(alpha))
        by_index.setdefault(numbers.index, []).append(alpha)
    polygons = [om310, square_polygon(F(1, 2))]
    polygons += [make_weakly_convex_polygon(rng) for _ in range(8)]
    polygons += [make_monotone_polygon(rng, max_den=40) for _ in range(8)]
    for domain in polygons:
        for alpha in sets:
            got = action(domain, alpha)
            assert type(got) is F and got == _action_reference(domain, alpha)
    outcomes = Counter()
    for _ in range(3000):
        source, target = rng.choice(polygons), rng.choice(polygons)
        alpha = rng.choice(sets)
        # Half the pairs share an index, so (ii) and (iii) are reached.
        pool = by_index[orbit_invariants(alpha).index] if rng.random() < 0.5 else sets
        alpha_prime = rng.choice(pool)
        res = leq_relation(source, target, alpha, alpha_prime)
        want = _leq_reference(source, target, alpha, alpha_prime)
        assert (res.holds, res.failed) == (want is None, want), (alpha, alpha_prime)
        outcomes[want] += 1
        # h odd puts the two sides of (iii) half an integer apart.
        outcomes["odd h"] += want in (None, "iii") and orbit_invariants(alpha).h % 2 == 1
    assert min(outcomes[k] for k in ("i", "ii", "iii", None, "odd h")) >= 50, outcomes
    products = Counter()
    for _ in range(1500):
        alpha = EMPTY_ORBIT_SET if rng.random() < 0.05 else rng.choice(sets)
        beta = rng.choice(sets)
        if rng.random() < 0.3:
            # Share orbits with alpha, hyperbolic ones included.
            beta = CombOrbitSet(rng.sample(alpha.factors, rng.randint(0, len(alpha.factors))))
        try:
            want = _product_reference(alpha, beta)
        except DomainError as exc:
            assert "multiplicity 1" in str(exc)
            with pytest.raises(DomainError, match="multiplicity 1"):
                alpha.product(beta)
            products["shared hyperbolic"] += 1
            continue
        got = alpha.product(beta)
        assert got == want and got.factors == want.factors
        assert [o.key for o, _ in got.factors] == sorted(o.key for o, _ in got.factors)
        products["shared"] += bool(set(alpha.orbits()) & set(beta.orbits()))
        if not beta:
            assert got is alpha
            products["empty right"] += 1
        elif not alpha:
            assert got is beta
            products["empty left"] += 1
    assert min(products[k] for k in ("shared hyperbolic", "shared")) >= 100, products
    assert min(products[k] for k in ("empty left", "empty right")) >= 30, products


def test_product_of_many_sets_merges_once():
    # One sort and merge over all the sets equals the pairwise reference
    # folded over them, and refuses a shared hyperbolic orbit alike.
    rng = random.Random(103)
    refused = 0
    for _ in range(400):
        sets = [make_orbit_set(rng, vmax=2, max_mult=2) for _ in range(rng.randint(0, 5))]
        want = EMPTY_ORBIT_SET
        try:
            for alpha in sets:
                want = _product_reference(want, alpha)
        except DomainError:
            refused += 1
            with pytest.raises(DomainError, match="multiplicity 1"):
                ech._product_all(sets)
            continue
        got = ech._product_all(sets)
        assert got == want and got.factors == want.factors
    assert 50 <= refused <= 350, refused


def test_orbit_key_sits_beside_the_fields():
    rng = random.Random(101)
    for _ in range(50):
        orbit = make_orbit(rng)
        text = repr(orbit)
        assert orbit.key == (*orbit.v, orbit.s) and type(orbit.key) is tuple
        assert "key" not in CombOrbit._fields and "key" not in text
        assert hash(orbit) == hash((orbit.v, orbit.s))
        for again in (pickle.loads(pickle.dumps(orbit)), copy.copy(orbit),
                      copy.deepcopy(orbit)):
            assert again.key == orbit.key and again == orbit and hash(again) == hash(orbit)
            assert repr(again) == text
        # A different key leaves equality, hashing and repr as they were.
        other = copy.copy(orbit)
        other.__dict__["key"] = (0, 0, 0)
        assert other == orbit and hash(other) == hash(orbit) and repr(other) == text
        with pytest.raises(AttributeError):
            orbit.key = (0, 0, 0)


def test_orbit_set_algebra_hashes_no_orbit(monkeypatch):
    # A timing-free guard: the constructor finds a repeated orbit among
    # sorted neighbours, and a product merges on keys, so neither hashes a
    # CombOrbit; nor does a search that finds and replays a witness.
    calls = Counter()
    hash_orbit = CombOrbit.__hash__

    def counting(self):
        calls["hash"] += 1
        return hash_orbit(self)

    e1, e2, e3 = (CombOrbit(v, 1) for v in ((1, -1), (-1, 1), (1, 1)))
    h10 = CombOrbit((1, 0), 0)
    test_set = parse_orbit_set("e(1,-1)^3 * e(-1,1)^3 * e(1,1)^2")
    monkeypatch.setattr(CombOrbit, "__hash__", counting)
    alpha = CombOrbitSet([(e3, 2), (e1, 1), (h10, 1)])
    beta = CombOrbitSet(((e2, 3), (e3, 1)))
    assert alpha.product(beta) == beta.product(alpha) == CombOrbitSet(
        ((e1, 1), (e2, 3), (e3, 3), (h10, 1)))
    assert alpha.product(EMPTY_ORBIT_SET) is alpha and EMPTY_ORBIT_SET.product(beta) is beta
    with pytest.raises(DomainError, match="repeated"):
        CombOrbitSet(((e3, 1), (e1, 1), (e3, 2)))
    with pytest.raises(DomainError, match="multiplicity 1"):
        alpha.product(CombOrbitSet(((h10, 1),)))
    half = square_polygon(F(1, 2))
    report = obstruction_search(half, half, test_set, vmax=3, lmax=3)
    assert report.status is SearchStatus.FEASIBLE_WITNESS
    assert not calls
    monkeypatch.undo()
    assert hash(alpha) == hash((alpha.factors,))


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def test_cube_bound_examples(om310):
    assert cube_bound(om310) == F(2, 5)
    assert cube_bound(square_polygon(F(1))) == 1
    assert cube_bound(Polygon2D(((F(1), F(0)), (F(0), F(1))))) == 1


def test_cube_bound_steep_arrival_allowed():
    # Arrival edge direction (-1, 2) satisfies the slope ratio condition.
    dom = Polygon2D(((F(1), F(0)), (F(0), F(2))))
    assert cube_bound(dom) == F(3, 2)


def test_cube_bound_refuses_shallow_arrival():
    dom = Polygon2D(
        ((F(1), F(0)), (F(3), F(2)), (F(2), F(4)), (F(0), F(1, 2)))
    )
    with pytest.raises(InapplicableError, match="slope"):
        cube_bound(dom)
    with pytest.raises(InapplicableError, match="slope"):
        finite_d_bound(dom, 10)


def test_finite_d_examples(om310):
    assert finite_d_bound(om310, 3) == F(4, 5)
    assert finite_d_bound(om310, 30) == F(8, 19)
    for bad in (0, True, 3.0):
        with pytest.raises(InapplicableError, match="degree"):
            finite_d_bound(om310, bad)


def test_finite_d_monotone_and_convergent(om310):
    bound = cube_bound(om310)
    s = om310.vertices[0][0] + om310.vertices[-1][1]
    prev = None
    for d in (3, 9, 30, 90, 300):
        val = finite_d_bound(om310, d)
        assert val >= bound
        assert abs(val - bound) <= F(3 * s + 6, d)
        if prev is not None:
            assert val <= prev
        prev = val


def test_finite_d_bound_matches_loop(om310):
    # Reference: the maximum over every d_i in [ceil(d/3), d] and k in
    # {0, 1, 2}, from a table of the per-d_i maxima.
    rng = random.Random(53)
    domains = [om310]
    while len(domains) < 6:
        dom = make_weakly_convex_polygon(rng)
        try:
            cube_bound(dom)
        except InapplicableError:
            continue
        domains.append(dom)
    for dom in domains:
        s = dom.vertices[0][0] + dom.vertices[-1][1]
        per_di = [None] + [
            max(F(di * s + k, 2 * di + 3 * k - 1) for k in (0, 1, 2))
            for di in range(1, 401)
        ]
        for d in range(1, 401):
            assert finite_d_bound(dom, d) == max(per_di[-(-d // 3): d + 1])


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_examples():
    sq = square_polygon(F(1))
    sets = list(enumerate_orbit_sets(sq, F(2), 4, vmax=1))
    assert parse_orbit_set("e(1,1)") in sets
    sets = list(enumerate_orbit_sets(sq, F(1), 1, vmax=1))
    assert parse_orbit_set("h(1,0)") in sets
    assert parse_orbit_set("h(0,1)") in sets
    assert list(enumerate_orbit_sets(sq, F(0), 4, vmax=1)) == []


def test_negative_cap_yields_no_orbit_set():
    # Every candidate costs a positive action, so a negative cap has none,
    # and the default count floor has no cheapest candidate to divide by.
    sq = square_polygon(F(1))
    for cap in (F(-1), F(-1, 2)):
        assert candidate_orbits(sq, cap, 1) == []
        for floor in (None, 0):
            assert list(enumerate_orbit_sets(sq, cap, 0, vmax=1, min_count=floor)) == []


def test_enumerate_deterministic_and_filtered(om310):
    first = list(enumerate_orbit_sets(om310, F(1), 4, vmax=2))
    second = list(enumerate_orbit_sets(om310, F(1), 4, vmax=2))
    assert first == second
    assert len(set(first)) == len(first)
    for alpha in first:
        assert orbit_invariants(alpha).index == 4
        assert action(om310, alpha) <= 1
        assert all(
            0 < action(om310, CombOrbitSet(((o, 1),))) for o in alpha.orbits()
        )


def _enumerate_reference(domain, cap, index_target, vmax):
    """Fraction recursion over the candidates, index tested at every leaf."""
    candidates = candidate_orbits(domain, cap, vmax)
    out = []

    def rec(i, remaining, chosen):
        if i == len(candidates):
            if chosen:
                alpha = CombOrbitSet(tuple(chosen))
                if orbit_invariants(alpha).index == index_target:
                    out.append(alpha)
            return
        orbit, sup = candidates[i]
        max_m = int(remaining / sup)
        if orbit.s == 0:
            max_m = min(max_m, 1)
        rec(i + 1, remaining, chosen)
        for m in range(1, max_m + 1):
            chosen.append((orbit, m))
            rec(i + 1, remaining - m * sup, chosen)
            chosen.pop()

    rec(0, F(cap), [])
    return out


def test_enumerate_matches_fraction_recursion():
    rng = random.Random(59)
    floors = random.Random(67)  # its own stream: the cases above stay as they were
    cases = yielded = hyperbolic = kept = split = 0
    for _ in range(80):
        dom = make_weakly_convex_polygon(rng)
        for vmax in (1, 2):
            cheapest = min(
                (sup for _, sup in candidate_orbits(dom, F(10**6), vmax)),
                default=F(1),
            )
            cap = cheapest * F(rng.randint(2, 12 if vmax == 1 else 8), 2)
            target = rng.randint(-2, 8)
            got = list(enumerate_orbit_sets(dom, cap, target, vmax))
            reference = _enumerate_reference(dom, cap, target, vmax)
            assert got == reference
            # The pruned enumeration is the reference filtered by
            # x + y - h/2 >= floor.
            floor = floors.randint(-2, 2)
            pruned = list(enumerate_orbit_sets(dom, cap, target, vmax, min_count=floor))
            wanted = [
                a for a in reference
                if 2 * (orbit_invariants(a).x + orbit_invariants(a).y)
                - orbit_invariants(a).h >= 2 * floor
            ]
            assert pruned == wanted
            cases += 1
            yielded += len(got)
            hyperbolic += sum(any(o.s == 0 for o in a.orbits()) for a in got)
            kept += len(pruned)
            split += 0 < len(pruned) < len(got)
    assert cases == 160 and yielded > 400 and hyperbolic > 100
    assert 100 < kept < yielded - 100 and split >= 10


def test_count_floor_matches_leq_relation():
    # With the action cap, index target and count floor of a target factor,
    # the enumeration yields exactly the reference sets that leq_relation
    # accepts against that factor, in the same order.
    rng = random.Random(71)
    cases = matched = rejected = 0
    while cases < 60:
        source = make_weakly_convex_polygon(rng)
        target = rng.choice([source, omega_a(F(3, 10)), make_weakly_convex_polygon(rng)])
        factor = make_orbit_set(rng, vmax=2, max_mult=2, elliptic_only=True, max_size=2)
        n = orbit_invariants(factor)
        cap = action(target, factor)
        vmax = rng.randint(1, 2)
        supports = [sup for _, sup in candidate_orbits(source, cap, vmax)]
        if not supports or cap > 6 * min(supports):
            continue  # keeps the Fraction reference small
        got = list(enumerate_orbit_sets(source, cap, n.index, vmax,
                                        min_count=n.x + n.y + n.m - 1))
        reference = _enumerate_reference(source, cap, n.index, vmax)
        wanted = [a for a in reference if leq_relation(source, target, a, factor).holds]
        assert got == wanted
        cases += 1
        matched += len(got)
        rejected += len(reference) - len(wanted)
    assert matched >= 20 and rejected >= 20


def _enumerate_one_call_per_candidate(domain, cap, index_target, vmax, min_count):
    """The integer enumeration with one recursive call per candidate
    position, multiplicity 0 included: its depth grows with the number of
    candidates, which the library's loop over runs of zeros avoids."""
    candidates = candidate_orbits(domain, cap, vmax)
    orbits = [o for o, _ in candidates]
    _, scaled = over_common_denominator([cap] + [sup for _, sup in candidates])
    budget, cost = scaled[0], scaled[1:]
    linear, cross = ech._index_form(orbits)
    gain = [o.v[0] + o.v[1] for o in orbits]
    cheapest = [budget + 1] * (len(orbits) + 1)
    best = [(0, 1)] * (len(orbits) + 1)
    for i in range(len(orbits) - 1, -1, -1):
        cheapest[i] = min(cost[i], cheapest[i + 1])
        g, c = best[i + 1]
        best[i] = (gain[i], cost[i]) if gain[i] * c > g * cost[i] else (g, c)
    chosen, out = [], []

    def rec(i, remaining, index, xy, h):
        if min_count is not None:
            g, c = best[i]
            if (min_count - xy) * c > remaining * g:
                return
        if remaining < cheapest[i]:
            if (chosen and index == index_target
                    and (min_count is None or 2 * xy - h >= 2 * min_count)):
                out.append(CombOrbitSet(tuple((orbits[j], m) for j, m in chosen)))
            return
        rec(i + 1, remaining, index, xy, h)
        max_m = remaining // cost[i]
        if orbits[i].s == 0:
            max_m = min(max_m, 1)
        row = cross[i]
        base = linear[i] + 2 * sum(m * row[j] for j, m in chosen)
        h_i = h + 1 - orbits[i].s
        for m in range(1, max_m + 1):
            chosen.append((i, m))
            rec(i + 1, remaining - m * cost[i], index + m * (base + m * row[i]),
                xy + m * gain[i], h_i)
            chosen.pop()

    rec(0, budget, 0, 0, 0)
    return out


def test_enumerate_matches_one_call_per_candidate():
    # The same sets in the same order as the recursion that descends once
    # per candidate, with and without a count floor.
    rng = random.Random(83)
    yielded = floored = 0
    for _ in range(60):
        dom = make_weakly_convex_polygon(rng)
        vmax = rng.randint(1, 3)
        cheapest = min(
            (sup for _, sup in candidate_orbits(dom, F(10**6), vmax)),
            default=F(1),
        )
        cap = cheapest * F(rng.randint(2, 10), 2)
        target = rng.randint(-2, 8)
        floor = rng.choice((None, -1, 0, 1, 2, 3))
        got = list(enumerate_orbit_sets(dom, cap, target, vmax, min_count=floor))
        assert got == _enumerate_one_call_per_candidate(dom, cap, target, vmax, floor)
        yielded += len(got)
        floored += floor is not None and len(got) > 0
    assert yielded > 300 and floored >= 10


def _candidate_orbits_reference(domain, cap, vmax):
    """Every pair of the (2 vmax + 1)^2 box, its support tested one at a time."""
    out = []
    for v in itertools.product(range(-vmax, vmax + 1), repeat=2):
        if math.gcd(*v) != 1 or (v[0] < 0 and v[1] < 0):
            continue
        sup = support(domain, v)
        if 0 < sup <= cap:
            for s in (0, 1):
                out.append((CombOrbit(v, s), sup))
    return out


def test_candidate_orbits_match_box_walk():
    # The row walk finds the orbits, order and supports of the box walk,
    # for caps below, at and above each intercept.
    rng = random.Random(97)
    cases = empty = 0
    for _ in range(150):
        dom = _POLYGON_MAKERS[rng.randrange(len(_POLYGON_MAKERS))](rng)
        vmax = rng.randint(1, 6)
        for intercept in (dom.vertices[0][0], dom.vertices[-1][1]):
            for cap in (intercept * F(rng.randint(1, 9), 10), intercept,
                        intercept * F(rng.randint(11, 40), 10)):
                got = candidate_orbits(dom, cap, vmax)
                assert got == _candidate_orbits_reference(dom, cap, vmax)
                assert all(type(sup) is Fraction for _, sup in got)
                cases += 1
                empty += not got
    assert cases == 900 and 100 < empty < 800


def test_slot_below_smaller_intercept_closes_at_once(om310):
    # Every affordable direction costs at least one intercept (2/5 on both
    # axes here), so a smaller cap has no candidate at any direction bound.
    with deadline(1):
        orbits = candidate_orbits(om310, F(1, 3), 10**9)
        sets = [list(enumerate_orbit_sets(om310, F(1, 3), target, 10**9, min_count=floor))
                for target in (1, 4) for floor in (None, 0)]
    assert orbits == [] and sets == [[]] * 4
    assert not enumeration_truncated(om310, F(1, 3))


def test_oversized_candidate_table_is_refused():
    # At cap 1 the tall rectangle affords the row x = 1 alone, whose vmax + 1
    # pairs (1, y), -vmax <= y <= 0, pass the limit of 1,000,000 at
    # vmax = 10^6.  Every reader of the table refuses it before scanning the
    # row, naming vmax and the limit; the search's slot of e(1,0) has cap 1.
    tall = Polygon2D(((1, 0), (1, 10), (0, 10)))
    refusal = r"vmax=1000000 would scan more than the limit of 1000000 directions"
    with deadline(1):
        for read in (lambda: candidate_orbits(tall, 1, 10**6),
                     lambda: enumerate_orbit_sets(tall, 1, 1, 10**6),
                     lambda: obstruction_search(tall, tall, parse_orbit_set("e(1,0)"), 10**6, 1)):
            with pytest.raises(InapplicableError, match=refusal):
                read()
        # A row far longer than a machine-size integer is counted exactly too.
        with pytest.raises(InapplicableError, match=r"vmax=10{20} would scan"):
            candidate_orbits(tall, 1, 10**20)


def test_candidate_table_limit_is_inclusive(monkeypatch):
    # A table of exactly the limit's pairs is built, and one pair more is
    # refused; the tall rectangle at cap 1 scans vmax + 1 pairs.
    monkeypatch.setattr(ech, "_TABLE_LIMIT", 10)
    tall = Polygon2D(((1, 0), (1, 10), (0, 10)))
    assert [o.v for o, _ in candidate_orbits(tall, 1, 9)[::2]] == [(1, y) for y in range(-9, 1)]
    assert next(enumerate_orbit_sets(tall, 1, 2, 9)) is not None
    with pytest.raises(InapplicableError, match="vmax=10 would scan more than the limit of 10 "):
        candidate_orbits(tall, 1, 10)


def test_count_cut_counts_hyperbolic_orbits():
    # On the square 1/2 every first-quadrant direction adds 2 to x + y per
    # unit of action, the best rate, so a floor of twice the cap admits no
    # hyperbolic orbit: each one adds 1/2 to h.  The cut counts the h of
    # the orbits already chosen and ends those branches at once.  A cut
    # that ignored h walked every mix of hyperbolic and elliptic
    # first-quadrant orbits: 23 s on a 2-vCPU machine where this takes 0.2 s.
    square = square_polygon(F(1, 2))
    with deadline(1):
        sets = list(enumerate_orbit_sets(square, F(160), 26080, 1, min_count=320))
    assert list(map(format_orbit_set, sets)) == [
        "e(1,1)^160",
        "e(1,0)^214 * e(1,1)^53",
        "e(0,1)^11 * e(1,0)^231 * e(1,1)^39",
        "e(0,1)^214 * e(1,1)^53",
        "e(0,1)^231 * e(1,0)^11 * e(1,1)^39",
    ]


def _child_calls(run):
    """Runs ``run()`` and returns the calls of the enumeration's recursion
    below the first one of each enumeration, and how many of them the count
    cut ends on entry."""
    rec = ech._extend.__code__
    seen, counts = set(), Counter()

    def profile(frame, event, arg):
        # A generator's frame reports a "call" on every resumption.
        if event != "call" or frame.f_code is not rec or frame in seen:
            return
        seen.add(frame)
        f = frame.f_locals
        candidates, *_, min_count, chosen = f["run"]
        if chosen:  # a child: the first call of an enumeration has chosen nothing
            # The best gain x + y per cost among the candidates left, or 0.
            rate = max([F(0)] + [F(x + y, cost) for x, y, _, cost in candidates[f["i"]:]])
            counts["calls"] += 1
            counts["cut"] += 2 * (min_count - f["xy"]) + f["h"] > 2 * f["remaining"] * rate

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts["calls"], counts["cut"]


def test_enumeration_makes_no_child_call_that_its_cut_ends():
    # The multiplicities whose child the count cut would end on entry are
    # never branched on, with or without hyperbolic orbits in the branch.
    rng = random.Random(89)
    calls = 0
    for _ in range(40):
        dom = _POLYGON_MAKERS[rng.randrange(len(_POLYGON_MAKERS))](rng)
        vmax = rng.randint(1, 3)
        cap = min(dom.vertices[0][0], dom.vertices[-1][1]) * F(rng.randint(8, 30), 8)
        floor = rng.randint(0, 6)
        made, cut = _child_calls(
            lambda: list(enumerate_orbit_sets(dom, cap, rng.randint(0, 12), vmax, min_count=floor)))
        assert cut == 0
        calls += made
    om310 = omega_a(F(3, 10))
    alpha = parse_orbit_set("e(1,-1)^3 * e(-1,1)^3 * e(1,1)^2")
    for source, target in ((square_polygon(F(1, 2)), square_polygon(F(1, 2))),
                           (square_polygon(F(2, 5)), om310)):
        made, cut = _child_calls(lambda: obstruction_search(source, target, alpha, 3, 3))
        assert cut == 0
        calls += made
    # The search stops each slot's enumeration at the sets its walk reads;
    # the largest slot of each of the two searches above, run to the end.
    for dom, cap, index, floor in ((square_polygon(F(1, 2)), F(3), 6, 5),
                                   (om310, F(22, 5), 40, 11)):
        made, cut = _child_calls(
            lambda: list(enumerate_orbit_sets(dom, cap, index, 3, min_count=floor)))
        assert cut == 0
        calls += made
    assert calls > 2000


def _subset_indices_reference(alpha_factors, alpha_prime_factors):
    """Sub-product indices by additivity: over S, the sum of the factor
    indices plus twice the cross terms of the pairs in S."""
    def indices(factors):
        index = [orbit_invariants(f).index for f in factors]
        cross = [[cross_term(a, b) for b in factors] for a in factors]
        return index, cross

    (idx_a, cr_a), (idx_p, cr_p) = indices(alpha_factors), indices(alpha_prime_factors)
    n = len(idx_p)
    for mask in range(1, 1 << n):
        members = [j for j in range(n) if mask >> j & 1]
        pairs = list(itertools.combinations(members, 2))
        total = sum(idx_p[j] for j in members) + 2 * sum(cr_p[i][j] for i, j in pairs)
        other = sum(idx_a[j] for j in members) + 2 * sum(cr_a[i][j] for i, j in pairs)
        if total <= 0 or other != total:
            return False
    return True


def _swap_directions(alpha):
    return CombOrbitSet(tuple((CombOrbit((o.v[1], o.v[0]), o.s), m) for o, m in alpha.factors))


def _orbit_set_of_index(rng, index, forbidden):
    """A random orbit set of the given index, hyperbolic orbits allowed."""
    while True:
        alpha = make_orbit_set(rng, vmax=2, max_mult=2, max_size=2, forbidden=forbidden)
        if orbit_invariants(alpha).index == index:
            return alpha


def test_sub_product_check_matches_additivity():
    # verify_witness reads the one-factor sub-products off the factors'
    # invariants and multiplies the larger ones out; on random factor
    # lists and their mutants it must agree with the additivity sums.
    rng = random.Random(73)
    outcomes = []
    for _ in range(300):
        pf = [make_orbit_set(rng, vmax=2, max_mult=2, elliptic_only=True, max_size=2)
              for _ in range(rng.randint(1, 3))]
        af = list(pf)
        j = rng.randrange(len(af))
        mutation = rng.randrange(3)
        if mutation == 1:
            # Swapping x and y keeps the factor's own index, not its cross terms.
            af[j] = _swap_directions(af[j])
        elif mutation == 2:
            # Another set of the same index; no two factors share a hyperbolic orbit.
            used = {o for f in af for o in f.orbits() if o.s == 0}
            af[j] = _orbit_set_of_index(rng, orbit_invariants(af[j]).index, used)
        numbers = [(orbit_invariants(a), orbit_invariants(p)) for a, p in zip(af, pf)]
        got = ech._sub_products_match(af, pf, numbers)
        assert got == _subset_indices_reference(af, pf)
        outcomes.append((mutation, got))
    for mutation in range(3):
        assert sum(o == (mutation, True) for o in outcomes) >= 10
        assert sum(o == (mutation, False) for o in outcomes) >= 10


def _ellipsoid(a, b):
    return Polygon2D(((F(a), F(0)), (F(0), F(b))))


def _polydisk(a, b):
    return Polygon2D(((F(a), F(0)), (F(a), F(b)), (F(0), F(b))))


def _ech_capacity(domain, a, b, k):
    """The k-th ECH capacity of E(a, b) or P(a, b) in closed form."""
    sums = [(a * m + b * n, (m + 1) * (n + 1)) for m in range(k + 1) for n in range(k + 1)]
    if domain is _ellipsoid:
        return sorted(v for v, _ in sums)[k]
    return min(v for v, count in sums if count >= k + 1)


@pytest.mark.parametrize("domain, a, b", [(_ellipsoid, 1, 1), (_ellipsoid, 1, 2),
                                          (_ellipsoid, 2, 3), (_polydisk, 1, 1),
                                          (_polydisk, 1, 2)])
def test_first_quadrant_sets_reach_ech_capacities(domain, a, b):
    # For a convex toric domain, the k-th ECH capacity is the least action
    # of an orbit set of index 2k (Hutchings, "Quantitative embedded contact
    # homology", J. Differential Geom. 2011).  Over the sets whose
    # directions lie in the closed first quadrant, the enumeration meets the
    # closed forms.  The model's other directions can undercut them: on
    # P(1, 1), h(-3,1) * h(1,-3) has index 8 and action 2, below c_4 = 3.
    dom = domain(a, b)
    for k in range(1, 11):
        c_k = _ech_capacity(domain, a, b, k)
        actions = [
            action(dom, alpha)
            for alpha in enumerate_orbit_sets(dom, F(c_k), 2 * k, vmax=3)
            if all(x >= 0 and y >= 0 for x, y in (o.v for o in alpha.orbits()))
        ]
        assert min(actions) == c_k


def test_enumeration_truncated_flag(om310):
    assert enumeration_truncated(om310, F(2, 5))
    assert not enumeration_truncated(om310, F(1, 5))


# ---------------------------------------------------------------------------
# obstruction search
# ---------------------------------------------------------------------------

def test_search_identity_witness(om310):
    report = obstruction_search(om310, om310, parse_orbit_set("e(1,1)"),
                                vmax=3, lmax=3)
    assert report.status is SearchStatus.FEASIBLE_WITNESS
    assert report.witness.alpha == parse_orbit_set("e(1,1)")
    assert len(report.witness.alpha_factors) == 1
    assert verify_witness(om310, om310, report.witness, parse_orbit_set("e(1,1)"))


def test_search_hypothesis_violations(om310):
    with pytest.raises(InapplicableError, match="positive index"):
        obstruction_search(om310, om310, parse_orbit_set("e(1,-1)"), vmax=2, lmax=2)
    with pytest.raises(InapplicableError, match="hyperbolic"):
        obstruction_search(om310, om310, parse_orbit_set("h(1,0)"), vmax=2, lmax=2)
    with pytest.raises(InapplicableError, match="invalid search limits"):
        obstruction_search(om310, om310, parse_orbit_set("e(1,1)"), vmax=0, lmax=0)
    for bad in (True, 2.0):
        for limits in ({"vmax": bad, "lmax": 2}, {"vmax": 2, "lmax": bad}):
            with pytest.raises(InapplicableError, match="invalid search limits"):
                obstruction_search(om310, om310, parse_orbit_set("e(1,1)"), **limits)
    for bad in (0, True, 2.0, 2.5):
        with pytest.raises(InapplicableError, match="direction bound"):
            list(enumerate_orbit_sets(om310, F(1), 4, vmax=bad))
        with pytest.raises(InapplicableError, match="direction bound"):
            candidate_orbits(om310, F(1), bad)
    for bad in (3.0, True, F(3)):
        with pytest.raises(InapplicableError, match="index target"):
            list(enumerate_orbit_sets(om310, F(1), bad, vmax=2))
    for bad in (F(1, 2), 0.5, False):
        with pytest.raises(InapplicableError, match="count floor"):
            list(enumerate_orbit_sets(om310, F(1), 4, vmax=2, min_count=bad))
    # Negative integers are valid targets and floors.
    found = list(enumerate_orbit_sets(om310, F(1), -1, vmax=2, min_count=-3))
    assert found and all(orbit_invariants(a).index == -1 for a in found)


def test_search_cube_obstruction_small(om310):
    # At d = 30 the action/index inequality closes every factor that
    # factorizations into at most lmax = 3 parts use, without enumerating
    # directions.  The claim rests on that lmax cut: the test set has
    # factorizations into up to 62 parts, and at d = 3 the same search is
    # Inconclusive at lmax 8.  The half cube does not fit in Omega_{3/10},
    # so the inclusion gate does not fire.
    alpha = parse_orbit_set("e(1,-1)^30 * e(-1,1)^30 * e(1,1)^2")
    report = obstruction_search(square_polygon(F(1, 2)), om310, alpha,
                                vmax=3, lmax=3)
    assert report.status is SearchStatus.INFEASIBLE_WITHIN_BOUNDS
    assert report.obstructed_a == F(1, 2)
    assert report.reason is None
    assert report.bounds_used.enumerations_run == 0
    assert not report.bounds_used.enumeration_truncated


def test_search_inclusion_d3_returns_witness(om310):
    # Inclusions that the per-factor pruning does not close: the slot
    # enumerations must finish, and an inclusion is never obstructed.
    alpha = parse_orbit_set("e(1,-1)^3 * e(-1,1)^3 * e(1,1)^2")
    cases = [(square_polygon(F(1, 2)), square_polygon(F(1, 2))),
             (square_polygon(F(2, 5)), om310)]
    with deadline(30):
        reports = [obstruction_search(s, t, alpha, vmax=3, lmax=3) for s, t in cases]
    for (source, target), report in zip(cases, reports):
        assert report.status is SearchStatus.FEASIBLE_WITNESS
        assert verify_witness(source, target, report.witness, alpha)


def test_found_runaway_searches_return_a_witness(om310):
    # Each target cap is large against the source's supports, so each
    # search's one slot has a long enumeration; its first match is the
    # witness, and the search must stop there.
    cases = [
        (square_polygon(F(1, 10)), om310, "e(1,-1)^3 * e(-1,1)^3 * e(1,1)^2", 3, 3),
        (square_polygon(F(1)),
         Polygon2D(((F(449, 90), 0), (F(53, 9), F(3, 5)), (F(398, 63), F(36, 35)),
                    (F(26, 9), F(76, 35)), (F(2, 9), F(88, 105)), (0, F(124, 315)))),
         "e(1,0)^3 * e(1,2)^2", 2, 3),
        (Polygon2D(((F(1, 6), 0), (F(7, 12), F(5, 12)), (F(5, 12), F(7, 12)), (0, F(1, 6)))),
         Polygon2D(((F(3, 4), 0), (F(15, 8), F(3, 8)), (2, F(3, 4)), (2, F(7, 4)),
                    (0, F(11, 4)))),
         "e(0,1)^2", 3, 3),
    ]
    for source, target, text, vmax, lmax in cases:
        alpha = parse_orbit_set(text)
        with deadline(2):
            report = obstruction_search(source, target, alpha, vmax=vmax, lmax=lmax)
        assert report.status is SearchStatus.FEASIBLE_WITNESS, text
        assert verify_witness(source, target, report.witness, alpha)


@pytest.mark.xfail(strict=True, raises=DeadlinePassed,
                   reason="ROADMAP item 2: a search has no budget, and its cost "
                          "grows with the test set's index")
def test_search_cost_does_not_grow_with_the_index(om310):
    # The half square into Omega_{3/10} with e(N, 1) returns a witness
    # after one factorization and one enumeration at N = 25 and 30 (0.35 s
    # and 0.7 s on a 2-vCPU machine), but at N = 100 it runs past a minute.
    alpha = parse_orbit_set("e(100,1)")
    with deadline(2):
        report = obstruction_search(square_polygon(F(1, 2)), om310, alpha, vmax=2, lmax=2)
    assert report.status is SearchStatus.FEASIBLE_WITNESS


def test_search_names_the_inclusion(om310):
    # Each source lies in its target, or in the target's mirror for the
    # rectangles, so no test set may obstruct it.  Without a truncated
    # enumeration to make it Inconclusive, the search names the inclusion.
    reflection = "e(-1,0) * e(0,-1)"
    degree = lambda d: f"e(1,-1)^{d} * e(-1,1)^{d} * e(1,1)^2"
    bigger = scaled(om310, F(6, 5))
    cases = [(square_polygon(F(1, 2)), square_polygon(F(1, 2)), reflection, 2),
             (_polydisk(1, 2), _polydisk(2, 1), reflection, 2),
             (om310, om310, degree(3), 3), (om310, om310, degree(10), 3),
             (om310, bigger, degree(3), 3), (om310, bigger, degree(10), 3),
             (om310, bigger, degree(30), 3)]
    named = 0
    for source, target, alpha, limit in cases:
        report = obstruction_search(source, target, parse_orbit_set(alpha),
                                    vmax=limit, lmax=limit)
        assert report.status is SearchStatus.INCONCLUSIVE
        assert report.obstructed_a is None
        assert (report.reason is None) == report.bounds_used.enumeration_truncated
        named += report.reason is not None
    assert named == 5


_POLYGON_MAKERS = (make_monotone_polygon, make_weakly_convex_polygon,
                   lambda r: omega_a(F(r.randint(1, 11), 24)),
                   lambda r: square_polygon(F(r.randint(1, 8), 4)))


def test_search_never_obstructs_x_in_scaled_x():
    # X -> X, X -> (11/10) X and X -> 2 X are inclusions.  The large caps
    # of X -> 2 X give long slot enumerations, which a search must stop at
    # its witness to meet the deadline.
    rng = random.Random(2026)
    makers = _POLYGON_MAKERS
    searches = named = 0
    with deadline(30):
        for _ in range(120):
            dom = makers[rng.randrange(len(makers))](rng)
            alpha = make_orbit_set(rng, vmax=2, max_mult=2, elliptic_only=True,
                                   max_size=2)
            if orbit_invariants(alpha).index <= 0:
                continue
            for c in (F(1), F(11, 10), F(2)):
                report = obstruction_search(dom, scaled(dom, c), alpha, vmax=2, lmax=2)
                assert report.status is not SearchStatus.INFEASIBLE_WITHIN_BOUNDS
                searches += 1
                named += report.reason is not None
    assert searches >= 198 and named >= 10


# lambda E(1, a) embeds in lambda B(c) at each (a, c) here, by McDuff and
# Schlenk (Ann. of Math. 2012): c(4) = 2, and c(a) = sqrt(a) for a >= (17/6)^2.
KNOWN_EMBEDDINGS = [(4, F(21, 10)), (4, F(3)), (9, F(31, 10)), (16, F(41, 10)),
                    (25, F(51, 10))]


@pytest.mark.parametrize("lam", [F(1, 2), F(1), F(5)])
@pytest.mark.parametrize("a, c", KNOWN_EMBEDDINGS)
def test_search_never_obstructs_a_known_embedding(lam, a, c):
    # lam E(1,a) -> lam B(c), and at lam = 1 two pairs built from it by
    # inclusions: (9/10) E(1,a) -> B(c) and E(1,a) -> B(c + 1/10).
    pairs = [(lam, lam * c)]
    if lam == 1:
        pairs += [(F(9, 10), c), (F(1), c + F(1, 10))]
    for s, t in pairs:
        _check_known_embedding(Polygon2D(((s, 0), (0, a * s))), Polygon2D(((t, 0), (0, t))))


def _check_known_embedding(source, target):
    # Neither the ellipsoid nor its mirror lies in the ball, so the
    # inclusion check cannot decide the pair.  Every factor of both test
    # sets has target support 0 on a ball, and the search names it.  A
    # refused test set claims nothing.
    chain = source.vertices
    assert not any(all(map(target.contains, v)) for v in (chain, [p[::-1] for p in chain]))
    reasons = set()
    with deadline(10):
        for text in ("e(-1,0) * e(0,-1)", "e(-1,0)^2 * e(0,-1)^2"):
            for bound in (2, 3):
                try:
                    report = obstruction_search(source, target, parse_orbit_set(text),
                                                vmax=bound, lmax=bound)
                except InapplicableError:
                    continue
                assert report.status is not SearchStatus.INFEASIBLE_WITHIN_BOUNDS, (text, bound)
                reasons.add(report.reason)
    assert reasons == {"factor e(-1,0) of the test set has target support 0 <= 0, "
                       "so the model backs no claim"}, reasons
    # A capacity cannot shrink under an embedding: no lower end of the
    # source's brackets passes an upper end of the target's.  The c_N
    # lower end is c_L's, by the source c_L_below_c_N.
    x, y = capacity_report(source), capacity_report(target)
    assert "c_L_below_c_N" in x.sources
    for name in ("c_P", "c_N", "c_L", "c_B", "c_Z"):
        upper = getattr(y, name).upper
        assert upper is not None and getattr(x, name).lower <= upper, name


def test_search_returns_on_the_e14_sample():
    # E(1,4) -> B(3) with the 22 elliptic test sets of one or two distinct
    # orbits in the directions (1,0), (0,1), (1,1), (-1,0), (0,-1), (1,-1),
    # (-1,1) of positive index, and 128 seeded random ones, at vmax = lmax
    # = 2 and 3, must return: together they take about half a second on a
    # 2-vCPU machine.  A refused test set (index <= 0) claims nothing.
    directions = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)]
    sets = [CombOrbitSet(tuple((CombOrbit(v, 1), 1) for v in members))
            for size in (1, 2) for members in itertools.combinations(directions, size)]
    sets = [alpha for alpha in sets if orbit_invariants(alpha).index > 0]
    assert len(sets) == 22
    rng = random.Random(1)
    sets += [make_orbit_set(rng, vmax=2, elliptic_only=True) for _ in range(128)]
    source, target = Polygon2D(((1, 0), (0, 4))), Polygon2D(((3, 0), (0, 3)))
    statuses = Counter()
    with deadline(20):
        for bound in (2, 3):
            for alpha in sets:
                try:
                    report = obstruction_search(source, target, alpha, vmax=bound, lmax=bound)
                except InapplicableError:
                    statuses["refused"] += 1
                    continue
                statuses[report.status] += 1
                if report.witness is not None:
                    assert verify_witness(source, target, report.witness, alpha)
    assert statuses["refused"] < 100 and statuses[SearchStatus.FEASIBLE_WITNESS] >= 200


def _search_within(seconds, source, target, alpha):
    """The vmax = 1, lmax = 2 search, or None when it runs past ``seconds``.

    The search has no budget yet.  The property tests below count the
    searches that return, and their floors are every search they make.
    """
    try:
        with deadline(seconds):
            return obstruction_search(source, target, alpha, vmax=1, lmax=2)
    except DeadlinePassed:
        return None


def test_search_within_reads_a_late_alarm_as_past(monkeypatch, om310):
    # The alarm can land after the search returns but before the timer is
    # disarmed: the deadline exception then comes from the disarm itself.
    arm = signal.setitimer

    def disarm_late(which, seconds, interval=0.0):
        arm(which, seconds, interval)
        if seconds == 0:
            raise DeadlinePassed("landed while disarming")

    before = signal.getsignal(signal.SIGALRM)
    monkeypatch.setattr(signal, "setitimer", disarm_late)
    assert _search_within(30, om310, om310, parse_orbit_set("e(1,1)")) is None
    assert signal.getsignal(signal.SIGALRM) is before


def test_shrinking_the_source_keeps_a_witness():
    # Shrinking the source only lowers its supports and delta, and the pair
    # conditions do not read the source: every FeasibleWitness X -> Y stays
    # one from (9/10) X, (1/2) X and the inscribed square of X.
    rng = random.Random(2027)
    checks = 0
    for _ in range(120):
        x = _POLYGON_MAKERS[rng.randrange(len(_POLYGON_MAKERS))](rng)
        y = scaled(x, rng.choice((F(1), F(11, 10))))
        alpha = make_orbit_set(rng, vmax=2, max_mult=2, elliptic_only=True, max_size=2)
        if orbit_invariants(alpha).index <= 0:
            continue
        report = _search_within(0.5, x, y, alpha)
        if report is None or report.status is not SearchStatus.FEASIBLE_WITNESS:
            continue
        for smaller in (scaled(x, F(9, 10)), scaled(x, F(1, 2)),
                        square_polygon(cube_inclusion(x))):
            report = _search_within(0.5, smaller, y, alpha)
            if report is not None:
                assert report.status is SearchStatus.FEASIBLE_WITNESS, (smaller, y, alpha)
                checks += 1
    assert checks >= 90


def test_search_never_obstructs_a_general_inclusion():
    # X lies in Y: X is the inscribed square of Y, or another generated
    # polygon halved until its vertices lie in Y (so all of it does, as Y
    # is convex and holds the origin).
    rng = random.Random(2028)
    makers = (make_monotone_polygon, make_weakly_convex_polygon)
    checks = 0
    for _ in range(240):
        y = makers[rng.randrange(2)](rng)
        if rng.randrange(2):
            x = square_polygon(cube_inclusion(y))
        else:
            x = makers[rng.randrange(2)](rng)
            while not all(map(y.contains, x.vertices)):
                x = scaled(x, F(1, 2))
        alpha = make_orbit_set(rng, vmax=1, max_mult=2, elliptic_only=True, max_size=2)
        if orbit_invariants(alpha).index <= 0:
            continue
        report = _search_within(0.5, x, y, alpha)
        if report is not None:
            assert report.status is not SearchStatus.INFEASIBLE_WITHIN_BOUNDS, (x, y, alpha)
            checks += 1
    assert checks >= 159


def test_search_inconclusive_when_truncation_matters(om310):
    # Identity embedding with a multiplicity-2 test set: within these
    # bounds no matching decomposition exists, but enumeration ran with
    # an affordable tail excluded, so the honest answer is inconclusive.
    report = obstruction_search(om310, om310, parse_orbit_set("e(1,1)^2"),
                                vmax=2, lmax=2)
    assert report.status is SearchStatus.INCONCLUSIVE
    assert report.bounds_used.enumerations_run > 0
    assert report.bounds_used.enumeration_truncated


def test_search_randomized_witnesses_reverify():
    rng = random.Random(47)
    found = 0
    for _ in range(25):
        dom = rng.choice(
            [
                omega_a(F(rng.randint(1, 11), 24)),
                square_polygon(F(rng.randint(1, 4), 4)),
                Polygon2D(((F(rng.randint(1, 3)), F(0)),
                           (F(0), F(rng.randint(1, 3))))),
            ]
        )
        alpha = make_orbit_set(rng, vmax=1, max_mult=1, elliptic_only=True,
                               max_size=2)
        if orbit_invariants(alpha).index <= 0:
            continue
        report = obstruction_search(dom, dom, alpha, vmax=2, lmax=2)
        if report.status is SearchStatus.FEASIBLE_WITNESS:
            found += 1
            assert verify_witness(dom, dom, report.witness, alpha)
    assert found >= 3  # the identity embedding yields plenty of witnesses


def _rebuilds_alike(alpha):
    """Whether an orbit set, and each of its orbits, equals its rebuild
    through the public constructors, keys included."""
    return CombOrbitSet(alpha.factors) == alpha and all(
        CombOrbit(o.v, o.s) == o and o.key == (*o.v, o.s) for o, _ in alpha.factors
    )


def test_unchecked_builds_equal_their_checked_rebuilds():
    # The enumeration yields, and a search's witness holds, orbit sets and
    # orbits built without the constructors' checks; each is the value that
    # the constructors build from its factors, in their order.
    rng = random.Random(2040)
    makers = (lambda r: omega_a(F(r.randint(1, 11), 24)),
              lambda r: square_polygon(F(r.randint(1, 8), 4)),
              make_weakly_convex_polygon)
    yielded = witnesses = 0
    with deadline(30):
        for _ in range(150):
            dom = rng.choice(makers)(rng)
            cap = min(dom.vertices[0][0], dom.vertices[-1][1]) * F(rng.randint(8, 40), 8)
            floor = rng.choice((None, -1, 0, 1, 2))
            for alpha in enumerate_orbit_sets(dom, cap, rng.randint(0, 12), rng.randint(1, 3),
                                              min_count=floor):
                assert _rebuilds_alike(alpha), alpha
                yielded += 1
        for _ in range(150):
            dom = rng.choice(makers)(rng)
            alpha = make_orbit_set(rng, vmax=2, max_mult=2, elliptic_only=True, max_size=2)
            if orbit_invariants(alpha).index <= 0:
                continue
            witness = obstruction_search(dom, dom, alpha, rng.randint(1, 2), 2).witness
            if witness is not None:
                witnesses += 1
                for beta in (witness.alpha, *witness.alpha_factors, *witness.alpha_prime_factors):
                    assert _rebuilds_alike(beta), beta
    assert yielded >= 1000 and witnesses >= 30, (yielded, witnesses)


def test_a_search_leaves_no_reference_cycles(om310):
    # The enumeration's recursion and the factorization walk are
    # module-level generators handed their tables, so a search frees what
    # it built by reference counting alone and leaves the cyclic collector
    # nothing: a small search, a half-cube search and the two d = 3
    # inclusion searches.
    half, d3 = square_polygon(F(1, 2)), parse_orbit_set("e(1,-1)^3 * e(-1,1)^3 * e(1,1)^2")
    searches = [
        (om310, om310, parse_orbit_set("e(1,1) * e(0,1)"), 2, 2),
        (half, om310, parse_orbit_set("e(1,-1)^30 * e(-1,1)^30 * e(1,1)^2"), 3, 3),
        (half, half, d3, 3, 3),
        (square_polygon(F(2, 5)), om310, d3, 3, 3),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        statuses = [obstruction_search(*search).status.value for search in searches]
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert statuses == ["FeasibleWitness", "InfeasibleWithinBounds",
                        "FeasibleWitness", "FeasibleWitness"]


def test_verify_witness_rejects_tampering(om310):
    report = obstruction_search(om310, om310, parse_orbit_set("e(1,1)"),
                                vmax=3, lmax=3)
    witness = report.witness
    from toricap import SearchWitness

    bad = SearchWitness(
        alpha=parse_orbit_set("e(1,1)^2"),
        alpha_factors=witness.alpha_factors,
        alpha_prime_factors=witness.alpha_prime_factors,
    )
    assert not verify_witness(om310, om310, bad, parse_orbit_set("e(1,1)"))
    bad2 = SearchWitness(
        alpha=witness.alpha,
        alpha_factors=(parse_orbit_set("e(1,0)"),),
        alpha_prime_factors=witness.alpha_prime_factors,
    )
    assert not verify_witness(om310, om310, bad2, parse_orbit_set("e(1,1)"))
    # Each matched pair satisfies the comparison relation, but the full
    # products have index 10 on the source side and 8 on the target side.
    big = square_polygon(F(4))
    af = (parse_orbit_set("e(1,0)"), parse_orbit_set("e(0,1)^2"))
    pf = (parse_orbit_set("e(1,0)"), parse_orbit_set("e(1,1)"))
    assert all(leq_relation(om310, big, a, p).holds for a, p in zip(af, pf))
    bad3 = SearchWitness(alpha=af[0].product(af[1]), alpha_factors=af,
                         alpha_prime_factors=pf)
    assert not verify_witness(om310, big, bad3, pf[0].product(pf[1]))
    # A single matched pair of index 0: sub-product indices must be positive.
    e = parse_orbit_set("e(1,-1)")
    assert leq_relation(om310, big, e, e).holds
    bad4 = SearchWitness(alpha=e, alpha_factors=(e,), alpha_prime_factors=(e,))
    assert not verify_witness(om310, big, bad4, e)
    # Two source factors sharing a hyperbolic orbit multiply to no orbit set.
    h, e11 = parse_orbit_set("h(1,1)"), parse_orbit_set("e(1,1)")
    bad5 = SearchWitness(alpha=parse_orbit_set("e(1,1)^2"), alpha_factors=(h, h),
                         alpha_prime_factors=(e11, e11))
    assert not verify_witness(om310, om310, bad5, parse_orbit_set("e(1,1)^2"))
    # An empty witness against an empty test set: no factor to match.
    empty = SearchWitness(alpha=EMPTY_ORBIT_SET, alpha_factors=(), alpha_prime_factors=())
    assert not verify_witness(om310, om310, empty, EMPTY_ORBIT_SET)
    # e(1,1) <= e(1,1) from the square 4 into Omega_3/10 fails the action
    # inequality (ii), though every sub-product index matches.
    assert not leq_relation(big, om310, e11, e11).holds
    bad6 = SearchWitness(alpha=e11, alpha_factors=(e11,), alpha_prime_factors=(e11,))
    assert not verify_witness(big, om310, bad6, e11)
    # Equal factors sharing the elliptic orbit e(1,1), from Omega_3/10 into
    # the square 4, where every matched pair holds.
    e11_2 = parse_orbit_set("e(1,1)^2")
    assert leq_relation(om310, big, e11, e11).holds
    bad7 = SearchWitness(alpha=e11_2, alpha_factors=(e11, e11),
                         alpha_prime_factors=(e11, e11))
    assert not verify_witness(om310, big, bad7, e11_2)


NON_POLYGONS = {
    "standard": StandardDomain("cube", 2, F(1, 2)),
    "union": Rectilinear2D((Rect(F(0), F(1), F(0), F(1, 2)),
                            Rect(F(0), F(1, 2), F(0), F(1)))),
}

POLYGON_ONLY_CALLS = {
    "support": lambda d, p, a: support(d, (1, 1)),
    "action": lambda d, p, a: action(d, a),
    "leq_relation_source": lambda d, p, a: leq_relation(d, p, a, a),
    "leq_relation_target": lambda d, p, a: leq_relation(p, d, a, a),
    "candidate_orbits": lambda d, p, a: candidate_orbits(d, F(1), 2),
    "enumeration_truncated": lambda d, p, a: enumeration_truncated(d, F(1)),
    "enumerate_orbit_sets": lambda d, p, a: enumerate_orbit_sets(d, F(1), 2, 2),
    "cube_bound": lambda d, p, a: cube_bound(d),
    "finite_d_bound": lambda d, p, a: finite_d_bound(d, 30),
    "obstruction_search_source": lambda d, p, a: obstruction_search(d, p, a, 2, 2),
    "obstruction_search_target": lambda d, p, a: obstruction_search(p, d, a, 2, 2),
}


@pytest.mark.parametrize("kind", sorted(NON_POLYGONS))
@pytest.mark.parametrize("call", sorted(POLYGON_ONLY_CALLS))
def test_polygon_only_functions_refuse_other_kinds(om310, kind, call):
    # Each call succeeds with the polygon in place of the other domain.
    alpha = parse_orbit_set("e(1,1)")
    POLYGON_ONLY_CALLS[call](om310, om310, alpha)
    with pytest.raises(InapplicableError, match="polygon domains"):
        POLYGON_ONLY_CALLS[call](NON_POLYGONS[kind], om310, alpha)


E11 = parse_orbit_set("e(1,1)")

NON_ORBIT_SETS = {
    "str": "e(1,1)",
    "none": None,
    "int": 5,
    "orbit": CombOrbit((1, 1), 1),
    "pairs": ((CombOrbit((1, 1), 1), 1),),
}

# Each call with x in place of one of its orbit sets (of the witness, of a
# witness's orbit set or factor list in verify_witness, of the literal in
# parse_orbit_set), and the x it accepts.
ORBIT_SET_CALLS = {
    "orbit_invariants": (lambda d, x: orbit_invariants(x), E11),
    "cross_term_first": (lambda d, x: cross_term(x, E11), E11),
    "cross_term_second": (lambda d, x: cross_term(E11, x), E11),
    "action": (lambda d, x: action(d, x), E11),
    "format_orbit_set": (lambda d, x: format_orbit_set(x), E11),
    "leq_relation_source": (lambda d, x: leq_relation(d, d, x, E11), E11),
    "leq_relation_target": (lambda d, x: leq_relation(d, d, E11, x), E11),
    "obstruction_search": (lambda d, x: obstruction_search(d, d, x, 2, 2), E11),
    "verify_witness": (lambda d, x: verify_witness(d, d, x, E11),
                       ech.SearchWitness(E11, (E11,), (E11,))),
    "verify_witness_test_set": (
        lambda d, x: verify_witness(d, d, ech.SearchWitness(E11, (E11,), (E11,)), x), E11),
    "verify_witness_alpha": (
        lambda d, x: verify_witness(d, d, ech.SearchWitness(x, (E11,), (E11,)), E11), E11),
    "verify_witness_alpha_factor": (
        lambda d, x: verify_witness(d, d, ech.SearchWitness(E11, (x,), (E11,)), E11), E11),
    "verify_witness_alpha_prime_factor": (
        lambda d, x: verify_witness(d, d, ech.SearchWitness(E11, (E11,), (x,)), E11), E11),
    "verify_witness_alpha_factors": (
        lambda d, x: verify_witness(d, d, ech.SearchWitness(E11, x, (E11,)), E11), (E11,)),
    "verify_witness_alpha_prime_factors": (
        lambda d, x: verify_witness(d, d, ech.SearchWitness(E11, (E11,), x), E11), (E11,)),
    "product": (lambda d, x: E11.product(x), E11),
    "parse_orbit_set": (lambda d, x: parse_orbit_set(x), "e(1,1)"),
}


@pytest.mark.parametrize("call,kind", [
    (call, kind) for call in sorted(ORBIT_SET_CALLS) for kind in sorted(NON_ORBIT_SETS)
    # A literal is the one str that parse_orbit_set takes.
    if (call, kind) != ("parse_orbit_set", "str")
])
def test_orbit_set_functions_refuse_other_values(om310, call, kind):
    # Each call succeeds with the value it takes in place of the other value.
    run, accepted = ORBIT_SET_CALLS[call]
    run(om310, accepted)
    with pytest.raises(DomainError, match="expected a"):
        run(om310, NON_ORBIT_SETS[kind])


def test_search_rejects_split_with_unequal_subproduct_index():
    # The split e(0,1) * e(0,1) has source sets matching each slot, but
    # none whose product has the index of e(0,1)^2; the search must reject
    # them rather than return a witness that fails re-verification.
    dom = omega_a(F(1, 6))
    report = obstruction_search(dom, dom, parse_orbit_set("e(0,1)^2"), vmax=1, lmax=2)
    assert report.status is SearchStatus.INCONCLUSIVE
    assert report.bounds_used.factorizations_explored == 2


def test_search_drops_split_with_nonpositive_subproduct_index():
    # The third of the three factorizations, (e(1,0) * e(2,-1))^2 times
    # e(-1,0) * e(1,0), has the sub-product e(1,0)^2 * e(2,-1)^2 of index 0:
    # it is dropped before its slots are enumerated, which would run one
    # more enumeration.
    dom = square_polygon(F(1, 2))
    alpha = parse_orbit_set("e(2,-1)^2 * e(1,0)^3 * e(-1,0)")
    assert orbit_invariants(parse_orbit_set("e(1,0)^2 * e(2,-1)^2")).index == 0
    report = obstruction_search(dom, dom, alpha, vmax=1, lmax=3)
    assert report.status is SearchStatus.INCONCLUSIVE
    assert report.bounds_used.factorizations_explored == 3
    assert report.bounds_used.enumerations_run == 2


def test_lazy_matches_give_the_report_of_exhausted_slots(monkeypatch):
    # The search pulls a slot's matches only as far as its walk reads
    # them, and slots of one index, count floor and cap share one
    # enumeration.  With every enumeration run to the end into a list, as
    # before, each report is the same.  Every lazy search returns within
    # 1 s; an exhaustive one that runs past 0.05 s is left out.
    rng = random.Random(2029)
    cases = []
    while len(cases) < 120:
        x = _POLYGON_MAKERS[rng.randrange(len(_POLYGON_MAKERS))](rng)
        y = rng.choice((x, scaled(x, F(11, 10)), scaled(x, F(2)),
                        _POLYGON_MAKERS[rng.randrange(len(_POLYGON_MAKERS))](rng)))
        alpha = make_orbit_set(rng, vmax=2, max_mult=2, elliptic_only=True, max_size=3)
        if orbit_invariants(alpha).index > 0:
            cases.append((x, y, alpha, rng.randint(1, 2), rng.randint(1, 3)))

    def reports(seconds):
        out = []
        for x, y, alpha, vmax, lmax in cases:
            try:
                with deadline(seconds):
                    out.append(obstruction_search(x, y, alpha, vmax=vmax, lmax=lmax))
            except DeadlinePassed:
                out.append(None)
        return out

    lazy = reports(1)
    enumerate_all = ech._orbit_sets
    monkeypatch.setattr(ech, "_orbit_sets", lambda *args: iter(list(enumerate_all(*args))))
    compared = [(a, b) for a, b in zip(lazy, reports(0.05)) if a is not None and b is not None]
    assert all(a == b for a, b in compared)
    statuses = Counter(a.status for a, _ in compared)
    assert None not in lazy and len(compared) >= 80
    assert min(statuses[status] for status in SearchStatus) >= 5, statuses


def test_slots_sharing_one_enumeration_nest():
    # Two slots of e(0,1) share one enumeration, and the assignment walk
    # iterates it inside itself.  The emptiness test pulls one set, and
    # every walk reads the sets in the enumeration's order.
    square = square_polygon(F(1, 2))
    sets = list(enumerate_orbit_sets(square, F(2), 2, 2, min_count=1))
    pulled = []

    def enumeration():
        for alpha in sets:
            pulled.append(alpha)
            yield alpha

    matches = ech._Matches(enumeration())
    assert matches and len(pulled) == 1
    slots = ([matches, matches], [(1,), (1,)], [[0, 0], [0, 0]])
    first = next(ech._assignments(*slots))
    everything = list(ech._assignments([sets, sets], *slots[1:]))
    assert first == everything[0] and list(ech._assignments(*slots)) == everything
    assert pulled == sets and len(everything) >= 10
    assert [(a, b) for a in matches for b in matches] == list(itertools.product(sets, repeat=2))


def test_assignment_refuses_a_shared_hyperbolic_orbit():
    # Two slots of e(0,1), whose cross term is 0.  Each source set has the
    # slot's index 2 and meets its count floor 1, the pair's cross term is 0
    # and they share no elliptic orbit; but both hold h(-1,1), so their
    # product repeats a hyperbolic orbit and is no orbit set.
    slot = parse_orbit_set("e(0,1)")
    c = parse_orbit_set("h(-1,1) * e(-1,1)^2 * h(1,1)")
    a = parse_orbit_set("h(-1,1) * h(0,1) * e(0,1)")
    for s in (c, a):
        n = orbit_invariants(s)
        assert n.index == orbit_invariants(slot).index == 2
        assert 2 * (n.x + n.y) - n.h >= 2
    assert cross_term(c, a) == cross_term(slot, slot) == 0
    assert not ech._shares_orbits(c, a, s=1)
    with pytest.raises(DomainError, match="hyperbolic"):
        c.product(a)
    assert list(ech._assignments([[c], [a]], [(1,), (1,)], [[0, 0], [0, 0]])) == []


def _factor_counters_reference(source, target, alpha_prime):
    """Count every nonempty sub-product and those the action inequality prunes."""
    total = pruned = 0
    ranges = [range(m + 1) for _, m in alpha_prime.factors]
    for vec in itertools.product(*ranges):
        if not any(vec):
            continue
        total += 1
        sub = CombOrbitSet(
            tuple((o, c) for (o, _), c in zip(alpha_prime.factors, vec) if c)
        )
        n = orbit_invariants(sub)
        if n.index <= 0:
            continue
        if delta(source) * (n.x + n.y + n.m - 1) > action(target, sub):
            pruned += 1
    return total, pruned


def test_search_factor_counters_match_brute_loop(om310):
    rng = random.Random(61)
    cases = pruned_any = 0
    while cases < 40:
        source = make_weakly_convex_polygon(rng)
        target = rng.choice([source, om310, make_weakly_convex_polygon(rng)])
        alpha = make_orbit_set(rng, vmax=2, max_mult=4, elliptic_only=True,
                               max_size=3)
        if orbit_invariants(alpha).index <= 0:
            continue
        # The counters do not depend on the direction bounds; at the
        # smallest ones the enumeration that follows them stays small.
        report = obstruction_search(source, target, alpha, vmax=1, lmax=1)
        total, pruned = _factor_counters_reference(source, target, alpha)
        assert report.bounds_used.candidate_factors == total
        assert report.bounds_used.factors_pruned == pruned
        cases += 1
        pruned_any += pruned > 0
    assert pruned_any >= 5


def test_half_cube_search_cost_depends_on_size_not_degree(om310):
    # At d = 576 the test set has 998,786 nonempty sub-products, just under
    # the limit.  The row scan visits 3 * 577 rows and builds the 7 vectors
    # that survive, where one step per vector ran for seconds.
    alpha = parse_orbit_set("e(1,-1)^576 * e(-1,1)^576 * e(1,1)^2")
    with deadline(2):
        report = obstruction_search(square_polygon(F(1, 2)), om310, alpha, vmax=3, lmax=3)
    assert report.status is SearchStatus.INFEASIBLE_WITHIN_BOUNDS
    assert report.obstructed_a == F(1, 2)
    assert report.bounds_used.candidate_factors == 998_786
    assert report.bounds_used.factors_pruned == 124_749


def _sub_products_reference(box, linear, cross, weight, cost, radius):
    """One step per nonzero vector of the box, in ``itertools.product`` order."""
    candidates, pruned = [], 0
    for vec in itertools.product(*(range(m + 1) for m in box)):
        index = sum(map(mul, vec, linear)) + sum(
            ci * cj * cross[i][j] for i, ci in enumerate(vec) for j, cj in enumerate(vec)
        )
        if not any(vec) or index <= 0:
            continue
        count = sum(map(mul, vec, weight)) - 1
        cap = sum(map(mul, vec, cost))
        if radius * count > cap:
            pruned += 1
        else:
            candidates.append((vec, index, count, cap))
    candidates.sort(key=lambda c: (-sum(c[0]), c[0]))
    return candidates, pruned


def test_nonpositive_run_matches_brute_force():
    for a, b, c in itertools.product(range(1, 5), range(-12, 13), range(-12, 13)):
        lo, hi = ech._nonpositive_run(a, b, c)
        assert [t for t in range(-30, 31) if a * t * t + b * t + c <= 0] == list(
            range(lo, hi + 1)
        ), (a, b, c)


def test_row_scan_matches_per_vector_loop():
    # The scanned factor is the first of largest multiplicity; its x y
    # decides whether a row's positive-index values are a run or the
    # complement of one, and the sign of the row's slope which end of the
    # run the action test cuts.  The rows are walked along the largest
    # other factor j, whose steps move i1 by 2 cross[k][j] and bend the
    # index by cross[j][j]; a one-factor box has no such walk.
    rng = random.Random(83)
    sign = lambda v: (v > 0) - (v < 0)
    seen = Counter()
    for _ in range(2000):
        source, target = (_POLYGON_MAKERS[rng.randrange(len(_POLYGON_MAKERS))](rng)
                          for _ in range(2))
        orbits = sorted({make_orbit(rng, vmax=rng.choice((1, 3)), elliptic_only=True)
                         for _ in range(rng.randint(1, 4))}, key=lambda o: o.key)
        while True:
            box = tuple(rng.randint(1, rng.choice((2, 6, 40))) for _ in orbits)
            if math.prod(m + 1 for m in box) <= 300:
                break
        linear, cross = ech._index_form(orbits)
        weight = [o.v[0] + o.v[1] + 1 for o in orbits]
        _, scaled_values = over_common_denominator(
            [delta(source)] + [support(target, o.v) for o in orbits]
        )
        form = (box, linear, cross, weight, scaled_values[1:], scaled_values[0])
        candidates, pruned = ech._sub_product_candidates(*form)
        assert (candidates, pruned) == _sub_products_reference(*form), form
        k = box.index(max(box))
        free = [i for i in range(len(box)) if i != k]
        if free:
            j = max(free, key=box.__getitem__)
            seen["inner", box[j] >= 3 and cross[k][j] != 0] += 1
            seen["inner xy", sign(cross[j][j])] += 1
        else:
            seen["one factor"] += 1
        seen["xy", sign(cross[k][k])] += 1
        seen["slope", sign(form[5] * weight[k] - form[4][k])] += 1
        seen["pruned"] += pruned > 0
        seen["kept"] += bool(candidates)
    assert min(seen[key] for key in (("xy", -1), ("xy", 0), ("xy", 1), ("slope", -1),
                                      ("slope", 1), "pruned", "kept", "one factor",
                                      ("inner", True), ("inner xy", -1))) >= 200, seen
