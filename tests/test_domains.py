"""Domain construction, validation, and the JSON round trip."""

import copy
import json
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from toricap import (
    CLCertificate,
    CLRule,
    CapacityReport,
    DomainError,
    InapplicableError,
    Interval,
    Polygon2D,
    Rect,
    Rectilinear2D,
    StandardDomain,
    a_min_brute,
    a_min_closed,
    CombOrbit,
    capacity_report,
    domain_to_dict,
    enumerate_orbit_sets,
    enumeration_truncated,
    is_weakly_convex,
    lagrangian_capacity,
    leq_relation,
    obstruction_search,
    omega_a,
    parse_domain,
    parse_orbit_set,
    parse_rational,
    report_to_dict,
    serialize_domain,
    square_polygon,
    verify_xa,
)

from toricap import domains
from toricap.ech import SearchBounds, candidate_orbits, orbit_invariants
from toricap.rationals import format_rational, over_common_denominator

from generators import (
    make_monotone_polygon,
    make_staircase,
    make_touching_union,
    make_weakly_convex_polygon,
)

# Every public entry point that takes a rational, as a call on the value
# under test, with valid values for it.  Each must coerce through
# parse_rational: the same value as an int, a Fraction or a "p/q" string
# gives equal results; a float, a bool or a decimal string is refused.
RATIONAL_ENTRY_POINTS = [
    (
        "StandardDomain",
        lambda v: StandardDomain("ball", 2, v),
        [Fraction(2), Fraction(7, 3)],
    ),
    ("Rect", lambda v: Rect(0, 1, 0, v), [Fraction(1), Fraction(1, 2)]),
    (
        "Polygon2D",
        lambda v: Polygon2D(((v, 0), (v, 1), (0, 2))),
        [Fraction(3), Fraction(5, 2)],
    ),
    ("square_polygon", square_polygon, [Fraction(1), Fraction(2, 7)]),
    ("omega_a", omega_a, [Fraction(3, 10)]),  # defined for 0 < a < 1/2 only
    ("verify_xa", verify_xa, [Fraction(1, 3)]),
    (
        "a_min_closed",
        lambda v: a_min_closed([v, Fraction(1, 3)]),
        [Fraction(2), Fraction(3, 4)],
    ),
    (
        "a_min_brute",
        lambda v: a_min_brute([v, Fraction(1, 3)], 6),
        [Fraction(2), Fraction(3, 4)],
    ),
    (
        "enumerate_orbit_sets",
        lambda v: list(enumerate_orbit_sets(square_polygon(1), v, 4, vmax=1)),
        [Fraction(2), Fraction(5, 2)],
    ),
    (
        "candidate_orbits",
        lambda v: candidate_orbits(square_polygon(1), v, 1),
        [Fraction(2), Fraction(5, 2)],
    ),
    (
        "enumeration_truncated",
        lambda v: enumeration_truncated(square_polygon(1), v),
        [Fraction(1), Fraction(1, 2)],
    ),
    ("Interval lower", lambda v: Interval(v, None), [Fraction(0), Fraction(1, 2)]),
    ("Interval upper", lambda v: Interval(0, v), [Fraction(1), Fraction(3, 2)]),
    (
        "CLCertificate",
        lambda v: CLCertificate(v, v, CLRule.MONOTONE_DIAGONAL, None),
        [Fraction(1), Fraction(3, 2)],
    ),
]


def _forms(value):
    forms = [value, f"{value.numerator}/{value.denominator}"]
    if value.denominator == 1:
        forms.append(value.numerator)
    return forms


def test_parse_cube():
    dom = parse_domain('{"kind":"cube","n":2,"a":"1"}')
    assert dom == StandardDomain("cube", 2, Fraction(1))


def test_parse_simplex_polygon():
    dom = parse_domain('{"kind":"polygon2d","vertices":[["1","0"],["0","1"]]}')
    assert isinstance(dom, Polygon2D)
    assert dom.vertices == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_parse_nonconvex_polygon_fails():
    with pytest.raises(DomainError, match="convex|y-axis"):
        parse_domain('{"kind":"polygon2d","vertices":[["1","0"],["0","1"],["1","1"]]}')


def test_parse_rejects_floats():
    with pytest.raises(DomainError):
        parse_domain('{"kind":"cube","n":2,"a":"0.5"}')
    for doc in (
        '{"kind":"cube","n":2,"a":0.5}',
        '{"kind":"cube","n":2,"a":true}',
        '{"kind":"cube","n":true,"a":"1"}',
        '{"kind":"polygon2d","vertices":[[1.0,0],[0,1]]}',
        '{"kind":"rectilinear2d","rects":[{"x0":0,"x1":1,"y0":0,"y1":"0.5"}]}',
    ):
        with pytest.raises(DomainError):
            parse_domain(doc)
    for name, call, _ in RATIONAL_ENTRY_POINTS:
        for bad in (0.5, 1.0, True, False, "0.5", "1e-1"):
            try:
                call(bad)
            except DomainError as exc:
                assert "not a rational" in str(exc), (name, bad, exc)
            else:
                pytest.fail(f"{name} accepted {bad!r}")


def test_integers_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    huge = "1" + "0" * limit
    for name, call, _ in RATIONAL_ENTRY_POINTS:
        for bad in (huge, f"1/{huge}"):
            with pytest.raises(DomainError, match=f"more than {limit} digits"):
                call(bad)
    with pytest.raises(DomainError, match=f"invalid JSON: a number has more than {limit}"):
        parse_domain('{"kind": "cube", "n": 2, "a": %s}' % huge)
    with pytest.raises(DomainError, match="nested too deeply"):
        parse_domain("[" * 100_000 + "]" * 100_000)
    # An exact result too long to print is refused, not a crash.
    value = Fraction(1, 10**limit)
    with pytest.raises(InapplicableError, match=f"more than {limit} digits"):
        format_rational(value)


def test_over_common_denominator():
    assert over_common_denominator([]) == (1, [])
    values = [Fraction(1, 6), Fraction(-3, 4), Fraction(5), Fraction(0)]
    q, scaled = over_common_denominator(values)
    assert q == 12 and scaled == [2, -9, 60, 0]
    assert all(type(n) is int for n in scaled)
    assert [Fraction(n, q) for n in scaled] == values


def test_parse_rejects_zero_size():
    with pytest.raises(DomainError, match="positive"):
        parse_domain('{"kind":"ball","n":2,"a":"0"}')


def test_parse_rejects_unknown_kind():
    with pytest.raises(DomainError, match="kind"):
        parse_domain('{"kind":"torus","n":2,"a":"1"}')


def test_parse_rejects_bad_json():
    with pytest.raises(DomainError, match="JSON"):
        parse_domain("{not json")


def test_parse_refuses_a_document_that_is_not_text():
    doc = '{"kind":"cube","n":2,"a":"1"}'
    for text in (doc, doc.encode(), bytearray(doc.encode())):
        assert parse_domain(text) == StandardDomain("cube", 2, Fraction(1))
    for bad in (None, 5, json.loads(doc), [doc]):
        with pytest.raises(DomainError, match="domain document must be text"):
            parse_domain(bad)


def test_polygon_invariants():
    with pytest.raises(DomainError, match="x-axis"):
        Polygon2D(((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))))
    with pytest.raises(DomainError, match="y-axis"):
        Polygon2D(((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))))
    with pytest.raises(DomainError, match="positive"):
        Polygon2D(
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1, 2)),
             (Fraction(0), Fraction(1)))
        )
    # A string vertex is not unpacked into its characters, nor a set vertex
    # in hash order.
    for bad in ("10", {Fraction(3, 2), Fraction(1, 2)}, frozenset({1, 2})):
        with pytest.raises(DomainError, match="coordinate pair"):
            Polygon2D(((2, 0), bad, (0, 2)))
    assert not is_weakly_convex(["10", (0, 1)])


def test_collinear_midpoints_removed():
    dom = Polygon2D(
        ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1, 2)),
         (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    )
    assert dom.vertices == square_polygon(Fraction(1)).vertices


def test_is_weakly_convex_examples():
    assert is_weakly_convex(
        [(Fraction(2, 5), 0), (Fraction(7, 10), Fraction(3, 10)),
         (Fraction(3, 10), Fraction(7, 10)), (0, Fraction(2, 5))]
    )
    assert not is_weakly_convex(
        [(1, 0), (Fraction(1, 2), Fraction(1, 2)), (2, 1), (0, 1)]
    )
    assert is_weakly_convex([(1, 0), (0, 1)])
    for bad in (5, None, "10", {(2, 0), (1, 1), (0, 2)}, frozenset({(1, 0), (0, 1)})):
        assert not is_weakly_convex(bad)
        with pytest.raises(DomainError, match="vertices must be a sequence"):
            Polygon2D(bad)


def test_rect_validation():
    with pytest.raises(DomainError, match="degenerate"):
        Rect(Fraction(1), Fraction(1), Fraction(0), Fraction(2))
    with pytest.raises(DomainError, match="quadrant"):
        Rect(Fraction(-1), Fraction(1), Fraction(0), Fraction(2))
    # The sign test reads each coordinate's numerator, in every form and slot.
    for bad in ("-1/3", "1/-3", Fraction(-1, 10**30), -2):
        for slot in range(4):
            corners = [0, 1, 0, 1]
            corners[slot] = bad
            with pytest.raises(DomainError) as refused:
                Rect(*corners)
            assert str(refused.value) == "rectangle must lie in the positive quadrant"
    assert Rect("-0", 1, "0/5", 1) == Rect(0, 1, 0, 1)
    r = Rect(0, 1, 0, "1/2")
    assert r == Rect(Fraction(0), Fraction(1), Fraction(0), Fraction(1, 2))
    assert all(type(c) is Fraction for c in (r.x0, r.x1, r.y0, r.y1))


DEGENERATE = "degenerate rectangle [{},{}]x[{},{}]"
QUADRANT = "rectangle must lie in the positive quadrant"
TINY = Fraction(1, 10**31)
# (corner as given, its value): equal values in several forms, and values
# that first differ past the 30th digit; then negatives in several forms.
RECT_CORNERS = [
    ("0", Fraction(0)), ("-0", Fraction(0)), (0, Fraction(0)), ("0/7", Fraction(0)),
    ("1/3", Fraction(1, 3)), ("2/6", Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 3)),
    (" 1/3 ", Fraction(1, 3)), ("1", Fraction(1)), (1, Fraction(1)), ("+1", Fraction(1)),
    (f"{10**31 + 1}/{10**31}", 1 + TINY), (f"{10**31 - 1}/{10**31}", 1 - TINY),
    (Fraction(1, 3) + TINY, Fraction(1, 3) + TINY), ("7", Fraction(7)),
]
NEGATIVE_CORNERS = [
    ("-1/3", Fraction(-1, 3)), ("1/-3", Fraction(-1, 3)), (-2, Fraction(-2)),
    (-TINY, -TINY), (f"-1/{10**31}", -TINY),
]


def test_rect_matches_fraction_oracle():
    rng = random.Random(89)
    outcomes = Counter()
    for _ in range(2000):
        drawn = [rng.choice(RECT_CORNERS) for _ in range(4)]
        if rng.random() < 0.3:
            drawn[rng.randrange(4)] = rng.choice(NEGATIVE_CORNERS)
        x0, x1, y0, y1 = values = [v for _, v in drawn]
        try:
            r = Rect(*(c for c, _ in drawn))
        except DomainError as exc:
            refusal = str(exc)
        else:
            refusal = None
        if any(v < 0 for v in values):
            assert refusal == QUADRANT, drawn
            outcomes["quadrant"] += 1
        elif not (x0 < x1 and y0 < y1):
            assert refusal == DEGENERATE.format(*values), drawn
            outcomes["degenerate"] += 1
        else:
            assert refusal is None, drawn
            assert [r.x0, r.x1, r.y0, r.y1] == values
            assert all(type(c) is Fraction for c in (r.x0, r.x1, r.y0, r.y1))
            outcomes["accepted"] += 1
    assert min(outcomes.values()) >= 200, outcomes


def test_parse_rational_integers():
    for text, value in (("7", 7), ("+7", 7), ("-0", 0), (" 12 ", 12), ("-3", -3)):
        parsed = parse_rational(text)
        assert type(parsed) is Fraction
        assert parsed == value and parsed.denominator == 1
    huge = "1" + "0" * sys.get_int_max_str_digits()
    for text in (huge, f" +{huge} "):
        with pytest.raises(DomainError, match="digits"):
            parse_rational(text)


def _corner_forms(value):
    """Strings and ints that parse to ``value``."""
    p, q = value.numerator, value.denominator
    forms = [f"{p}/{q}", f" {p}/{q} ", f"{2 * p}/{2 * q}"]
    if q == 1:
        forms += [str(p), p]
    if p == 0:
        forms += ["0", "0/5", "-0", 0]
    return forms


def test_from_dict_parses_each_corner_string_once():
    # Each document spells the corners of a union in mixed forms, repeating
    # strings; it builds the domain that independently parsed Rects build.
    rng = random.Random(97)
    repeated = 0
    for case in range(120):
        union = [make_staircase, make_touching_union][case % 2](rng)
        doc = {"kind": "rectilinear2d", "rects": [
            {k: rng.choice(_corner_forms(getattr(r, k))) for k in ("x0", "x1", "y0", "y1")}
            for r in union.rects
        ]}
        corners = [c for item in doc["rects"] for c in item.values() if type(c) is str]
        repeated += len(corners) - len(set(corners))
        built = Rectilinear2D.from_dict(doc)
        expected = Rectilinear2D(tuple(
            Rect(item["x0"], item["x1"], item["y0"], item["y1"]) for item in doc["rects"]
        ))
        assert built == expected == union
        assert hash(built) == hash(expected)
        assert built.to_dict() == expected.to_dict() == union.to_dict()
        assert parse_domain(json.dumps(doc)) == built
        assert (report_to_dict(capacity_report(built))
                == report_to_dict(capacity_report(expected)))
    assert repeated >= 200


@pytest.mark.parametrize("bad", [False, True, 0.0, 1.0, [0]])
@pytest.mark.parametrize("zero, one", [("0", "1"), (0, 1)])
def test_from_dict_refuses_non_strings_after_equal_values(bad, zero, one):
    # JSON false, 0.0 and [0] follow a corner 0, true and 1.0 a corner 1;
    # false == 0 == 0.0 as dict keys, and a float or bool is still refused.
    for slot in ("x0", "x1"):
        second = {"x0": zero, "x1": one, "y0": zero, "y1": "2", slot: bad}
        doc = {"kind": "rectilinear2d",
               "rects": [{"x0": zero, "x1": one, "y0": zero, "y1": one}, second]}
        with pytest.raises(DomainError, match="not a rational"):
            Rectilinear2D.from_dict(doc)
        with pytest.raises(DomainError, match="not a rational"):
            parse_domain(json.dumps(doc))


def test_from_dict_parse_count_on_a_staircase(monkeypatch):
    # A timing-free guard on the saving: one parse per distinct corner
    # string, however often the string repeats.
    steps = 32
    xs = [Fraction(k, 7) for k in range(1, steps + 1)]
    ys = [Fraction(k, 11) for k in range(steps, 0, -1)]
    doc = {"kind": "rectilinear2d", "rects": [
        {"x0": "0", "x1": format_rational(x), "y0": "0", "y1": format_rational(y)}
        for x, y in zip(xs, ys)
    ]}
    calls = Counter()
    parse = domains.parse_rational

    def counting(value):
        if isinstance(value, str):
            calls[value] += 1
        return parse(value)

    monkeypatch.setattr(domains, "parse_rational", counting)
    dom = Rectilinear2D.from_dict(doc)
    distinct = {c for item in doc["rects"] for c in item.values()}
    # "0", and "1" and "2" in both axes, repeat.
    assert len(dom.rects) == steps and len(distinct) == 2 * steps - 1
    assert calls == Counter(dict.fromkeys(distinct, 1))


def test_rectilinear_validation():
    r1 = Rect(Fraction(0), Fraction(1), Fraction(0), Fraction(1))
    r2 = Rect(Fraction(2), Fraction(3), Fraction(0), Fraction(1))
    with pytest.raises(DomainError, match="connected"):
        Rectilinear2D((r1, r2))
    r3 = Rect(Fraction(1), Fraction(2), Fraction(1), Fraction(2))
    with pytest.raises(DomainError, match="axis"):
        Rectilinear2D((r3,))
    touching = Rect(Fraction(1), Fraction(2), Fraction(0), Fraction(1))
    assert Rectilinear2D((r1, touching))
    for bad in (5, None, {r1: 1}, {r1}, frozenset({r1, touching})):
        with pytest.raises(DomainError, match="rects must be a sequence"):
            Rectilinear2D(bad)


def _oracle_connected(boxes) -> bool:
    """Brute connectivity of closed rectangles (x0, x1, y0, y1): every pair
    is tested for overlap in exact rationals, and a union-find merges the
    pairs that meet, edges and corners included."""
    parent = list(range(len(boxes)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, (ax0, ax1, ay0, ay1) in enumerate(boxes):
        for j, (bx0, bx1, by0, by1) in enumerate(boxes[:i]):
            if ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(len(boxes))}) == 1


# Few coordinates with mixed denominators, so rectangles often share grid
# lines and touch along them or at corners.
_COORDS = [Fraction(k, 4) for k in range(13)] + [Fraction(1, 3), Fraction(5, 3), Fraction(7, 6)]


def _random_boxes(rng) -> list:
    boxes = []
    for _ in range(rng.randint(1, 7)):
        x0, x1 = sorted(rng.sample(_COORDS, 2))
        y0, y1 = sorted(rng.sample(_COORDS, 2))
        boxes.append((x0, x1, y0, y1))
    return boxes


F0, F1, F2, F3 = (Fraction(k) for k in range(4))
HALF = Fraction(1, 2)
CONTACT_CASES = {
    "disjoint pair": [(F0, F1, F0, F1), (F2, F3, F0, F1)],
    "disjoint in y only": [(F0, F2, F0, F1), (F1, F3, F2, F3)],
    "edge contact": [(F0, F1, F0, F1), (F1, F2, F0, F1)],
    "corner contact": [(F0, F1, F0, F1), (F1, F2, F1, F2)],
    "meet only at a grid line": [(F0, F1, F0, F1), (F1, F2, HALF, F3)],
    "gap of one line": [(F0, F1, F0, F1), (F1 + HALF, F2, F0, F1)],
    "nested": [(F0, F3, F0, F3), (F1, F2, F1, F2)],
    "duplicate": [(F0, F1, F0, F1), (F0, F1, F0, F1)],
    "equal values from other forms": [(F0, F1, F0, HALF), (Fraction(2, 2), F2, Fraction(2, 4), F1)],
    # A long box joins two boxes the sweep meets far apart.
    "bridge": [(F2, F3, F2, F3), (F0, F1, F0, F1), (F0, F3, F1, F2)],
    "two components": [(F0, F1, F0, F1), (F1, F2, F1, F2), (F3, F3 + 1, F0, F1),
                       (F3 + 1, F3 + 2, F1, F2)],
}


def _check_against_oracle(boxes):
    rects = tuple(Rect(*b) for b in boxes)
    if not any(b[0] == 0 or b[2] == 0 for b in boxes):
        # Off-axis unions are refused for that first, connected or not.
        with pytest.raises(DomainError, match="axis"):
            Rectilinear2D(rects)
    elif _oracle_connected(boxes):
        assert Rectilinear2D(rects).rects == rects
    else:
        with pytest.raises(DomainError, match="not connected"):
            Rectilinear2D(rects)


@pytest.mark.parametrize("name", sorted(CONTACT_CASES))
def test_rectilinear_connectivity_contacts(name):
    boxes = CONTACT_CASES[name]
    _check_against_oracle(boxes)
    _check_against_oracle(boxes[::-1])
    # Mirrored in the diagonal, and lifted off both axes.
    _check_against_oracle([(y0, y1, x0, x1) for x0, x1, y0, y1 in boxes])
    _check_against_oracle([(x0 + 1, x1 + 1, y0 + 1, y1 + 1) for x0, x1, y0, y1 in boxes])


def test_rectilinear_connectivity_matches_brute_oracle():
    rng = random.Random(61)
    verdicts = set()
    for _ in range(600):
        boxes = _random_boxes(rng)
        _check_against_oracle(boxes)
        verdicts.add((any(b[0] == 0 or b[2] == 0 for b in boxes), _oracle_connected(boxes)))
    # Every branch ran: off-axis, connected and disconnected unions.
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}
    generated = [make_touching_union(rng) for _ in range(40)]
    generated += [make_staircase(rng) for _ in range(20)]
    for dom in generated:
        boxes = [(r.x0, r.x1, r.y0, r.y1) for r in dom.rects]
        assert _oracle_connected(boxes)
        _check_against_oracle(boxes)
        # Dropping a rectangle may disconnect the rest.
        if len(boxes) > 1:
            _check_against_oracle(boxes[1:])


def test_standard_domain_validation():
    with pytest.raises(DomainError):
        StandardDomain("ball", 0, Fraction(1))
    with pytest.raises(DomainError):
        StandardDomain("ball", 2, Fraction(-1))
    with pytest.raises(DomainError, match="dimension"):
        StandardDomain("ball", True, Fraction(1))
    dom = StandardDomain("ball", 2, "7/3")
    assert dom == StandardDomain("ball", 2, Fraction(7, 3)) and type(dom.a) is Fraction
    for name, call, values in RATIONAL_ENTRY_POINTS:
        for value in values:
            expected = call(value)
            for form in _forms(value):
                assert call(form) == expected, (name, form)


def test_round_trip_fixed_domains():
    rng = random.Random(7)
    domains = [
        StandardDomain("ball", 3, Fraction(7, 3)),
        StandardDomain("nduc", 2, Fraction(5)),
        square_polygon(Fraction(2, 7)),
        make_staircase(rng),
        make_monotone_polygon(rng),
        make_weakly_convex_polygon(rng),
    ]
    for dom in domains:
        assert parse_domain(serialize_domain(dom)) == dom


def test_round_trip_random_domains():
    rng = random.Random(123)
    for _ in range(50):
        dom = rng.choice(
            [make_staircase, make_monotone_polygon, make_weakly_convex_polygon]
        )(rng)
        text = serialize_domain(dom)
        again = parse_domain(text)
        assert again == dom
        assert serialize_domain(again) == text


def test_serialize_lowest_terms():
    dom = Polygon2D(((Fraction(2, 4), Fraction(0)), (Fraction(0), Fraction(6, 3))))
    data = domain_to_dict(dom)
    assert data["vertices"][0] == ["1/2", "0"]
    assert data["vertices"][1] == ["0", "2"]


_ORBIT_SET_REPR = "CombOrbitSet(factors=((CombOrbit(v=(1, 1), s=1), 1),))"
_WITNESS_REPR = (
    f"SearchWitness(alpha={_ORBIT_SET_REPR}, alpha_factors=({_ORBIT_SET_REPR},), "
    f"alpha_prime_factors=({_ORBIT_SET_REPR},))"
)
_BOUNDS_REPR = (
    "SearchBounds(vmax=2, lmax=2, candidate_factors=1, factors_pruned=0, "
    "factorizations_explored=1, enumerations_run=1, enumeration_truncated=True)"
)
# Square 1/2 -> Omega_3/10 with e(1,1), vmax = lmax = 2.
_SEARCH_REPR = (
    "SearchReport(status=<SearchStatus.FEASIBLE_WITNESS: 'FeasibleWitness'>, "
    f"witness={_WITNESS_REPR}, bounds_used={_BOUNDS_REPR}, obstructed_a=None, reason=None)"
)
_CUBE_REPORT_REPR = (
    "CapacityReport(delta=Fraction(1, 1), eta=Fraction(1, 1), "
    "c_L=CLCertificate(lower=Fraction(1, 1), upper=Fraction(1, 1), "
    "rule=<CLRule.MONOTONE_DIAGONAL: 'MonotoneDiagonal'>, "
    "witness=(Fraction(1, 1), Fraction(1, 1))), "
    "c_P=Interval(lower=Fraction(1, 1), upper=Fraction(1, 1)), "
    "c_N=Interval(lower=Fraction(1, 1), upper=Fraction(1, 1)), monotone=True, "
    "c_B=Interval(lower=Fraction(1, 1), upper=Fraction(1, 1)), "
    "c_Z=Interval(lower=Fraction(1, 1), upper=Fraction(1, 1)), "
    "notes=('c_P lower: inscribed cube (exact inclusion)', "
    "'c_P upper: containment in the min-coordinate region', "
    "'c_N upper: the domain fits the min-coordinate region at eta', "
    "'c_L: rule MonotoneDiagonal', "
    "'monotone domain: every cube-normalized capacity equals delta', "
    "'c_B/c_Z: trivial inclusion bracket only (not certified by this library)'))"
)


def _values_and_reprs():
    """One instance of each of the 15 value types, with its repr."""
    half = Fraction(1, 2)
    search = obstruction_search(square_polygon(half), omega_a(Fraction(3, 10)),
                                parse_orbit_set("e(1,1)"), vmax=2, lmax=2)
    xa = verify_xa(Fraction(1, 3))
    rect = Rect(0, 1, 0, "1/2")
    rect_repr = "Rect(x0=Fraction(0, 1), x1=Fraction(1, 1), y0=Fraction(0, 1), y1=Fraction(1, 2))"
    return [
        (Interval(half, None), "Interval(lower=Fraction(1, 2), upper=None)"),
        (lagrangian_capacity(square_polygon(half)),
         "CLCertificate(lower=Fraction(1, 2), upper=Fraction(1, 2), "
         "rule=<CLRule.MONOTONE_DIAGONAL: 'MonotoneDiagonal'>, "
         "witness=(Fraction(1, 2), Fraction(1, 2)))"),
        (StandardDomain("ball", 2, 1), "StandardDomain(kind='ball', n=2, a=Fraction(1, 1))"),
        (Polygon2D(((1, 0), (half, half), (0, 1))),
         "Polygon2D(vertices=((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1))))"),
        (rect, rect_repr),
        (Rectilinear2D((rect,)), f"Rectilinear2D(rects=({rect_repr},))"),
        (capacity_report(StandardDomain("cube", 2, 1)), _CUBE_REPORT_REPR),
        (xa, "XaCheck(a=Fraction(1, 3), passed=True, expected_cp=Fraction(1, 3), "
             f"expected_cl=Fraction(1, 2), expected_cn=Fraction(1, 2), report={xa.report!r})"),
        (CombOrbit((1, -1), 1), "CombOrbit(v=(1, -1), s=1)"),
        (parse_orbit_set("e(1,0)^2 * h(0,1)"),
         "CombOrbitSet(factors=((CombOrbit(v=(0, 1), s=0), 1), (CombOrbit(v=(1, 0), s=1), 2)))"),
        (orbit_invariants(parse_orbit_set("e(1,1)^2")),
         "OrbitNumbers(x=2, y=2, index=10, m=2, h=0)"),
        (leq_relation(square_polygon(half), omega_a(Fraction(3, 10)),
                      parse_orbit_set("e(1,1)"), parse_orbit_set("e(1,1)")),
         "LeqResult(holds=True, failed=None)"),
        (search.witness, _WITNESS_REPR),
        (search.bounds_used, _BOUNDS_REPR),
        (search, _SEARCH_REPR),
    ]


def test_value_types_keep_dataclass_semantics():
    pairs = _values_and_reprs()
    values = [value for value, _ in pairs]
    assert len({type(value) for value in values}) == 15
    for value, text in pairs:
        cls = type(value)
        assert repr(value) == text
        fields = {name: getattr(value, name) for name in cls._fields}
        assert hash(value) == hash(tuple(fields.values()))
        # Construction by name, and by position, gives an equal value.
        assert cls(**fields) == value == cls(*fields.values())
        assert value != object() and value != tuple(fields.values())
        first = cls._fields[0]
        with pytest.raises(TypeError):
            cls(**{name: v for name, v in fields.items() if name != first})
        with pytest.raises(TypeError):
            cls(**fields, unknown=1)
        for name in (first, "unknown"):
            with pytest.raises(AttributeError):
                setattr(value, name, fields[first])
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert getattr(value, first) is fields[first]
        for again in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                      copy.deepcopy(value)):
            assert type(again) is cls and again == value and hash(again) == hash(value)
            assert repr(again) == text
    # Equality holds only between instances of one class, even when one
    # class extends the other and the shared fields agree.
    for a in values:
        for b in values:
            assert (a == b) == (a is b)
    bracket = Interval(Fraction(1), Fraction(1))
    certificate = CLCertificate(Fraction(1), Fraction(1), CLRule.MONOTONE_DIAGONAL,
                                (Fraction(1), Fraction(1)))
    assert bracket != certificate and certificate != bracket
    assert bracket.__eq__(certificate) is NotImplemented
    assert CLCertificate._fields == ("lower", "upper", "rule", "witness")


def _random_rational(rng) -> Fraction:
    """A rational of either sign with a denominator of 1 to 12 digits."""
    digits = rng.randint(1, 12)
    den = rng.randrange(10 ** (digits - 1), 10**digits)
    return Fraction(rng.randint(-3 * den, 3 * den), den)


def test_interval_matches_fraction_oracle():
    # Equal ends, ends a hair apart, and ends drawn apart, each end given
    # as a Fraction, a "p/q" string or (for an integer) an int.
    rng = random.Random(61)
    outcomes = Counter()
    definite = [rule for rule in CLRule if rule is not CLRule.INTERVAL_ONLY]
    for _ in range(3000):
        lower = _random_rational(rng)
        upper = rng.choice([
            lower, lower + Fraction(1, 10**24), lower - Fraction(1, 10**24),
            _random_rational(rng), Fraction(rng.randint(-3, 3)), None,
        ])
        if rng.random() < 0.2:
            lower = Fraction(rng.randint(-3, 3))
        given = [rng.choice(_forms(v)) if v is not None else None for v in (lower, upper)]
        empty = upper is not None and lower > upper
        try:
            iv = Interval(*given)
        except ValueError as exc:
            assert empty and str(exc) == f"empty interval [{lower}, {upper}]", given
            outcomes["empty"] += 1
            continue
        assert not empty, given
        assert (iv.lower, iv.upper) == (lower, upper)
        assert type(iv.exact) is bool and iv.exact == (upper is not None and lower == upper)
        outcomes["exact" if iv.exact else "open" if upper is not None else "unbounded"] += 1
        # The flag sits beside the fields: a round trip keeps it, and it
        # takes no part in repr, equality or hashing.
        assert "exact" not in Interval._fields and "exact" not in repr(iv)
        for again in (pickle.loads(pickle.dumps(iv)), copy.copy(iv), copy.deepcopy(iv)):
            assert again.exact is iv.exact and again == iv and hash(again) == hash(iv)
        assert Interval(lower, upper) == iv and hash(Interval(lower, upper)) == hash(iv)
        # Only an IntervalOnly certificate may leave a gap.
        for rule in definite:
            if iv.exact:
                assert CLCertificate(*given, rule, (lower, lower)).exact
            else:
                with pytest.raises(ValueError, match="needs a pinched bracket"):
                    CLCertificate(*given, rule, (lower, lower))
        if upper is not None:
            cert = CLCertificate(*given, CLRule.INTERVAL_ONLY, None)
            assert cert.exact is iv.exact and cert.value is None
    assert min(outcomes.values()) >= 200, outcomes


def test_certificate_refuses_a_rule_that_is_not_a_member():
    # The member's name, None and other values, on a pinched and an open bracket.
    for rule in ("IntervalOnly", "MonotoneDiagonal", None, 3):
        for bracket in ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(2))):
            with pytest.raises(DomainError, match="rule must be a CLRule member"):
                CLCertificate(*bracket, rule, None)


def test_keyword_constructor_contract():
    rng = random.Random(67)
    report = capacity_report(omega_a(Fraction(3, 10)))
    bounds = SearchBounds(vmax=2, lmax=3, candidate_factors=5, factors_pruned=1,
                          factorizations_explored=4, enumerations_run=2,
                          enumeration_truncated=False)
    for value in (report, bounds):
        cls = type(value)
        fields = {name: getattr(value, name) for name in cls._fields}
        first, *rest = cls._fields
        ordered = cls(**fields)
        names = list(fields)
        for _ in range(5):
            rng.shuffle(names)
            shuffled = cls(**{name: fields[name] for name in names})
            for built in (ordered, shuffled, cls(*fields.values()),
                          cls(fields[first], **{n: fields[n] for n in rest})):
                assert built == value and hash(built) == hash(value)
                assert repr(built) == repr(value)
                assert vars(built) == fields
        # Unknown, missing and repeated arguments are refused, also when
        # the number of keywords is right.
        for args, kwargs in (
            ((), {**fields, "unknown": 1}),
            ((), {**{n: fields[n] for n in rest}, "unknown": 1}),
            ((), {n: fields[n] for n in rest}),
            ((), {n: fields[n] for n in cls._fields[:-1]}),
            ((fields[first],), fields),
            ((fields[first],), {first: fields[first], **{n: fields[n] for n in rest[:-1]}}),
            ((*fields.values(), fields[first]), {}),
        ):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
