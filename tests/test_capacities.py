"""Report assembly, the pinched-corner family, and serialization."""

import csv
import io
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from toricap import (
    CLCertificate,
    CLRule,
    DomainError,
    Polygon2D,
    Rect,
    Rectilinear2D,
    StandardDomain,
    capacity_report,
    cube_inclusion,
    delta,
    eta,
    is_monotone,
    omega_a,
    report_to_dict,
    square_polygon,
    sweep_to_csv,
    verify_xa,
)
from toricap.capacities import (
    CSV_COLUMNS, SOURCES, _cl_cell, _csv_text, certificate_to_dict, report_csv_row,
)

from generators import (
    make_monotone_polygon,
    make_staircase,
    make_touching_union,
    make_weakly_convex_polygon,
    scaled,
)

README = Path(__file__).resolve().parents[1] / "README.md"

F = Fraction


def test_omega_a_chain():
    dom = omega_a(F(1, 4))
    assert dom.vertices == (
        (F(1, 2), F(0)), (F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)), (F(0), F(1, 2))
    )
    assert not is_monotone(omega_a(F(1, 5)))


def test_omega_a_range():
    with pytest.raises(DomainError):
        omega_a(F(1, 2))
    with pytest.raises(DomainError):
        omega_a(F(0))
    with pytest.raises(DomainError):
        omega_a(F(3, 5))


def test_report_examples():
    r = capacity_report(omega_a(F(1, 5)))
    assert r.c_P.exact and r.c_P.lower == F(1, 2)
    assert r.c_L.value == F(1, 2)
    assert r.c_N.exact and r.c_N.lower == F(1, 2)

    r = capacity_report(omega_a(F(3, 10)))
    assert r.c_P.exact and r.c_P.lower == F(2, 5)
    assert r.c_N.exact and r.c_N.lower == F(1, 2)
    assert not r.monotone

    for dom in (square_polygon(F(1)), StandardDomain("cube", 2, F(1))):
        r = capacity_report(dom)
        assert r.delta == r.eta == 1
        assert r.c_P.exact and r.c_P.lower == 1
        assert r.c_N.exact and r.c_N.lower == 1
        assert r.c_L.value == 1
        assert r.monotone


def test_report_nduc():
    r = capacity_report(StandardDomain("nduc", 2, F(7, 3)))
    assert r.monotone
    assert r.c_P.exact and r.c_P.lower == F(7, 3)
    assert r.c_N.exact and r.c_N.lower == F(7, 3)
    assert r.c_Z.upper is None  # no slab covers the union of cylinders


def test_inclusion_bracket_is_one_member_per_domain():
    # Each kind builds its trivial bracket once, and a report's c_B and
    # c_Z are that one Interval.
    rng = random.Random(59)
    expected = {
        StandardDomain("nduc", 3, F(2, 7)): (F(6, 7), None),
        StandardDomain("ball", 3, F(2, 7)): (F(2, 7), F(2, 7)),
        StandardDomain("cylinder", 2, F(2, 7)): (F(2, 7), F(2, 7)),
        StandardDomain("cube", 4, F(2, 7)): (F(2, 7), F(2, 7)),
        omega_a(F(3, 10)): (F(2, 5), F(7, 10)),
        Rectilinear2D((Rect(0, 3, 0, F(1, 2)), Rect(0, F(1, 3), 0, 2))): (F(1, 2), 2),
    }
    for dom, ends in expected.items():
        assert (dom.inclusion_bracket.lower, dom.inclusion_bracket.upper) == ends
    domains = [*expected, make_weakly_convex_polygon(rng), make_touching_union(rng)]
    for dom in domains:
        report = capacity_report(dom)
        assert report.c_B is report.c_Z is dom.inclusion_bracket
        assert capacity_report(dom).c_B is report.c_B


def test_report_interval_invariants():
    rng = random.Random(53)
    domains = [make_staircase(rng) for _ in range(10)]
    domains += [make_monotone_polygon(rng) for _ in range(10)]
    domains += [make_weakly_convex_polygon(rng) for _ in range(10)]
    domains += [omega_a(F(i, 20)) for i in range(1, 10)]
    domains.append(StandardDomain("ball", 3, F(2)))
    domains.append(StandardDomain("cylinder", 2, F(3, 7)))
    for dom in domains:
        r = capacity_report(dom)
        assert r.c_P.lower <= r.c_P.upper
        assert r.c_N.lower <= r.c_N.upper
        assert r.c_P.upper <= r.c_N.upper
        if r.c_L.value is not None:
            assert r.c_N.lower <= r.c_L.value <= r.c_N.upper
        if r.monotone:
            assert (
                r.delta == r.eta == r.c_P.lower == r.c_P.upper
                == r.c_N.lower == r.c_N.upper == r.c_L.value
            )


def test_monotone_collapse_on_staircases():
    rng = random.Random(59)
    for _ in range(25):
        dom = make_staircase(rng)
        r = capacity_report(dom)
        d = delta(dom)
        assert r.monotone
        assert {r.delta, r.eta, r.c_P.lower, r.c_P.upper,
                r.c_N.lower, r.c_N.upper, r.c_L.value} == {d}


def test_verify_xa_examples():
    assert verify_xa(F(1, 8)).passed
    assert verify_xa(F(1, 8)).expected_cp == F(1, 2)
    assert verify_xa(F(1, 3)).passed
    assert verify_xa(F(1, 3)).expected_cp == F(1, 3)
    assert verify_xa(F(9, 20)).passed
    assert verify_xa(F(9, 20)).expected_cp == F(1, 10)


def test_verify_xa_crossover_exact():
    check = verify_xa(F(1, 4))
    assert check.passed
    assert check.expected_cp == F(1, 2) == 1 - 2 * F(1, 4)


def test_lshape_lattice_witness_report():
    e = F(1, 2)
    dom = Rectilinear2D(
        (Rect(F(0), 2 * e, F(0), e), Rect(F(0), e, F(0), 2 * e))
    )
    r = capacity_report(dom)
    assert r.c_L.value == e
    assert r.c_L.rule is CLRule.LATTICE_WITNESS


@pytest.mark.parametrize("digits", [6, 12])
def test_thin_lshape_witness_cost_depends_on_grid_not_magnitude(monkeypatch, digits):
    t = F(1, 10**digits)
    arm_x, arm_y = F(4, 3), F(7, 5)
    dom = Rectilinear2D((Rect(F(0), arm_x, F(0), t), Rect(F(0), t, F(0), arm_y)))
    calls = []
    for name in ("contains", "on_boundary"):
        probe = getattr(Rectilinear2D, name)

        def counting(domain, p, probe=probe):
            calls.append(p)
            return probe(domain, p)

        monkeypatch.setattr(Rectilinear2D, name, counting)
    r = capacity_report(dom)
    assert r.delta == r.eta == t
    assert r.c_L.rule is CLRule.LATTICE_WITNESS
    assert r.c_L.value == t
    # The rightmost multiple of t on the top edge of the horizontal arm.
    k = (4 * 10**digits) // 3
    assert r.c_L.witness == (k * t, t)
    grid_lines = len({F(0), t, arm_x}) + len({F(0), t, arm_y})
    assert len(calls) <= 2 * grid_lines


def test_report_to_dict_shape():
    data = report_to_dict(capacity_report(omega_a(F(3, 10))))
    assert data["delta"] == "1/2"
    assert data["c_P"] == {"lower": "2/5", "upper": "2/5", "exact": True}
    assert data["c_L"]["rule"] == "EtaOnBoundary"
    assert data["c_L"]["witness"] == ["1/2", "1/2"]
    assert isinstance(data["notes"], list) and data["notes"]


def test_sweep_csv_columns():
    rows = [(a, capacity_report(omega_a(a))) for a in (F(1, 5), F(3, 10))]
    text = sweep_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "1/5,1/2,1/2,1/2,1/2,1/2,1/2,1/2,false"
    assert lines[2] == "3/10,1/2,1/2,1/2,2/5,2/5,1/2,1/2,false"


def test_unbounded_certificate_end_renders_alike():
    # An unbounded upper end is JSON null in every bracket, and the CSV
    # cell names it with the word the text report uses.
    cert = CLCertificate("1/2", None, CLRule.INTERVAL_ONLY, None)
    data = certificate_to_dict(cert)
    assert data["upper"] is None and data["lower"] == "1/2" and data["value"] is None
    assert _cl_cell(cert) == "1/2..unbounded"
    assert _cl_cell(CLCertificate("1/2", "3/4", CLRule.INTERVAL_ONLY, None)) == "1/2..3/4"
    nduc = report_to_dict(capacity_report(StandardDomain("nduc", 2, 1)))
    assert nduc["c_B"] == {"lower": "2", "upper": None, "exact": False}


def test_csv_rows_need_no_quoting():
    # Joining the cells gives what the csv module writes for them.
    rng = random.Random(61)
    domains = [make_weakly_convex_polygon(rng, max_den=10**9) for _ in range(20)]
    domains += [make_touching_union(rng) for _ in range(20)]
    domains += [StandardDomain(kind, 3, F(-7, -11)) for kind in ("ball", "nduc")]
    rows = [CSV_COLUMNS[1:], *(report_csv_row(capacity_report(d)) for d in domains)]
    rows.append(["1/2..unbounded", "-3/4", "true", "false", "0", "12", "1", "2"])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert _csv_text(rows) == buf.getvalue()


# ---------------------------------------------------------------------------
# the arguments behind the bracket ends
# ---------------------------------------------------------------------------

# The sources that may set each printed end of a report.
END_SOURCES = {
    "c_P lower": {"inscribed_cube"},
    "c_P upper": {"min_coordinate_region", "slope_bound"},
    "c_N lower": {"c_L_below_c_N"},
    "c_N upper": {"nduc_containment"},
    "c_L": {rule.value for rule in CLRule},
}


def test_each_end_has_one_source_from_the_table():
    assert all(SOURCES[name].startswith(end)
               for end, names in END_SOURCES.items() for name in names)
    rng = random.Random(2032)
    domains = [make_weakly_convex_polygon(rng) for _ in range(80)]
    # The first edge runs further than it climbs, so the slope bound does not apply.
    domains.append(Polygon2D(((1, 0), (2, F(1, 2)), (0, 2))))
    domains += [make_touching_union(rng) for _ in range(80)]
    domains += [make_staircase(rng) for _ in range(20)]
    domains += [StandardDomain(kind, n, F(3, 2))
                for kind in ("ball", "cylinder", "cube", "nduc") for n in (2, 3)]
    domains += [omega_a(F(k, 40)) for k in range(1, 20)]
    seen = set()
    for dom in domains:
        r = capacity_report(dom)
        assert set(r.sources) <= SOURCES.keys(), r.sources
        for end, names in END_SOURCES.items():
            assert sum(name in names for name in r.sources) == 1, (end, r.sources)
        assert r.notes == tuple(SOURCES[name] for name in r.sources)
        assert ("slope_bound" in r.sources) == (r.c_P.upper < r.eta), dom
        seen.update(r.sources)
    # No statement of the table goes unused.
    assert seen == SOURCES.keys(), SOURCES.keys() - seen


def test_readme_states_exactly_the_source_table():
    section = README.read_text().split("## Guarantees and their limits\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    stated = re.findall(r"^  - `([^`]+)`:", section, re.MULTILINE)
    assert len(stated) == len(set(stated))
    assert set(stated) == set(SOURCES.values())


# ---------------------------------------------------------------------------
# capacity axioms
# ---------------------------------------------------------------------------

CAPACITIES = ("c_P", "c_N", "c_L", "c_B", "c_Z")


def _staircase_in(rng, polygon):
    """An origin staircase, halved until every rectangle corner lies in the polygon.

    The polygon is convex, so it then holds every rectangle whole.
    """
    stairs = make_staircase(rng)
    while not all(polygon.contains(p) for r in stairs.rects
                  for p in ((r.x1, 0), (r.x1, r.y1), (0, r.y1))):
        stairs = scaled(stairs, F(1, 2))
    return stairs


def _polygon_in(rng, stairs):
    """A generated polygon, halved until its bounding box fits in one
    rectangle of the origin staircase.

    The rectangle holds the origin, so it then holds the polygon whole.
    """
    polygon = rng.choice((make_monotone_polygon, make_weakly_convex_polygon))(rng)
    r = rng.choice(stairs.rects)
    while not (max(x for x, _ in polygon.vertices) <= r.x1
               and max(y for _, y in polygon.vertices) <= r.y1):
        polygon = scaled(polygon, F(1, 2))
    return polygon


def _included_pairs(rng, count):
    """(X, Y) with X inside Y, across polygons, unions and standard domains."""
    pairs = []
    for _ in range(count):
        make = rng.choice((make_monotone_polygon, make_weakly_convex_polygon))
        polygon = make(rng)
        stairs = _staircase_in(rng, polygon)
        pairs.append((stairs, polygon))
        for x in (polygon, stairs):
            pairs += [(x, scaled(x, c)) for c in (F(1), F(11, 10), F(2))]
            side = cube_inclusion(x)
            pairs += [(square_polygon(side), x), (StandardDomain("cube", 2, side), x)]
            pairs.append((x, StandardDomain("nduc", 2, eta(x))))
        outer = make_staircase(rng)
        pairs.append((_polygon_in(rng, outer), outer))
    return pairs


def test_capacity_brackets_are_monotone_under_inclusion():
    # A capacity cannot shrink under inclusion: X inside Y forces
    # c(X) <= c(Y), so no lower end of X may pass an upper end of Y.
    rng = random.Random(2027)
    reports = {}

    def report(domain):
        if domain not in reports:
            reports[domain] = capacity_report(domain)
        return reports[domain]

    pairs = _included_pairs(rng, 120)
    compared = 0
    for x, y in pairs:
        for name in CAPACITIES:
            lower, upper = getattr(report(x), name).lower, getattr(report(y), name).upper
            if upper is not None:
                assert lower <= upper, (name, x, y)
                compared += 1
    assert len(pairs) >= 1500 and compared >= 6000


@pytest.mark.parametrize("domain", [square_polygon(1), StandardDomain("cube", 2, 1)]
                         + [StandardDomain("nduc", n, 1) for n in (2, 3, 5)])
def test_cube_normalized_brackets_pinch_at_one(domain):
    report = capacity_report(domain)
    for name in ("c_P", "c_N", "c_L"):
        bracket = getattr(report, name)
        assert bracket.lower == bracket.upper == 1


@pytest.mark.parametrize("domain", [Polygon2D(((F(1), F(0)), (F(0), F(1))))]
                         + [StandardDomain("ball", n, 1) for n in (2, 3, 5)])
def test_ball_normalized_brackets_hold_one(domain):
    report = capacity_report(domain)
    for bracket in (report.c_B, report.c_Z):
        assert bracket.lower <= 1 and (bracket.upper is None or 1 <= bracket.upper)


# Recorded floors: how many of seeds 0-399 give an exact c_P, c_N and c_L.
# A rise raises the floor; a correctness fix that un-pinches a value lowers
# it, with the reason recorded in CHANGES.md.
PINCHED_FLOORS = {
    make_weakly_convex_polygon: (160, 339, 339),
    make_touching_union: (186, 381, 381),
    make_monotone_polygon: (400, 400, 400),
    make_staircase: (400, 400, 400),
}


def test_pinched_bracket_floors():
    counts, floors = {}, {}
    for make, floor in PINCHED_FLOORS.items():
        pinched = [0, 0, 0]
        for seed in range(400):
            rep = capacity_report(make(random.Random(seed)))
            for k, bracket in enumerate((rep.c_P, rep.c_N, rep.c_L)):
                pinched[k] += bracket.exact
        counts[make.__name__], floors[make.__name__] = tuple(pinched), floor
    assert all(
        n >= f for name in counts for n, f in zip(counts[name], floors[name])
    ), (counts, floors)
