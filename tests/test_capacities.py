"""Report assembly, the pinched-corner family, and serialization."""

import csv
import io
import json
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
    domain_contains,
    eta,
    is_monotone,
    omega_a,
    report_to_dict,
    square_polygon,
    sweep_to_csv,
    verify_xa,
)
from toricap import capacities
from toricap.capacities import (
    CSV_COLUMNS, SOURCES, _cl_cell, _csv_text, certificate_to_dict, report_csv_row,
)
from toricap.domains import STANDARD_KINDS
from toricap.rationals import Interval, format_rational

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
    # c_Z are that one Interval.  It is stored past the constructor's
    # checks, and keeps what the constructor keeps for its ends, ``exact``
    # included, which takes no part in equality.
    rng = random.Random(59)
    expected = {
        StandardDomain("nduc", 3, F(2, 7)): (F(6, 7), None),
        StandardDomain("ball", 3, F(2, 7)): (F(2, 7), F(2, 7)),
        StandardDomain("cylinder", 2, F(2, 7)): (F(2, 7), F(2, 7)),
        StandardDomain("cube", 4, F(2, 7)): (F(2, 7), F(2, 7)),
        omega_a(F(3, 10)): (F(2, 5), F(7, 10)),
        square_polygon(F(3, 4)): (F(3, 4), F(3, 4)),
        Rectilinear2D((Rect(0, 3, 0, F(1, 2)), Rect(0, F(1, 3), 0, 2))): (F(1, 2), 2),
        Rectilinear2D((Rect(0, F(3, 4), 0, F(3, 4)),)): (F(3, 4), F(3, 4)),
    }
    for dom, ends in expected.items():
        assert (dom.inclusion_bracket.lower, dom.inclusion_bracket.upper) == ends
    domains = [*expected, make_weakly_convex_polygon(rng), make_touching_union(rng)]
    domains += [make(rng) for make in (make_monotone_polygon, make_weakly_convex_polygon,
                                       make_staircase, make_touching_union) for _ in range(10)]
    for dom in domains:
        bracket = dom.inclusion_bracket
        assert vars(bracket) == vars(Interval(bracket.lower, bracket.upper))
        report = capacity_report(dom)
        assert report.c_B is report.c_Z is bracket
        assert capacity_report(dom).c_B is report.c_B
        # The serialized brackets are equal, but each is a dict of its own.
        data = report_to_dict(report)
        assert data["c_B"] == data["c_Z"] and data["c_B"] is not data["c_Z"]


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


# ROADMAP item 20: an open parallelogram p + A (0, s)^2 with A in GL(2, Z)
# inside the domain gives a polydisk P(s, s) in X_Omega, so c_P >= s.  Each
# row is a corner p, a basis (the columns of A) and a side s whose closed
# parallelogram lies in the domain; by convexity its corners decide that.
ITEM_20_ROWS = {
    "omega_2/5": (omega_a(F(2, 5)), (F(0), F(1, 10)), ((1, 0), (1, 1)), F(3, 10)),
    "strip": (Polygon2D((("1/10", "0"), ("2", "19/10"), ("19/10", "2"), ("0", "1/10"))),
              (F(1, 2), F(119, 200)), ((1, 0), (1, 1)), F(19, 100)),
    # The chain of ``make_weakly_convex_polygon`` at seed 92; c_P <= 7/20.
    "seed_92": (Polygon2D((("11/20", "0"), ("5/4", "7/5"), ("0", "3/20"))),
                (F(53, 50), F(6, 5)), ((-1, -2), (-1, -1)), F(2, 5)),
}
ITEM_20_REASON = ("ROADMAP item 20: the slope bound caps c_P below a unimodular "
                  "parallelogram that lies in the domain")


@pytest.mark.parametrize("row", sorted(ITEM_20_ROWS))
def test_item_20_parallelogram_lies_in_the_domain(row):
    dom, (px, py), ((ax, ay), (bx, by)), s = ITEM_20_ROWS[row]
    assert abs(ax * by - ay * bx) == 1
    for i, j in ((0, 0), (1, 0), (1, 1), (0, 1)):
        assert domain_contains(dom, (px + s * (i * ax + j * bx), py + s * (i * ay + j * by)))


@pytest.mark.parametrize("row", [
    pytest.param(row, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                              reason=ITEM_20_REASON))
    for row in sorted(ITEM_20_ROWS)
])
def test_item_20_cp_upper_end_covers_the_parallelogram(row):
    dom, _, _, s = ITEM_20_ROWS[row]
    assert capacity_report(dom).c_P.upper >= s


def test_readme_quick_start_runs_and_holds():
    """The quick-start block runs, and each commented line's value and claim hold."""
    section = README.read_text().split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    namespace.update(Fraction=Fraction, CLRule=CLRule)  # the names the comments use
    checked = 0
    for line in code.splitlines():
        expression, _, comment = line.partition("  # ")
        if not comment:
            continue
        # The comment's value runs up to its first ", " outside brackets;
        # a "claim: expression" after it must be true.
        depth, cut = 0, len(comment)
        for k, char in enumerate(comment):
            depth += (char in "([") - (char in ")]")
            if depth == 0 and comment.startswith(", ", k):
                cut = k
                break
        value, claim = comment[:cut], comment[cut + 2:]
        assert eval(expression, namespace) == eval(value, namespace), line
        if claim:
            assert eval(claim.split(": ", 1)[1], namespace) is True, line
        checked += 1
    assert checked == 4
    report = namespace["report"]
    assert report.c_P.lower == F(2, 5) and report.c_P.exact
    assert report.c_L.value == F(1, 2) and report.c_L.exact
    assert report.c_L.rule is CLRule.ETA_ON_BOUNDARY
    assert report.c_L.witness == (F(1, 2), F(1, 2))


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


def _reference_ends(iv) -> tuple:
    return format_rational(iv.lower), None if iv.upper is None else format_rational(iv.upper)


def _reference_dict(report) -> dict:
    """``report_to_dict`` with every end of every bracket formatted on its own."""
    def bracket(iv):
        lower, upper = _reference_ends(iv)
        return {"lower": lower, "upper": upper, "exact": iv.exact}

    cert = report.c_L
    lower, upper = _reference_ends(cert)
    return {
        "delta": format_rational(report.delta),
        "eta": format_rational(report.eta),
        "c_L": {
            "value": None if cert.value is None else format_rational(cert.value),
            "rule": cert.rule.value,
            "witness": None if cert.witness is None else list(map(format_rational, cert.witness)),
            "lower": lower,
            "upper": upper,
        },
        "c_P": bracket(report.c_P),
        "c_N": bracket(report.c_N),
        "monotone": report.monotone,
        "c_B": bracket(report.c_B),
        "c_Z": bracket(report.c_Z),
        "notes": list(report.notes),
    }


def _reference_row(report) -> list:
    cert = report.c_L
    lower, upper = _reference_ends(cert)
    cl = format_rational(cert.value) if cert.value is not None else (
        f"{lower}..{'unbounded' if upper is None else upper}")
    return [format_rational(report.delta), format_rational(report.eta), cl,
            *_reference_ends(report.c_P), *_reference_ends(report.c_N),
            str(report.monotone).lower()]


def test_serialization_matches_end_by_end_reference():
    rng = random.Random(3801)
    family = [(F(k, 401), omega_a(F(k, 401))) for k in range(1, 201)]
    domains = [make(rng) for make in (make_weakly_convex_polygon, make_monotone_polygon,
                                      make_staircase, make_touching_union) for _ in range(20)]
    domains += [make_weakly_convex_polygon(rng, max_den=10**9) for _ in range(10)]
    domains += [StandardDomain(kind, n, F(2, 7)) for kind in STANDARD_KINDS for n in (1, 3)]
    rows = family + [(F(i + 1, 7), dom) for i, dom in enumerate(domains)]
    reports = [(a, capacity_report(dom)) for a, dom in rows]
    for _, report in reports:
        data = report_to_dict(report)
        assert data == _reference_dict(report)
        assert json.dumps(data) == json.dumps(_reference_dict(report))
        assert report_csv_row(report) == _reference_row(report)
    assert sweep_to_csv(reports) == "".join(
        ",".join(row) + "\n"
        for row in [CSV_COLUMNS, *([format_rational(a), *_reference_row(r)] for a, r in reports)]
    )
    # Both kinds of bracket occur: pinched ones, formatted once, and open ones.
    assert {r.c_P.exact for _, r in reports} == {True, False}
    assert {r.c_L.value is None for _, r in reports} == {True, False}


def test_witness_reuses_the_lower_end_text(monkeypatch):
    # The EtaOnBoundary witness of Omega_{3/10} is (1/2, 1/2), the
    # certificate's pinched value: one format_rational call makes every
    # string of the certificate.
    cert = capacity_report(omega_a(F(3, 10))).c_L
    assert cert.rule is CLRule.ETA_ON_BOUNDARY and cert.witness == (cert.lower,) * 2
    calls = []

    def counting(value):
        calls.append(value)
        return format_rational(value)

    monkeypatch.setattr(capacities, "format_rational", counting)
    data = certificate_to_dict(cert)
    assert calls == [F(1, 2)]
    assert data == {"value": "1/2", "rule": "EtaOnBoundary", "witness": ["1/2", "1/2"],
                    "lower": "1/2", "upper": "1/2"}


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
