"""Per-domain capacity reports and the pinched-corner polygon family.

``capacity_report`` aggregates the exact invariants into one auditable
record: the diagonal and min-coordinate radii, a Lagrangian-capacity
certificate, and cube and NDUC brackets whose ``sources`` name the argument
behind each bound; ``SOURCES`` states each in one line, and the notes are
those statements.  ``omega_a`` builds the one-parameter family of weakly
convex, non-monotone polygons on which the cube and NDUC capacities
separate, and ``verify_xa`` checks the family's closed forms end to end.
"""

from __future__ import annotations

from fractions import Fraction

from .domains import Polygon2D, ToricDomain
from .errors import DomainError, InapplicableError
from .geometry import cube_bound, cube_inclusion, delta, eta, is_monotone
from .lagrangian import CLCertificate, CLRule, lagrangian_capacity
from .rationals import Interval, Value, format_rational, parse_rational


# Every cube-normalized capacity lies between c_P, the smallest, and c_N,
# the largest.  Each argument behind a report's bounds, by name, with its
# one-line statement; a report's notes are these statements.
SOURCES = {
    "inscribed_cube": "c_P lower: inscribed cube (exact inclusion)",
    "slope_bound_inapplicable": "c_P upper: boundary-slope bound inapplicable; "
        "falling back to the min-coordinate radius",
    "min_coordinate_region": "c_P upper: containment in the min-coordinate region",
    "slope_bound": "c_P upper: boundary tangent-slope bound",
    "c_L_below_c_N": "c_N lower: the lower end of c_L, since c_L <= c_N",
    "nduc_containment": "c_N upper: the domain fits the min-coordinate region at eta",
    **{rule.value: f"c_L: rule {rule.value}" for rule in CLRule},
    "monotone": "monotone domain: every cube-normalized capacity equals delta",
    "trivial_bracket": "c_B/c_Z: trivial inclusion bracket only (not certified by this library)",
}


class CapacityReport(Value):
    delta: Fraction
    eta: Fraction
    c_L: CLCertificate
    c_P: Interval
    c_N: Interval
    monotone: bool
    c_B: Interval
    c_Z: Interval
    sources: tuple  # names in SOURCES, in note order

    @property
    def notes(self) -> tuple:
        return tuple(map(SOURCES.__getitem__, self.sources))


def omega_a(a: Fraction) -> Polygon2D:
    """Pinched-corner polygon with chain (1-2a,0), (1-a,a), (a,1-a), (0,1-2a).

    Defined for 0 < a < 1/2; weakly convex for every such a and monotone
    for none of them (the first boundary edge climbs to the right).
    """
    a = parse_rational(a)
    if not (0 < a < Fraction(1, 2)):
        raise DomainError(f"family parameter must satisfy 0 < a < 1/2, got {a}")
    return Polygon2D(
        (
            (1 - 2 * a, Fraction(0)),
            (1 - a, a),
            (a, 1 - a),
            (Fraction(0), 1 - 2 * a),
        )
    )


def capacity_report(domain: ToricDomain) -> CapacityReport:
    """Assemble every certified bound for one domain.

    The cube-capacity bracket combines the inscribed-cube size from
    below with the min-coordinate radius from above, tightened by the
    boundary-slope bound when its precondition holds.  The NDUC bracket
    runs from the Lagrangian lower bound to the min-coordinate radius.
    Only the names in ``sources`` are picked here; ``SOURCES`` words them.
    """
    d = delta(domain)
    e = eta(domain)
    mono = is_monotone(domain)
    cert = lagrangian_capacity(domain)
    sources = ["inscribed_cube"]
    cp_upper, cp_source = e, "min_coordinate_region"
    if isinstance(domain, Polygon2D):
        try:
            bound = cube_bound(domain)
            if bound < e:
                cp_upper, cp_source = bound, "slope_bound"
        except InapplicableError:
            sources.append("slope_bound_inapplicable")
    sources += [cp_source, "c_L_below_c_N", "nduc_containment", cert.rule.value]
    if mono:
        sources.append("monotone")
    sources.append("trivial_bracket")

    return CapacityReport(
        delta=d,
        eta=e,
        c_L=cert,
        c_P=Interval(cube_inclusion(domain), cp_upper),
        c_N=Interval(cert.lower, e),
        monotone=mono,
        c_B=domain.inclusion_bracket,
        c_Z=domain.inclusion_bracket,
        sources=tuple(sources),
    )


class XaCheck(Value):
    a: Fraction
    passed: bool
    expected_cp: Fraction
    expected_cl: Fraction
    expected_cn: Fraction
    report: CapacityReport


def verify_xa(a: Fraction) -> XaCheck:
    """Check the closed forms of the pinched-corner family at one parameter.

    The cube capacity must equal min(1 - 2a, 1/2) exactly, and both the
    Lagrangian and NDUC capacities must equal 1/2, with the cube and NDUC
    brackets pinched.
    """
    a = parse_rational(a)
    report = capacity_report(omega_a(a))
    expected_cp = min(1 - 2 * a, Fraction(1, 2))
    expected_cl = Fraction(1, 2)
    expected_cn = Fraction(1, 2)
    passed = (
        report.c_P.exact
        and report.c_P.lower == expected_cp
        and report.c_L.value == expected_cl
        and report.c_N.exact
        and report.c_N.lower == expected_cn
    )
    return XaCheck(
        a=a,
        passed=passed,
        expected_cp=expected_cp,
        expected_cl=expected_cl,
        expected_cn=expected_cn,
        report=report,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _ends(iv: Interval) -> tuple:
    """A bracket's ends as text, the upper one ``None`` when it is unbounded."""
    return format_rational(iv.lower), None if iv.upper is None else format_rational(iv.upper)


def _interval_to_dict(iv: Interval) -> dict:
    lower, upper = _ends(iv)
    return {"lower": lower, "upper": upper, "exact": iv.exact}


def certificate_to_dict(cert: CLCertificate) -> dict:
    # A definite certificate's value is its lower end.
    lower, upper = _ends(cert)
    return {
        "value": None if cert.value is None else lower,
        "rule": cert.rule.value,
        "witness": None
        if cert.witness is None
        else [format_rational(c) for c in cert.witness],
        "lower": lower,
        "upper": upper,
    }


def report_to_dict(report: CapacityReport) -> dict:
    return {
        "delta": format_rational(report.delta),
        "eta": format_rational(report.eta),
        "c_L": certificate_to_dict(report.c_L),
        "c_P": _interval_to_dict(report.c_P),
        "c_N": _interval_to_dict(report.c_N),
        "monotone": report.monotone,
        "c_B": _interval_to_dict(report.c_B),
        "c_Z": _interval_to_dict(report.c_Z),
        "notes": list(report.notes),
    }


CSV_COLUMNS = ("a", "delta", "eta", "cL", "cP_lo", "cP_hi", "cN_lo", "cN_hi", "monotone")


def _cl_cell(cert: CLCertificate) -> str:
    # A definite certificate's value is its lower end.
    lower, upper = _ends(cert)
    return lower if cert.value is not None else f"{lower}..{upper or 'unbounded'}"


def report_csv_row(report: CapacityReport) -> list:
    """The report's cells under ``CSV_COLUMNS[1:]``; a sweep adds the "a" cell."""
    return [
        format_rational(report.delta),
        format_rational(report.eta),
        _cl_cell(report.c_L),
        *_ends(report.c_P),
        *_ends(report.c_N),
        "true" if report.monotone else "false",
    ]


def _csv_text(rows) -> str:
    """CSV document, one newline-terminated line per row of cells.

    Every cell is a rational, a ``lo..hi`` bracket, ``true``/``false`` or a
    column name, so none holds a comma, a quote or a line break and no
    cell needs quoting.
    """
    return "".join(",".join(row) + "\n" for row in rows)


def sweep_to_csv(rows) -> str:
    """CSV document for (a, report) pairs using the documented columns."""
    return _csv_text([
        CSV_COLUMNS, *([format_rational(a), *report_csv_row(report)] for a, report in rows)
    ])
