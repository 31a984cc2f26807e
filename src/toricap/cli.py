"""Command-line front end.

Subcommands: ``info``, ``report``, ``xa``, ``bound``, ``obstruct`` and
``amin``.  All numeric output is exact "p/q"; the ``--decimal N`` flag
adds clearly-marked approximations for human convenience.  Each
``_cmd_*`` returns its whole stdout text and exit status, and ``main``
writes the text once the command has returned, so an error leaves stdout
empty.  Exit status 0 means success, 1 a refused computation (a
precondition or hypothesis does not hold, or the ``amin`` oracle
disagrees), 2 an input error; failures print one machine-parsable
``error: ...`` line on stderr.

A CLI process starts with only the domain parser, the error types and
the rational helpers loaded; each ``_cmd_*`` imports the layers it runs
(``info`` geometry, ``report`` and ``xa`` capacities, ``bound``
capacities and ech, ``obstruct`` ech, ``amin`` lagrangian), so no
subcommand pays to load a layer that it does not use.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .domains import parse_domain
from .errors import DomainError, InapplicableError, ToricapError
from .rationals import format_rational, parse_rational

DEFAULT_BOUND_DEGREES = (3, 9, 30, 90, 300)
# Most fractional digits --decimal may ask for: the exact decimal expansion
# of a double has at most 1074 of them (the smallest subnormal, 2**-1074).
DECIMAL_LIMIT = 1074


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _fmt(value: Fraction, decimal: int | None) -> str:
    text = format_rational(value)
    if decimal is not None:
        try:
            approx = float(value)
        except OverflowError:
            raise InapplicableError(
                "--decimal cannot approximate a value this large; "
                "run without --decimal for the exact p/q"
            ) from None
        text += f" (~{approx:.{decimal}f})"
    return text


def _load_domain(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read domain file {path!r}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise DomainError(f"domain file {path!r} is not UTF-8: {exc.reason} "
                          f"at byte {exc.start}")
    return parse_domain(text)


SWEEP_LIMIT = 100_000  # most parameters one ``xa --sweep`` may expand to


def _parse_sweep(spec: str):
    try:
        bounds, step = spec.rsplit(":", 1)
        lo, hi = bounds.split("..", 1)
    except ValueError:
        raise DomainError(f"bad sweep {spec!r}, expected LO..HI:STEP")
    lo_f = parse_rational(lo)
    hi_f = parse_rational(hi)
    step_f = parse_rational(step)
    if step_f <= 0 or hi_f < lo_f:
        raise DomainError(f"bad sweep range {spec!r}")
    count = (hi_f - lo_f) // step_f + 1
    if count > SWEEP_LIMIT:
        raise DomainError(
            f"sweep {spec!r} has {count} points, more than the limit of {SWEEP_LIMIT}"
        )
    return [lo_f + k * step_f for k in range(count)]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_info(args) -> tuple[str, int]:
    from .geometry import delta, eta, is_monotone

    domain = _load_domain(args.file)
    fields = {"kind": domain.kind, "n": domain.n, **domain.summary(),
              "monotone": is_monotone(domain),
              "delta": format_rational(delta(domain)),
              "eta": format_rational(eta(domain))}
    return _lines(
        f"{key}: {str(value).lower() if isinstance(value, bool) else str(value)}"
        for key, value in fields.items()
    ), 0


def _interval_cell(iv, decimal) -> str:
    if iv.upper is None:
        return f"[{_fmt(iv.lower, decimal)}, unbounded)"
    if iv.exact:
        return _fmt(iv.lower, decimal)
    return f"[{_fmt(iv.lower, decimal)}, {_fmt(iv.upper, decimal)}]"


def _cmd_report(args) -> tuple[str, int]:
    from .capacities import (
        CSV_COLUMNS,
        _csv_text,
        capacity_report,
        report_csv_row,
        report_to_dict,
    )

    report = capacity_report(_load_domain(args.file))
    if args.format == "json":
        return json.dumps(report_to_dict(report), indent=2) + "\n", 0
    if args.format == "csv":
        # A single report has no family parameter: drop the "a" column.
        return _csv_text([CSV_COLUMNS[1:], report_csv_row(report)]), 0
    dec = args.decimal
    cert = report.c_L
    lines = [
        f"delta: {_fmt(report.delta, dec)}",
        f"eta: {_fmt(report.eta, dec)}",
        f"c_L: {_interval_cell(cert, dec)}  [{cert.rule.value}]",
    ]
    if cert.witness is not None:
        witness = ", ".join(format_rational(c) for c in cert.witness)
        lines.append(f"c_L witness: ({witness})")
    lines += [
        f"c_P: {_interval_cell(report.c_P, dec)}",
        f"c_N: {_interval_cell(report.c_N, dec)}",
        f"monotone: {str(report.monotone).lower()}",
        f"c_B: {_interval_cell(report.c_B, dec)}",
        f"c_Z: {_interval_cell(report.c_Z, dec)}",
    ]
    lines += [f"note: {note}" for note in report.notes]
    return _lines(lines), 0


def _cmd_xa(args) -> tuple[str, int]:
    from .capacities import report_to_dict, sweep_to_csv, verify_xa

    values = [parse_rational(a) for a in args.a or []]
    if args.sweep:
        values.extend(_parse_sweep(args.sweep))
    if not values:
        raise DomainError("xa needs --a P/Q (repeatable) and/or --sweep LO..HI:STEP")
    values = sorted(set(values))
    checks = [verify_xa(a) for a in values]
    if args.format == "csv":
        return sweep_to_csv((c.a, c.report) for c in checks), 0
    if args.format == "json":
        payload = [
            {
                "a": format_rational(c.a),
                "pass": c.passed,
                "expected": {
                    "c_P": format_rational(c.expected_cp),
                    "c_L": format_rational(c.expected_cl),
                    "c_N": format_rational(c.expected_cn),
                },
                "report": report_to_dict(c.report),
            }
            for c in checks
        ]
        return json.dumps(payload, indent=2) + "\n", 0
    dec = args.decimal
    header = ["a", "delta", "eta", "c_L", "c_P", "c_N", "check"]
    rows = [header]
    for c in checks:
        r = c.report
        rows.append(
            [
                _fmt(c.a, dec),
                _fmt(r.delta, dec),
                _fmt(r.eta, dec),
                _interval_cell(r.c_L, dec),
                _interval_cell(r.c_P, dec),
                _interval_cell(r.c_N, dec),
                "pass" if c.passed else "FAIL",
            ]
        )
    widths = [max(map(len, column)) for column in zip(*rows)]
    return _lines(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows
    ), 0


def _cmd_bound(args) -> tuple[str, int]:
    from .capacities import capacity_report
    from .ech import finite_d_bound
    from .geometry import cube_bound

    domain = _load_domain(args.file)
    dec = args.decimal
    bound = cube_bound(domain)
    lines = [f"cube bound: {_fmt(bound, dec)}"]
    for d in args.d or DEFAULT_BOUND_DEGREES:
        lines.append(f"d={d}: {_fmt(finite_d_bound(domain, d), dec)}")
    report = capacity_report(domain)
    if report.c_P.exact and report.c_P.lower < bound:
        lines.append(
            f"note: not tight; exact cube capacity is "
            f"{_fmt(report.c_P.lower, dec)}"
        )
    return _lines(lines), 0


def _cmd_obstruct(args) -> tuple[str, int]:
    from .ech import format_orbit_set, obstruction_search, parse_orbit_set

    source = _load_domain(args.source)
    target = _load_domain(args.target)
    report = obstruction_search(
        source,
        target,
        parse_orbit_set(args.alpha),
        vmax=args.vmax,
        lmax=args.lmax,
    )
    lines = [f"status: {report.status.value}"]
    w = report.witness
    if w is not None:
        lines.append(f"alpha: {format_orbit_set(w.alpha)}")
        lines += [
            f"factor {i}: {format_orbit_set(af)}  <=  {format_orbit_set(pf)}"
            for i, (af, pf) in enumerate(zip(w.alpha_factors, w.alpha_prime_factors), 1)
        ]
    if report.obstructed_a is not None:
        lines.append(f"obstructed cube size: {format_rational(report.obstructed_a)}")
    if report.reason is not None:
        lines.append(f"reason: {report.reason}")
    b = report.bounds_used
    lines += [
        f"bounds: vmax={b.vmax} lmax={b.lmax}",
        "search: "
        f"candidate_factors={b.candidate_factors} pruned={b.factors_pruned} "
        f"factorizations={b.factorizations_explored} "
        f"enumerations={b.enumerations_run} "
        f"truncated={str(b.enumeration_truncated).lower()}",
    ]
    return _lines(lines), 0


def _cmd_amin(args) -> tuple[str, int]:
    from .lagrangian import a_min_brute, a_min_closed

    if not args.x.strip():
        raise DomainError("amin needs --x 'P/Q,P/Q,...'")
    items = args.x.split(",")
    # Dropping an empty item would answer for a point of lower dimension.
    if any(not c.strip() for c in items):
        raise DomainError("amin --x has an empty coordinate; give --x 'P/Q,P/Q,...'")
    coords = [parse_rational(c) for c in items]
    dec = args.decimal
    closed = a_min_closed(coords)
    lines = [f"closed: {_fmt(closed, dec)}"]
    agree = True
    if args.brute is not None:
        brute = a_min_brute(coords, args.brute)
        agree = brute == closed
        lines.append(f"brute (K={args.brute}): {_fmt(brute, dec)}")
        lines.append("agree" if agree else "DISAGREE")
    return _lines(lines), (0 if agree else 1)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricap",
        description=(
            "Exact symplectic-capacity invariants of toric domains: "
            "diagonal and min-coordinate radii, Lagrangian-capacity "
            "certificates, cube-capacity bounds, and combinatorial "
            "embedding obstructions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options shared by several subcommands, each defined once.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("table", "csv", "json"), default="table")
    decimal = argparse.ArgumentParser(add_help=False)
    decimal.add_argument("--decimal", type=int, metavar="N", default=None,
                         help="also print N-digit decimal approximations")

    p = sub.add_parser("info", help="domain summary and validity predicates")
    p.add_argument("file", help="domain JSON file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("report", parents=[fmt, decimal],
                       help="full capacity report for a domain")
    p.add_argument("file", help="domain JSON file")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("xa", parents=[fmt, decimal],
                       help="closed-form checks for the pinched-corner family")
    p.add_argument("--a", action="append", metavar="P/Q",
                   help="family parameter (repeatable)")
    p.add_argument("--sweep", metavar="LO..HI:STEP",
                   help="rational sweep, inclusive of HI when the step lands on it")
    p.set_defaults(func=_cmd_xa)

    p = sub.add_parser("bound", parents=[decimal],
                       help="cube-capacity bounds from boundary slopes")
    p.add_argument("file", help="domain JSON file (polygon)")
    p.add_argument("--d", action="append", type=int, metavar="N",
                   help="degree for the finite-degree bound (repeatable)")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("obstruct", help="bounded embedding-obstruction search")
    p.add_argument("--source", required=True, metavar="FILE")
    p.add_argument("--target", required=True, metavar="FILE")
    p.add_argument("--alpha", required=True, metavar="ORBIT-EXPR",
                   help="test orbit set, e.g. 'e(1,-1)^30 * e(-1,1)^30 * e(1,1)^2'")
    p.add_argument("--vmax", required=True, type=int,
                   help="bound on orbit direction components")
    p.add_argument("--lmax", required=True, type=int,
                   help="bound on the number of factors")
    p.set_defaults(func=_cmd_obstruct)

    p = sub.add_parser("amin", parents=[decimal],
                       help="minimal torus-fiber area at a rational point")
    p.add_argument("--x", required=True, metavar="P/Q,P/Q,...",
                   help="fiber position coordinates")
    p.add_argument("--brute", type=int, metavar="K", default=None,
                   help="also run the exhaustive oracle over [-K,K]^n")
    p.set_defaults(func=_cmd_amin)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        decimal = getattr(args, "decimal", None)
        if decimal is not None and not 0 <= decimal <= DECIMAL_LIMIT:
            raise DomainError(
                f"--decimal needs 0 <= N <= {DECIMAL_LIMIT}, got {decimal}"
            )
        output, status = args.func(args)
    except ToricapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 1
    sys.stdout.write(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
