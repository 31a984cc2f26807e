"""Command-line front end.

Subcommands: ``info``, ``report``, ``xa``, ``bound``, ``obstruct`` and
``amin``, read from one table (``_COMMANDS``) in one pass, without
``argparse``.  All numeric output is exact "p/q"; ``--decimal N`` adds
clearly-marked approximations to table output, and ``report`` and ``xa``
refuse it with ``--format csv`` or ``json``.  Each ``_cmd_*`` returns its
whole stdout text and exit status, and ``main`` writes the text once the
command has returned, so an error leaves stdout empty.  The exit status
is 0 on success or help, 1 for a refused computation (a precondition or
hypothesis does not hold, or the ``amin`` oracle disagrees) or for output
that cannot be written (a full device, a closed pipe or a closed stdout),
and 2 for an input or usage error; each failure prints one
machine-parsable ``error: ...`` line on stderr.  ``main`` returns the
status, never raising ``SystemExit``, and raises ``OSError`` when stdout
cannot take its output.  ``run``, the process entry of ``python -m
toricap`` and of the ``toricap`` script, turns that into ``error: cannot
write output: ...`` and, once ``main`` has returned, freezes the heap so
that the collections at interpreter exit skip it; ``main`` leaves the
garbage collector alone, since tests and the benchmark call it many times
in one process.

A CLI process starts with only the domain parser, the error types and
the rational helpers loaded; each ``_cmd_*`` imports the layers it runs
(``report``, ``xa`` and ``bound`` capacities, ``obstruct`` ech, ``amin``
lagrangian; ``info`` reads the domain's own members and imports none), so
no subcommand pays to load a layer that it does not use.  The parser
loads the rectangle-union kind only when it reads a union document.
"""

from __future__ import annotations

import errno
import gc
import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .domains import parse_domain
from .errors import DomainError, InapplicableError, ToricapError
from .rationals import format_rational, parse_rational

DEFAULT_BOUND_DEGREES = (3, 9, 30, 90, 300)
# Most fractional digits --decimal may ask for: the exact decimal expansion
# of a double has at most 1074 of them (the smallest subnormal, 2**-1074).
DECIMAL_LIMIT = 1074


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


# The rows as lines of left-aligned cells, two spaces apart.
def _columns(rows) -> str:
    rows = list(rows)
    widths = [max(map(len, column)) for column in zip(*rows)]
    return _lines("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows)


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
        with open(path, encoding="utf-8") as file:
            text = file.read()
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
    # The parser returns a checked domain, so its invariants are read as
    # members; a union off the diagonal refuses at ``delta``.
    domain = _load_domain(args.file)
    fields = {"kind": domain.kind, "n": domain.n, **domain.summary(),
              "monotone": domain.is_monotone,
              "delta": format_rational(domain.delta),
              "eta": format_rational(domain.eta)}
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
    from .capacities import CSV_COLUMNS, _csv_text, capacity_report, report_csv_row, report_to_dict

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
        rows.append([_fmt(c.a, dec), _fmt(r.delta, dec), _fmt(r.eta, dec),
                     _interval_cell(r.c_L, dec), _interval_cell(r.c_P, dec),
                     _interval_cell(r.c_N, dec), "pass" if c.passed else "FAIL"])
    return _columns(rows), 0


def _cmd_bound(args) -> tuple[str, int]:
    from .capacities import capacity_report
    from .geometry import cube_bound, finite_d_bound

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
    report = obstruction_search(source, target, parse_orbit_set(args.alpha),
                                vmax=args.vmax, lmax=args.lmax)
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
# Subcommand table, argument pass and entry point
# ---------------------------------------------------------------------------

# Each option maps its name to (kind, metavar, help, required).  The kind is
# str or int for one value, the last one given winning; [str] or [int] for a
# repeatable one, read as the list of its values; or a tuple of the values
# it accepts.  An option never given reads None.
_FORMAT = {"--format": (("table", "csv", "json"), "table|csv|json", "output format", False)}
_DECIMAL = {"--decimal": (int, "N", "also print N-digit decimal approximations", False)}
_FILE = (("file", "domain JSON file"),)

# Each subcommand: its handler, its help line, its positionals as
# (name, help) pairs, and its options.
_COMMANDS = {
    "info": (_cmd_info, "domain summary and validity predicates", _FILE, {}),
    "report": (_cmd_report, "full capacity report for a domain", _FILE, {**_FORMAT, **_DECIMAL}),
    "xa": (_cmd_xa, "closed-form checks for the pinched-corner family", (), {
        "--a": ([str], "P/Q", "family parameter (repeatable)", False),
        "--sweep": (str, "LO..HI:STEP", "rational sweep, with HI when a step lands on it", False),
        **_FORMAT, **_DECIMAL}),
    "bound": (_cmd_bound, "cube-capacity bounds from boundary slopes", _FILE, {
        "--d": ([int], "N", "degree for the finite-degree bound (repeatable)", False), **_DECIMAL}),
    "obstruct": (_cmd_obstruct, "bounded embedding-obstruction search", (), {
        "--source": (str, "FILE", "domain JSON file to embed", True),
        "--target": (str, "FILE", "domain JSON file to embed it into", True),
        "--alpha": (str, "ORBIT-EXPR", "test orbit set, e.g. 'e(1,-1)^30 * e(-1,1)^30'", True),
        "--vmax": (int, "N", "bound on orbit direction components", True),
        "--lmax": (int, "N", "bound on the number of factors", True)}),
    "amin": (_cmd_amin, "minimal torus-fiber area at a rational point", (), {
        "--x": (str, "P/Q,P/Q,...", "fiber position coordinates", True),
        "--brute": (int, "K", "also run the exhaustive oracle over [-K,K]^n", False), **_DECIMAL}),
}


# The synopsis of a subcommand, an optional option in brackets.
def _usage(name: str) -> str:
    _, _, positionals, options = _COMMANDS[name]
    words = [f"{o} {meta}" if required else f"[{o} {meta}]"
             for o, (_, meta, _, required) in options.items()]
    return " ".join(["toricap", name, *(p.upper() for p, _ in positionals), *words])


# The subcommands with their help lines, or the arguments of subcommand name;
# each row's empty first cell indents it by two spaces.
def _help(name: str | None = None) -> str:
    if name is None:
        return "usage: toricap COMMAND ARGS, or toricap COMMAND -h for its ARGS\n\n" + _columns(
            ("", command, about) for command, (_, about, *_) in _COMMANDS.items())
    _, about, positionals, options = _COMMANDS[name]
    rows = [*((p.upper(), text) for p, text in positionals),
            *((f"{o} {meta}", text) for o, (_, meta, text, _) in options.items()),
            ("-h, --help", "show this help")]
    return f"usage: {_usage(name)}\n\n{about}\n\n" + _columns(("", *row) for row in rows)


# (handler, args) for the subcommand that argv names, or (None, help text)
# when it asks for help; a usage error raises DomainError.  An option is
# "--name value" or "--name=value", its value the next token whatever it
# starts with, and a unique prefix of its name will do.  Positionals may
# come before or after the options, and every token after "--" is one.
def _parse(argv) -> tuple:
    if not argv or argv[0] in ("-h", "--help"):
        return None, _help()
    if argv[0] not in _COMMANDS:
        raise DomainError(f"expected a command ({', '.join(_COMMANDS)}), got {argv[0]!r}")
    name, tokens, given = argv[0], iter(argv[1:]), []
    handler, _, positionals, options = _COMMANDS[name]
    names, values = [*options, "-h", "--help"], dict.fromkeys(options)
    for token in tokens:
        if token == "--":
            given += tokens
            break
        if token[:1] != "-" or token == "-":
            given.append(token)
            continue
        key, eq, text = token.partition("=")
        hits = [key] if key in names else [o for o in names if o.startswith(key)]
        if len(hits) != 1:
            raise DomainError(f"{name}: {'ambiguous' if hits else 'unknown'} option {key}")
        if hits[0] in ("-h", "--help"):
            return None, _help(name)
        option, kind, text = hits[0], options[hits[0]][0], text if eq else next(tokens, None)
        if text is None:
            raise DomainError(f"{name} {option} needs a value")
        try:
            value = int(text) if kind in (int, [int]) else text
        except ValueError:
            raise DomainError(f"{name} {option} needs an integer, got {text!r}") from None
        if isinstance(kind, tuple) and value not in kind:
            raise DomainError(f"{name} {option} needs one of {', '.join(kind)}, got {text!r}")
        values[option] = [*(values[option] or ()), value] if isinstance(kind, list) else value
    if len(given) != len(positionals) or any(
            values[o] is None for o, (*_, required) in options.items() if required):
        raise DomainError(f"expected {_usage(name)}")
    decimal, fmt = values.get("--decimal"), values.get("--format")
    if decimal is not None and not 0 <= decimal <= DECIMAL_LIMIT:
        raise DomainError(f"--decimal needs 0 <= N <= {DECIMAL_LIMIT}, got {decimal}")
    # CSV and JSON cells stay exact, so they have no room for an approximation.
    if decimal is not None and fmt not in (None, "table"):
        raise DomainError(f"--decimal applies to table output only, not --format {fmt}")
    return handler, SimpleNamespace(**{o[2:]: value for o, value in values.items()},
                                    **{p: value for (p, _), value in zip(positionals, given)})


# Runs the subcommand that argv (default sys.argv[1:]) names and returns its
# exit status; help and usage errors return too, never raising SystemExit.
# Writing the output raises OSError when stdout cannot take it, and it leaves
# the garbage collector alone.
def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        output, status = handler(args) if handler else (args, 0)
    except ToricapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 1
    if sys.stdout is None:  # the process started with fd 1 closed
        raise OSError(errno.EBADF, "stdout is closed")
    sys.stdout.write(output)
    return status


# The process entry of `python -m toricap` and of the `toricap` script: runs
# main, flushes stdout, and turns output that cannot be written into one
# error line and exit status 1.  It then freezes the heap, so the collections
# at interpreter exit walk almost none of the process's objects; exit still
# runs atexit handlers and flushes stdio.
def run() -> int:
    try:
        status = main()
        if sys.stdout is not None:  # None only on a path that wrote nothing
            sys.stdout.flush()
    except OSError as exc:  # main raises it only from writing stdout
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        if sys.stdout is not None:
            # What stdout still holds goes nowhere at exit, so the final
            # flush prints no "Exception ignored" message.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        status = 1
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
