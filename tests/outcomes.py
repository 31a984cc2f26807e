"""The outcome corpus: one digest per document, rebuilt from fixed seeds.

Each line of ``tests/golden/outcomes.txt`` is ``<label> <digest>``, the
digest being the first 16 hex digits of the SHA-256 of a sorted JSON
record.  The documents, in file order:

* 400 domains from each generator of ``generators.py`` (staircase,
  touching union, monotone polygon, weakly convex polygon), each from its
  own fixed seed, as ``domain_to_dict`` writes them;
* the 199 Omega_{k/401}, k = 1..199;
* one single-point edit of each generated document: one number of it is
  replaced by a seeded rational, by "0" or by its own negation.

A document is read through ``parse_domain`` from its JSON text.  Its
record holds the canonical document and the sorted ``report_to_dict`` of
its ``capacity_report``, or the public error class and the message of
toricap's refusal; a document is always valid JSON, so no record holds
the JSON decoder's own wording, which varies between Python versions.  A polygon's record also
holds ``domain_contains`` and ``domain_on_boundary`` at its vertices and
edge midpoints and at their mirrors (x, y) -> (y, x), and ``support`` at
the eight directions with components in {-1, 0, 1}.

Then come fixed ``SearchReport``s: X -> X on Omega_{k/24} (k = 1..11) and
on the squares [0, k/4]^2 (k = 1..4) with every elliptic test set of one
or two orbits of positive index whose directions have components in
{-1, 0, 1}, at vmax = lmax = 2; the half cube -> Omega_{3/10} at degree
30; and the two degree-3 searches whose source lies in the target.

Regenerate the file with ``python tests/outcomes.py``, and say in the
change log why an outcome moved.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

if __name__ == "__main__":
    sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]

from toricap import (
    Polygon2D, ToricapError, capacity_report, domain_contains, domain_on_boundary,
    domain_to_dict, format_orbit_set, format_rational, obstruction_search, omega_a,
    parse_domain, parse_orbit_set, report_to_dict, square_polygon, support,
)

from generators import (
    make_monotone_polygon, make_staircase, make_touching_union,
    make_weakly_convex_polygon, random_fraction,
)

GOLDEN = Path(__file__).parent / "golden" / "outcomes.txt"

PER_GENERATOR = 400
GENERATORS = (
    ("staircase", make_staircase, 2601),
    ("touching", make_touching_union, 2602),
    ("monotone", make_monotone_polygon, 2603),
    ("convex", make_weakly_convex_polygon, 2604),
)
EDIT_SEED = 2699
DIRECTIONS = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if (x, y) != (0, 0)]
SMALL_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)]


def _digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _polygon_queries(dom: Polygon2D) -> dict:
    chain = dom.vertices
    points = list(chain) + [((ax + bx) / 2, (ay + by) / 2)
                            for (ax, ay), (bx, by) in zip(chain, chain[1:])]
    points += [(y, x) for x, y in points]
    return {
        "contains": [domain_contains(dom, p) for p in points],
        "on_boundary": [domain_on_boundary(dom, p) for p in points],
        "support": [format_rational(support(dom, v)) for v in DIRECTIONS],
    }


def document_record(doc: dict) -> dict:
    """The outcome of one decoded document, read from its JSON text."""
    try:
        dom = parse_domain(json.dumps(doc))
        record = {"domain": domain_to_dict(dom), "report": report_to_dict(capacity_report(dom))}
        if isinstance(dom, Polygon2D):
            record.update(_polygon_queries(dom))
    except ToricapError as exc:
        # The public class of ``toricap.errors`` that a caller catches; a
        # refused domain member raises a private subclass of it.
        public = next(c for c in type(exc).__mro__ if c.__module__ == "toricap.errors")
        record = {"refusal": [public.__name__, str(exc)]}
    return record


def _numbers(doc: dict) -> list:
    """The places of a document's numbers, as (container, key) pairs."""
    if "vertices" in doc:
        return [(v, j) for v in doc["vertices"] for j in (0, 1)]
    return [(r, k) for r in doc["rects"] for k in sorted(r)]


def edited(doc: dict, rng: random.Random) -> dict:
    """A copy of ``doc`` with one of its numbers replaced."""
    doc = json.loads(json.dumps(doc))
    place, key = rng.choice(_numbers(doc))
    old = place[key]
    place[key] = rng.choice((format_rational(random_fraction(rng, 12)), "0", f"-{old}"))
    return doc


def documents():
    """``(label, document)`` for every document of the corpus, in file order."""
    generated = []
    for name, make, seed in GENERATORS:
        rng = random.Random(seed)
        generated += [(f"{name}/{i}", domain_to_dict(make(rng))) for i in range(PER_GENERATOR)]
    yield from generated
    for k in range(1, 200):
        yield f"omega/{k}", domain_to_dict(omega_a(Fraction(k, 401)))
    rng = random.Random(EDIT_SEED)
    for label, doc in generated:
        yield f"{label}/edit", edited(doc, rng)


def _orbit_literal(dirs) -> str:
    return " * ".join(f"e({x},{y})" for x, y in dirs)


def _small_test_sets() -> list:
    """Elliptic test sets of one or two orbits over ``SMALL_DIRECTIONS`` with
    positive index."""
    sets = [[d] for d in SMALL_DIRECTIONS]
    sets += [[a, b] for i, a in enumerate(SMALL_DIRECTIONS) for b in SMALL_DIRECTIONS[i + 1:]]
    return [s for s in sets if sum(x + y + 1 for x, y in s)
            + sum(max(a[0] * b[1], b[0] * a[1]) for a in s for b in s) > 0]


def searches():
    """``(label, source, target, literal, vmax, lmax)`` for every search."""
    domains = [(f"omega_{k}/24", omega_a(Fraction(k, 24))) for k in range(1, 12)]
    domains += [(f"square_{k}/4", square_polygon(Fraction(k, 4))) for k in range(1, 5)]
    for name, dom in domains:
        for dirs in _small_test_sets():
            literal = _orbit_literal(dirs)
            yield f"search/{name}/{literal.replace(' ', '')}", dom, dom, literal, 2, 2
    half, omega = square_polygon(Fraction(1, 2)), omega_a(Fraction(3, 10))
    yield ("search/halfcube_d30", half, omega,
           "e(1,-1)^30 * e(-1,1)^30 * e(1,1)^2", 3, 3)
    degree_3 = "e(1,-1)^3 * e(-1,1)^3 * e(1,1)^2"
    yield "search/inclusion_d3/half", half, half, degree_3, 3, 3
    yield "search/inclusion_d3/square_2/5", square_polygon(Fraction(2, 5)), omega, degree_3, 3, 3


def search_record(source, target, literal, vmax, lmax) -> dict:
    rep = obstruction_search(source, target, parse_orbit_set(literal), vmax=vmax, lmax=lmax)
    b, w = rep.bounds_used, rep.witness
    return {
        "status": rep.status.value,
        "reason": rep.reason,
        "obstructed_a": None if rep.obstructed_a is None else format_rational(rep.obstructed_a),
        "bounds": [b.vmax, b.lmax, b.candidate_factors, b.factors_pruned,
                   b.factorizations_explored, b.enumerations_run, b.enumeration_truncated],
        "witness": None if w is None else [
            format_orbit_set(w.alpha),
            [format_orbit_set(f) for f in w.alpha_factors],
            [format_orbit_set(f) for f in w.alpha_prime_factors],
        ],
    }


def outcome_lines() -> list:
    """Every line of the corpus file, without line ends."""
    lines = [f"{label} {_digest(document_record(doc))}" for label, doc in documents()]
    lines += [f"{label} {_digest(search_record(*args))}" for label, *args in searches()]
    return lines


if __name__ == "__main__":
    GOLDEN.write_text("".join(line + "\n" for line in outcome_lines()))
