"""Combinatorial orbit-set engine for embedding obstructions.

A combinatorial orbit is a primitive integer direction ``v`` (with at
least one nonnegative component) plus an elliptic/hyperbolic marker
``s`` in {1, 0}; an orbit set is a finite formal product of distinct
orbits with positive multiplicities (multiplicity 1 whenever s = 0).
Five integer invariants are attached to an orbit set, and a rational
action is attached relative to a weakly convex polygon: the
multiplicity-weighted sum of the support values of the directions over
the boundary chain.  Every function here that takes a domain refuses any
other kind of domain with ``InapplicableError``, and every one that takes
an orbit set, a witness (down to its factor lists) or an orbit-set literal
refuses a value of another type with ``DomainError`` (``_require``).

On top of these the module provides:

* ``leq_relation`` -- the three-condition comparison (index equality,
  action inequality, and the writhe-type count inequality) that an
  embedding forces on matched orbit-set factors;
* ``enumerate_orbit_sets`` and ``obstruction_search`` -- a bounded
  feasibility search for the factor decompositions that an embedding
  would have to admit, returning a verifiable witness, a within-bounds
  exhaustion certificate, or an inconclusive report when truncation
  could have hidden a witness or the source fits in the target.

The search runs on integer multiplicity vectors over a fixed list of
orbits (the factors of the test set, or the candidate orbits of an
enumeration).  Supports are computed once per list and scaled to
integers, together with the action cap or the source diagonal radius,
over one common denominator, so action is an integer dot product.  The
index of a vector ``c`` is the linear plus quadratic form
``sum_i c_i (x_i + y_i + s_i) + sum_i sum_j c_i c_j max(x_i y_j, x_j y_i)``.
``CombOrbitSet`` objects and ``Fraction`` values are built only for the
vectors that pass every integer test, so the cost of a search does not
grow with the denominators.  The sub-products of the test set are scanned
a row at a time: along one factor's multiplicity the index is a quadratic
and the action test linear, so each row's survivors are read off in
closed form, and that phase costs one step per row plus one per survivor,
not one per vector of the box.  A slot's enumeration reads only the
affordable directions off the source lattice, and branches only on the
multiplicities that its count cut on (iii) leaves open.  It has no index
bound, but the search runs it only as far as its witness walk reads.

A search slot decides each condition of ``leq_relation`` once, in its
enumeration: the index target is (i), the action cap (ii), and the count
floor ``x + y - h/2 >= x' + y' + m' - 1`` (iii).  ``verify_witness`` is
the independent replay of a witness, from the invariants of each
factor and of each sub-product of two or more factors.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from operator import mul

from .domains import Polygon2D, _require_polygon
from .errors import DomainError, InapplicableError
from .geometry import delta
from .rationals import (
    Value, as_items, as_pair, is_count, is_integer, parse_rational,
)


_POLYGON_ONLY = "orbit-set actions are defined on polygon domains"


def _require(kind: type, *values) -> None:
    """``DomainError`` unless every value is a ``kind``."""
    for value in values:
        if not isinstance(value, kind):
            raise DomainError(f"expected a {kind.__name__}, got {value!r}")


# ---------------------------------------------------------------------------
# Orbits and orbit sets
# ---------------------------------------------------------------------------

class CombOrbit(Value):
    """Primitive direction (x, y) with elliptic marker s = 1 or hyperbolic s = 0.

    The constructor keeps ``key``, the tuple ``(x, y, s)`` that orders the
    factors of an orbit set, in the instance ``__dict__`` beside the
    fields, so it takes no part in equality, hashing or ``repr``.
    """

    v: tuple
    s: int

    def __init__(self, v, s):
        refusal = "orbit direction must be an integer pair, got {!r}"
        x, y = as_pair(v, DomainError, refusal)
        if not (is_integer(x) and is_integer(y)):
            raise DomainError(refusal.format(v))
        if (x, y) == (0, 0):
            raise DomainError("orbit direction must be nonzero")
        if math.gcd(abs(x), abs(y)) != 1:
            raise DomainError(f"orbit direction {v} is not primitive")
        if x < 0 and y < 0:
            raise DomainError(
                f"orbit direction {v} must have a nonnegative component"
            )
        if not is_integer(s) or s not in (0, 1):
            raise DomainError(f"orbit marker must be 0 or 1, got {s!r}")
        self.__dict__.update(v=(x, y), s=s, key=(x, y, s))


def _by_key(factor):
    return factor[0].key


_HYPERBOLIC_ONCE = "hyperbolic (s = 0) orbits must have multiplicity 1"


class CombOrbitSet(Value):
    """Formal product of distinct orbits with multiplicities, canonically sorted.

    The factors are sorted by their orbits' ``key``, so a repeated orbit
    shows as two equal neighbours; no orbit is hashed.
    """

    factors: tuple  # of (CombOrbit, multiplicity)

    def __init__(self, factors):
        refusal = "factors must pair a CombOrbit with a multiplicity, got {!r}"
        items = as_items(factors, DomainError, refusal)
        factors = [as_pair(f, DomainError, refusal) for f in items]
        for f in factors:
            if not isinstance(f[0], CombOrbit):
                raise DomainError(refusal.format(f))
        factors.sort(key=_by_key)
        previous = None
        for orbit, m in factors:
            if not is_count(m):
                raise DomainError(f"multiplicity must be an integer >= 1, got {m!r}")
            if orbit.s == 0 and m != 1:
                raise DomainError(_HYPERBOLIC_ONCE)
            if orbit.key == previous:
                raise DomainError(f"repeated orbit {orbit} in orbit set")
            previous = orbit.key
        self.__dict__.update(factors=tuple(factors))

    def __bool__(self):
        return bool(self.factors)

    def orbits(self):
        return tuple(o for o, _ in self.factors)

    def product(self, other: "CombOrbitSet") -> "CombOrbitSet":
        """Formal product: multiplicities of shared orbits add.

        An empty operand gives the other one back; otherwise this is
        ``_product_all`` of the two.
        """
        _require(CombOrbitSet, other)
        if not other.factors:
            return self
        if not self.factors:
            return other
        return _product_all((self, other))


class OrbitNumbers(Value):
    x: int
    y: int
    index: int
    m: int
    h: int


def orbit_invariants(alpha: CombOrbitSet) -> OrbitNumbers:
    """The five integers attached to an orbit set.

    ``index`` is x + y + the double sum over ordered factor pairs
    (including i = j) of m_i m_j max(x_i y_j, x_j y_i), plus the sum of
    s_i m_i.  ``h`` counts hyperbolic factors.  One pass over the factors
    adds each factor's terms, its pairs with the factors before it counted
    twice.
    """
    _require(CombOrbitSet, alpha)
    x = y = index = m = h = 0
    before = []  # (x_j, y_j, m_j) of the factors already passed
    for orbit, c in alpha.factors:
        vx, vy, s = orbit.key
        cross = 0
        for wx, wy, cw in before:
            a, b = vx * wy, wx * vy
            cross += cw * (a if a > b else b)
        index += c * (vx + vy + s + c * vx * vy + 2 * cross)
        x, y, m, h = x + c * vx, y + c * vy, m + c, h + 1 - s
        before.append((vx, vy, c))
    return OrbitNumbers(x=x, y=y, index=index, m=m, h=h)


def cross_term(alpha: CombOrbitSet, beta: CombOrbitSet) -> int:
    """Sum over pairs (i in alpha, j in beta) of m_i m_j max(x_i y_j, x_j y_i).

    The index of any formal product satisfies
    I(a * b) = I(a) + I(b) + 2 * cross_term(a, b).
    """
    _require(CombOrbitSet, alpha, beta)
    total = 0
    for o1, m1 in alpha.factors:
        for o2, m2 in beta.factors:
            total += m1 * m2 * max(o1.v[0] * o2.v[1], o2.v[0] * o1.v[1])
    return total


def action(domain: Polygon2D, alpha: CombOrbitSet) -> Fraction:
    """Multiplicity-weighted sum of support values of the orbit directions.

    The supports are summed as integers on the polygon's lattice, and the
    sum is divided by the lattice's q once.
    """
    _require_polygon(_POLYGON_ONLY, domain)
    _require(CombOrbitSet, alpha)
    q, tops = domain._supports(o.v for o, _ in alpha.factors)
    return Fraction(sum(map(mul, tops, (m for _, m in alpha.factors))), q)


# ---------------------------------------------------------------------------
# Orbit-set literals
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(
    r"^\s*([eh])\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*(?:\^\s*(-?\d+)\s*)?$"
)


def parse_orbit_set(text: str) -> CombOrbitSet:
    """Parse literals like ``e(1,-1)^3 * e(-1,1)^3 * e(1,1)^2`` or ``h(1,0)``."""
    _require(str, text)
    parts = text.split("*")
    factors = []
    seen = set()
    for part in parts:
        m = _FACTOR_RE.match(part)
        if not m:
            raise DomainError(f"bad orbit factor: {part.strip()!r}")
        marker, xs, ys, ms = m.groups()
        s = 1 if marker == "e" else 0
        try:
            mult, x, y = (int(t) for t in (ms or "1", xs, ys))
        except ValueError:
            raise DomainError(
                f"orbit factor {part.strip()[:12]}... has an integer of more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
        if mult < 1:
            raise DomainError(f"multiplicity must be >= 1 in {part.strip()!r}")
        orbit = CombOrbit((x, y), s)
        if orbit in seen:
            raise DomainError(f"duplicate orbit in literal: {part.strip()!r}")
        seen.add(orbit)
        factors.append((orbit, mult))
    return CombOrbitSet(tuple(factors))


def format_orbit_set(alpha: CombOrbitSet) -> str:
    _require(CombOrbitSet, alpha)
    if not alpha.factors:
        return "1"
    parts = []
    for o, m in alpha.factors:
        head = ("e" if o.s == 1 else "h") + f"({o.v[0]},{o.v[1]})"
        parts.append(head + (f"^{m}" if m > 1 else ""))
    return " * ".join(parts)


# ---------------------------------------------------------------------------
# Factor comparison and closed-form bounds
# ---------------------------------------------------------------------------

class LeqResult(Value):
    holds: bool
    failed: str | None  # "i" | "ii" | "iii" when not holding


def leq_relation(
    source: Polygon2D,
    target: Polygon2D,
    alpha: CombOrbitSet,
    alpha_prime: CombOrbitSet,
) -> LeqResult:
    """The three-condition comparison forced on matched factors.

    (i) equal index; (ii) source action <= target action; (iii)
    x + y - h/2 on the source side at least x' + y' + m' - 1 on the
    target side, decided in integers as 2(x + y) - h against
    2(x' + y' + m' - 1).
    """
    _require_polygon(_POLYGON_ONLY, source, target)
    _require(CombOrbitSet, alpha, alpha_prime)
    failed = _leq_failure(source, target, alpha, alpha_prime,
                          orbit_invariants(alpha), orbit_invariants(alpha_prime))
    return LeqResult(holds=failed is None, failed=failed)


def _leq_failure(source, target, alpha, alpha_prime, a, b) -> str | None:
    """The first condition of ``leq_relation`` that fails, given the
    invariants ``a`` of ``alpha`` and ``b`` of ``alpha_prime``; else None."""
    if a.index != b.index:
        return "i"
    if action(source, alpha) > action(target, alpha_prime):
        return "ii"
    if 2 * (a.x + a.y) - a.h < 2 * (b.x + b.y + b.m - 1):
        return "iii"
    return None


# ---------------------------------------------------------------------------
# Bounded enumeration of orbit sets
# ---------------------------------------------------------------------------

def _candidates(domain: Polygon2D, action_cap: Fraction, vmax: int) -> tuple:
    """``(scale, budget, table)``: the candidates ``(x, y, s, cost)`` of
    support ``cost / scale`` under the cap ``budget / scale``, in the
    canonical orbit order (sorted directions, hyperbolic first).  For the
    cap ``N / D`` and the lattice denominator ``q``, the scale is ``q * D``.
    """
    _require_polygon(_POLYGON_ONLY, domain)
    if not is_count(vmax):
        raise InapplicableError(f"direction bound must be an integer >= 1, got {vmax!r}")
    cap = parse_rational(action_cap)
    q, directions = domain.affordable_directions(cap, vmax)
    den = cap.denominator
    return q * den, cap.numerator * q, [
        (vx, vy, s, top * den) for vx, vy, top in directions for s in (0, 1)
    ]


def candidate_orbits(domain: Polygon2D, action_cap: Fraction, vmax: int):
    """Orbits usable under the action cap: positive support not exceeding it.

    Directions of nonpositive support are excluded: every closed orbit
    contributes a positive period, so they cannot occur.  Each orbit comes
    with its support, read off the table of ``_candidates`` in its order.
    """
    scale, _, table = _candidates(domain, action_cap, vmax)
    return [(CombOrbit((x, y), s), Fraction(cost, scale)) for x, y, s, cost in table]


def enumeration_truncated(domain: Polygon2D, action_cap: Fraction) -> bool:
    """Whether any direction beyond *every* finite bound stays affordable.

    The families (1, -M) and (-M, 1) have support converging to (and
    reaching) the x- and y-intercepts, and every other excluded direction
    costs at least as much; so truncation can hide candidates exactly
    when the cap reaches the smaller intercept.
    """
    _require_polygon(_POLYGON_ONLY, domain)
    return min(domain.x_intercept, domain.y_intercept) <= parse_rational(action_cap)


def _index_form(orbits):
    """Coefficients of the index as a form in the multiplicity vector.

    Returns ``linear[i] = x_i + y_i + s_i`` and the symmetric matrix
    ``cross[i][j] = max(x_i y_j, x_j y_i)``, so that the vector ``c`` has
    index ``sum_i c_i linear[i] + sum_i sum_j c_i c_j cross[i][j]``.
    """
    linear = [o.v[0] + o.v[1] + o.s for o in orbits]
    cross = [
        [max(a.v[0] * b.v[1], b.v[0] * a.v[1]) for b in orbits] for a in orbits
    ]
    return linear, cross


def enumerate_orbit_sets(
    domain: Polygon2D,
    action_cap: Fraction,
    index_target: int,
    vmax: int,
    min_count: int | None = None,
) -> Iterator[CombOrbitSet]:
    """All orbit sets within the direction bound, action cap and index target.

    Deterministic and duplicate-free: sets are emitted in lexicographic
    order of their multiplicity vector over the candidate table of
    ``_candidates``.  Within the stated bounds no valid set is skipped
    (multiplicities are finite because every candidate costs a positive
    action); ``enumeration_truncated`` reports whether the direction bound
    itself may exclude affordable candidates.

    Every test below is homogeneous in the table's costs and budget, so
    its integer scale decides as any other would.  The largest
    multiplicity of a candidate is ``remaining // cost``.  The index is
    carried down the recursion: adding ``m`` copies of candidate ``i`` adds
    ``m * (x_i + y_i + s_i) + m^2 * x_i y_i + 2 m * sum_j m_j max(x_i y_j,
    x_j y_i)`` over the candidates ``j`` already chosen.  Orbit objects are
    built only for a vector that is yielded.

    Only sets with ``2 (x + y) - h >= 2 min_count`` are yielded: condition
    (iii) of ``leq_relation`` when ``min_count`` is ``x' + y' + m' - 1`` of
    the target factor.  A copy of a candidate adds at least ``-(2 vmax + 1)``
    to ``2 (x + y) - h``, since ``x + y >= 1 - vmax``, and a set within the
    cap has at most ``budget // cheapest[0]`` copies; so ``None`` stands for
    the floor ``-(vmax + 1) * (budget // cheapest[0])``, which no set misses.
    The recursion carries ``x + y`` and ``h`` as it carries the index.  No
    completion of a branch with budget ``r`` left adds more than ``r * g/c``
    to ``x + y``, where ``g/c`` is the best ratio of ``x + y`` per cost among
    the remaining candidates and the empty choice ``(0, 1)``, and ``h`` only
    grows along a branch; so a branch with ``(2 (min_count - xy) + h) * c >
    2 r g`` holds no set that meets the floor, and is cut.  After ``m`` copies
    of candidate ``p`` the child's cut reads ``e > m * d``, where ``d``
    depends on ``p`` alone and ``e`` on the branch's state, so the
    multiplicities whose child survives it are one run with closed-form ends,
    and only those are branched on.
    """
    _, budget, candidates = _candidates(domain, action_cap, vmax)
    if not is_integer(index_target):
        raise InapplicableError(f"index target must be an integer, got {index_target!r}")
    if min_count is not None and not is_integer(min_count):
        raise InapplicableError(f"count floor must be an integer, got {min_count!r}")
    # cheapest[i]: least cost among candidates i, i+1, ...; once the
    # remaining budget is below it, every later multiplicity is 0.
    cheapest = [budget + 1] * (len(candidates) + 1)
    # best[i]: (2 g, c) for the largest ratio g/c of gain x + y per cost
    # among candidates i, i+1, ... and the empty choice (0, 1).
    best = [(0, 1)] * (len(candidates) + 1)
    # slope[p]: with m copies of candidate p, the cut of the child at p + 1
    # reads e > m * slope[p], where e depends on the branch's state only.
    slope = [0] * len(candidates)
    for i in range(len(candidates) - 1, -1, -1):
        x, y, _, cost = candidates[i]
        cheapest[i] = min(cost, cheapest[i + 1])
        g2, c = best[i + 1]
        slope[i] = 2 * (x + y) * c - cost * g2
        best[i] = (2 * (x + y), cost) if 2 * (x + y) * c > g2 * cost else (g2, c)
    min_count = -(vmax + 1) * (budget // cheapest[0]) if min_count is None else min_count
    chosen: list = []  # (candidate, multiplicity)

    def rec(i: int, remaining: int, index: int, xy: int, h: int):
        # Twice what x + y - h/2 still lacks of the floor; h only grows.
        short = 2 * (min_count - xy) + h
        # Multiplicity 0 leaves the state as it is, so the run of zeros
        # from i is walked in a loop, with each position's cut and leaf
        # tests, up to the position k where one of them ends it.  Each
        # position before k then branches on m >= 1, from k - 1 back to
        # i: the order in which one call per position would yield.  The
        # recursion goes one level deeper per nonzero multiplicity only.
        k = i
        while True:
            g2, c = best[k]
            if short * c > remaining * g2:
                break
            if remaining < cheapest[k]:
                if chosen and index == index_target and short <= 0:
                    yield CombOrbitSet(tuple(
                        (CombOrbit((x, y), s), m) for (x, y, s, _), m in chosen
                    ))
                break
            k += 1
        for p in range(k - 1, i - 1, -1):
            candidate = x, y, s, cost = candidates[p]
            lo, hi, gain, h_p = 1, remaining // cost, x + y, h + 1 - s
            if s == 0 and hi > 1:
                # A hyperbolic candidate is taken at most once and adds 1 to h.
                hi = 1
            g2, c = best[p + 1]
            e, d = (short + 1 - s) * c - remaining * g2, slope[p]
            if d > 0:
                lo = max(lo, -(-e // d))
            elif d < 0:
                hi = min(hi, e // d)
            elif e > 0:
                continue
            if lo > hi:
                continue
            cross = 0  # sum_j m_j max(x y_j, x_j y) over the chosen candidates j
            for (x_j, y_j, _, _), m in chosen:
                a, b = x * y_j, x_j * y
                cross += m * (a if a > b else b)
            base, diagonal = gain + s + 2 * cross, x * y
            for m in range(lo, hi + 1):
                chosen.append((candidate, m))
                yield from rec(p + 1, remaining - m * cost, index + m * (base + m * diagonal),
                               xy + m * gain, h_p)
                chosen.pop()

    return rec(0, budget, 0, 0, 0)


# ---------------------------------------------------------------------------
# Obstruction search
# ---------------------------------------------------------------------------

class SearchStatus(str, Enum):
    FEASIBLE_WITNESS = "FeasibleWitness"
    INFEASIBLE_WITHIN_BOUNDS = "InfeasibleWithinBounds"
    INCONCLUSIVE = "Inconclusive"


class SearchWitness(Value):
    alpha: CombOrbitSet
    alpha_factors: tuple
    alpha_prime_factors: tuple


class SearchBounds(Value):
    vmax: int
    lmax: int
    candidate_factors: int
    factors_pruned: int
    factorizations_explored: int
    enumerations_run: int
    enumeration_truncated: bool


class SearchReport(Value):
    status: SearchStatus
    witness: SearchWitness | None
    bounds_used: SearchBounds
    obstructed_a: Fraction | None
    reason: str | None = None


def _subsets(items, least=1):
    """The sub-tuples of ``items`` with at least ``least`` members."""
    return itertools.chain.from_iterable(
        itertools.combinations(items, k) for k in range(least, len(items) + 1)
    )


def _sub_products_match(alpha_factors, alpha_prime_factors, numbers) -> bool:
    """Whether every nonempty sub-product has positive index on the target
    side and the same index on the source side.

    ``numbers[j]`` holds the invariants of the ``j``-th factor on either
    side, which give the one-factor sub-products; only the sub-products
    of two or more factors are multiplied out.  Neither list may repeat a
    hyperbolic orbit across its factors.
    """
    if any(n_p.index <= 0 or n.index != n_p.index for n, n_p in numbers):
        return False
    for members in _subsets(range(len(alpha_factors)), least=2):
        index, index_prime = (
            orbit_invariants(_product_all(f[j] for j in members)).index
            for f in (alpha_factors, alpha_prime_factors)
        )
        if index_prime <= 0 or index != index_prime:
            return False
    return True


def _shares_orbits(a: CombOrbitSet, b: CombOrbitSet, s: int) -> bool:
    mine = {o.key for o in a.orbits() if o.s == s}
    return any(o.key in mine for o in b.orbits() if o.s == s)


def verify_witness(
    source: Polygon2D,
    target: Polygon2D,
    witness: SearchWitness,
    alpha_prime: CombOrbitSet,
) -> bool:
    """Independent replay of the witness conditions.

    Checks that neither factor list repeats a hyperbolic orbit, that the
    lists multiply back to the witness orbit set and to the given test
    set, that each matched pair satisfies the comparison relation, that
    equal factors on either side share no elliptic orbits, and that every
    nonempty sub-product has equal, positive index on both sides.  Each
    factor's invariants are computed once, for both of its checks.
    """
    _require(SearchWitness, witness)
    af, pf = (as_items(f, DomainError, "expected a sequence of orbit sets, got {!r}")
              for f in (witness.alpha_factors, witness.alpha_prime_factors))
    _require(CombOrbitSet, witness.alpha, alpha_prime, *af, *pf)
    if len(af) != len(pf) or not af:
        return False
    pairs = list(itertools.combinations(range(len(af)), 2))
    # A product repeating a hyperbolic orbit is not an orbit set.
    if any(_shares_orbits(f[i], f[j], s=0) for f in (af, pf) for i, j in pairs):
        return False
    if _product_all(af) != witness.alpha or _product_all(pf) != alpha_prime:
        return False
    _require_polygon(_POLYGON_ONLY, source, target)
    numbers = [(orbit_invariants(a), orbit_invariants(p)) for a, p in zip(af, pf)]
    if any(_leq_failure(source, target, a, p, *n) for a, p, n in zip(af, pf, numbers)):
        return False
    for i, j in pairs:
        if af[i] == af[j] or pf[i] == pf[j]:
            if _shares_orbits(af[i], af[j], s=1):
                return False
    return _sub_products_match(af, pf, numbers)


# The most nonempty sub-products of a test set that a search walks; each
# one is a multiplicity vector over the test set's factors.
_SUB_PRODUCT_LIMIT = 1_000_000


def _nonpositive_run(a: int, b: int, c: int):
    """The integers t with ``a t^2 + b t + c <= 0``, for ``a > 0``.

    They form one run, returned as its ends ``(lo, hi)`` (``lo > hi`` when
    it is empty): the ceiling of the smaller real root ``(-b - sqrt D) / 2a``
    and the floor of the larger, ``D = b^2 - 4ac``.  For an integer ``n``
    and ``q >= 1``, ``floor((n + sqrt D) / q) = floor((n + isqrt(D)) / q)``,
    so both ends are exact integer divisions.
    """
    disc = b * b - 4 * a * c
    if disc < 0:
        return 1, 0
    r = math.isqrt(disc)
    return -((b + r) // (2 * a)), (r - b) // (2 * a)


def _sub_product_candidates(box, linear, cross, weight, cost, radius):
    """The sub-products that pass the index and action tests, and the
    number of those that the action test alone fails.

    A sub-product is a nonzero vector ``c <= box`` over the factors.  It is
    a candidate when its index (the form ``linear``, ``cross``) is
    positive and ``radius * (weight . c - 1) <= cost . c``; one of positive
    index that fails the second test is pruned.  Candidates are
    ``(c, index, weight . c - 1, cost . c)``, larger ``sum(c)`` first, then
    by ``c``.

    The box is scanned row by row along a factor ``k`` of largest
    multiplicity.  With ``t = c_k`` the rest of the row fixed, the index is
    ``i0 + i1 t + x_k y_k t^2`` and the action test reads
    ``slope * t <= room``.  So the kept ``t`` are one run, and the ``t`` of
    positive index are one run, or when ``x_k y_k > 0`` the complement of
    the run where the index is nonpositive; every run end is an integer
    division or a ``_nonpositive_run``.  When ``x_k y_k = 0`` factor ``k``
    is an elliptic axis direction, so ``i1 >= 0`` and the index does not
    fall along the row.  Only candidates are built.  The empty product has
    index 0, so no row needs to skip it.

    The rows are walked with ``itertools.product`` over the outer
    coordinates and, inside that, along the largest free coordinate ``j``
    (none when the box has one factor).  A step in ``c_j`` adds
    ``cost[j]`` to the row's cap, ``weight[j]`` to its count and
    ``2 cross[k][j]`` to ``i1``, and the step of ``i0`` itself grows by
    ``2 cross[j][j]``.  So a row costs a fixed number of integer operations
    after the first of its run along ``j``, and the phase costs
    ``box / (box[k] + 1)`` rows plus the candidates.
    """
    k = max(range(len(box)), key=box.__getitem__)
    m, square = box[k], cross[k][k]
    # With one factor, j = k is held at 0 and the walk along it is one row.
    j = max((i for i in range(len(box)) if i != k), key=box.__getitem__, default=k)
    steps = box[j] if j != k else 0
    outer = itertools.product(*((0,) if i in (j, k) else range(b + 1)
                                for i, b in enumerate(box)))
    slope = radius * weight[k] - cost[k]
    step_i1, curve = 2 * cross[k][j], 2 * cross[j][j]
    candidates, pruned = [], 0
    for base in outer:
        i0 = sum(ci * (linear[i] + sum(map(mul, base, cross[i])))
                 for i, ci in enumerate(base) if ci)
        i1 = linear[k] + 2 * sum(map(mul, base, cross[k]))
        count0 = sum(map(mul, base, weight)) - 1
        cap0 = sum(map(mul, base, cost))
        step_i0 = linear[j] + 2 * sum(map(mul, base, cross[j])) + cross[j][j]
        for cj in range(steps + 1):
            room = cap0 - radius * count0
            if slope > 0:
                keep_lo, keep_hi = 0, room // slope
            elif slope < 0:
                keep_lo, keep_hi = -(room // -slope), m
            else:
                keep_lo, keep_hi = 0, (m if room >= 0 else -1)
            if square > 0:
                lo, hi = _nonpositive_run(square, i1, i0)
                runs = ((0, lo - 1), (hi + 1, m))
            elif square < 0:
                # index > 0 iff -index + 1 <= 0
                runs = (_nonpositive_run(-square, -i1, 1 - i0),)
            elif i1 > 0:
                runs = ((-((i0 - 1) // i1), m),)
            else:
                runs = ((0, m if i0 > 0 else -1),)
            for lo, hi in runs:
                lo, hi = max(lo, 0), min(hi, m)
                if lo > hi:
                    continue
                first, last = max(lo, keep_lo), min(hi, keep_hi)
                pruned += hi - lo + 1 - max(last - first + 1, 0)
                for t in range(first, last + 1):
                    vec = list(base)
                    vec[j], vec[k] = cj, t
                    candidates.append((tuple(vec), i0 + t * (i1 + t * square),
                                       count0 + t * weight[k], cap0 + t * cost[k]))
            i0, step_i0 = i0 + step_i0, step_i0 + curve
            i1, count0, cap0 = i1 + step_i1, count0 + weight[j], cap0 + cost[j]
    candidates.sort(key=lambda c: (-sum(c[0]), c[0]))
    return candidates, pruned


class _Matches:
    """A slot's matches, pulled from its enumeration only as far as a
    reader iterates.

    The sets already pulled are kept in order, so every iteration reads
    the same sequence, and iterations may nest: each reads the kept sets,
    then pulls the next one from the enumeration.
    """

    def __init__(self, sets: Iterator[CombOrbitSet]):
        self._sets, self._kept = sets, []

    def __iter__(self):
        kept = self._kept
        for i in itertools.count():
            if i == len(kept):
                pulled = next(self._sets, None)
                if pulled is None:
                    return
                kept.append(pulled)
            yield kept[i]

    def __bool__(self):
        return next(iter(self), None) is not None


def _assignments(options, vecs, cr_p, chosen=()):
    """Each choice of one source set per slot that meets the joint conditions.

    ``options[t]`` holds the matches of slot ``t``, whose target-side factor
    vector is ``vecs[t]``; ``cr_p[i][t]`` is the cross term of the target-side
    factors of slots ``i`` and ``t``.
    """
    t = len(chosen)
    if t == len(vecs):
        yield chosen
        return
    for a in options[t]:
        # Each source set has its slot's index, which the enumeration
        # targets, so every sub-product index matches its target-side
        # counterpart iff every pair's cross terms do; the target side
        # is already checked positive.  A witness must not repeat a
        # hyperbolic orbit.
        if not any(
            (c == a or vecs[i] == vecs[t]) and _shares_orbits(c, a, s=1)
            or _shares_orbits(c, a, s=0)
            or cross_term(c, a) != cr_p[i][t]
            for i, c in enumerate(chosen)
        ):
            yield from _assignments(options, vecs, cr_p, chosen + (a,))


def obstruction_search(
    source: Polygon2D,
    target: Polygon2D,
    alpha_prime: CombOrbitSet,
    vmax: int,
    lmax: int,
) -> SearchReport:
    """Bounded search for the factor decompositions an embedding must admit.

    The test set must have positive index, no hyperbolic factors and at
    most ``_SUB_PRODUCT_LIMIT`` nonempty sub-products.  Every factorization
    of it into at most ``lmax`` parts is considered.
    A sound per-factor inequality closes most branches without touching
    the direction bound: the source action of any matching factor is at
    least the source diagonal radius times (x' + y' + m' - 1), so factors
    whose target action is below that threshold admit no match at any
    direction bound.  Surviving slots are filled from the bounded
    enumeration and checked against all pairwise and subset conditions.

    Sub-products of the test set are its multiplicity vectors over its
    factors.  The target supports of the factor directions and the source
    diagonal radius are read as integers over one scale, the product of
    the target lattice's q and the radius's denominator, so the index (a
    quadratic form), the target action and x' + y' + m' - 1 (dot
    products) and the pruning inequality are integer arithmetic.
    ``_sub_product_candidates`` scans the box in rows along the factor of
    largest multiplicity m_k and decides each row's index and pruning
    tests in closed form.  It steps from row to row along the next-largest
    factor, so a row costs a fixed number of integer operations, and this
    phase costs ``box / (m_k + 1)`` rows plus the surviving vectors.  A
    factor stays a vector until its slot is enumerated or a witness is
    built.  A slot's enumeration, with the factor's index, target action
    and ``min_count = x' + y' + m' - 1``, decides conditions (i)-(iii) of
    ``leq_relation``, so its sets are the slot's matches;
    ``verify_witness`` replays the witness.  Matches are pulled only as
    far as the walk reads them (``_Matches``): one per slot to see that it
    has any, more only while no choice among those pulled fits.  Slots of
    equal index, count floor and cap share one enumeration.  The order is
    the enumeration's either way, so the witness is the one that running
    every slot to the end would give.

    Outcomes: a re-verified ``FeasibleWitness``; ``Inconclusive`` when a
    slot's enumeration had the direction bound exclude affordable
    candidates, when the source lies in the target or in its mirror, or
    else when some factor of the test set has target support <= 0, the
    last two with a ``reason`` that names the inclusion or the factor;
    else ``InfeasibleWithinBounds``.  A factor of non-positive target
    support costs nothing in the target, and with such factors the model
    obstructs embeddings that exist: E(1,4) -> B(c) for c > 2 (McDuff and
    Schlenk) with ``e(-1,0) * e(0,-1)``.  That
    claim holds for this combinatorial model and these bounds only, ``lmax``
    included.  The factorization walk is the one place where ``lmax``
    drops a branch: a remainder that ``lmax - len(slots)`` more parts of
    the largest candidate size cannot cover is dropped unreported, so
    half cube -> Omega_{3/10} at degree 3 is infeasible at ``lmax`` 3 but
    ``Inconclusive`` at ``lmax`` 8.

    ``enumerations_run`` counts the slots whose matches were asked for,
    each once, however far their enumeration ran and whether or not it
    is shared with another slot; ``enumeration_truncated`` says whether
    some such slot's cap reaches the source's smaller intercept.
    """
    _require_polygon("obstruction search runs on polygon domains", source, target)
    _require(CombOrbitSet, alpha_prime)
    if not (is_count(vmax) and is_count(lmax)):
        raise InapplicableError(
            f"invalid search limits: vmax={vmax!r}, lmax={lmax!r} "
            "(both must be integers >= 1)"
        )
    inv = orbit_invariants(alpha_prime)
    if inv.index <= 0:
        raise InapplicableError(
            f"test orbit set must have positive index, got {inv.index}"
        )
    if inv.h != 0:
        raise InapplicableError("test orbit set must have no hyperbolic factors")
    target_vec = tuple(m for _, m in alpha_prime.factors)
    total = math.prod(m + 1 for m in target_vec) - 1
    if total > _SUB_PRODUCT_LIMIT:
        raise InapplicableError(
            f"test orbit set has {total} nonempty sub-products, more than the "
            f"limit of {_SUB_PRODUCT_LIMIT}"
        )

    basis = alpha_prime.orbits()
    linear, cross = _index_form(basis)
    weight = [o.v[0] + o.v[1] + 1 for o in basis]
    # The source's diagonal radius n / d and the target supports top / q,
    # all over the scale d q.
    diagonal = delta(source)
    q, tops = target._supports(o.v for o in basis)
    scale, radius = diagonal.denominator * q, diagonal.numerator * q
    cost = [top * diagonal.denominator for top in tops]

    def vector_cross(a, b) -> int:
        return sum(ai * sum(map(mul, b, cross[i])) for i, ai in enumerate(a) if ai)

    def orbit_set(vec) -> CombOrbitSet:
        return CombOrbitSet(tuple((o, c) for o, c in zip(basis, vec) if c))

    # (vector, index, x' + y' + m' - 1, scaled target action), larger
    # factors first so single-factor decompositions are tried before fine
    # splittings.
    candidates, pruned = _sub_product_candidates(target_vec, linear, cross, weight,
                                                 cost, radius)
    max_part = max((sum(c[0]) for c in candidates), default=0)

    def factorizations(start: int, remaining, slots):
        """Each factorization of ``remaining`` into candidates from ``start``
        on, appended to ``slots``, in depth-first order."""
        if not any(remaining):
            yield slots
        # The lmax cut: no part is larger than max_part, so lmax - len(slots)
        # more parts cannot cover a larger remainder (none can at lmax).
        elif sum(remaining) <= (lmax - len(slots)) * max_part:
            for i in range(start, len(candidates)):
                vec = candidates[i][0]
                if all(v <= r for v, r in zip(vec, remaining)):
                    rest = tuple(r - v for r, v in zip(remaining, vec))
                    yield from factorizations(i, rest, slots + (candidates[i],))

    # The slots whose matches were asked for, and the matches of each
    # (index, count, cap), which the slots of those values share.
    asked, matches = set(), {}

    def slot_matches(slot):
        asked.add(slot)
        key = index, count, cap = slot[1:]
        if key not in matches:
            matches[key] = _Matches(enumerate_orbit_sets(
                source, Fraction(cap, scale), index, vmax, min_count=count,
            ))
        return matches[key]

    explored, witness = 0, None
    for explored, slots in enumerate(factorizations(0, target_vec, ()), 1):
        vecs = [s[0] for s in slots]
        cr_p = [[vector_cross(a, b) for b in vecs] for a in vecs]
        # A subset's index is its slots' indexes plus twice its pairs'
        # cross terms; a single slot's index is positive already.
        if any(sum(slots[i][1] for i in sub)
               + 2 * sum(cr_p[i][j] for i, j in itertools.combinations(sub, 2)) <= 0
               for sub in _subsets(range(len(slots)), least=2)):
            continue
        # Each slot's first match is pulled, in slot order, up to the first
        # slot with none.
        options = list(itertools.takewhile(bool, map(slot_matches, slots)))
        if len(options) < len(slots):
            continue
        picked = next(_assignments(options, vecs, cr_p), None)
        if picked is not None:
            witness = SearchWitness(_product_all(picked), picked, tuple(map(orbit_set, vecs)))
            break

    if witness is not None and not verify_witness(source, target, witness, alpha_prime):
        raise AssertionError("internal error: witness failed re-verification")

    # Truncation is monotone in the cap, so some slot's enumeration was
    # truncated iff the one with the largest cap was; with no slot
    # enumerated, the cap 0 is below both intercepts.
    largest_cap = max((slot[3] for slot in asked), default=0)
    bounds = SearchBounds(
        vmax=vmax,
        lmax=lmax,
        candidate_factors=total,
        factors_pruned=pruned,
        factorizations_explored=explored,
        enumerations_run=len(asked),
        enumeration_truncated=enumeration_truncated(source, Fraction(largest_cap, scale)),
    )
    if witness is not None:
        return SearchReport(SearchStatus.FEASIBLE_WITNESS, witness, bounds, None)
    if bounds.enumeration_truncated:
        return SearchReport(SearchStatus.INCONCLUSIVE, None, bounds, None)
    v = source.vertices
    # Both polygons are convex and hold the origin, so the source lies in the
    # target, or in its mirror (x, y) -> (y, x), iff its chain vertices do.
    if any(all(map(target.contains, c)) for c in (v, [p[::-1] for p in v])):
        return SearchReport(SearchStatus.INCONCLUSIVE, None, bounds, None,
                            "the source lies in the target or in its mirror "
                            "(x, y) -> (y, x), so it embeds")
    # A factor that costs nothing in the target backs no claim: with such
    # factors the model obstructs E(1,4) -> B(3), which embeds.
    for orbit, top in zip(basis, tops):
        if top <= 0:
            x, y = orbit.v
            return SearchReport(SearchStatus.INCONCLUSIVE, None, bounds, None,
                                f"factor e({x},{y}) of the test set has target support "
                                f"{Fraction(top, q)} <= 0, so the model backs no claim")
    # A moment-square source [0, a]^2 names the cube size a that is obstructed.
    a = v[0][0]
    square = v == ((a, 0), (a, a), (0, a))
    return SearchReport(
        SearchStatus.INFEASIBLE_WITHIN_BOUNDS, None, bounds, a if square else None
    )


def _product_all(sets) -> CombOrbitSet:
    """Formal product of orbit sets.

    The factors of all the sets are sorted once and merged on their keys,
    multiplicities adding.  Each set passed the constructor's checks, so
    the merged factors pass them too unless two sets share a hyperbolic
    orbit; that alone is refused here, and the factors are stored as
    merged.
    """
    merged = []
    for orbit, m in sorted((f for s in sets for f in s.factors), key=_by_key):
        if merged and merged[-1][0].key == orbit.key:
            if not orbit.s:
                raise DomainError(_HYPERBOLIC_ONCE)
            merged[-1] = (orbit, merged[-1][1] + m)
        else:
            merged.append((orbit, m))
    product = CombOrbitSet.__new__(CombOrbitSet)
    product.__dict__["factors"] = tuple(merged)
    return product
