"""Minimal torus-fiber areas and Lagrangian-capacity certificates.

The fiber torus over an interior point x with positive rational
coordinates has minimal positive area equal to the smallest positive
value of the integer combinations k_1 x_1 + ... + k_n x_n, which for
rational positions is gcd arithmetic (``a_min_closed``).  An exhaustive
lattice-box enumeration (``a_min_brute``) serves as an independent
oracle for that closed form.

``lagrangian_capacity`` certifies the Lagrangian capacity of a domain by
a cascade of sufficient conditions, always reporting which rule fired so
results stay auditable:

* ``MonotoneDiagonal`` -- monotone domains, where all cube-normalized
  capacities collapse to the diagonal radius;
* ``EtaOnBoundary`` -- the diagonal point (eta, eta) lies on the
  boundary, so the fiber torus there realizes the value eta;
* ``LatticeWitness`` -- some boundary point (k1*eta, k2*eta) with integer
  k_i >= 1 lies on the min-coordinate shell, and its fiber torus again
  realizes eta;
* ``IntervalOnly`` -- none of the above applies; an honest interval is
  reported instead of a value.

Each definite rule only finds its witness point; ``lagrangian_capacity``
builds the one ``CLCertificate``, an ``Interval`` pinched at the witness's
minimal fiber area.  No domain point has a smallest coordinate above eta,
so every domain point on the shell min(x, y) = eta is a boundary point,
and both shell rules are closed forms at eta, with no boundary tests.
Each domain kind fixes the order of the definite rules (``cl_rules``) and
supplies the shell intervals (``cl_slices``, integer pairs over one scale
per line, so the lattice witness is decided in ``int`` arithmetic) and
the candidate positions of an interval (``cl_candidates``, integer points
on its own lattice).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction

from .domains import ToricDomain, _checked
from .errors import DomainError, InapplicableError
from .rationals import Interval, as_items, is_count, over_common_denominator, parse_rational


# ---------------------------------------------------------------------------
# Minimal positive lattice value of a rational fiber position
# ---------------------------------------------------------------------------

def _check_positive(x) -> tuple:
    refusal = "fiber position must be a sequence of rationals, got {!r}"
    pt = tuple(map(parse_rational, as_items(x, DomainError, refusal)))
    if not pt:
        raise InapplicableError("fiber position must have at least one coordinate")
    if any(c <= 0 for c in pt):
        raise InapplicableError(
            "fiber position coordinates must be positive (torus fibers live "
            "over the open quadrant)"
        )
    return pt


def a_min_closed(x: Sequence) -> Fraction:
    """Smallest positive value of sum(k_i * x_i) over integer k.

    Writing x_i = n_i / q over the common denominator q, the value group
    {sum k_i x_i} is (1/q) * (integer span of the n_i), whose smallest
    positive element is gcd(n_1, ..., n_n) / q.
    """
    q, nums = over_common_denominator(_check_positive(x))
    return Fraction(math.gcd(*nums), q)


_BRUTE_BOX_LIMIT = 16_000_000


def a_min_brute(x: Sequence, bound: int) -> Fraction:
    """Oracle for ``a_min_closed``: exhaustive minimum over k in [-K, K]^n.

    Pure enumeration of the lattice box, kept independent of the gcd
    reasoning in the closed form: the sumset of the first n - 1 scaled
    coordinates times [-K, K] is built as a set of exact integers, and the
    last coordinate is scanned against it.  Boxes of more than
    16,000,000 points are refused.
    """
    pt = _check_positive(x)
    if not is_count(bound):
        raise InapplicableError(
            f"enumeration bound must be an integer >= 1, got {bound!r}"
        )
    size = (2 * bound + 1) ** len(pt)
    if size > _BRUTE_BOX_LIMIT:
        raise InapplicableError(
            f"enumeration box [-{bound}, {bound}]^{len(pt)} has {size} points, "
            f"more than the limit of {_BRUTE_BOX_LIMIT}"
        )
    q, nums = over_common_denominator(pt)
    ks = range(-bound, bound + 1)
    values = {0}
    for v in nums[:-1]:
        values = {t + k * v for t in values for k in ks}
    last = nums[-1]
    # k = e_n always yields the positive value x_n, so a minimum exists.
    best = min(u for t in values for k in ks if (u := t + k * last) > 0)
    return Fraction(best, q)


# ---------------------------------------------------------------------------
# Capacity certificates
# ---------------------------------------------------------------------------

class CLRule(str, Enum):
    MONOTONE_DIAGONAL = "MonotoneDiagonal"
    ETA_ON_BOUNDARY = "EtaOnBoundary"
    LATTICE_WITNESS = "LatticeWitness"
    INTERVAL_ONLY = "IntervalOnly"


class CLCertificate(Interval):
    """Auditable Lagrangian-capacity result: a bracket, its rule and its witness.

    A definite rule pins the bracket at the minimal fiber area of its
    ``witness``, the fiber-torus position backing the value; for
    ``IntervalOnly`` only the bracket is claimed and there is no witness.
    A definite witness is a non-empty sequence of rationals (n of them for
    a domain of dimension n), coerced through ``parse_rational`` into a
    tuple, whose smallest coordinate is the pinned value.

    ``lagrangian_capacity`` stores the certificate its rule proved
    (``Value._stored``) instead of calling this constructor: the rule's
    witness is already a tuple of ``Fraction``s, and the value is its
    smallest coordinate, so every check here holds by construction.  The
    stored certificate equals the checked one, field for field.
    """

    rule: CLRule
    witness: tuple | None

    def __init__(self, lower, upper, rule, witness):
        if not isinstance(rule, CLRule):
            raise DomainError(f"rule must be a CLRule member, got {rule!r}")
        super().__init__(lower, upper)
        if rule is CLRule.INTERVAL_ONLY:
            if witness is not None:
                raise DomainError(f"an IntervalOnly certificate has no witness, got {witness!r}")
        elif not self.exact:
            raise ValueError(f"rule {rule.value} needs a pinched bracket")
        else:
            refusal = "witness must be a non-empty sequence of rationals, got {!r}"
            point = tuple(map(parse_rational, as_items(witness, DomainError, refusal)))
            if not point:
                raise DomainError(refusal.format(witness))
            if min(point) != self.lower:
                raise DomainError(
                    f"witness smallest coordinate {min(point)} is not the value {self.lower}"
                )
            witness = point
        self.__dict__.update(rule=rule, witness=witness)

    @property
    def value(self) -> Fraction | None:
        """The certified capacity, or None when only the bracket is claimed."""
        return None if self.rule is CLRule.INTERVAL_ONLY else self.lower


# The rules read the domain's members directly: ``lagrangian_capacity``
# has checked the domain before it calls them.
def _monotone_diagonal(domain) -> tuple | None:
    return (domain.delta,) * domain.n if domain.is_monotone else None


def _eta_on_boundary(domain) -> tuple | None:
    # (eta, eta) lies in the domain iff delta reaches eta, and then on its
    # boundary, since no domain point has a larger smallest coordinate.
    e = domain.eta
    return (e, e) if domain.delta == e else None


def _lattice_witness(domain) -> tuple | None:
    """Lexicographically largest boundary point (k1*eta, k2*eta) other than (eta, eta).

    The candidates are (k*eta, eta), then (eta, k*eta), for k >= 2.  Every
    domain point on these lines is a boundary point, so an interval
    [lo / s, hi / s] of ``cl_slices`` offers k = floor(hi / (s eta)) when
    k*eta >= lo / s; with eta = en / ed both tests run in integers.  The
    intervals come by decreasing hi, so the first offer is the largest k,
    and the scan of a line stops at the first hi below 2*eta; the column
    is read only when the row has no witness.  Only the witness is a
    ``Fraction``.
    """
    e = domain.eta
    en, ed = e.numerator, e.denominator
    for across in (False, True):
        s, slices = domain.cl_slices(e, across)
        step = s * en
        for lo, hi in slices:
            k = hi * ed // step
            if k < 2:
                break
            if k * step >= lo * ed:
                t = Fraction(k * en, ed)
                return (e, t) if across else (t, e)
    return None


# Each definite rule returns its witness, or None when it does not apply.
# CLRule is a str enum, so the names a kind lists (``cl_rules``) key it.
_RULES = {
    CLRule.MONOTONE_DIAGONAL: _monotone_diagonal,
    CLRule.ETA_ON_BOUNDARY: _eta_on_boundary,
    CLRule.LATTICE_WITNESS: _lattice_witness,
}


def lagrangian_capacity(domain: ToricDomain) -> CLCertificate:
    """Certified Lagrangian capacity of a toric domain.

    The definite rules are tried in the order of the domain's kind
    (``cl_rules``): MonotoneDiagonal, EtaOnBoundary, LatticeWitness for
    standard domains and polygons; LatticeWitness first for rectangle
    unions.  The first rule that finds a witness pins the certificate at
    the witness's minimal fiber area, which is its smallest coordinate:
    delta for MonotoneDiagonal, eta for the two shell rules.

    Otherwise the certificate is an ``IntervalOnly`` bracket from the best
    fiber-torus area (``a_min_closed``) of the diagonal point, delta, and of
    the domain's ``cl_candidates`` (X, Y) over q, gcd(X, Y) / q each, up to
    eta: the domain sits inside the min-coordinate region of that size.
    """
    for name in _checked(domain).cl_rules:
        witness = _RULES[name](domain)
        if witness is not None:
            # Pinned at min(witness): both ends are that coordinate itself,
            # not a copy, so ``certificate_to_dict`` formats the
            # coordinates that are it once.
            value = min(witness)
            return CLCertificate._stored(lower=value, upper=value, exact=True,
                                         rule=CLRule(name), witness=witness)
    # A candidate (X / q, Y / q) on the domain's lattice has the
    # ``a_min_closed`` gcd(X, Y) / q; the diagonal point's is delta.
    q, points = domain.cl_candidates
    best = max((math.gcd(x, y) for x, y in points), default=0)
    lower = max(domain.delta, Fraction(best, q))
    return CLCertificate(lower, domain.eta, CLRule.INTERVAL_ONLY, None)


def cube_normalized_value(domain: ToricDomain) -> Fraction:
    """Common value of every cube-normalized capacity on a monotone domain.

    Monotone domains are sandwiched between the cube and the
    min-coordinate region at the diagonal radius, so the value is delta.
    Refuses non-monotone domains rather than guessing.
    """
    if not _checked(domain).is_monotone:
        raise InapplicableError(
            "domain is not monotone: the cube-normalized collapse does not apply"
        )
    return domain.delta
