"""Independent oracles for every op class of the benchmark.

Nothing here imports the library: each oracle recomputes its quantity
from the raw input document with its own method, so a defect in the code
under test cannot hide in the check.  A check returns a list of failure
reasons; an empty list means the output agreed with the oracle.
"""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction

HALF = Fraction(1, 2)


def q(text):
    """A rational from the wire format ("p/q", "p"), or None."""
    return None if text is None else Fraction(text)


# ---------------------------------------------------------------------------
# Polygons: vertex-chain formulas
# ---------------------------------------------------------------------------

def polygon_chain(doc: dict) -> list:
    return [(Fraction(x), Fraction(y)) for x, y in doc["vertices"]]


def polygon_delta(chain) -> Fraction:
    """Where the diagonal ray crosses the chain, found edge by edge.

    Along an edge p -> q the sign of x - y changes (or vanishes) exactly
    where the edge meets the diagonal; the largest crossing is the exit
    point of the ray from the star-shaped region.
    """
    best = None
    for (px, py), (qx, qy) in zip(chain, chain[1:]):
        fp, fq = px - py, qx - qy
        if fp == 0:
            hit = px
        elif fp * fq <= 0:
            t = fp / (fp - fq)
            hit = px + t * (qx - px)
        else:
            continue
        best = hit if best is None else max(best, hit)
    return best


def polygon_eta(chain, delta: Fraction) -> Fraction:
    """max(delta, max over vertices of min(x, y)).

    min(x, y) is concave, so over a convex region its maximum sits on the
    diagonal or at a vertex.
    """
    return max([delta] + [min(x, y) for x, y in chain])


def polygon_monotone(chain) -> bool:
    return all(
        qx - px <= 0 and qy - py >= 0
        for (px, py), (qx, qy) in zip(chain, chain[1:])
    )


# ---------------------------------------------------------------------------
# Rectangle unions: brute coverage of the compressed grid
# ---------------------------------------------------------------------------

class PaintedGrid:
    """Coordinate-compressed grid with each cell painted by every rectangle.

    Cells are the open boxes between consecutive distinct coordinates; a
    cell belongs to the closed union iff some rectangle paints it.
    """

    def __init__(self, rects):
        self.rects = rects
        self.xs = sorted({Fraction(0)} | {r[0] for r in rects} | {r[1] for r in rects})
        self.ys = sorted({Fraction(0)} | {r[2] for r in rects} | {r[3] for r in rects})
        xi = {x: i for i, x in enumerate(self.xs)}
        yi = {y: i for i, y in enumerate(self.ys)}
        self.cells = set()
        for x0, x1, y0, y1 in rects:
            for i in range(xi[x0], xi[x1]):
                for j in range(yi[y0], yi[y1]):
                    self.cells.add((i, j))

    def delta(self):
        """Largest t with (t, t) in the closed union."""
        best = None
        for i, j in self.cells:
            lo = max(self.xs[i], self.ys[j])
            hi = min(self.xs[i + 1], self.ys[j + 1])
            if lo <= hi:
                best = hi if best is None else max(best, hi)
        return best

    def eta(self):
        return max(min(self.xs[i + 1], self.ys[j + 1]) for i, j in self.cells)

    def staircase(self) -> bool:
        """Downward closed: every cell below-left of a painted cell is painted."""
        return all(
            (a, b) in self.cells
            for i, j in self.cells
            for a in range(i + 1)
            for b in range(j + 1)
        )

    def cube_inclusion(self):
        """Largest grid coordinate c with every cell meeting (0, c)^2 painted."""
        limit = min(self.xs[-1], self.ys[-1])
        best = Fraction(0)
        for c in sorted(set(self.xs) | set(self.ys)):
            if c == 0 or c > limit:
                continue
            ok = all(
                (i, j) in self.cells
                for i in range(len(self.xs) - 1) if self.xs[i] < c
                for j in range(len(self.ys) - 1) if self.ys[j] < c
            )
            if not ok:
                break
            best = c
        return best

    def _cell_at(self, p, sx, sy) -> bool:
        """Whether the cell just beside p in quadrant direction (sx, sy) is painted."""
        x, y = p
        i = bisect.bisect_right(self.xs, x) - 1 if sx > 0 else bisect.bisect_left(self.xs, x) - 1
        j = bisect.bisect_right(self.ys, y) - 1 if sy > 0 else bisect.bisect_left(self.ys, y) - 1
        return 0 <= i < len(self.xs) - 1 and 0 <= j < len(self.ys) - 1 and (i, j) in self.cells

    def contains(self, p) -> bool:
        x, y = p
        return any(x0 <= x <= x1 and y0 <= y <= y1 for x0, x1, y0, y1 in self.rects)

    def on_boundary(self, p) -> bool:
        if not self.contains(p):
            return False
        return not all(
            self._cell_at(p, sx, sy) for sx in (-1, 1) for sy in (-1, 1)
        )


def union_rects(doc: dict) -> list:
    return [
        (Fraction(r["x0"]), Fraction(r["x1"]), Fraction(r["y0"]), Fraction(r["y1"]))
        for r in doc["rects"]
    ]


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------

def _interval_reasons(name, iv) -> list:
    lo, hi = q(iv["lower"]), q(iv["upper"])
    if hi is not None and lo > hi:
        return [f"{name}: lower {lo} > upper {hi}"]
    if iv["exact"] != (hi is not None and lo == hi):
        return [f"{name}: exact flag {iv['exact']} disagrees with [{lo}, {hi}]"]
    return []


def _certificate_reasons(cert) -> list:
    lo, hi, val = q(cert["lower"]), q(cert["upper"]), q(cert["value"])
    out = []
    if lo > hi:
        out.append(f"c_L: lower {lo} > upper {hi}")
    if val is not None and not lo <= val <= hi:
        out.append(f"c_L: value {val} outside [{lo}, {hi}]")
    if (val is None) != (cert["rule"] == "IntervalOnly"):
        out.append(f"c_L: rule {cert['rule']} with value {val}")
    return out


def _common_reasons(rep) -> list:
    out = _certificate_reasons(rep["c_L"])
    for name in ("c_P", "c_N", "c_B", "c_Z"):
        out += _interval_reasons(name, rep[name])
    return out


def check_polygon_report(doc: dict, rep: dict, omega_a=None) -> list:
    """Reasons a polygon report disagrees with the vertex-chain oracles.

    Each reason starts with the quantity it concerns, so that the eta
    defect can be told apart from every other disagreement.
    """
    chain = polygon_chain(doc)
    d = polygon_delta(chain)
    e = polygon_eta(chain, d)
    mono = polygon_monotone(chain)
    cube = min(d, chain[0][0], chain[-1][1])
    out = _common_reasons(rep)
    if q(rep["delta"]) != d:
        out.append(f"delta: got {rep['delta']}, oracle {d}")
    if q(rep["eta"]) != e:
        out.append(f"eta: got {rep['eta']}, oracle {e}")
    if rep["monotone"] != mono:
        out.append(f"monotone: got {rep['monotone']}, oracle {mono}")
    if q(rep["c_P"]["lower"]) != cube:
        out.append(f"c_P lower: got {rep['c_P']['lower']}, oracle cube {cube}")
    cert = rep["c_L"]
    if mono and (cert["rule"] != "MonotoneDiagonal" or q(cert["value"]) != d):
        out.append(f"c_L: monotone polygon must give MonotoneDiagonal {d}, got {cert['rule']} {cert['value']}")
    if cert["rule"] in ("EtaOnBoundary", "LatticeWitness") and q(cert["value"]) != e:
        out.append(f"c_L: {cert['rule']} value {cert['value']} differs from eta oracle {e}")
    if omega_a is not None:
        a = omega_a
        want_cp = min(1 - 2 * a, HALF)
        if not (rep["c_P"]["exact"] and q(rep["c_P"]["lower"]) == want_cp):
            out.append(f"omega closed form: c_P must be exactly {want_cp}")
        if q(cert["value"]) != HALF:
            out.append("omega closed form: c_L must be 1/2")
        if not (rep["c_N"]["exact"] and q(rep["c_N"]["lower"]) == HALF):
            out.append("omega closed form: c_N must be exactly 1/2")
    return out


def is_known_eta_defect(doc: dict, reasons: list) -> bool:
    """The polygon eta defect: eta taken as delta on a non-monotone chain.

    Known only on chains whose oracle eta exceeds their oracle delta, and
    only when every reason is the eta disagreement itself (reported eta
    equal to the oracle delta) or a ``c_L`` value built on that eta.
    """
    chain = polygon_chain(doc)
    d = polygon_delta(chain)
    if polygon_monotone(chain) or polygon_eta(chain, d) <= d:
        return False
    expected = (f"eta: got {d}, ", "c_L: EtaOnBoundary value ", "c_L: LatticeWitness value ")
    return bool(reasons) and all(r.startswith(expected) for r in reasons)


def check_union_report(doc: dict, rep: dict, l_thickness=None) -> list:
    """Reasons a rectangle-union report disagrees with brute cell coverage."""
    grid = PaintedGrid(union_rects(doc))
    d, e = grid.delta(), grid.eta()
    out = _common_reasons(rep)
    if q(rep["delta"]) != d:
        out.append(f"delta: got {rep['delta']}, oracle {d}")
    if q(rep["eta"]) != e:
        out.append(f"eta: got {rep['eta']}, oracle {e}")
    stair = grid.staircase()
    if rep["monotone"] != stair:
        out.append(f"monotone: got {rep['monotone']}, staircase oracle {stair}")
    cube = grid.cube_inclusion()
    if q(rep["c_P"]["lower"]) != cube:
        out.append(f"c_P lower: got {rep['c_P']['lower']}, cell oracle {cube}")
    cert = rep["c_L"]
    if cert["value"] is not None:
        val = q(cert["value"])
        if val != e:
            out.append(f"c_L: value {val} differs from eta oracle {e}")
        if cert["witness"] is not None:
            w = tuple(q(c) for c in cert["witness"])
            if not grid.on_boundary(w):
                out.append(f"c_L: witness {w} is not on the union boundary")
            if min(w) != val:
                out.append(f"c_L: witness {w} does not realise {val}")
    if l_thickness is not None:
        if not (d == e == l_thickness and q(cert["value"]) == l_thickness):
            out.append(f"L closed form: delta = eta = c_L must equal {l_thickness}")
    return out


# ---------------------------------------------------------------------------
# Obstruction search and bounds
# ---------------------------------------------------------------------------

def finite_d_bound(x_intercept: Fraction, y_intercept: Fraction, d: int) -> Fraction:
    """The degree-d bound from its 6 endpoint candidates.

    For fixed k the candidate (d_i s + k) / (2 d_i + 3k - 1) is a Moebius
    function of d_i, hence monotone, so its maximum over the integer range
    [ceil(d/3), d] sits at one of the two endpoints.
    """
    s = x_intercept + y_intercept
    lo = -(-d // 3)
    return max(
        Fraction(di * s + k, 2 * di + 3 * k - 1) for di in (lo, d) for k in (0, 1, 2)
    )


def a_min(coords) -> Fraction:
    """Smallest positive value of sum k_i x_i, by gcd over the common denominator."""
    den = math.lcm(*(c.denominator for c in coords))
    return Fraction(math.gcd(*(int(c * den) for c in coords)), den)


def parse_lines(text: str) -> dict:
    """'key: value' lines of CLI output as a dict (first occurrence wins)."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value.strip()
    return out


def dump(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))
