"""Seeded inputs and op lists for the four benchmark workloads.

A workload hands out its ops one *cycle* at a time.  A cycle has a fixed
composition (so many inputs of each size class) and fresh seeded inputs,
so every run of a workload does the same mix of work whatever its seed,
and the same seed always gives the same sequence of inputs.  The library
only ever sees the generated inputs: domain JSON text or files, and
orbit-set literals.

Each op carries an independent oracle (``check``) from ``oracles`` and,
where the failure is a documented defect of the library, a classifier
(``known``) that names it.  Failures that no classifier claims make the
run incorrect.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles as O

F = Fraction
HALF = F(1, 2)
OMEGA_310 = F(3, 10)

KNOWN_ETA = "polygon-eta"          # eta taken as delta on non-monotone chains
KNOWN_SEARCH_HANG = "search-hang"  # obstruction search that pruning cannot close
KNOWN_INCLUSION = "search-inclusion-infeasible"  # inclusion claimed obstructed
INCLUSION_REASON = "status: InfeasibleWithinBounds for an inclusion"


@dataclass
class Op:
    kind: str                      # op class, e.g. "weakly_convex" or "halfcube"
    bucket: str                    # size bucket for per-bucket timings
    label: str                     # the input, for the failure listing
    call: Callable[[], object]
    check: Callable[[object], list]
    known: Optional[Callable[[list], Optional[str]]] = None
    argv: Optional[list] = None    # CLI ops: the toricap arguments


# ---------------------------------------------------------------------------
# Rationals and polygon chains
# ---------------------------------------------------------------------------

def rand_q(rng, lo, hi, digits: int) -> Fraction:
    """A rational in [lo, hi] whose denominator is drawn with ``digits`` digits.

    When no fraction with the drawn denominator fits, another is drawn; after
    eight misses the midpoint of the interval is returned.
    """
    lo, hi = F(lo), F(hi)
    for _ in range(8):
        den = rng.randint(10 ** (digits - 1), 10 ** digits - 1)
        num_lo, num_hi = math.ceil(lo * den), math.floor(hi * den)
        if num_lo <= num_hi:
            return F(rng.randint(num_lo, num_hi), den)
    return (lo + hi) / 2


def polygon_doc(chain) -> dict:
    return {"kind": "polygon2d", "vertices": [[str(x), str(y)] for x, y in chain]}


def union_doc(rects) -> dict:
    return {
        "kind": "rectilinear2d",
        "rects": [{"x0": str(a), "x1": str(b), "y0": str(c), "y1": str(d)} for a, b, c, d in rects],
    }


def _left_turns(chain) -> bool:
    edges = [(q[0] - p[0], q[1] - p[1]) for p, q in zip(chain, chain[1:])]
    return all(u[0] * v[1] - u[1] * v[0] > 0 for u, v in zip(edges, edges[1:]))


# Edge directions ordered by angle, from below the diagonal up through down-left.
PALETTE = [
    (3, 1), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (1, 3), (0, 1),
    (-1, 3), (-1, 2), (-2, 3), (-1, 1), (-3, 2), (-2, 1), (-3, 1),
    (-1, 0), (-3, -1), (-2, -1), (-1, -1), (-2, -3), (-1, -2), (-1, -3),
]


def weakly_convex_chain(rng, digits: int) -> list:
    """Convex chain from sorted palette directions; mostly non-monotone."""
    while True:
        k = rng.randint(1, 5)
        dirs = [PALETTE[i] for i in sorted(rng.sample(range(len(PALETTE)), k))]
        if dirs[0][1] <= 0 or dirs[-1][0] >= 0:
            continue
        lengths = [rand_q(rng, F(1, 10), 2, digits) for _ in dirs]
        dx = sum(l * d[0] for l, d in zip(lengths, dirs))
        dy = sum(l * d[1] for l, d in zip(lengths, dirs))
        if dx >= 0 or dy <= 0:
            continue
        x, y = -dx, F(0)
        chain = [(x, y)]
        for l, d in zip(lengths, dirs):
            x, y = x + l * d[0], y + l * d[1]
            chain.append((x, y))
        if _left_turns(chain):
            return chain


def _hull_chain(points) -> list:
    """Counterclockwise hull chain from the x-axis intercept to the y-axis intercept."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    i = hull.index((F(0), F(0)))
    return (hull[i:] + hull[:i])[1:]


def monotone_chain(rng, digits: int) -> list:
    """Hull of the axis intercepts and random interior points: edges go up-left."""
    x0 = rand_q(rng, F(1, 4), 3, digits)
    y1 = rand_q(rng, F(1, 4), 3, digits)
    pts = [(F(0), F(0)), (x0, F(0)), (F(0), y1)]
    for _ in range(rng.randint(1, 6)):
        p = (rand_q(rng, 0, x0, digits), rand_q(rng, 0, y1, digits))
        if 0 < p[0] < x0 and 0 < p[1] < y1:
            pts.append(p)
    return _hull_chain(pts)


def omega_chain(a: Fraction) -> list:
    return [(1 - 2 * a, F(0)), (1 - a, a), (a, 1 - a), (F(0), 1 - 2 * a)]


def square_chain(a: Fraction) -> list:
    return [(a, F(0)), (a, a), (F(0), a)]


# ---------------------------------------------------------------------------
# Rectangle unions
# ---------------------------------------------------------------------------

def connected_union(rng, n: int) -> list:
    """n rectangles, each overlapping an earlier one; the first sits on both axes."""
    def side(lo, hi):
        return rand_q(rng, lo, hi, 1)

    rects = [(F(0), side(F(1, 2), 2), F(0), side(F(1, 4), 1))]
    while len(rects) < n:
        bx0, bx1, by0, by1 = rng.choice(rects)
        ax, ay = side(bx0, bx1), side(by0, by1)
        x0, x1 = max(F(0), ax - side(0, 1)), ax + side(F(1, 10), 1)
        y0, y1 = max(F(0), ay - side(0, 1)), ay + side(F(1, 10), 1)
        rects.append((x0, x1, y0, y1))
    return rects


def staircase(rng, steps: int) -> list:
    """``steps`` rectangles on the origin with distinct corners, x up and y down."""
    xs, ys = set(), set()
    while len(xs) < steps:
        xs.add(rand_q(rng, F(1, 10), 3, 2))
    while len(ys) < steps:
        ys.add(rand_q(rng, F(1, 10), 3, 2))
    return [(F(0), x, F(0), y) for x, y in zip(sorted(xs), sorted(ys, reverse=True))]


def l_shape(rng, thickness: Fraction) -> list:
    """Two arms of the given thickness; arm lengths 3/2 up to a 2-digit jitter."""
    arm_x = F(3, 2) + rand_q(rng, 0, F(1, 50), 2)
    arm_y = F(3, 2) + rand_q(rng, 0, F(1, 50), 2)
    return [(F(0), arm_x, F(0), thickness), (F(0), thickness, F(0), arm_y)]


# ---------------------------------------------------------------------------
# Report ops
# ---------------------------------------------------------------------------

def _report_op(lib, kind, bucket, doc, check) -> Op:
    text = O.dump(doc)

    def call():
        return lib.report_to_dict(lib.capacity_report(lib.parse_domain(text)))

    return Op(kind, bucket, text, call, check)


def polygon_op(lib, kind, bucket, chain, omega_a=None) -> Op:
    doc = polygon_doc(chain)
    op = _report_op(lib, kind, bucket, doc,
                    lambda rep: O.check_polygon_report(doc, rep, omega_a))
    op.known = lambda reasons: KNOWN_ETA if O.is_known_eta_defect(doc, reasons) else None
    return op


def union_op(lib, kind, bucket, rects, thickness=None) -> Op:
    doc = union_doc(rects)
    return _report_op(lib, kind, bucket, doc,
                      lambda rep: O.check_union_report(doc, rep, thickness))


class Workload:
    """A workload: ``cycle(rng)`` hands out one cycle of ops, ``warmup(rng)`` a few."""

    deadline_s = None   # per-op deadline, in seconds at the nominal machine speed
    in_process = True   # ops run in the worker; else each op is a child process
    cycle_s = 1.0       # about how long a cycle takes; a run does seconds/cycle_s cycles
    trace_cycles = 1    # cycles in a traced run, fixed so that its counts repeat

    def __init__(self, lib, root, workdir):
        self.lib = lib


class PolygonReports(Workload):
    name = "polygon_reports"
    why = ("bulk family sweep: parse_domain -> capacity_report -> report_to_dict on "
           "polygons; bypasses rect coverage and the ech search")
    sizes = ("per cycle: Omega_a at a = k/401 for k = 1..200, plus 8 weakly convex "
             "and 4 monotone seeded chains per denominator size of 2..12 digits")
    cycle_s = 0.2
    trace_cycles = 8
    DIGITS = range(2, 13)

    def cycle(self, rng):
        ops = [polygon_op(self.lib, "omega", "omega", omega_chain(F(k, 401)), F(k, 401))
               for k in range(1, 201)]
        for digits in self.DIGITS:
            bucket = f"den{digits:02d}"
            ops += [polygon_op(self.lib, "weakly_convex", bucket, weakly_convex_chain(rng, digits))
                    for _ in range(8)]
            ops += [polygon_op(self.lib, "monotone", bucket, monotone_chain(rng, digits))
                    for _ in range(4)]
        rng.shuffle(ops)
        return ops

    def warmup(self, rng):
        return self.cycle(rng)[:40]


class UnionReports(Workload):
    name = "union_reports"
    why = ("the same report on rectangle unions, where O(n^4) cell coverage and the "
           "extent/eta lattice-witness scan do most of the work")
    sizes = ("per cycle: seeded connected unions of 8/16/24/32 rects (2/2/1/1 of them), "
             "staircases of 8/16/24/32 steps (2/4/2/1), two-rect L-shapes of arm thickness "
             "1/10^2, 1/10^3 and 3/10^4 (2/1/1)")
    cycle_s = 1.6
    trace_cycles = 2
    SIZES = (8, 16, 24, 32)
    THICKNESS = {"L_1e-2": F(1, 100), "L_1e-3": F(1, 1000), "L_3e-4": F(3, 10000)}
    # Ops per cycle.  Rect unions and staircases, where the O(n^4) coverage
    # runs, take about three quarters of a cycle.  stair16 sits in the middle
    # of the cost order, so that it holds the median op, and stair32 shares
    # the tail with rects32 and L_3e-4.  Staircases do the full coverage
    # work at a cost that barely depends on the seed.
    COUNTS = {"rects08": 2, "rects16": 2, "rects24": 1, "rects32": 1,
              "stair08": 2, "stair16": 4, "stair24": 2, "stair32": 1,
              "L_1e-2": 2, "L_1e-3": 1, "L_3e-4": 1}

    def cycle(self, rng):
        ops = []
        for n in self.SIZES:
            kind = f"rects{n:02d}"
            ops += [union_op(self.lib, kind, kind, connected_union(rng, n))
                    for _ in range(self.COUNTS[kind])]
        for n in self.SIZES:
            kind = f"stair{n:02d}"
            ops += [union_op(self.lib, kind, kind, staircase(rng, n))
                    for _ in range(self.COUNTS[kind])]
        for kind, t in self.THICKNESS.items():
            ops += [union_op(self.lib, kind, kind, l_shape(rng, t), t)
                    for _ in range(self.COUNTS[kind])]
        rng.shuffle(ops)
        return ops

    def warmup(self, rng):
        return [union_op(self.lib, "stair08", "stair08", staircase(rng, 8)),
                union_op(self.lib, "rects08", "rects08", connected_union(rng, 8)),
                union_op(self.lib, "L_1e-2", "L_1e-2", l_shape(rng, F(1, 100)), F(1, 100))]


# ---------------------------------------------------------------------------
# ECH search ops
# ---------------------------------------------------------------------------

SMALL_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)]


def orbit_literal(dirs) -> str:
    return " * ".join(f"e({x},{y})" for x, y in dirs)


def orbit_index(dirs) -> int:
    """Index of a product of distinct elliptic orbits of multiplicity 1."""
    x = sum(v[0] for v in dirs)
    y = sum(v[1] for v in dirs)
    double = sum(max(a[0] * b[1], b[0] * a[1]) for a in dirs for b in dirs)
    return x + y + double + len(dirs)


def small_test_sets():
    """Elliptic test sets of 1 or 2 orbits with |components| <= 1 and positive index."""
    singles = [[d] for d in SMALL_DIRECTIONS]
    pairs = [[a, b] for i, a in enumerate(SMALL_DIRECTIONS) for b in SMALL_DIRECTIONS[i + 1:]]
    return [s for s in singles + pairs if orbit_index(s) > 0]


class EchSearch(Workload):
    name = "ech_search"
    why = ("one layer used two ways: half-cube searches closed by sub-multiset pruning, "
           "and small searches that enumerate orbit sets; plus finite_d_bound")
    sizes = ("per cycle: half-cube -> Omega_3/10 at d = 30/45/60/75/90, twice; 135 small searches "
             "(vmax=2, lmax=2), 9 per domain near Omega_k/24 (k=1..11) and square k/4 (k=1..4); "
             "finite_d_bound at d = 3e2/3e3/3e4; the 2 non-terminating d=3 instances")
    deadline_s = 3.0
    cycle_s = 17.0
    HALFCUBE_D = (30, 45, 60, 75, 90)
    FDB_D = (300, 3000, 30000)

    def __init__(self, lib, root, workdir):
        self.lib = lib
        self.domains = [("Omega", k, omega_chain, 24001) for k in range(1, 12)]
        self.domains += [("square", k, square_chain, 4001) for k in range(1, 5)]
        sets = small_test_sets()
        self.with_e11 = [s for s in sets if (1, 1) in s]
        self.without_e11 = [s for s in sets if (1, 1) not in s]

    def _domain(self, chain):
        return self.lib.parse_domain(O.dump(polygon_doc(chain)))

    def warmup(self, rng):
        return self.small_searches(rng)[:6]

    def small_searches(self, rng):
        """9 searches per domain: 3 test sets with e(1,1), 6 without.

        The test sets rotate through a fixed order, so every seed runs the
        same mix.  The seed moves each domain parameter from k/24 (Omega) or
        k/4 (square) to (1000k + u)/p for a seeded u in 1..20 and the prime
        p = 24001 or 4001, so all seeds' parameters have equal-size
        denominators.
        """
        ops = []
        for i, (name, k, make, prime) in enumerate(self.domains):
            a = F(1000 * k + rng.randint(1, 20), prime)
            picks = ([self.with_e11[(3 * i + j) % len(self.with_e11)] for j in range(3)]
                     + [self.without_e11[(6 * i + j) % len(self.without_e11)] for j in range(6)])
            chain = make(a)
            for dirs in picks:
                ops.append(self._search_op("small", "small", f"{name}_{a}", chain, chain,
                                           orbit_literal(dirs), vmax=2, lmax=2,
                                           check=_inclusion_check, known=_inclusion_known))
        return ops

    def _search_op(self, kind, bucket, name, source, target, literal, vmax, lmax,
                   check=None, known=None):
        lib = self.lib
        src, tgt = self._domain(source), self._domain(target)
        alpha = lib.parse_orbit_set(literal)

        def call():
            return lib.obstruction_search(src, tgt, alpha, vmax=vmax, lmax=lmax)

        def check_witness(rep):
            if rep.witness is None:
                return [] if rep.status.value != "FeasibleWitness" else ["status: witness missing"]
            if not lib.verify_witness(src, tgt, rep.witness, alpha):
                return ["witness: fails verify_witness"]
            return []

        label = f"{name} alpha={literal} vmax={vmax} lmax={lmax}"
        return Op(kind, bucket, label, call,
                  (lambda rep: check(rep) + check_witness(rep)) if check else check_witness,
                  known)

    def cycle(self, rng):
        ops = self.small_searches(rng)
        omega = omega_chain(OMEGA_310)
        x_int, y_int = omega[0][0], omega[-1][1]
        # The series runs twice.  With the 2 ops stopped by the deadline and
        # the 3 small searches of about 1 s (the same 3 for every seed), the
        # d=60 pair then holds the tail percentile, the 11th slowest op.
        for d in self.HALFCUBE_D * 2:
            def check(rep, d=d):
                out = []
                if rep.status.value != "InfeasibleWithinBounds" or rep.obstructed_a != HALF:
                    out.append(f"status: got {rep.status.value} a={rep.obstructed_a}, "
                               "want InfeasibleWithinBounds a=1/2")
                if O.finite_d_bound(x_int, y_int, d) >= HALF:
                    out.append("oracle: finite_d_bound does not obstruct the half cube")
                return out
            ops.append(self._search_op(
                "halfcube", f"d{d}", "square_1/2 -> Omega_3/10", square_chain(HALF), omega,
                f"e(1,-1)^{d} * e(-1,1)^{d} * e(1,1)^2", vmax=3, lmax=3, check=check))
        lib = self.lib
        dom = self._domain(omega)
        for d in self.FDB_D:
            want = O.finite_d_bound(x_int, y_int, d)
            ops.append(Op("finite_d_bound", f"d{d}", f"Omega_3/10 d={d}",
                          lambda d=d: lib.finite_d_bound(dom, d),
                          lambda got, want=want: [] if got == want else [f"bound: got {got}, oracle {want}"]))
        for name, source in (("square_1/2 -> square_1/2", square_chain(HALF)),
                             ("square_2/5 -> Omega_3/10", square_chain(F(2, 5)))):
            target = source if "-> square" in name else omega
            ops.append(self._search_op(
                "inclusion_d3", "d3", name, source, target,
                "e(1,-1)^3 * e(-1,1)^3 * e(1,1)^2", vmax=3, lmax=3,
                check=_inclusion_check, known=_inclusion_known))
        rng.shuffle(ops)
        return ops


def _inclusion_check(rep) -> list:
    """Source contained in target: the search must never claim an obstruction."""
    return [INCLUSION_REASON] if rep.status.value == "InfeasibleWithinBounds" else []


def _inclusion_known(reasons) -> Optional[str]:
    """ROADMAP item 3: searches that pruning cannot close hang, and inclusions
    must never return InfeasibleWithinBounds."""
    if reasons == ["deadline"]:
        return KNOWN_SEARCH_HANG
    if reasons == [INCLUSION_REASON]:
        return KNOWN_INCLUSION
    return None


# ---------------------------------------------------------------------------
# CLI processes
# ---------------------------------------------------------------------------

SWEEP = ["1/8", "1/5", "1/4", "3/10", "1/3", "2/5", "9/20"]


class CliMix(Workload):
    name = "cli_mix"
    why = ("what a CLI user sees: one python -m toricap process per op, dominated by "
           "interpreter start-up and import toricap")
    sizes = ("per cycle: info and report on a seeded polygon and an 8-rect union, xa over "
             "7 parameters as table and csv, bound on Omega_3/10, obstruct identity e(1,1) "
             "and 4 times half-cube d=30, amin --brute 50")
    cycle_s = 3.0
    in_process = False
    TIMEOUT_S = 120

    def __init__(self, lib, root, workdir):
        self.root = root
        self.workdir = workdir
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        golden = os.path.join(root, "tests", "golden")
        with open(os.path.join(golden, "xa_sweep.txt"), encoding="utf-8") as fh:
            self.golden_table = fh.read()
        with open(os.path.join(golden, "xa_sweep.csv"), encoding="utf-8") as fh:
            self.golden_csv = fh.read()
        self.omega_file = self._write("omega_3_10.json", polygon_doc(omega_chain(OMEGA_310)))
        self.half_file = self._write("square_1_2.json", polygon_doc(square_chain(HALF)))

    def _write(self, name, doc) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(O.dump(doc))
        return os.path.relpath(path, self.root)

    def _op(self, kind, argv, check, label=None, known=None) -> Op:
        cmd = [sys.executable, "-m", "toricap", *argv]

        def call():
            return subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=self.TIMEOUT_S)

        def check_process(cp):
            if cp.returncode != 0:
                return [f"exit {cp.returncode}: {cp.stderr.strip()[-200:]}"]
            return check(cp.stdout)

        return Op(kind, kind, label or " ".join(argv), call, check_process, known, argv)

    def warmup(self, rng):
        return [self._op("cli.info", ["info", self.omega_file], lambda out: [])]

    def cycle(self, rng):
        poly = polygon_doc(weakly_convex_chain(rng, rng.randint(2, 4)))
        union = connected_union(rng, 8)
        poly_file = self._write("polygon.json", poly)
        union_file = self._write("union.json", union_doc(union))
        chain = O.polygon_chain(poly)
        d = O.polygon_delta(chain)
        poly_want = {"delta": d, "eta": O.polygon_eta(chain, d), "monotone": O.polygon_monotone(chain)}
        grid = O.PaintedGrid(union)
        union_want = {"delta": grid.delta(), "eta": grid.eta(), "monotone": grid.staircase()}
        poly_known = lambda reasons: KNOWN_ETA if O.is_known_eta_defect(poly, reasons) else None

        xa = ["xa"] + [arg for a in SWEEP for arg in ("--a", a)]
        omega = omega_chain(OMEGA_310)
        x_int, y_int = omega[0][0], omega[-1][1]
        bound_want = {"cube bound": (x_int + y_int) / 2}
        bound_want.update({f"d={d}": O.finite_d_bound(x_int, y_int, d) for d in (3, 9, 30, 90, 300)})
        amin_want = O.a_min([F(2, 3), F(1, 2)])
        # Four of these per cycle: the tail percentile (the 11th slowest of
        # 65 ops) then lands near the middle of this, the heaviest class.
        half_cube = self._op(
            "cli.obstruct", ["obstruct", "--source", self.half_file, "--target", self.omega_file,
                             "--alpha", "e(1,-1)^30 * e(-1,1)^30 * e(1,1)^2", "--vmax", "3",
                             "--lmax", "3"],
            lambda out: _text_fields(out, {"status": "InfeasibleWithinBounds",
                                           "obstructed cube size": "1/2"})
            + ([] if O.finite_d_bound(x_int, y_int, 30) < HALF
               else ["oracle: finite_d_bound does not obstruct the half cube"]))
        return [
            self._op("cli.info", ["info", poly_file], lambda out: _fields(out, poly_want),
                     label=f"info {O.dump(poly)}", known=poly_known),
            self._op("cli.info", ["info", union_file], lambda out: _fields(out, union_want),
                     label=f"info {O.dump(union_doc(union))}"),
            self._op("cli.report", ["report", poly_file], lambda out: _fields(out, poly_want),
                     label=f"report {O.dump(poly)}", known=poly_known),
            self._op("cli.report", ["report", union_file], lambda out: _fields(out, union_want),
                     label=f"report {O.dump(union_doc(union))}"),
            self._op("cli.xa", xa, lambda out: _same(out, self.golden_table, "xa_sweep.txt")),
            self._op("cli.xa", xa + ["--format", "csv"],
                     lambda out: _same(out, self.golden_csv, "xa_sweep.csv")),
            self._op("cli.bound", ["bound", self.omega_file], lambda out: _fields(out, bound_want)),
            self._op("cli.obstruct", ["obstruct", "--source", self.omega_file, "--target",
                                      self.omega_file, "--alpha", "e(1,1)", "--vmax", "3", "--lmax", "3"],
                     lambda out: _text_fields(out, {"status": "FeasibleWitness", "alpha": "e(1,1)"})),
        ] + [half_cube] * 4 + [
            self._op("cli.amin", ["amin", "--x", "2/3,1/2", "--brute", "50"],
                     lambda out: _text_fields(out, {"closed": str(amin_want),
                                                    "brute (K=50)": str(amin_want)})
                     + ([] if "agree" in out.splitlines() else ["amin: no 'agree' line"])),
        ]


def _fields(out: str, want: dict) -> list:
    got = O.parse_lines(out)
    reasons = []
    for key, value in want.items():
        text = str(value).lower() if isinstance(value, bool) else str(value)
        if got.get(key) != text:
            reasons.append(f"{key}: got {got.get(key)}, oracle {text}")
    return reasons


def _text_fields(out: str, want: dict) -> list:
    got = O.parse_lines(out)
    return [f"{k}: got {got.get(k)}, want {v}" for k, v in want.items() if got.get(k) != v]


def _same(out: str, golden: str, name: str) -> list:
    return [] if out == golden else [f"stdout differs from tests/golden/{name}"]


WORKLOADS = {w.name: w for w in (PolygonReports, UnionReports, EchSearch, CliMix)}


