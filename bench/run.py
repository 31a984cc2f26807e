#!/usr/bin/env python3
"""Seeded benchmark of toricap: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload polygon_reports --seed 1 --seconds 15 --trace 0

Workloads: polygon_reports, union_reports, ech_search, cli_mix (see
``workloads.py``).  Each hands out its ops in cycles of fixed composition;
a run does round(seconds / cycle_s) whole cycles, so every run of a
workload does the same amount of work.  Load is one closed loop in one
worker process, one op at a time, pinned with its CLI children to one
CPU; ``cli_mix`` runs one ``python -m toricap`` child at a time.

With ``--trace 0`` the run prints the end-to-end metrics: ops_per_s,
op_p50_ms, op_tail_ms, fail_ratio, setup_s and peak_rss_mb.  In-process
ops are timed by CPU time, CLI ops and setup_s by wall time; all times are
scaled to a nominal machine speed (see ``Runner``), and the raw figures are
in the detail line.  With ``--trace 1`` the run instead wraps the
library's public functions (``tracing.py``) and prints the per-layer
metrics.

Every output is checked against an independent oracle outside the timed
region, and every failed op is listed with its input.  Failures that
match a documented library defect (``workloads.KNOWN_*``) count as
failed ops but leave ``correct`` true; any other failure makes it false.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the details
(environment, failure counts, each op class's share of the time).  A
traced run also writes its raw spans, once at the end, to
``.bench_work/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.metadata
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import tracing
import workloads
from tracing import RULES, SEARCH_COUNTERS, STATUSES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5     # fresh interpreters timed to ready; the median is setup_s
IMPORT_SAMPLES = 3    # fresh interpreters timing `import toricap` in a traced run
RUN_LIMIT_S = 170     # the whole benchmark ends within this many seconds
REF_NOMINAL_NS = 1_000_000  # scaled times: a machine where reference_loop takes 1 ms
PROCESS_REF_NOMINAL_NS = 60_000_000  # ... and where the reference process takes 60 ms
PROCESS_REFERENCE = [sys.executable, "-c", "import fractions, json"]
SPEED_EVERY_NS = 10_000_000  # op time between two timings of the speed reference
SPEED_EACH_NS = 1_000_000    # ops at least this long get their own timings
SAMPLE_EVERY_S = 0.025  # CPU time between two timings of reference_loop inside ops
FAILURES = "failures.jsonl"  # the worker's failed ops, in its work directory


class Deadline(BaseException):
    """Raised into an op by SIGALRM when it overruns the per-op deadline."""


def _alarm(signum, frame):
    raise Deadline()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the cleanup of started processes


# ---------------------------------------------------------------------------
# Metric catalogue
# ---------------------------------------------------------------------------

END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

GEOMETRY = ("delta", "eta", "is_monotone", "cube_inclusion", "domain_on_boundary")
ECH_FUNCS = ("action", "orbit_invariants", "cross_term", "leq_relation", "verify_witness",
             "obstruction_search", "finite_d_bound")
CLI_SUBCOMMANDS = ("info", "report", "xa", "bound", "obstruct", "amin")
REPORT_BUCKETS = (["omega"] + [f"den{d:02d}" for d in workloads.PolygonReports.DIGITS]
                  + list(workloads.UnionReports.COUNTS))


def per_layer_catalog():
    """Every per-layer metric as (name, unit, better), in output order."""
    out = [("import.toricap_ms", "ms", "lower"), ("import.numpy_loaded", "bool", "lower")]
    out += [(f"cli.{c}.ms", "ms", "lower") for c in CLI_SUBCOMMANDS]
    out += [("cli.main.self_ms", "ms", "lower")]

    def calls_self(name):
        return [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]

    out += calls_self("domains.parse_domain")
    for fn in GEOMETRY:
        for shape in ("poly", "rect"):
            out += calls_self(f"geometry.{fn}.{shape}")
    out += calls_self("geometry.support")
    out += calls_self("lagrangian.lagrangian_capacity")
    out += [("lagrangian.witness_probes", "count", "lower"),
            ("lagrangian.witness_hit_ratio", "ratio", "higher")]
    out += [(f"lagrangian.rule.{r}", "count", "lower" if r == "IntervalOnly" else "higher")
            for r in RULES]
    out += calls_self("lagrangian.a_min_closed")
    out += calls_self("capacities.capacity_report")
    out += [("capacities.capacity_report.total_s", "s", "lower"),
            ("capacities.report_to_dict.self_s", "s", "lower")]
    out += [(f"capacities.report.{b}.p50_ms", "ms", "lower") for b in REPORT_BUCKETS]
    for fn in ECH_FUNCS:
        out += calls_self(f"ech.{fn}")
    out += calls_self("ech.enumerate_orbit_sets")
    out += [("ech.enumerate_orbit_sets.yielded", "count", "lower"),
            ("ech.enum.useful_ratio", "ratio", "higher")]
    out += [(f"ech.search.{c}", "count", "higher" if c == "factors_pruned" else "lower")
            for c in SEARCH_COUNTERS]
    out += [(f"ech.status.{s}", "count", "lower" if s == "Inconclusive" else "higher")
            for s in STATUSES]
    out += [(f"ech.halfcube.d{d}.ms", "ms", "lower") for d in workloads.EchSearch.HALFCUBE_D]
    out += [(f"ech.finite_d_bound.d{d}.ms", "ms", "lower") for d in workloads.EchSearch.FDB_D]
    out += [("ech.deadline_hits", "count", "lower"), ("trace.overhead_ratio", "ratio", "lower")]
    return out


# ---------------------------------------------------------------------------
# Worker: one fresh interpreter running one workload
# ---------------------------------------------------------------------------

def _tuples(n):
    if n == 0:
        yield ()
        return
    for m in range(3):
        for rest in _tuples(n - 1):
            yield (m,) + rest


def reference_loop():
    """Fixed pure-Python work of about 1.5 ms, in the library's mix of
    Fraction arithmetic, recursive generators, tuples, sets and sorting."""
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    seen = {sum(a * b for a, b in zip(t, t[1:])) for t in _tuples(5)}
    order = sorted((str(i * 7919 % 1009), i) for i in range(200))
    return acc, seen, order


def reference_ns():
    """CPU time of ``reference_loop``, the speed reference of in-process ops."""
    t0 = time.thread_time_ns()
    reference_loop()
    return time.thread_time_ns() - t0


def process_reference_ns():
    """Wall time of a fixed child interpreter, the speed reference of CLI ops."""
    t0 = time.perf_counter_ns()
    subprocess.run(PROCESS_REFERENCE, check=True)
    return time.perf_counter_ns() - t0


def execute(op, deadline_s, clock, tracer=None, op_index=-1):
    """Run one op; returns (ns on ``clock``, output, error).  Only the call is timed."""
    if tracer is not None:
        tracer.op, tracer.stack, tracer.active = op_index, [-1], True
    if deadline_s:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
    t0 = clock()
    try:
        out, err = op.call(), None
    except Deadline:
        out, err = None, "deadline"
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        out, err = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        if deadline_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = clock() - t0
        if tracer is not None:
            tracer.active = False
    return dt, out, err


class Recorder:
    """Op samples of one pass; checks run here, untimed.

    Samples are kept in flat columns and failures go straight to the
    ``sink`` file, so that the benchmark's own memory barely grows with the
    op count and peak_rss_mb stays the program's.
    """

    def __init__(self, sink=None, stage="timed"):
        self.sink, self.stage = sink, stage
        self.kind, self.bucket = [], []
        self.raw = array("q")          # op wall time, ns
        self.scaled = array("d")       # the same, scaled to the nominal machine speed
        self.completed = bytearray()   # returned without raising or a deadline
        self.bad = bytearray()         # failed: raised, hit the deadline, or wrong
        self.known = Counter()
        self.unexpected = 0
        self.stopped = []              # indices of the ops stopped by the deadline

    def record(self, op, dt, out, err):
        if err is None:
            try:
                reasons = op.check(out)
            except Exception as exc:  # an oracle that cannot read the output
                reasons = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            reasons = [err]
        self.kind.append(sys.intern(op.kind))
        self.bucket.append(sys.intern(op.bucket))
        self.raw.append(dt)
        self.scaled.append(dt)
        self.completed.append(err is None)
        self.bad.append(bool(reasons))
        if not reasons:
            return
        known = op.known(reasons) if op.known else None
        if known:
            self.known[known] += 1
        else:
            self.unexpected += 1
        if err == "deadline":
            self.stopped.append(len(self.raw) - 1)
        if self.sink is not None:
            self.sink.write(json.dumps({"stage": self.stage, "kind": op.kind, "known": known,
                                        "reasons": reasons[:4], "input": op.label}) + "\n")

    @property
    def attempted(self):
        return len(self.raw)

    @property
    def failed(self):
        return sum(self.bad)


class Runner:
    """Runs ops one at a time and scales their times by the machine's speed.

    In-process ops are timed by the CPU time of the worker thread, not the
    wall clock: on a shared VM the thread can be off the CPU for 5-20 ms at
    a time, which made the wall time of 1 op in 2000 of polygon_reports 10x
    its CPU time.  CLI ops are timed by the wall clock, which varies less
    between runs than the CPU time of the child process does.

    The CPU of a shared VM can switch between speeds 1.8x apart for seconds
    at a time, which moves raw times by 25% between runs.  So the runner
    times a speed reference between ops (untimed), after each op of
    SPEED_EACH_NS or more and at least every SPEED_EVERY_NS of op time.
    For in-process ops the reference is ``reference_loop`` on the CPU-time
    clock, and it also runs inside long ops: a CPU-time timer runs it every
    SAMPLE_EVERY_S, and its own time is taken off the op's time.  For CLI
    ops it is the wall time of PROCESS_REFERENCE, a short child interpreter,
    because the start-up of a child process does not follow the speed of a
    loop in the parent.  Each op's time is scaled by the nominal reference
    time over the mean of the reference times before, during and after it:
    the scaled time is the op's time on a machine where the reference takes
    REF_NOMINAL_NS (or PROCESS_REF_NOMINAL_NS).  The per-op deadline is
    scaled the other way, so it allows the same work at any speed.
    """

    def __init__(self, deadline_s, in_process):
        self.deadline_s = deadline_s
        self.in_process = in_process
        if in_process:
            self.clock, self.nominal = time.thread_time_ns, REF_NOMINAL_NS
            self.reference = reference_ns
        else:
            self.clock, self.nominal = time.perf_counter_ns, PROCESS_REF_NOMINAL_NS
            self.reference = process_reference_ns
        self.ref = self.reference()
        self.pending = []       # (recorder, sample index, reference times during the op)
        self.since = 0
        self.inside = []        # reference times taken by the timer
        self.inside_ns = 0      # CPU time the timer's handler took
        signal.signal(signal.SIGVTALRM, self._sample)
        self.arm()

    def _sample(self, signum, frame):
        t0 = self.clock()
        self.inside.append(self.reference())
        self.inside_ns += self.clock() - t0

    def run(self, op, recorder, tracer=None, index=-1):
        """Run and record one op; returns its time in ns, less the timer's."""
        deadline = self.deadline_s and self.deadline_s * self.ref / self.nominal
        self.inside, self.inside_ns = [], 0
        dt, out, err = execute(op, deadline, self.clock, tracer, index)
        dt -= self.inside_ns
        recorder.record(op, dt, out, err)
        if err == "deadline":
            # Scaled by the speed its deadline was set with: it used all of it.
            recorder.scaled[-1] = dt * self.nominal / self.ref
        else:
            self.pending.append((recorder, len(recorder.raw) - 1, self.inside))
        self.since += dt
        if self.since >= SPEED_EVERY_NS or dt >= SPEED_EACH_NS:
            self.flush()
        return dt

    def arm(self):
        if self.in_process:
            signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def close(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def flush(self):
        now = self.reference()
        for recorder, i, inside in self.pending:
            refs = [self.ref, now] + inside
            recorder.scaled[i] = recorder.raw[i] * self.nominal * len(refs) / sum(refs)
        self.pending.clear()
        self.since = 0
        self.ref = now


def run_pass(workload, runner, rng, ops, recorder, cycles, tracer=None):
    """Run ``cycles`` whole cycles, starting with ``ops``."""
    index = 0
    for cycle in range(cycles):
        if cycle:
            ops = workload.cycle(rng)
        for op in ops:
            runner.run(op, recorder, tracer, index)
            index += 1
    runner.flush()


def run_cli_pass(workload, runner, cycles, lib, inproc, tracer=None, procs=None):
    """cli_mix for the traced run: each op as a process into ``procs`` (when
    given), then the same arguments through cli.main in-process into ``inproc``."""
    rng = random.Random(workload.seed)
    index = 0
    for _ in range(cycles):
        for op in workload.cycle(rng):
            if procs is not None:
                runner.run(op, procs)

            def in_process(argv=op.argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    return lib.cli.main(argv)

            runner.run(dataclasses.replace(op, label="in-process " + op.label, call=in_process,
                                           check=lambda code: [] if code == 0 else [f"exit {code}"]),
                       inproc, tracer=tracer, index=index)
            index += 1
    runner.flush()


def worker(args):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import toricap
    import toricap.cli  # noqa: F401  (the traced cli_mix pass calls cli.main)

    signal.signal(signal.SIGALRM, _alarm)
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(toricap, str(ROOT), args.workdir)
    workload.seed = args.seed
    runner = Runner(cls.deadline_s, cls.in_process)
    listing = args.role == "worker"
    with open(Path(args.workdir) / FAILURES if listing else os.devnull, "w") as sink:
        try:
            result = _work(args, toricap, cls, workload, runner, sink)
        finally:
            runner.close()
    if result is not None:
        print(json.dumps(result), flush=True)
    return 0


def _work(args, toricap, cls, workload, runner, sink):
    warm = Recorder(sink, "warmup")
    for op in workload.warmup(random.Random(f"{args.seed}:warmup")):
        runner.run(op, warm)
    runner.flush()
    rng = random.Random(args.seed)
    first = workload.cycle(rng)
    print("ready", flush=True)
    if args.role == "setup":
        return None

    result = {"warmup_unexpected": warm.unexpected}
    if not args.trace:
        rec = Recorder(sink)
        cycles = max(1, round(args.seconds / cls.cycle_s))
        run_pass(workload, runner, rng, first, rec, cycles)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_mix" else resource.RUSAGE_SELF
        result.update(end_to_end(rec), cycles=cycles,
                      peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024)
        return result

    # The untraced pass repeats the traced one's ops, with the same
    # deadline: its failures are counted but not listed twice.  The speed
    # timer is off while tracing, so that no reference loop runs inside a span.
    tracer = tracing.Tracer()
    tracer.install(toricap)
    rec, ref = Recorder(sink), Recorder()
    cycles = cls.trace_cycles
    runner.close()
    if args.workload == "cli_mix":
        traced = Recorder(sink)
        run_cli_pass(workload, runner, cycles, toricap, traced, tracer, procs=rec)
        tracer.uninstall()
        runner.arm()
        run_cli_pass(workload, runner, cycles, toricap, ref)
        rec.unexpected += traced.unexpected
    else:
        traced = rec
        run_pass(workload, runner, rng, first, rec, cycles, tracer)
        tracer.uninstall()
        runner.arm()
        rng = random.Random(args.seed)
        run_pass(workload, runner, rng, workload.cycle(rng), ref, cycles)
    # An op stopped by the deadline did as much work as the machine's speed
    # allowed: it is left out of the overhead and of the span statistics.
    stopped = set(traced.stopped) | set(ref.stopped)
    tracer.drop_ops(stopped)
    overhead = (sum(t for i, t in enumerate(traced.scaled) if i not in stopped)
                / sum(t for i, t in enumerate(ref.scaled) if i not in stopped))
    spans = Path(args.workdir).parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    result.update(attempted=rec.attempted, failed=rec.failed,
                  unexpected=rec.unexpected + ref.unexpected, known=dict(rec.known),
                  cycles=cycles, layers=per_layer(tracer, rec, ref, overhead),
                  spans=len(tracer.dur), spans_file=str(spans.relative_to(ROOT)))
    return result


def tail(times_ms):
    """The highest percentile with at least ten ops beyond it: (value, percentile)."""
    times = sorted(times_ms)
    n = len(times)
    if n <= 10:
        return times[-1], 100.0
    return times[n - 11], 100.0 * (n - 10) / n


def timing(rec, scaled=True):
    """ops_per_s, op_p50_ms and op_tail_ms of one pass, from scaled or raw times."""
    times = rec.scaled if scaled else rec.raw
    tail_ms, tail_pct = tail([ns / 1e6 for ns in times])
    return {"ops_per_s": sum(rec.completed) / (sum(times) / 1e9),
            "op_p50_ms": statistics.median(times) / 1e6,
            "op_tail_ms": tail_ms,
            "tail_percentile": tail_pct}


def end_to_end(rec):
    out = timing(rec)
    share = Counter()
    for kind, ns in zip(rec.kind, rec.scaled):
        share[kind] += ns
    total = sum(share.values())
    out.update(attempted=rec.attempted, failed=rec.failed, unexpected=rec.unexpected,
               known=dict(rec.known),
               raw={k: v for k, v in timing(rec, scaled=False).items() if k.startswith("op")},
               op_counts=dict(Counter(rec.kind)),
               time_share={kind: round(ns / total, 4) for kind, ns in share.most_common()})
    return out


def per_layer(tracer, rec, ref, overhead):
    """Per-layer metrics: span counts and self times from the traced pass, op
    times (scaled) from the untraced pass, or from the CLI processes."""
    stats = tracer.layer_stats()
    m = {name: 0 for name, _, _ in per_layer_catalog()}

    def put(name, key, suffix=None):
        m[f"{name}.{suffix or key}"] = stats.get(name, {}).get(key, 0)

    spanned = (["domains.parse_domain", "geometry.support", "lagrangian.lagrangian_capacity",
                "lagrangian.a_min_closed", "capacities.capacity_report", "ech.enumerate_orbit_sets"]
               + [f"geometry.{f}.{s}" for f in GEOMETRY for s in ("poly", "rect")]
               + [f"ech.{f}" for f in ECH_FUNCS])
    for name in spanned:
        put(name, "calls")
        put(name, "self_s")
    put("capacities.capacity_report", "total_s")
    put("capacities.report_to_dict", "self_s")

    under_lc = tracer.under("lagrangian.lagrangian_capacity")
    probes = hits = 0
    for shape in ("poly", "rect", "std"):
        c = tracer.aux_counts(f"geometry.domain_on_boundary.{shape}", flags=under_lc)
        probes += sum(c.values())
        hits += c[1]
    m["lagrangian.witness_probes"] = probes
    m["lagrangian.witness_hit_ratio"] = hits / probes if probes else 0
    rules = tracer.aux_counts("lagrangian.lagrangian_capacity")
    for i, r in enumerate(RULES):
        m[f"lagrangian.rule.{r}"] = rules[i]

    yielded = sum(k * v for k, v in tracer.aux_counts("ech.enumerate_orbit_sets").items())
    useful = tracer.aux_counts("ech.leq_relation", flags=tracer.under("ech.obstruction_search"),
                               exclude=tracer.under("ech.verify_witness"))[1]
    m["ech.enumerate_orbit_sets.yielded"] = yielded
    m["ech.enum.useful_ratio"] = useful / yielded if yielded else 0
    for c in SEARCH_COUNTERS:
        m[f"ech.search.{c}"] = tracer.search_counters[c]
    statuses = tracer.aux_counts("ech.obstruction_search")
    for i, s in enumerate(STATUSES):
        m[f"ech.status.{s}"] = statuses[i]

    by_bucket = defaultdict(list)
    for kind, bucket, ns in zip(ref.kind, ref.bucket, ref.scaled):
        by_bucket[(kind, bucket)].append(ns / 1e6)
    for (kind, bucket), ms in by_bucket.items():
        if kind == "halfcube":
            m[f"ech.halfcube.{bucket}.ms"] = statistics.median(ms)
        elif kind == "finite_d_bound":
            m[f"ech.finite_d_bound.{bucket}.ms"] = statistics.median(ms)
        elif bucket in REPORT_BUCKETS:
            m[f"capacities.report.{bucket}.p50_ms"] = statistics.median(ms)
    m["ech.deadline_hits"] = len(ref.stopped)
    processes = defaultdict(list)
    for kind, ns in zip(rec.kind, rec.scaled):
        if kind.startswith("cli."):
            processes[kind].append(ns / 1e6)
    for kind, ms in processes.items():
        m[f"{kind}.ms"] = statistics.median(ms)
    mains = stats.get("cli.main", {}).get("calls", 0)
    if mains:
        m["cli.main.self_ms"] = tracer.self_outside("cli.main", "cli.") / 1e6 / mains
    m["trace.overhead_ratio"] = overhead
    return m


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------

def spawn(args, role, workdir, deadline, procs):
    """Start a worker; returns (process, raw and scaled seconds from spawn to ready).

    The scaled time uses the reference process timed just before the spawn
    and just after the ready line, as ``Runner`` does for CLI ops.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    before = process_reference_ns()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    procs.append(proc)
    line = _readline(proc, deadline)
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise RuntimeError(f"{role} process did not get ready (exit {proc.returncode})")
    return proc, (setup, setup * 2 * PROCESS_REF_NOMINAL_NS / (before + process_reference_ns()))


def _readline(proc, deadline):
    """One stdout line of a worker, killing the worker if it overruns the run limit."""
    timer = threading.Timer(max(deadline - time.monotonic(), 0.1), proc.kill)
    timer.start()
    try:
        return proc.stdout.readline()
    finally:
        timer.cancel()


def _stop(proc):
    """Kill the process if it still runs, and reap it."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def import_probe():
    """`import toricap` time in a fresh interpreter, and whether numpy came with it."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import toricap; print((time.perf_counter() - t) * 1e3, int('numpy' in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                         timeout=60, check=True).stdout.split()
    return float(out[0]), int(out[1])


def environment(args, result):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "numpy_installed": numpy_version is not None,
        "numpy_version": numpy_version,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": result.get("cycles"),
        "op_counts": result.get("op_counts"),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def orchestrate(args):
    for need in (ROOT / "src" / "toricap" / "__init__.py", ROOT / "tests" / "golden" / "xa_sweep.txt"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} not found; run from a toricap checkout",
                  file=sys.stderr)
            return 2
    signal.signal(signal.SIGTERM, _terminate)
    # One CPU for this process and, by inheritance, every worker and CLI
    # child: the speed reference then times the CPU the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    procs = []
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = spawn(args, "setup", workdir, deadline, procs)
            setups.append(setup)
            _stop(proc)
        proc, setup = spawn(args, "worker", workdir, deadline, procs)
        setups.append(setup)
        line = _readline(proc, deadline)
        _stop(proc)
        if not line.strip():
            raise RuntimeError(f"worker ended without a result (exit {proc.returncode})")
        result = json.loads(line)
        with open(workdir / FAILURES, encoding="utf-8") as fh:
            failures = [json.loads(row) for row in fh]
        imports = [import_probe() for _ in range(IMPORT_SAMPLES)] if args.trace else []
    finally:
        for proc in procs:
            _stop(proc)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    setup_s = statistics.median(scaled for _, scaled in setups)
    if args.trace:
        metrics = result["layers"]
        metrics["import.toricap_ms"] = statistics.median(ms for ms, _ in imports)
        metrics["import.numpy_loaded"] = max(flag for _, flag in imports)
        catalog = per_layer_catalog()
    else:
        metrics = {name: result[name] for name, _, _ in END_TO_END if name != "setup_s"}
        metrics["setup_s"] = setup_s
        catalog = END_TO_END
    correct = result["unexpected"] == 0 and result["warmup_unexpected"] == 0
    detail = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload].why,
        "sizes": workloads.WORKLOADS[args.workload].sizes,
        "environment": environment(args, result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_ratio": result["failed"] / result["attempted"],
        "known_failures": result["known"],
        "unexpected_failures": result["unexpected"] + result["warmup_unexpected"],
        "setup_samples_s": {"raw": [r for r, _ in setups], "scaled": [c for _, c in setups]},
        "raw_unscaled": result.get("raw"),
    }
    if not args.trace:
        detail["tail_percentile"] = result["tail_percentile"]
        detail["time_share"] = result["time_share"]
    else:
        detail["spans"] = result["spans"]
        detail["spans_file"] = result["spans_file"]

    print(f"# toricap benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, unit, _ in catalog:
        print(f"{name:44s} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        print(f"{'op_tail_ms percentile':44s} {result['tail_percentile']:>14.6g} "
              f"({result['attempted']} ops in {result['cycles']} cycles)")
    print(f"{'fail_ratio':44s} {detail['fail_ratio']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']}; known {result['known']}, "
          f"unexpected {detail['unexpected_failures']})")
    for f in failures:
        print(f"fail: [{f['known'] or 'UNEXPECTED'}] {f['stage']} {f['kind']}: "
              f"{'; '.join(f['reasons'])} "
              f"| input: {f['input']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in catalog},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("polygon_reports", "union_reports", "ech_search", "cli_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15,
                        help="run length: the timed pass runs round(SECONDS / cycle_s) whole "
                             "cycles of the workload, cycle_s being its nominal cycle time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("orchestrator", "setup", "worker"),
                        default="orchestrator", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role == "orchestrator":
        return orchestrate(args)
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
