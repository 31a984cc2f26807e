"""Command-line interface: subcommands, golden files, and exit statuses."""

import json
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from toricap import DomainError
from toricap.cli import DECIMAL_LIMIT, SWEEP_LIMIT, _parse_sweep

GOLDEN = Path(__file__).parent / "golden"

SWEEP_ARGS = [
    "xa", "--a", "1/8", "--a", "1/5", "--a", "1/4", "--a", "3/10",
    "--a", "1/3", "--a", "2/5", "--a", "9/20",
]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "toricap", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


@pytest.fixture
def simplex_file(tmp_path):
    path = tmp_path / "simplex.json"
    path.write_text('{"kind":"polygon2d","vertices":[["1","0"],["0","1"]]}')
    return str(path)


@pytest.fixture
def omega_file(tmp_path):
    path = tmp_path / "omega.json"
    path.write_text(
        '{"kind":"polygon2d","vertices":[["2/5","0"],["7/10","3/10"],'
        '["3/10","7/10"],["0","2/5"]]}'
    )
    return str(path)


@pytest.fixture
def square_half_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(
        '{"kind":"polygon2d","vertices":[["1/2","0"],["1/2","1/2"],["0","1/2"]]}'
    )
    return str(path)


def test_entry_points_exist():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    assert "obstruct" in cp.stdout and "amin" in cp.stdout


def test_info(omega_file):
    cp = run_cli("info", omega_file)
    assert cp.returncode == 0, cp.stderr
    assert "kind: polygon2d" in cp.stdout
    assert "monotone: false" in cp.stdout
    assert "weakly_convex: true" in cp.stdout
    assert "delta: 1/2" in cp.stdout


def test_report_table(omega_file):
    cp = run_cli("report", omega_file)
    assert cp.returncode == 0, cp.stderr
    assert "c_P: 2/5" in cp.stdout
    assert "c_L: 1/2  [EtaOnBoundary]" in cp.stdout
    assert "c_N: 1/2" in cp.stdout


def test_report_json_round_trip(omega_file):
    cp = run_cli("report", omega_file, "--format", "json")
    assert cp.returncode == 0, cp.stderr
    data = json.loads(cp.stdout)
    assert data["c_P"] == {"lower": "2/5", "upper": "2/5", "exact": True}


def test_report_decimal_marked(omega_file):
    cp = run_cli("report", omega_file, "--decimal", "3")
    assert cp.returncode == 0
    assert "2/5 (~0.400)" in cp.stdout


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["report", "xa"])
def test_exit_2_on_decimal_with_machine_format(command, fmt, omega_file):
    # CSV and JSON cells are exact only; --decimal is refused, not dropped.
    args = {"report": ["report", omega_file], "xa": ["xa", "--a", "3/10"]}[command]
    cp = run_cli(*args, "--format", fmt, "--decimal", "3")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:") and cp.stderr.count("\n") == 1
    assert f"--format {fmt}" in cp.stderr
    assert cp.stdout == ""
    for ok in (["--format", fmt], ["--format", "table", "--decimal", "3"]):
        cp = run_cli(*args, *ok)
        assert cp.returncode == 0, cp.stderr
    assert "(~0.400)" in cp.stdout


@pytest.mark.parametrize("late", [False, True])
def test_report_decimal_out_of_float_range(tmp_path, late):
    big = 10**400
    if late:
        # delta is 1; only eta, reached after it, is out of range.
        rects = [(0, 2 * big, 0, 1), (2 * big - 1, 2 * big, 0, big)]
        doc = {"kind": "rectilinear2d", "rects": [
            dict(zip(("x0", "x1", "y0", "y1"), map(str, r))) for r in rects]}
    else:
        doc = {"kind": "polygon2d",
               "vertices": [[str(big), "0"], [str(big), str(big)], ["0", str(big)]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    cp = run_cli("report", str(path), "--decimal", "3")
    assert cp.returncode == 1
    assert cp.stderr.startswith("error:") and "Traceback" not in cp.stderr
    assert cp.stdout == ""
    cp = run_cli("report", str(path))
    assert cp.returncode == 0, cp.stderr


REPORT_DOCS = {
    "nduc": {"kind": "nduc", "n": 3, "a": "5/7"},
    "omega310": {"kind": "polygon2d", "vertices": [
        ["2/5", "0"], ["7/10", "3/10"], ["3/10", "7/10"], ["0", "2/5"]]},
    "staircase": {"kind": "rectilinear2d", "rects": [
        {"x0": "0", "x1": "2", "y0": "0", "y1": "1"},
        {"x0": "0", "x1": "1", "y0": "0", "y1": "3/2"},
        {"x0": "0", "x1": "1/2", "y0": "0", "y1": "5/2"}]},
    "interval": {"kind": "polygon2d", "vertices": [["1", "0"], ["3", "5"], ["0", "6"]]},
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("name", sorted(REPORT_DOCS))
def test_report_golden(tmp_path, name, fmt):
    # One domain of each kind; Omega_3/10 has eta = delta, so the polygon
    # golden does not depend on how eta is found.  The chain (1,0), (3,5),
    # (0,6) has no definite c_L: its golden prints the IntervalOnly bracket.
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(REPORT_DOCS[name]))
    cp = run_cli("report", str(path), "--format", fmt)
    assert cp.returncode == 0, cp.stderr
    suffix = "txt" if fmt == "table" else fmt
    assert cp.stdout == (GOLDEN / f"report_{name}.{suffix}").read_text()


def test_xa_sweep_golden_csv():
    cp = run_cli(*SWEEP_ARGS, "--format", "csv")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == (GOLDEN / "xa_sweep.csv").read_text()


def test_xa_sweep_golden_table():
    cp = run_cli(*SWEEP_ARGS)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == (GOLDEN / "xa_sweep.txt").read_text()


def test_xa_single_golden_json():
    cp = run_cli("xa", "--a", "3/10", "--format", "json")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.rstrip("\n") == (GOLDEN / "xa_310.json").read_text().rstrip("\n")


def test_xa_sweep_option():
    cp = run_cli("xa", "--sweep", "1/10..2/5:1/10", "--format", "csv")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["1/10", "1/5", "3/10", "2/5"]


def test_bound_with_note(simplex_file):
    cp = run_cli("bound", simplex_file, "--d", "3", "--d", "30")
    assert cp.returncode == 0, cp.stderr
    assert "cube bound: 1" in cp.stdout
    assert "d=3: 2" in cp.stdout
    assert "not tight; exact cube capacity is 1/2" in cp.stdout


def test_bound_tight_cases(omega_file):
    cp = run_cli("bound", omega_file)
    assert cp.returncode == 0, cp.stderr
    assert "cube bound: 2/5" in cp.stdout
    assert "d=30: 8/19" in cp.stdout
    assert "not tight" not in cp.stdout


def test_obstruct_feasible(omega_file):
    cp = run_cli(
        "obstruct", "--source", omega_file, "--target", omega_file,
        "--alpha", "e(1,1)", "--vmax", "3", "--lmax", "3",
    )
    assert cp.returncode == 0, cp.stderr
    assert "status: FeasibleWitness" in cp.stdout
    assert "alpha: e(1,1)" in cp.stdout


def test_obstruct_feasible_at_large_vmax(omega_file):
    # Over a thousand candidate orbits: the enumeration recurses once per
    # chosen orbit, not once per candidate, so it stays within the stack.
    cp = run_cli(
        "obstruct", "--source", omega_file, "--target", omega_file,
        "--alpha", "e(1,1)", "--vmax", "200", "--lmax", "1",
    )
    assert cp.returncode == 0, cp.stderr
    assert "status: FeasibleWitness" in cp.stdout


def test_obstruct_refuses_an_oversized_candidate_table(tmp_path):
    # At vmax 10^7 the unit square's slot would scan over 4 * 10^7 directions;
    # the search refuses its table with one error line, in a child held to
    # 512 MiB of address space.  ROADMAP's example size, vmax 10^5, answers.
    path = tmp_path / "square.json"
    path.write_text('{"kind":"polygon2d","vertices":[["1","0"],["1","1"],["0","1"]]}')
    cap = 1 << 29

    def run(vmax):
        return subprocess.run(
            [sys.executable, "-m", "toricap", "obstruct", "--source", str(path),
             "--target", str(path), "--alpha", "e(1,1)", "--vmax", vmax, "--lmax", "1"],
            capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )

    cp = run("10000000")
    assert (cp.returncode, cp.stdout) == (1, "")
    assert cp.stderr == ("error: the candidate table at vmax=10000000 would scan more "
                         "than the limit of 1000000 directions\n")
    cp = run("100000")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.startswith("status: FeasibleWitness\n")


def test_obstruct_infeasible(square_half_file, omega_file):
    cp = run_cli(
        "obstruct", "--source", square_half_file, "--target", omega_file,
        "--alpha", "e(1,-1)^30 * e(-1,1)^30 * e(1,1)^2",
        "--vmax", "3", "--lmax", "3",
    )
    assert cp.returncode == 0, cp.stderr
    assert "status: InfeasibleWithinBounds" in cp.stdout
    assert "obstructed cube size: 1/2" in cp.stdout
    assert "bounds: vmax=3 lmax=3\n" in cp.stdout
    assert "reason:" not in cp.stdout


def test_obstruct_inclusion_prints_reason(square_half_file):
    cp = run_cli(
        "obstruct", "--source", square_half_file, "--target", square_half_file,
        "--alpha", "e(-1,0) * e(0,-1)", "--vmax", "2", "--lmax", "2",
    )
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[:3] == [
        "status: Inconclusive",
        "reason: the source lies in the target or in its mirror (x, y) -> (y, x), "
        "so it embeds",
        "bounds: vmax=2 lmax=2",
    ]


OMEGA_310 = {"kind": "polygon2d",
             "vertices": [["2/5", "0"], ["7/10", "3/10"], ["3/10", "7/10"], ["0", "2/5"]]}
HALF_SQUARE = {"kind": "polygon2d", "vertices": [["1/2", "0"], ["1/2", "1/2"], ["0", "1/2"]]}
# Each golden is the stdout of ``toricap obstruct`` on these documents; the
# output names no file, so any path to the same documents prints it.
OBSTRUCT_RUNS = {
    "feasible": (OMEGA_310, OMEGA_310, "e(1,1)", 3, 3),
    "halfcube": (HALF_SQUARE, OMEGA_310, "e(1,-1)^30 * e(-1,1)^30 * e(1,1)^2", 3, 3),
    "inclusion": (HALF_SQUARE, HALF_SQUARE, "e(-1,0) * e(0,-1)", 2, 2),
}


@pytest.mark.parametrize("name", sorted(OBSTRUCT_RUNS))
def test_obstruct_golden(tmp_path, name):
    source, target, alpha, vmax, lmax = OBSTRUCT_RUNS[name]
    paths = []
    for role, doc in (("source", source), ("target", target)):
        paths.append(tmp_path / f"{role}.json")
        paths[-1].write_text(json.dumps(doc))
    cp = run_cli("obstruct", "--source", str(paths[0]), "--target", str(paths[1]),
                 "--alpha", alpha, "--vmax", str(vmax), "--lmax", str(lmax))
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == (GOLDEN / f"obstruct_{name}.txt").read_text()


def test_amin_oracle():
    cp = run_cli("amin", "--x", "1/2,1/2", "--brute", "50")
    assert cp.returncode == 0, cp.stderr
    assert "closed: 1/2" in cp.stdout
    assert "brute (K=50): 1/2" in cp.stdout
    assert "agree" in cp.stdout


# ---------------------------------------------------------------------------
# exit statuses: 0 success, 1 refused computation, 2 input error
# ---------------------------------------------------------------------------

def test_exit_2_on_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    cp = run_cli("info", str(bad))
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:")


def test_exit_2_on_invariant_violation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind":"polygon2d","vertices":[["1","0"],["0","1"],["1","1"]]}')
    cp = run_cli("report", str(bad))
    assert cp.returncode == 2
    assert "error:" in cp.stderr


def test_exit_2_on_missing_file():
    cp = run_cli("info", "/nonexistent/domain.json")
    assert cp.returncode == 2


def test_exit_2_on_unknown_flag(omega_file):
    cp = run_cli("info", omega_file, "--frobnicate")
    assert cp.returncode == 2


def test_exit_2_on_bad_orbit_literal(omega_file):
    cp = run_cli(
        "obstruct", "--source", omega_file, "--target", omega_file,
        "--alpha", "e(2,4)", "--vmax", "2", "--lmax", "2",
    )
    assert cp.returncode == 2


def test_exit_1_on_refused_bound(tmp_path):
    # Arrival edge too shallow for the slope bound.
    path = tmp_path / "shallow.json"
    path.write_text(
        '{"kind":"polygon2d","vertices":[["1","0"],["3","2"],["2","4"],["0","1/2"]]}'
    )
    cp = run_cli("bound", str(path))
    assert cp.returncode == 1
    assert "error:" in cp.stderr


def test_exit_1_on_off_diagonal_info_leaves_stdout_empty(tmp_path):
    # monotone is known before delta is refused; nothing may be printed.
    path = tmp_path / "off_diagonal.json"
    path.write_text(
        '{"kind":"rectilinear2d","rects":['
        '{"x0":"2","x1":"4","y0":"0","y1":"1/4"},'
        '{"x0":"3","x1":"4","y0":"0","y1":"1"}]}'
    )
    cp = run_cli("info", str(path))
    assert cp.returncode == 1
    assert cp.stdout == ""
    assert cp.stderr.startswith("error: diagonal does not meet the domain")


def test_exit_1_on_bad_amin_point():
    cp = run_cli("amin", "--x", "0,1/2")
    assert cp.returncode == 1
    assert "error:" in cp.stderr


def test_exit_1_on_invalid_limits(omega_file):
    cp = run_cli(
        "obstruct", "--source", omega_file, "--target", omega_file,
        "--alpha", "e(1,1)", "--vmax", "0", "--lmax", "0",
    )
    assert cp.returncode == 1
    assert "invalid search limits" in cp.stderr


def test_exit_1_on_bad_hypothesis(omega_file):
    cp = run_cli(
        "obstruct", "--source", omega_file, "--target", omega_file,
        "--alpha", "h(1,0)", "--vmax", "2", "--lmax", "2",
    )
    assert cp.returncode == 1


@pytest.mark.parametrize("command", ["report", "xa", "bound", "amin"])
def test_exit_2_on_negative_decimal(command, omega_file):
    args = {
        "report": ["report", omega_file],
        "xa": ["xa", "--a", "3/10"],
        "bound": ["bound", omega_file],
        "amin": ["amin", "--x", "1/2,1/3"],
    }[command]
    cp = run_cli(*args, "--decimal", "-1")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:") and "Traceback" not in cp.stderr
    assert cp.stdout == ""
    cp = run_cli(*args, "--decimal", "0")
    assert cp.returncode == 0, cp.stderr


@pytest.mark.parametrize("command", ["report", "xa", "bound", "amin"])
def test_exit_2_on_oversized_decimal(command, omega_file):
    # 2**31 digits would make the formatter raise "precision too big"; the
    # option is refused before any value is computed or formatted.
    args = {
        "report": ["report", omega_file],
        "xa": ["xa", "--a", "3/10"],
        "bound": ["bound", omega_file],
        "amin": ["amin", "--x", "1/2,1/3"],
    }[command]
    cp = run_cli(*args, "--decimal", "2147483648")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:") and "Traceback" not in cp.stderr
    assert str(DECIMAL_LIMIT) in cp.stderr
    assert cp.stdout == ""
    if command == "amin":
        cp = run_cli(*args, "--decimal", str(DECIMAL_LIMIT + 1))
        assert cp.returncode == 2 and cp.stdout == ""
        cp = run_cli(*args, "--decimal", str(DECIMAL_LIMIT))
        assert cp.returncode == 0, cp.stderr
        assert f"(~{1 / 6:.{DECIMAL_LIMIT}f})" in cp.stdout


def test_exit_1_on_oversized_amin_box():
    cp = run_cli("amin", "--x", "1/2,1/3", "--brute", "100000000")
    assert cp.returncode == 1
    assert cp.stderr.startswith("error:") and "Traceback" not in cp.stderr
    assert cp.stdout == ""


def test_exit_1_on_bad_bound_degree(omega_file):
    # The d=30 line is computed before the bad degree; none is printed.
    cp = run_cli("bound", omega_file, "--d", "30", "--d", "0")
    assert cp.returncode == 1
    assert cp.stderr.startswith("error:") and "Traceback" not in cp.stderr
    assert cp.stdout == ""


def test_exit_2_on_oversized_sweep():
    cp = run_cli("xa", "--sweep", "1/100000000..2/5:1/100000000")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:") and "Traceback" not in cp.stderr
    assert "100000" in cp.stderr
    assert cp.stdout == ""


ERROR_FILES = {
    "bad": "{not json",
    "union": json.dumps({"kind": "rectilinear2d", "rects": [
        {"x0": "0", "x1": "1", "y0": "0", "y1": "1/2"},
        {"x0": "0", "x1": "1/2", "y0": "0", "y1": "1"}]}),
    "off": json.dumps({"kind": "rectilinear2d", "rects": [
        {"x0": "2", "x1": "4", "y0": "0", "y1": "1/4"},
        {"x0": "3", "x1": "4", "y0": "0", "y1": "1"}]}),
    # A coordinate past Python's int() digit limit, as a string and as a literal.
    "digits": json.dumps({"kind": "polygon2d",
                          "vertices": [["1" + "0" * 5000, "0"], ["0", "1"]]}),
    "literal": '{"kind": "polygon2d", "vertices": [[1%s, 0], [0, 1]]}' % ("0" * 5000),
    "latin1": '{"kind": "polygon2d", "vertices": [["1", "0"], ["0", "1"]], '
              '"n\u00e9": 1}'.encode("latin-1"),
    "deep": "[" * 200_000 + "]" * 200_000,
    "false": '{"kind": "rectilinear2d", "rects": [{"x0": "0", "x1": "1", "y0": "0", '
             '"y1": "1"}, {"x0": false, "x1": "1", "y0": "0", "y1": "2"}]}',
    "novertices": '{"kind": "polygon2d"}',
}

DIGIT_LIMIT = sys.get_int_max_str_digits()

# One failing input per subcommand: (argv, with {name} standing for the path
# of ERROR_FILES[name] or of the omega fixture, exit status, stderr line).
ERROR_CASES = {
    "info": (["info", "{bad}"], 2, "error: invalid JSON: Expecting property name "
             "enclosed in double quotes: line 1 column 2 (char 1)"),
    "report": (["report", "{off}"], 1, "error: diagonal does not meet the domain"),
    "xa": (["xa", "--a", "0.3"], 2, "error: not a rational 'p/q' string: '0.3'"),
    "bound": (["bound", "{union}"], 1,
              "error: the boundary-slope bound applies to polygon domains"),
    "obstruct": (["obstruct", "--source", "{union}", "--target", "{omega}",
                  "--alpha", "e(1,1)", "--vmax", "3", "--lmax", "3"], 1,
                 "error: obstruction search runs on polygon domains"),
    "amin": (["amin", "--x", "0,1/2"], 1, "error: fiber position coordinates must "
             "be positive (torus fibers live over the open quadrant)"),
    # An empty item would otherwise drop a coordinate.
    "amin-empty": (["amin", "--x", "1/2,,1/3"], 2,
                   "error: amin --x has an empty coordinate; give --x 'P/Q,P/Q,...'"),
    "amin-blank": (["amin", "--x", ""], 2, "error: amin needs --x 'P/Q,P/Q,...'"),
    # A JSON false equals the corner string "0" before it, and is still refused.
    "info-false": (["info", "{false}"], 2, "error: not a rational: False"),
    "info-novertices": (["info", "{novertices}"], 2,
                        "error: polygon2d document missing 'vertices'"),
    # Inputs that Python itself refuses to decode.
    "info-digits": (["info", "{digits}"], 2, "error: rational 100000000000... has "
                    f"an integer of more than {DIGIT_LIMIT} digits"),
    "info-literal": (["info", "{literal}"], 2,
                     f"error: invalid JSON: a number has more than {DIGIT_LIMIT} digits"),
    "xa-digits": (["xa", "--a", "7" * 5000 + "/3"], 2, "error: rational 777777777777... "
                  f"has an integer of more than {DIGIT_LIMIT} digits"),
    "report-latin1": (["report", "{latin1}"], 2, "error: domain file '{latin1}' is not "
                      "UTF-8: invalid continuation byte at byte 62"),
    "info-deep": (["info", "{deep}"], 2, "error: invalid JSON: nested too deeply"),
    "obstruct-digits": (["obstruct", "--source", "{omega}", "--target", "{omega}",
                         "--alpha", "e(1,1)^" + "9" * 5000, "--vmax", "2", "--lmax", "2"],
                        2, "error: orbit factor e(1,1)^99999... has an integer of more "
                        f"than {DIGIT_LIMIT} digits"),
    "obstruct-zero": (["obstruct", "--source", "{omega}", "--target", "{omega}",
                       "--alpha", "e(1,1)^0", "--vmax", "2", "--lmax", "2"],
                      2, "error: multiplicity must be >= 1 in 'e(1,1)^0'"),
    # A multiplicity whose sub-products no search can walk.
    "obstruct-box": (["obstruct", "--source", "{omega}", "--target", "{omega}",
                      "--alpha", "e(1,1)^99999999999", "--vmax", "2", "--lmax", "2"],
                     1, "error: test orbit set has 99999999999 nonempty sub-products, "
                     "more than the limit of 1000000"),
}


@pytest.mark.parametrize("command", sorted(ERROR_CASES))
def test_error_contract(command, tmp_path, omega_file):
    paths = {"omega": omega_file}
    for name, text in ERROR_FILES.items():
        path = tmp_path / f"{name}.json"
        paths[name] = str(path)
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
    argv, status, message = ERROR_CASES[command]
    cp = run_cli(*(arg.format(**paths) for arg in argv))
    assert cp.returncode == status
    assert cp.stderr == message.format(**paths) + "\n"
    assert cp.stdout == ""


def test_exit_1_on_result_too_long_to_print(tmp_path):
    # Three vertices with 2,500-digit denominators: delta's integers run past
    # Python's int-to-str digit limit, though every input integer is within it.
    big = [10**2500 + k for k in (7, 9, 13, 19)]
    doc = {"kind": "polygon2d", "vertices": [
        [f"{big[0] + 1}/{big[0]}", "0"],
        [f"{big[1] + 1}/{big[1]}", f"{big[2] + 1}/{big[2]}"],
        ["0", f"{big[3] + 1}/{big[3]}"]]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    for argv in (["info"], ["report"], ["report", "--format", "json"]):
        cp = run_cli(*argv, str(path))
        assert cp.returncode == 1, cp.stderr
        assert cp.stderr == (f"error: a result has an integer of more than "
                             f"{DIGIT_LIMIT} digits, too long to print\n")
        assert cp.stdout == ""


def test_sweep_limit_is_inclusive():
    values = _parse_sweep(f"0..{SWEEP_LIMIT - 1}:1")
    assert len(values) == SWEEP_LIMIT and values[-1] == SWEEP_LIMIT - 1
    with pytest.raises(DomainError, match="limit"):
        _parse_sweep(f"0..{SWEEP_LIMIT}:1")
    assert _parse_sweep("1/10..2/5:1/20")[-1] == Fraction(2, 5)
    assert _parse_sweep("1/10..3/8:1/10") == [Fraction(k, 10) for k in (1, 2, 3)]
