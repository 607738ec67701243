"""End-to-end harness tests: exit codes, determinism, caching, reports."""

import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from genlab import auxpoly, cyclo, intmat
from genlab.cli import (
    SCHEMA_VERSION,
    build_parser,
    cache_lookup,
    cache_path,
    cache_store,
    code_digest,
    config_digest,
    inputs_digest,
    jsonable,
    parse_cyclo_coordinate,
    parse_range,
    run,
)
from genlab.cyclo import CycloNum
from genlab.errors import InvalidConfig


@pytest.fixture()
def tup(tmp_path):
    def write(name, lines):
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    return write


def run_capture(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def records_of(text):
    return [json.loads(line) for line in text.splitlines() if line]


# ---------------------------------------------------------------------------
# input grammars


def test_parse_range_forms():
    assert parse_range("2..5") == [2, 3, 4, 5]
    assert parse_range("7") == [7]
    assert parse_range("4,2,9") == [4, 2, 9]
    with pytest.raises(InvalidConfig):
        parse_range("5..2")
    with pytest.raises(InvalidConfig):
        parse_range("x..y")


def test_parse_cyclo_coordinate():
    assert parse_cyclo_coordinate("3/4") == CycloNum.from_rational(Fraction(3, 4))
    assert parse_cyclo_coordinate("zeta(5)^2") == CycloNum.root_of_unity(5, 2)
    assert parse_cyclo_coordinate("-zeta(3)") == CycloNum.root_of_unity(
        3, 1
    ) * CycloNum.from_rational(-1)
    assert parse_cyclo_coordinate("1/2*zeta(4)") == CycloNum.root_of_unity(
        4, 1
    ) * CycloNum.from_rational(Fraction(1, 2))
    with pytest.raises(InvalidConfig):
        parse_cyclo_coordinate("zeta(five)")


def test_cache_entry_bytes_are_those_of_json_dump(tmp_path):
    # the entry is written with json.dumps; json.dump gives the same bytes
    payloads = jsonable([
        {"inf": float("inf"), "ninf": float("-inf"), "nan": float("nan"),
         "q": Fraction(-7, 3), "nested": (1, (2.5, (Fraction(1, 2), None)), [True])},
        {"pair": (float("-inf"), -1.25e-300), "text": "\u00e9\n"},
    ])
    cache_store(str(tmp_path), "c" * 64, "i" * 64, payloads, 12.5)
    (path,) = tmp_path.iterdir()
    entry = {
        "schema_version": SCHEMA_VERSION, "config_hash": "c" * 64, "inputs_digest": "i" * 64,
        "code_digest": code_digest(), "wall_ms": 12.5, "payloads": payloads,
    }
    want = io.StringIO()
    json.dump(entry, want, sort_keys=True)
    assert path.read_text(encoding="utf-8") == want.getvalue()
    assert cache_lookup(str(tmp_path), "c" * 64, "i" * 64) == payloads


def test_jsonable_sentinels():
    assert jsonable(float("inf")) == "inf"
    assert jsonable(float("-inf")) == "-inf"
    assert jsonable((1, (2, 3))) == [1, [2, 3]]
    assert jsonable({"a": None}) == {"a": None}


# ---------------------------------------------------------------------------
# subcommands


def test_relation_tie_break(tup, capsys):
    path = tup("deps.tup", ["1", "2", "3"])
    code, out = run_capture(capsys, ["relation", "--tuple", path, "--height", "10"])
    assert code == 0
    (record,) = records_of(out)
    assert record["op"] == "relation"
    assert record["schema_version"] == 1
    payload = record["payload"]
    assert payload["status"] == "relation_found"
    # smallest max-norm then lexicographic: (1,1,-1) beats (2,-1,0)
    assert payload["relation"] == [1, 1, -1]
    assert payload["verified_exact"] is True


def test_gen_record_per_height(tup, capsys):
    path = tup("golden.tup", ["1", "(1 + sqrt(5))/2"])
    code, out = run_capture(
        capsys,
        ["gen", "--tuple", path, "--mu", "2", "--eta", "1.0", "--c", "3", "--D", "2..50"],
    )
    assert code == 0
    records = records_of(out)
    assert len(records) == 49
    assert [r["payload"]["D"] for r in records] == list(range(2, 51))
    assert all(r["payload"]["passed"] for r in records)
    assert all(r["seed"] == 0 for r in records)


def test_missing_tuple_file_exits_2(tmp_path, capsys):
    code, out = run_capture(
        capsys, ["relation", "--tuple", str(tmp_path / "nope.tup")]
    )
    assert code == 2
    assert records_of(out) == []


def test_bad_parameter_exits_2(tup, capsys):
    path = tup("one.tup", ["1", "2"])
    code, _ = run_capture(
        capsys,
        ["gen", "--tuple", path, "--mu", "9", "--eta", "1", "--c", "1", "--D", "2..3"],
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, entry",
    [
        (["gen", "--tuple", "{zero}", "--mu", "2", "--eta", "2", "--c", "0.045",
          "--D", "2..3"], 0),
        (["relation", "--tuple", "{zero}"], 0),
        (["bigen", "--tuple", "{zero}", "--kappa", "{logs}", "--mu", "2", "--nu", "2",
          "--eta", "2", "--c", "0.045", "--L", "2", "--R", "2"], 0),
        (["bigen", "--tuple", "{logs}", "--kappa", "{zero_last}", "--mu", "2",
          "--nu", "2", "--eta", "2", "--c", "0.045", "--L", "2", "--R", "2"], 1),
        # a rational entry is decided exactly beside an irrational one: its
        # interval difference would straddle 0 at every precision
        (["gen", "--tuple", "{zero_sum}", "--mu", "2", "--eta", "2", "--c", "0.045",
          "--D", "3"], 0),
    ],
    ids=["gen", "relation", "bigen-theta", "bigen-kappa", "gen-rational-difference"],
)
def test_zero_tuple_entry_exits_2(tup, capsys, argv, entry):
    # a zero entry makes l = e_j an exact zero form; the linear-form probes
    # refuse the tuple instead of reporting it as a witness or a relation
    files = {
        "zero": tup("zero.tup", ["0", "log(2)"]),
        "zero_last": tup("zero_last.tup", ["log(3)", "0"]),
        "logs": tup("logs.tup", ["log(5)", "log(7)"]),
        "zero_sum": tup("zero_sum.tup", ["1/3 - 1/3", "pi"]),
    }
    code = run([a.format(**files) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"tuple entry {entry} is zero" in captured.err


# ---------------------------------------------------------------------------
# a combination whose entries are rational is exact, whatever the other
# entries of the tuple are


def test_gen_certifies_an_exact_zero_form_beside_an_irrational_entry(tup, capsys):
    # 1 - 3 * (1/3) = 0 over the rational subset {0, 1} is log 0, a certified
    # value, so the other subsets decide the height
    path = tup("mixed.tup", ["1", "1/3", "pi"])
    code, out = run_capture(
        capsys,
        ["gen", "--tuple", path, "--mu", "2", "--eta", "2", "--c", "0.045", "--D", "3"],
    )
    assert code == 0
    (payload,) = [r["payload"] for r in records_of(out)]
    assert (payload["subset"], payload["l"]) == ([1, 2], [1, 0])
    lo, hi = payload["log_min"]
    assert lo <= math.log(1 / 3) <= hi
    assert (payload["passed"], payload["overall"]) == (False, "special-witnesses")


def test_relation_of_rational_entries_is_verified_exactly(tup, capsys):
    path = tup("mixed.tup", ["1", "2", "pi"])
    code, out = run_capture(capsys, ["relation", "--tuple", path, "--height", "5"])
    assert code == 0
    (payload,) = [r["payload"] for r in records_of(out)]
    assert payload["relation"] == [2, -1, 0]
    assert (payload["verified_exact"], payload["minimal"]) == (True, True)


def test_phil_audit_evaluates_a_member_of_rational_coordinates_exactly(tup, capsys):
    # 3 x1 - 1 uses only x1 = 1/3, so it is exactly 0 at the point, pi aside
    fam = tup("fam.tup", ["1,0:3; 0,0:-1"])
    point = tup("pt.tup", ["1/3", "pi"])
    code, out = run_capture(
        capsys, ["phil-audit", "--family", fam, "--tuple", point, "--D", "2"]
    )
    assert code == 0
    payload = records_of(out)[0]["payload"]
    assert payload["evaluation_smallness_status"] == "pass"
    assert payload["evaluation_smallness_details"] == [[0, ["-inf", "-inf"], True]]


@pytest.mark.parametrize(
    "argv, files, message",
    [
        pytest.param(
            ["zeroest", "--points", "{pts}", "--depth", "2", "--L", "2"],
            {"pts": ["zeta(5),0", "zeta(5)^2,zeta(5)^4"]},
            "no zero coordinate",
            id="zeroest-zero-coordinate",
        ),
        pytest.param(
            ["dist-audit", "--z", "{z}", "--tuple", "{th}", "--kappa", "{ka}",
             "--I", "0,1", "--J", "0,1", "--D", "16"],
            {"z": ["0", "zeta(5)", "zeta(5)", "zeta(5)"], "th": ["1", "1"],
             "ka": ["1", "2"]},
            "no zero coordinate",
            id="dist-audit-zero-coordinate",
        ),
        pytest.param(
            # the count check fails at D = 4: the coordinate is refused first
            ["dist-audit", "--z", "{z}", "--tuple", "{th}", "--kappa", "{ka}",
             "--I", "0,1", "--J", "0,1", "--D", "4"],
            {"z": ["0", "zeta(5)", "zeta(5)", "zeta(5)"], "th": ["log(2)", "log(3)"],
             "ka": ["log(5)", "log(7)"]},
            "no zero coordinate",
            id="dist-audit-zero-coordinate-count-check",
        ),
        pytest.param(
            ["omega", "--points", "{pts}"],
            {"pts": ["zeta(5)", "zeta(5)^2,zeta(5)^4"]},
            "mixed dimensions",
            id="omega-mixed-dimensions",
        ),
        pytest.param(
            ["zeroest", "--points", "{pts}", "--depth", "2", "--L", "2"],
            {"pts": ["zeta(5)", "zeta(5)^2,zeta(5)^4"]},
            "mixed dimensions",
            id="zeroest-mixed-dimensions",
        ),
        pytest.param(
            ["phil-audit", "--family", "{fam}", "--tuple", "{pt}", "--D", "2"],
            {"fam": ["1,x:1"], "pt": ["2", "3"]},
            "bad polynomial term '1,x:1'",
            id="phil-audit-bad-exponent",
        ),
        pytest.param(
            ["omega", "--points", "{pts}"],
            {"pts": ["2/0*zeta(3),zeta(3)", "zeta(3)^2,zeta(3)"]},
            "zero denominator in '2/0*zeta(3)'",
            id="omega-zero-denominator",
        ),
        pytest.param(
            ["zeroest", "--points", "{pts}", "--depth", "2", "--L", "2"],
            {"pts": ["2/0*zeta(3),zeta(3)", "zeta(3)^2,zeta(3)"]},
            "zero denominator in '2/0*zeta(3)'",
            id="zeroest-zero-denominator",
        ),
        pytest.param(
            # every line has the exact form, so its grammar error is reported
            # rather than the file read as expressions, which have no zeta
            ["dist-audit", "--z", "{z}", "--tuple", "{th}", "--kappa", "{ka}",
             "--I", "0,1", "--J", "0,1", "--D", "16"],
            {"z": ["2/0*zeta(5)", "zeta(5)", "zeta(5)", "zeta(5)"], "th": ["1", "1"],
             "ka": ["1", "2"]},
            "zero denominator in '2/0*zeta(5)'",
            id="dist-audit-zero-denominator",
        ),
        pytest.param(
            ["dist-audit", "--z", "{z}", "--tuple", "{th}", "--kappa", "{ka}",
             "--I", "0,1", "--J", "0,1", "--D", "16"],
            {"z": ["zeta(5)", "1/0", "zeta(5)", "zeta(5)"], "th": ["1", "1"],
             "ka": ["1", "2"]},
            "cannot parse exact coordinate '1/0'",
            id="dist-audit-rational-zero-denominator",
        ),
        pytest.param(
            ["dist-audit", "--z", "{z}", "--tuple", "{th}", "--kappa", "{ka}",
             "--I", "0,1", "--J", "0,1", "--D", "16"],
            {"z": ["zeta(0)", "zeta(5)", "zeta(5)", "zeta(5)"], "th": ["1", "1"],
             "ka": ["1", "2"]},
            "root order must be >= 1 in 'zeta(0)'",
            id="dist-audit-zero-root-order",
        ),
    ],
)
def test_malformed_torus_and_family_inputs_exit_2(tup, capsys, argv, files, message):
    paths = {name: tup(f"{name}.txt", lines) for name, lines in files.items()}
    code = run([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


_FLOAT_OPTION_RUNS = {
    "gen": ["gen", "--tuple", "{logs}", "--mu", "2", "--D", "2..3", "--eta", "2",
            "--c", "0.045"],
    "bigen": ["bigen", "--tuple", "{logs}", "--kappa", "{kappa}", "--L", "2",
              "--R", "3", "--mu", "2", "--nu", "2", "--eta", "2", "--c", "0.045"],
    "auxpoly": ["auxpoly", "--tuple", "{logs}", "--subset", "0,1", "--L", "1",
                "--delta", "8"],
    "dist-audit": ["dist-audit", "--z", "theta", "--tuple", "{logs}", "--kappa",
                   "{kappa}", "--I", "0,1", "--J", "0,1", "--D", "12"],
    "phil-audit": ["phil-audit", "--family", "{fam}", "--tuple", "{pt}", "--D", "2"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "op, option",
    [
        ("gen", "--eta"),
        ("gen", "--c"),
        ("bigen", "--eta"),
        ("bigen", "--c"),
        ("auxpoly", "--delta"),
        ("auxpoly", "--u-target"),
        ("dist-audit", "--eta"),
        ("dist-audit", "--c"),
        ("phil-audit", "--c1"),
        ("phil-audit", "--c2"),
        ("phil-audit", "--C"),
        ("phil-audit", "--eta"),
    ],
)
def test_non_finite_float_option_exits_2(tup, capsys, op, option, value):
    # the last occurrence of an option wins, so the appended value is the
    # one parsed; argparse refuses it before any work is done
    files = {
        "logs": tup("logs.tup", ["log(2)", "log(3)"]),
        "kappa": tup("kappa.tup", ["log(5)", "log(7)"]),
        "fam": tup("fam.poly", ["1,1:1; 0,0:-1"]),
        "pt": tup("pt.tup", ["2", "1/2"]),
    }
    argv = [a.format(**files) for a in _FLOAT_OPTION_RUNS[op]]
    code = run(argv + [f"{option}={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"argument {option}: not a finite number: '{value}'" in captured.err


@pytest.mark.parametrize(
    "argv, D",
    [
        (["gen", "--tuple", "{golden}", "--D", "2..5", "--mu", "2", "--c", "0.045"], 3),
        (["bigen", "--tuple", "{logs}", "--kappa", "{kappa}", "--L", "2", "--R", "3",
          "--mu", "2", "--nu", "2", "--c", "0.045"], 3),
        (["dist-audit", "--z", "theta", "--tuple", "{logs}", "--kappa", "{kappa}",
          "--I", "0,1", "--J", "0,1", "--D", "12"], 12),
        (["phil-audit", "--family", "{fam}", "--tuple", "{logs}", "--D", "8"], 8),
    ],
    ids=["gen", "bigen", "dist-audit", "phil-audit"],
)
def test_overflowing_height_power_exits_2(tup, capsys, argv, D):
    # a finite --eta whose threshold scale D^eta leaves the float range
    files = {
        "golden": tup("golden.tup", ["1", "(1 + sqrt(5))/2"]),
        "logs": tup("logs.tup", ["log(2)", "log(3)"]),
        "kappa": tup("kappa.tup", ["log(5)", "log(7)"]),
        "fam": tup("fam.poly", ["1,1:1; 0,0:-1"]),
    }
    code = run([a.format(**files) for a in argv] + ["--eta", "1000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: D^eta overflows the float range at D = {D}, eta = 1000.0" in captured.err


@pytest.mark.parametrize(
    "argv, threshold",
    [
        # 2^1023.9 is finite, but the sum L^eta + R^eta overflows
        (["bigen", "--tuple", "{logs}", "--kappa", "{kappa}", "--L", "2", "--R", "2",
          "--mu", "2", "--nu", "2", "--eta", "1023.9", "--c", "0.045"],
         "-0.045*(2^1023.9 + 2^1023.9)"),
        # a finite D^eta times a large --c
        (["gen", "--tuple", "{logs}", "--mu", "2", "--D", "2", "--eta", "2", "--c", "1e308"],
         "-1e+308*(2^2.0)"),
        (["dist-audit", "--z", "theta", "--tuple", "{logs}", "--kappa", "{kappa}",
          "--I", "0,1", "--J", "0,1", "--D", "12", "--c", "1e308"], "-1e+308*(12^2.0)"),
        (["phil-audit", "--family", "{fam}", "--tuple", "{logs}", "--D", "8", "--C", "1e308"],
         "-1e+308*(8^2.0)"),
        # H3's bound -C*D^eta is finite, H4's -3*C*D^eta is not
        (["phil-audit", "--family", "{fam}", "--tuple", "{logs}", "--D", "8", "--C", "2e306"],
         "-6e+306*(8^2.0)"),
    ],
    ids=["bigen", "gen", "dist-audit", "phil-audit-H3", "phil-audit-H4"],
)
def test_infinite_threshold_exits_2(tup, capsys, argv, threshold):
    # no verdict may be taken against a threshold of -inf
    files = {
        "logs": tup("logs.tup", ["log(2)", "log(3)"]),
        "kappa": tup("kappa.tup", ["log(5)", "log(7)"]),
        "fam": tup("fam.poly", ["1,1:1; 0,0:-1"]),
    }
    code = run([a.format(**files) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: the threshold {threshold} is not a finite float" in captured.err


@pytest.mark.parametrize(
    "argv, entries, D",
    [
        (["gen", "--mu", "2", "--D", "2..3", "--eta", "2", "--c", "0.045"], ["10^400", "1"], 2),
    ],
    ids=["gen"],
)
def test_entry_beyond_the_float_screen_exits_2(tup, capsys, argv, entries, D):
    # the box screen reads float midpoints; an infinite one would make every
    # box value nan or infinite, and the screen would keep a wrong survivor
    code = run([argv[0], "--tuple", tup("big.tup", entries), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: a tuple entry is too large for the float box screen at D = {D}" in captured.err


@pytest.mark.parametrize(
    "entries, exact",
    [(["10^400", "-10^400", "3"], True), (["10^400*sqrt(2)", "-10^400*sqrt(2)", "3"], False)],
    ids=["plain", "irrational"],
)
def test_relation_beyond_the_float_screen_is_reported_unconfirmed(tup, capsys, entries, exact):
    # the lattice finds the relation; the minimality screen cannot read the
    # entries as floats, so the relation is reported with minimal null, as a
    # box over the budget is
    code = run(["relation", "--tuple", tup("big.tup", entries)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    (rec,) = records_of(captured.out)
    assert rec["payload"]["status"] == "relation_found"
    assert rec["payload"]["relation"] == [1, 1, 0]
    assert rec["payload"]["verified_exact"] is exact
    assert rec["payload"]["minimal"] is None


def test_zero_distance_log_nan_exits_2(tup, capsys):
    # -inf, the log of a zero distance, stays valid (pinned below)
    fam = tup("fam.poly", ["1,1:1; 0,0:-1"])
    point = tup("logs.tup", ["log(2)", "log(3)"])
    code = run(["phil-audit", "--family", fam, "--tuple", point, "--D", "8",
                "--zero-distance-log=nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "argument --zero-distance-log: not a number: 'nan'" in captured.err


@pytest.mark.parametrize("radius", ["abc", "1/0", "inf"])
def test_auxpoly_unparsable_radius_exits_2(tup, capsys, radius):
    path = tup("logs.tup", ["log(2)", "log(3)"])
    argv = ["auxpoly", "--tuple", path, "--subset", "0,1", "--L", "1", "--delta", "8",
            "--radius", radius]
    # the option stays a string, so the config hash keeps the text as given
    assert build_parser().parse_args(argv).radius == radius
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: cannot parse radius '{radius}'" in captured.err


def test_auxpoly_degree_zero_exits_2(tup, capsys):
    # L = 0 leaves only the zero monomial, with no unit row for a generator
    path = tup("logs.tup", ["log(2)", "log(3)"])
    code = run(["auxpoly", "--tuple", path, "--subset", "0,1", "--L", "0", "--delta", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: every generator of the family needs its unit monomial" in captured.err


def test_budget_exit_code(tup, capsys):
    pts = tup("pts.tup", ["zeta(5),zeta(5)^2", "zeta(5)^2,zeta(5)^4"])
    code, _ = run_capture(
        capsys,
        ["zeroest", "--points", pts, "--depth", "2", "--L", "2", "--budget", "1"],
    )
    assert code == 4


@pytest.mark.parametrize("op", ["gen", "bigen", "relation", "zeroest"])
def test_negative_budget_exits_2(tup, capsys, op):
    logs = tup("logs.tup", ["log(2)", "log(3)"])
    argv = {
        "gen": ["gen", "--tuple", logs, "--mu", "2", "--D", "2..3", "--eta", "2",
                "--c", "0.045"],
        "bigen": ["bigen", "--tuple", logs, "--kappa", logs, "--L", "2", "--R", "2",
                  "--mu", "2", "--nu", "2", "--eta", "2", "--c", "0.045"],
        "relation": ["relation", "--tuple", logs, "--height", "5"],
        "zeroest": ["zeroest", "--points", tup("pts.tup", ["zeta(5),zeta(5)^2"]),
                    "--depth", "2", "--L", "2"],
    }[op]
    code = run(argv + ["--budget", "-5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "argument --budget: not a nonnegative integer: '-5'" in captured.err
    # a zero budget stays valid: every box goes to lattice mode
    assert build_parser().parse_args(argv + ["--budget", "0"]).budget == 0


def _without_overall(records):
    return [{k: v for k, v in r["payload"].items() if k != "overall"} for r in records]


def test_gen_sweep_across_the_budget_equals_single_heights(tup, capsys):
    # 55^4 boxes at D = 27 fit the default budget of 10^7 and 57^4 at D = 28
    # do not, so one sweep holds an exhaustive and a lattice-mode height;
    # each prints what its own single-height run prints
    path = tup("logs.tup", ["log(2)", "log(3)", "log(5)", "log(7)"])
    argv = ["gen", "--tuple", path, "--mu", "4", "--eta", "2", "--c", "0.01"]
    code, out = run_capture(capsys, argv + ["--D", "27..28"])
    assert code == 0
    swept = _without_overall(records_of(out))
    single = []
    for D in ("27", "28"):
        code, out = run_capture(capsys, argv + ["--D", D])
        assert code == 0
        single += _without_overall(records_of(out))
    assert swept == single
    # lattice mode's upper bound can fail a height, never pass it
    assert [(r["D"], r["approximate"], r["passed"]) for r in swept] == [
        (27, False, False),
        (28, True, None),
    ]


def test_gen_lattice_mode_never_certifies_pass(tup, capsys):
    # the D = 28 box holds the D = 27 box, whose certified minimum is below
    # the D = 28 threshold too; lattice mode at D = 28 cannot pass, so it
    # reports undecided, and the sweep that holds the failing height is
    # special
    path = tup("logs.tup", ["log(2)", "log(3)", "log(5)", "log(7)"])
    argv = ["gen", "--tuple", path, "--mu", "4", "--eta", "2", "--c", "0.01"]
    code, out = run_capture(capsys, argv + ["--D", "28"])
    assert code == 0
    (rec,) = [r["payload"] for r in records_of(out)]
    assert (rec["approximate"], rec["passed"], rec["overall"]) == (True, None, "undecided")
    code, out = run_capture(capsys, argv + ["--D", "27..28"])
    assert code == 0
    low, high = [r["payload"] for r in records_of(out)]
    assert low["log_exp_value"][1] < high["threshold"]
    assert (low["passed"], high["passed"]) == (False, None)
    assert {low["overall"], high["overall"]} == {"special-witnesses"}


def test_bigen_sweep_across_the_budget_equals_single_heights(tup, capsys):
    # --budget 81 holds the mu=2 boxes up to L = 4 (9^2) and not L = 5, 6
    theta = tup("theta.tup", ["log(2)", "log(3)"])
    kappa = tup("kappa.tup", ["sqrt(2)", "sqrt(3)"])
    argv = ["bigen", "--tuple", theta, "--kappa", kappa, "--R", "2..3", "--mu", "2",
            "--nu", "2", "--eta", "2", "--c", "0.045", "--budget", "81"]
    code, out = run_capture(capsys, argv + ["--L", "3..6"])
    assert code == 0
    swept = _without_overall(records_of(out))
    single = []
    for L in ("3", "4", "5", "6"):
        code, out = run_capture(capsys, argv + ["--L", L])
        assert code == 0
        single += _without_overall(records_of(out))
    assert sorted(swept, key=lambda r: (r["L"], r["R"])) == single
    assert len(single) == 8
    # a pair is approximate when either side is, and then never passes
    assert [(r["L"], r["approximate"]) for r in single] == [
        (L, L > 4) for L in (3, 3, 4, 4, 5, 5, 6, 6)
    ]
    assert not any(r["passed"] for r in single if r["approximate"])


def test_schedule_csv(tup, capsys):
    code, out = run_capture(
        capsys,
        ["schedule", "--D", "16,32", "--k", "1", "--mu", "2", "--nu", "2",
         "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("op,D,k,mu,nu,L,R,M")
    assert lines[1].split(",")[:8] == ["schedule", "16", "1", "2", "2", "4", "20", "15"]
    assert len(lines) == 3


def test_bounds_grid_csv_shape(capsys):
    code, out = run_capture(
        capsys, ["bounds", "--m", "2..12", "--n", "2..12", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 121
    header = lines[0].split(",")
    assert "theorem_t" in header and "corollary_t" in header and "conjecture" in header
    # row-major, deterministic
    assert lines[1].split(",")[1:3] == ["2", "2"]
    assert lines[-1].split(",")[1:3] == ["12", "12"]


def _keys(out, fmt, fields):
    """The fields of each record of out, in the order they were written."""
    if fmt == "jsonl":
        return [tuple(r["payload"][f] for f in fields) for r in records_of(out)]
    header, *rows = [line.split(",") for line in out.splitlines()]
    return [tuple(int(row[header.index(f)]) for f in fields) for row in rows]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize(
    "argv, fields, expected",
    [
        (
            ["schedule", "--D", "64,9,33,9,16", "--mu", "3", "--nu", "2"],
            ("D",),
            [(9,), (9,), (16,), (33,), (64,)],
        ),
        (
            ["bounds", "--m", "7,2,5", "--n", "9,3"],
            ("m", "n"),
            [(2, 3), (2, 9), (5, 3), (5, 9), (7, 3), (7, 9)],
        ),
        (
            # a value repeated in both ranges keeps its repeats side by side
            ["bounds", "--m", "7,2,7", "--n", "9,3,3"],
            ("m", "n"),
            [(2, 3), (2, 3), (2, 9), *[(7, 3)] * 4, (7, 9), (7, 9)],
        ),
    ],
    ids=["schedule", "bounds", "bounds-repeats"],
)
def test_unsorted_ranges_emit_ascending_records(capsys, argv, fields, expected, fmt):
    # the handlers emit their records in ascending order of their ranges;
    # the report writes them as they come
    code, out = run_capture(capsys, [*argv, "--format", fmt])
    assert code == 0
    assert _keys(out, fmt, fields) == expected


def test_schedule_range_failing_part_way_prints_no_record(capsys):
    # the heights run in ascending order, so the invalid 0 fails before 5
    code = run(["schedule", "--D", "5,0", "--mu", "3", "--nu", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: height D must be >= 1" in captured.err


def test_omega_and_zeroest(tup, capsys):
    pts = tup("pts.tup", ["zeta(5),zeta(5)^2", "zeta(5)^2,zeta(5)^4"])
    code, out = run_capture(capsys, ["omega", "--points", pts])
    assert code == 0
    assert records_of(out)[0]["payload"]["omega"] == 1

    code, out = run_capture(
        capsys, ["zeroest", "--points", pts, "--depth", "2", "--L", "2"]
    )
    assert code == 0
    payload = records_of(out)[0]["payload"]
    assert payload["found"] is True
    assert payload["cosets"] * payload["hilbert_sub"] <= payload["hilbert_ambient"]


def test_commands_run_no_reference_elimination(tup, capsys, monkeypatch):
    # saturations come from the Smith form and ranks from cyclo.insert_row
    # on rows built as they are needed, so no command needs the whole-matrix
    # ranks or the evaluation matrix
    pts = tup("pts.tup", ["zeta(5),zeta(5)^2", "zeta(5)^2,zeta(5)^4"])
    z = tup("z.tup", ["zeta(5)"] * 4)
    th = tup("th.tup", ["1", "1"])
    ka = tup("ka.tup", ["1", "2"])
    fam = tup("fam.tup", ["1,0:1; 0,0:-1"])
    point = tup("pt.tup", ["exp(1)", "2"])
    runs = [
        ["zeroest", "--points", pts, "--depth", "2", "--L", "2"],
        ["dist-audit", "--z", z, "--tuple", th, "--kappa", ka,
         "--I", "0,1", "--J", "0,1", "--D", "16"],
        ["phil-audit", "--family", fam, "--tuple", point, "--D", "3", "--starts", "4"],
    ]
    expected = [run_capture(capsys, argv) for argv in runs]
    assert records_of(expected[0][1])[0]["payload"]["found"] is True
    assert records_of(expected[1][1])[0]["payload"]["verdict"] == "contradiction"

    def refuse(*args):
        raise AssertionError("a command ran a reference rank")

    monkeypatch.setattr(intmat, "rank_rational", refuse)
    monkeypatch.setattr(cyclo, "rank_field", refuse)
    monkeypatch.setattr(cyclo, "evaluation_matrix", refuse)
    assert [run_capture(capsys, argv) for argv in runs] == expected


def test_dist_audit_inf_sentinel(tup, capsys):
    z = tup("z.tup", ["zeta(5)"] * 4)
    th = tup("th.tup", ["1", "1"])
    ka = tup("ka.tup", ["1", "2"])
    code, out = run_capture(
        capsys,
        ["dist-audit", "--z", z, "--tuple", th, "--kappa", ka,
         "--I", "0,1", "--J", "0,1", "--D", "16"],
    )
    assert code == 0
    payload = records_of(out)[0]["payload"]
    assert payload["verdict"] == "contradiction"
    assert payload["contradiction_log"] == ["-inf", "-inf"]
    assert json.loads(out.splitlines()[0])  # strict JSON despite the infinity


def test_dist_audit_file_with_one_expression_line_is_read_as_expressions(tup, capsys):
    # "exp(1)" has no exact form, so the rationals beside it are expressions
    # too, and the audit runs in numeric mode
    z = tup("z.tup", ["2", "exp(1)", "1/2", "3"])
    th = tup("th.tup", ["1", "1"])
    ka = tup("ka.tup", ["1", "2"])
    code, out = run_capture(
        capsys,
        ["dist-audit", "--z", z, "--tuple", th, "--kappa", ka,
         "--I", "0,1", "--J", "0,1", "--D", "16"],
    )
    assert code == 0
    assert records_of(out)[0]["payload"]["mode"] == "numeric"


def test_dist_audit_numeric_coordinate_on_its_image(tup, capsys):
    # the last coordinate equals its image exactly, so its difference
    # straddles zero at every precision; the first coordinate, 10^-6 away,
    # still fixes the sup
    z = tup("z.tup", [
        "exp(log(2)*log(5)) + 1/1000000",
        "exp(log(2)*log(7)) + 1/10^9",
        "exp(log(3)*log(5)) + 1/10^9",
        "exp(log(3)*log(7))",
    ])
    th = tup("th.tup", ["log(2)", "log(3)"])
    ka = tup("ka.tup", ["log(5)", "log(7)"])
    code, out = run_capture(
        capsys,
        ["dist-audit", "--z", z, "--tuple", th, "--kappa", ka, "--I", "0,1",
         "--J", "0,1", "--D", "12", "--eta", "2.0", "--c", "0.045"],
    )
    assert code == 0
    payload = records_of(out)[0]["payload"]
    assert payload["mode"] == "numeric"
    assert payload["distance_log"] == [-13.815510557964275, -13.815510557964272]
    assert payload["binding"] == "numeric_point_near_image"


def test_phil_audit_smoke(tup, capsys):
    fam = tup("fam.tup", ["1,0:1; 0,0:-1"])
    point = tup("pt.tup", ["exp(1)", "2"])
    code, out = run_capture(
        capsys,
        ["phil-audit", "--family", fam, "--tuple", point, "--D", "3",
         "--starts", "4"],
    )
    assert code == 0
    payload = records_of(out)[0]["payload"]
    assert payload["degree_status"] == "pass"
    assert payload["height_status"] == "pass"
    assert "not asserted" in payload["note"]


def test_phil_audit_draws_no_restarts_without_importing_numpy_random(tup):
    # H4 comes from certified bounds, not from a seeded search: with or
    # without the ignored --starts, a binomial audit loads neither
    # numpy.random nor scipy
    fam = tup("fam.tup", ["1,1:1; 0,0:-1"])
    point = tup("pt.tup", ["exp(1)", "2"])
    script = (
        "import sys\n"
        "import genlab.cli\n"
        "audit = ['phil-audit', '--family', sys.argv[1], '--tuple', sys.argv[2], '--D', '3']\n"
        "for extra in ([], ['--starts', '4']):\n"
        "    assert genlab.cli.run(audit + extra) == 0\n"
        "    loaded = [m for m in sys.modules if m == 'numpy.random' or m.split('.')[0] == 'scipy']\n"
        "    assert not loaded, loaded[:3]\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    fresh = subprocess.run(
        [sys.executable, "-c", script, fam, point],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert fresh.returncode == 0, fresh.stderr
    statuses = [r["payload"]["zero_distance_status"] for r in records_of(fresh.stdout)]
    assert statuses == ["pass"] * 2


@pytest.mark.parametrize(
    "family, point, argv, status",
    [
        *[
            # Theta is on x1 x2 = 1: distance exactly 0, below any bound
            pytest.param(
                ["1,1:1; 0,0:-1"], ["2", "1/2"], ["--D", "2", "--C", C], "fail",
                id=f"on-the-zero-set-C{C}",
            )
            for C in ("3", "3.5", "4", "4.5", "5")
        ],
        # Theta beyond float range, at distance 10^400 - 1 from x1 = 1
        pytest.param(
            ["1,0:1; 0,0:-1"], ["10^400", "2"], ["--D", "2"], "pass", id="beyond-float-range"
        ),
    ],
)
def test_phil_audit_zero_distance_is_certified(tup, capsys, family, point, argv, status):
    fam, pt = tup("fam.poly", family), tup("pt.tup", point)
    code, out = run_capture(capsys, ["phil-audit", "--family", fam, "--tuple", pt, *argv])
    assert code == 0
    payload = records_of(out)[0]["payload"]
    assert payload["zero_distance_status"] == status
    details = dict(payload["zero_distance_details"])
    if status == "fail":
        assert details["lower_log_distance"] == details["witness_log_distance"] == "-inf"
    else:
        assert details["lower_log_distance"] == pytest.approx(400 * math.log(10), abs=1e-9)


def test_phil_audit_imports_no_scipy(tup):
    # importing scipy costs about half a second and 40 MB on every cold run;
    # neither the CLI, the zero-distance search nor a relation search may
    # need it
    fam = tup("fam.tup", ["1,0:1; 0,0:-1"])
    point = tup("pt.tup", ["exp(1)", "2"])
    rel = tup("rel.tup", ["5", "-1", "1", "1"])
    script = (
        "import sys\n"
        "import genlab.cli\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert scipy() == [], scipy()[:3]\n"
        "argv = ['phil-audit', '--family', sys.argv[1], '--tuple', sys.argv[2],"
        " '--D', '3', '--starts', '4']\n"
        "assert genlab.cli.run(argv) == 0\n"
        "assert scipy() == [], scipy()[:3]\n"
        "assert genlab.cli.run(['relation', '--tuple', sys.argv[3]]) == 0\n"
        "assert scipy() == [], scipy()[:3]\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    fresh = subprocess.run(
        [sys.executable, "-c", script, fam, point, rel],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert fresh.returncode == 0, fresh.stderr
    phil, relation = records_of(fresh.stdout)
    assert phil["payload"]["zero_distance_status"] == "pass"
    assert relation["payload"]["relation"] == [0, 0, 1, -1]
    assert relation["payload"]["minimal"] is True


def test_cyclo_imports_no_intmat():
    # insert_row is the one field elimination and cyclo holds it: the
    # integer matrix algebra builds on cyclo, never the other way round
    script = (
        "import sys\n"
        "import genlab.cyclo\n"
        "assert 'genlab.intmat' not in sys.modules\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    fresh = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert fresh.returncode == 0, fresh.stderr


def test_gen_screens_at_the_escalated_precision(tup, capsys):
    # the first entry is about 2.4e-25, the difference of two numbers near pi,
    # so its enclosure needs more than 128 bits; the exhaustive screen must
    # read its midpoints at the precision the probe escalated to
    digits = "31415926535897932384626433832795028841971693993751"
    path = tup("deep.tup", [f"sqrt(pi - {digits}/10^49)", "log(2)", "log(3)"])
    for prec in ("128", "512"):
        code, out = run_capture(
            capsys,
            ["gen", "--tuple", path, "--mu", "2", "--eta", "2", "--c", "0.045",
             "--D", "2..3", "--prec", prec],
        )
        assert code == 0
        assert [r["payload"]["l"] for r in records_of(out)] == [[2, -1], [3, -2]]


def test_auxpoly_subcommand(tup, capsys):
    path = tup("logs.tup", ["log(2)", "log(3)"])
    code, out = run_capture(
        capsys,
        ["auxpoly", "--tuple", path, "--subset", "0,1", "--L", "2",
         "--delta", "8", "--prec", "256", "--rings", "4", "--angles", "16"],
    )
    assert code == 0
    payload = records_of(out)[0]["payload"]
    assert payload["height_ok"] is True
    assert payload["u_achieved"] > 0
    assert len(payload["coefficients"]) == len(payload["monomials"]) == 6


@pytest.mark.parametrize(
    "grid_args,grid_sup",
    [([], 0.003097829438903638), (["--rings", "3", "--angles", "9"], 0.0030946746390792578)],
)
def test_auxpoly_pinned_payload(tup, capsys, grid_args, grid_sup):
    # figures of the pointwise grid loop (one interval exp per term and point,
    # at the rings * angles points of the circle |w| = radius)
    path = tup("logs.tup", ["log(2)", "log(3)"])
    code, out = run_capture(
        capsys,
        ["auxpoly", "--tuple", path, "--subset", "0,1", "--L", "2", "--delta", "8"]
        + grid_args,
    )
    assert code == 0
    payload = records_of(out)[0]["payload"]
    assert payload["coefficients"] == [1, 33, -2, -11, 12, -33]
    assert payload["grid_sup"] == grid_sup
    assert payload["taylor_log_sup"] == -5.5985589379230465


@pytest.mark.parametrize(
    "logs, grid_args",
    [
        (["log(2)", "log(3)", "log(5)"], ["--subset", "0,1,2", "--rings", "7", "--angles", "8"]),
        (["log(2)", "log(3)"], ["--subset", "0,1", "--radius", "1/4"]),
    ],
)
def test_auxpoly_log_sups_round_up(tup, capsys, monkeypatch, logs, grid_args):
    # each reported log bound, taken back through exp at 300 bits, is at
    # least the float bound it certifies
    seen = []
    log_upper = auxpoly._log_upper

    def recording(ctx, x):
        seen.append((x, log_upper(ctx, x)))
        return seen[-1][1]

    monkeypatch.setattr(auxpoly, "_log_upper", recording)
    path = tup("logs.tup", logs)
    code, out = run_capture(
        capsys, ["auxpoly", "--tuple", path, "--L", "2", "--delta", "8.0"] + grid_args
    )
    assert code == 0
    payload = records_of(out)[0]["payload"]
    assert {payload["achieved_log_sup"], payload["taylor_log_sup"]} <= {y for _, y in seen}
    with mpmath.workprec(300):
        for x, y in seen:
            assert mpmath.exp(mpmath.mpf(y)) >= mpmath.mpf(x)


# ---------------------------------------------------------------------------
# determinism and cache


def test_byte_identical_reruns(tup, tmp_path, capsys):
    path = tup("golden.tup", ["1", "(1 + sqrt(5))/2"])
    argv = ["gen", "--tuple", path, "--mu", "2", "--eta", "1.0", "--c", "3",
            "--D", "2..8"]
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    assert run(argv + ["--out", str(out_a)]) == 0
    assert run(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_shared_parser_survives_bad_usage(tup, capsys):
    assert build_parser() is build_parser()
    path = tup("golden.tup", ["1", "(1 + sqrt(5))/2"])
    argv = ["gen", "--tuple", path, "--mu", "2", "--eta", "1.0", "--c", "3", "--D", "2..8"]
    assert run(["gen", "--tuple", path, "--mu", "two"]) == 2
    capsys.readouterr()
    code, out = run_capture(capsys, argv)
    assert code == 0
    src = Path(__file__).resolve().parent.parent / "src"
    fresh = subprocess.run(
        [sys.executable, "-m", "genlab.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert fresh.returncode == 0, fresh.stderr
    assert out == fresh.stdout


def test_cache_hit_and_keying(tup, tmp_path, capsys):
    path = tup("deps.tup", ["1", "2", "3"])
    cache = str(tmp_path / "cache")
    base = ["relation", "--tuple", path, "--height", "10", "--cache-dir", cache]

    code, out1 = run_capture(capsys, base)
    assert code == 0
    (entry_name,) = os.listdir(cache)
    entry_path = os.path.join(cache, entry_name)
    stored = json.loads(open(entry_path).read())
    assert "wall_ms" in stored
    assert "wall_ms" not in out1  # timing never leaks into emitted records

    # hit: stored payload is served, output identical
    stored["payloads"][0]["status"] = "tampered-for-hit-proof"
    with open(entry_path, "w") as fh:
        json.dump(stored, fh)
    _, out2 = run_capture(capsys, base)
    assert "tampered-for-hit-proof" in out2

    # different precision and different seed both miss
    _, out3 = run_capture(capsys, base + ["--prec", "192"])
    assert "tampered-for-hit-proof" not in out3
    _, out4 = run_capture(capsys, base + ["--seed", "1"])
    assert "tampered-for-hit-proof" not in out4

    # changed input content misses even at the same path
    with open(path, "a") as fh:
        fh.write("5\n")
    _, out5 = run_capture(capsys, base)
    assert "tampered-for-hit-proof" not in out5


def test_corrupt_cache_recomputed(tup, tmp_path, capsys):
    path = tup("deps.tup", ["1", "2", "3"])
    cache = str(tmp_path / "cache")
    base = ["relation", "--tuple", path, "--cache-dir", cache]
    run_capture(capsys, base)
    (entry_name,) = os.listdir(cache)
    with open(os.path.join(cache, entry_name), "w") as fh:
        fh.write("{not json")
    with pytest.warns(UserWarning, match="corrupt cache record"):
        code, out = run_capture(capsys, base)
    assert code == 0
    assert records_of(out)[0]["payload"]["status"] == "relation_found"


def test_cache_entry_from_other_code_is_recomputed(tup, tmp_path, capsys):
    # a record cached by code that did not yet refuse zero entries, planted
    # under this command's digests: it answers only if stamped by this code
    path = tup("zero.tup", ["0", "log(2)"])
    cache = tmp_path / "cache"
    cache.mkdir()
    argv = ["gen", "--tuple", path, "--mu", "2", "--eta", "2", "--c", "0.045",
            "--D", "2..3", "--cache-dir", str(cache)]
    args = build_parser().parse_args(argv)
    config_hash, inputs_dig = config_digest(args.op, args), inputs_digest(args)
    entry_path = cache_path(str(cache), config_hash, inputs_dig)

    def plant(stamp):
        entry = {"schema_version": SCHEMA_VERSION, "config_hash": config_hash,
                 "inputs_digest": inputs_dig, "code_digest": stamp, "wall_ms": 1.0,
                 "payloads": [{"D": 2, "l": [1, 0], "passed": False}]}
        Path(entry_path).write_text(json.dumps(entry))

    plant("0" * 64)
    code, out = run_capture(capsys, argv)
    assert code == 2 and out == ""
    plant(code_digest())
    code, out = run_capture(capsys, argv)
    assert code == 0
    assert [r["payload"]["l"] for r in records_of(out)] == [[1, 0]]


def test_non_object_cache_record_recomputed(tup, tmp_path, capsys):
    path = tup("deps.tup", ["1", "2", "3"])
    cache = str(tmp_path / "cache")
    base = ["relation", "--tuple", path, "--cache-dir", cache]
    run_capture(capsys, base)
    (entry_name,) = os.listdir(cache)
    with open(os.path.join(cache, entry_name), "w") as fh:
        fh.write("[1, 2]")
    with pytest.warns(UserWarning, match="corrupt cache record"):
        code, out = run_capture(capsys, base)
    assert code == 0
    assert records_of(out)[0]["payload"]["status"] == "relation_found"


def test_refresh_bypasses_cache(tup, tmp_path, capsys):
    path = tup("deps.tup", ["1", "2", "3"])
    cache = str(tmp_path / "cache")
    base = ["relation", "--tuple", path, "--cache-dir", cache]
    run_capture(capsys, base)
    (entry_name,) = os.listdir(cache)
    entry_path = os.path.join(cache, entry_name)
    stored = json.loads(open(entry_path).read())
    stored["payloads"][0]["status"] = "stale"
    with open(entry_path, "w") as fh:
        json.dump(stored, fh)
    _, out = run_capture(capsys, base + ["--refresh"])
    assert "stale" not in out
    # refresh also rewrote the cache entry
    fresh = json.loads(open(entry_path).read())
    assert fresh["payloads"][0]["status"] == "relation_found"


def test_empty_records_header_only_csv(tup, tmp_path, capsys):
    # a failing run flushes partial results; with none, CSV is header-only
    code, out = run_capture(
        capsys,
        ["relation", "--tuple", str(tmp_path / "ghost.tup"), "--format", "csv"],
    )
    assert code == 2
    assert out == "op\n"


# ---------------------------------------------------------------------------
# pinned output: the README commands, and CLI paths the benchmark never runs


PINNED_INPUTS = {
    "golden.tup": ["1", "(1 + sqrt(5))/2"],
    "theta.tup": ["log(2)", "log(3)"],
    "kappa.tup": ["log(5)", "log(7)"],
    "logs.tup": ["log(2)", "log(3)"],
    "pts.cyc": ["zeta(5),zeta(5)^2", "zeta(5)^2,zeta(5)^4"],
    "fam.poly": ["1,1:1; 0,0:-1"],
    "ones.tup": ["1", "1"],
    "one.tup": ["1"],
    "z_far.tup": ["sqrt(25)", "sqrt(49)", "sqrt(121)", "sqrt(169)"],
    "z_near.tup": ["exp(1) + 10^-6"],
    "quad.poly": ["2:1; 1:1; 0:-3"],
    "two.tup": ["2"],
    "half.tup": ["2", "1/2"],
    "shift.poly": ["1,0:1; 0,0:-1"],
    "huge.tup": ["10^400", "2"],
    "mixed.cyc": [
        f"{a},{b}"
        for a in ("zeta(3)", "zeta(3)^2", "2")
        for b in ("zeta(8)", "zeta(8)^3", "-1")
    ],
    "z5.cyc": ["zeta(5)^3"] * 4,
    "z5_first.cyc": ["zeta(5)^1"] * 4,
    "one_two.tup": ["1", "2"],
    "logs4.tup": ["log(2)", "log(3)", "log(5)", "log(7)"],
    "logs4b.tup": ["log(13)", "log(3)", "log(11)", "log(5)"],
    "mixed5.tup": ["exp(1/3)", "phi", "pi", "log(2)", "sqrt(3)"],
    "rational.tup": ["(-7/3)", "(5/2)", "(4/5)"],
    "z5_powers.cyc": ["zeta(5)", "zeta(5)^2", "zeta(5)^3", "zeta(5)^4"],
    "z3_torsion.cyc": ["zeta(3)", "zeta(3)", "2", "3"],
    "third_log2.tup": ["1/3", "log(2)"],
    "log2_twice.tup": ["log(2)", "log(2)"],
    "compound.tup": ["1/2+1/3", "sqrt(2)"],
    "half_fifth.tup": ["1/2", "1/5"],
    "generic.cyc": ["2,3", "5,7"],
    "rel.tup": ["5", "-1", "1", "1"],
    "z30.cyc": [
        f"{a},{b}"
        for a in ("zeta(5)", "zeta(5)^3", "2")
        for b in (
            "zeta(6),1/2", "zeta(6)^5,-1", "zeta(3),3",
            "-2,zeta(6)^2", "1/3,zeta(3)^2", "zeta(6),-1",
        )
    ],
    "z40.cyc": [
        f"{a},{b}"
        for a in (
            "zeta(8),2", "zeta(8)^3,-1/3", "1,zeta(8)^5",
            "-1,zeta(8)^2", "zeta(8)^6,1/2", "3,zeta(8)",
        )
        for b in ("zeta(5)", "zeta(5)^2", "-1/2", "zeta(5)^4")
    ],
}


@pytest.mark.parametrize(
    "argv, digest",
    [
        pytest.param(
            "relation --tuple golden.tup --height 50",
            "873902571fe9491e2c0fb4a625dacdc0e30cd4cbd409cdaa60a30b03c908d872",
            id="readme-relation",
        ),
        pytest.param(
            "gen --tuple golden.tup --D 2..50 --mu 2 --eta 2.0 --c 0.045",
            "87a199cb1d5f3ac43184dcef1d0a1528fbd901e7e2bdb5157820150aa9c27d4f",
            id="readme-gen",
        ),
        pytest.param(
            "bigen --tuple theta.tup --kappa kappa.tup --L 4 --R 12 --mu 2 --nu 2"
            " --eta 2.0 --c 0.045",
            "8fba51f56514c8628465a0652ebc483bc39ff854713920bd914b6cd348a84c58",
            id="readme-bigen",
        ),
        pytest.param(
            "schedule --D 16..64 --mu 3 --nu 2 --k 1",
            "d50086870e922e9da708ec5b0b42d3114a20affe9121f6a27f2b87b5f514fe2c",
            id="readme-schedule",
        ),
        pytest.param(
            "auxpoly --tuple logs.tup --subset 0,1 --L 2 --delta 8.0 --radius 1/4",
            "29df80d8a96b19b3bb2a3e498414579b7ad12c2c115cbafb4ea372c10a266694",
            id="readme-auxpoly",
        ),
        pytest.param(
            # the heaviest Siegel cell: 15 monomials in (log 2, log 3)
            "auxpoly --tuple logs.tup --subset 0,1 --L 4 --delta 8.0 --prec 256",
            "67f7a084478782430c77e7fb9c6dde605e67d2cbbf1c3d7c2dacdf949f093745",
            id="auxpoly-log-pair-L4",
        ),
        pytest.param(
            # three generators (log 2, log 3, log 7) at degree 1
            "auxpoly --tuple logs4.tup --subset 0,1,3 --L 1 --delta 8.0 --prec 128",
            "259734b75fe183770752f9335bf8bf6e2562557b4872805d78e3c57f3d8c9ec3",
            id="auxpoly-three-logs-L1",
        ),
        pytest.param(
            # a rational generator beside an irrational one: the exponents
            # (1/3) d_0 + d_1 log 2 are exact where d_1 = 0
            "auxpoly --tuple third_log2.tup --subset 0,1 --L 2 --delta 8.0",
            "d026f2918ff905fb01ce24389660fc12af9d71ab312e11bde57b111ad9a3a2c5",
            id="auxpoly-rational-and-log",
        ),
        pytest.param(
            # equal generators: coefficients [0, 1, 0, -1, 0, 0] cancel on the
            # equal exponents log 2, and phi is identically zero
            "auxpoly --tuple log2_twice.tup --subset 0,1 --L 2 --delta 8.0",
            "9f6f0ee9a23658792398935da13d7b12850cfa86b9c623deae46a18d801b911f",
            id="auxpoly-symbolic-zero",
        ),
        pytest.param(
            # a generator that is a sum of rationals, beside sqrt 2
            "auxpoly --tuple compound.tup --subset 0,1 --L 2 --delta 8.0",
            "a155ca9804616950fa55f484cbe209183d2d93374bfe5441e4ba1b5a94c31236",
            id="auxpoly-compound-rational",
        ),
        pytest.param(
            "omega --points pts.cyc --max-degree 4",
            "56cd6153a065bb92c38af1daa8c81c2d36b42e2dd29fb924387737c41b589790",
            id="readme-omega",
        ),
        pytest.param(
            "zeroest --points pts.cyc --depth 2 --L 3",
            "fed563ac5d4f00c650e46ebceafe535b9e93154cd34bc8ea55a81f684a40120c",
            id="readme-zeroest",
        ),
        pytest.param(
            "dist-audit --z theta --tuple theta.tup --kappa kappa.tup --I 0,1 --J 0,1"
            " --D 12 --k 1 --eta 2.0 --c 0.045",
            "7d517c02ab3a94aadccf4a9b90352ab2904476413ef147ff200dc0cd3ce95f74",
            id="readme-dist-audit",
        ),
        pytest.param(
            "bounds --m 2..12 --n 2..12 --format csv",
            "e946e0f0957f21cd670e120f46d23038b55bdeff3c828eb4396a5435e4edeba7",
            id="readme-bounds",
        ),
        pytest.param(
            "phil-audit --family fam.poly --tuple logs.tup --D 8",
            "cb1ac6f8b9e21c73d5eee5b72cdf8a19a44df06bb63090b216aceeb32eba6f46",
            id="readme-phil-audit",
        ),
        pytest.param(
            "phil-audit --family fam.poly --tuple logs.tup --D 8 --zero-distance-log=-inf",
            "4a4601069e7bdaeb62fc3b1cc4e25780ccea5ecae61641e355661d78e8068979",
            id="phil-audit-zero-distance-neg-inf",
        ),
        pytest.param(
            "dist-audit --z z_far.tup --tuple ones.tup --kappa ones.tup --I 0,1 --J 0,1"
            " --D 16",
            "ef323d0e6e5d5aa172e902158dbba429752c815748078c36aa8eddedc7ffc104",
            id="dist-audit-numeric-far",
        ),
        pytest.param(
            "dist-audit --z z_near.tup --tuple one.tup --kappa one.tup --I 0 --J 0 --D 16",
            "27a46ed9751da68b86a0dd542c3e66de65e4808928700b6f9d2680eb6dfdbf18",
            id="dist-audit-numeric-near",
        ),
        pytest.param(
            "phil-audit --family quad.poly --tuple two.tup --D 2 --c1 2",
            "4e3cd7b118e1d90775ac6d644822eee9fe964d5614db2ee5574feae1b6f89564",
            id="phil-audit-exact-smallness",
        ),
        pytest.param(
            "phil-audit --family fam.poly --tuple half.tup --D 2",
            "73be14ca08c1c1becec1bb5e65eb6264d6dece3744763d0c0a37f20dfa4419c4",
            id="phil-audit-certified-witness",
        ),
        pytest.param(
            "phil-audit --family shift.poly --tuple huge.tup --D 2",
            "2b35644dcf18095169b66bc39a8fb9c96c767981419a41d51f0811d987f9858f",
            id="phil-audit-beyond-float-range",
        ),
        pytest.param(
            "omega --points mixed.cyc --max-degree 4",
            "858bccf70d638dcec788e4135868933957534b0323dcbaa556506df92e28e73b",
            id="omega-mixed-order-product",
        ),
        pytest.param(
            # an 18-point product set over Q(zeta30): omega 3
            "omega --points z30.cyc --max-degree 4",
            "710c33fa7d153c21cc49d67b0f529ce61d21c7e94e61c83d549c551c3084e5f8",
            id="omega-product-zeta30",
        ),
        pytest.param(
            # a 24-point product set over Q(zeta40): omega 3
            "omega --points z40.cyc --max-degree 4",
            "717f3a0f47584811724693f4fcf24ae080caabcc824a029bedd4c9b377b4d828",
            id="omega-product-zeta40",
        ),
        pytest.param(
            "zeroest --points pts.cyc --depth 3 --L 3",
            "f8022eba84b20e30d8e8458753eb8abe7f1298143c0864fb860a2d2a9151f739",
            id="zeroest-depth-3",
        ),
        pytest.param(
            "dist-audit --z z5.cyc --tuple ones.tup --kappa one_two.tup --I 0,1 --J 0,1"
            " --D 16",
            "f186ed6ce563e1eb9aff1cfb33f4cf771490d50254816ab9e524dd4ccd051620",
            id="dist-audit-exact-zeta5-cubed",
        ),
        pytest.param(
            # the benchmark's other exact instance: four zeta(5)^1 lines
            "dist-audit --z z5_first.cyc --tuple ones.tup --kappa one_two.tup --I 0,1"
            " --J 0,1 --D 16",
            "19df32f693b2b224cd7381cc80b1c5667b3bc6c912fe8ecfeac4491d8be768ef",
            id="dist-audit-exact-zeta5",
        ),
        pytest.param(
            # irrational entries: the contradiction bound runs on intervals
            "dist-audit --z z5.cyc --tuple theta.tup --kappa kappa.tup --I 0,1 --J 0,1"
            " --D 16",
            "c6eed3e176d7d94a9ee317efeab2bcc738d7cf0d70d9f71a138650835cada2a3",
            id="dist-audit-exact-logs-zeta5",
        ),
        pytest.param(
            # character (1, 0) meets 1/3, the collision meets 3 log 2: a
            # rational entry inside an interval bound
            "dist-audit --z z3_torsion.cyc --tuple third_log2.tup --kappa third_log2.tup"
            " --I 0,1 --J 0,1 --D 16",
            "797ec7601228f9abf4f5a4e60d8ade25a0ddbf3b8b7c5614f25f8c8106b073e5",
            id="dist-audit-exact-mixed-zeta3",
        ),
        pytest.param(
            # every entry the bound uses is rational, log 2 is not used: exact
            "dist-audit --z z3_torsion.cyc --tuple third_log2.tup --kappa half_fifth.tup"
            " --I 0,1 --J 0,1 --D 16",
            "bc2280da7e444cb0c790ec34d64f8c2dca7f071180f51b6955b94e077acddbbd",
            id="dist-audit-exact-rational-bound",
        ),
        pytest.param(
            "dist-audit --z z5_powers.cyc --tuple theta.tup --kappa kappa.tup --I 0,1"
            " --J 0,1 --D 16",
            "f0be2a2abbd18d9ca2ba7c4963800d7941138306e4384c4094377835e7c4f8bd",
            id="dist-audit-no-low-degree-vanishing",
        ),
        pytest.param(
            "zeroest --points generic.cyc --depth 2 --L 2",
            "33facdd6deb5ecb39bcc3a7efcf33031b65c05a01cba9ffe327747c45af48b12",
            id="zeroest-no-character",
        ),
        pytest.param(
            "gen --tuple logs4.tup --mu 2 --eta 2.0 --c 0.045 --D 2..10",
            "dd01171a84cddd66c9b26e535d314d616aeb573d7767c6537634d12d3dc35955",
            id="gen-log-primes-mu2",
        ),
        pytest.param(
            "gen --tuple logs4b.tup --mu 3 --eta 2.0 --c 0.045 --D 2..8",
            "3d7bfba2723e9a67274198ed0121b93d9ba3a31c7be55e7e60aa8f1c7b0d7bcb",
            id="gen-log-primes-mu3",
        ),
        pytest.param(
            "gen --tuple mixed5.tup --mu 2 --eta 2.0 --c 0.045 --D 2..12",
            "7113796d09292c532e580ce63ce486e8fbff8decac93e7e619b85adb3ab2cd35",
            id="gen-mixed-mu2",
        ),
        pytest.param(
            "gen --tuple rational.tup --mu 3 --eta 2.0 --c 0.045 --D 2..6",
            "2339cacc122232bc5f6a873b3bd147f45cbff899ab0b51845c4805eddeaed849",
            id="gen-rational-exact",
        ),
        # the two relation cases keep the ids they had while --pi-i existed
        pytest.param(
            # rational entries: the minimal relation [0, 0, 1, -1], verified exactly
            "relation --tuple rel.tup",
            "c302320e458a61edf0cb60fe947909b7cedb11ef0f5cea34510225863cdc8684",
            id="relation-pi-i-found",
        ),
        pytest.param(
            "relation --tuple logs4.tup",
            "615321ca7e7251e085694c11bcd4147417a68119cb9912a2b4c59b962d7488e2",
            id="relation-pi-i-logs",
        ),
    ],
)
def test_pinned_stdout(tmp_path, monkeypatch, capsys, argv, digest):
    # sha256 of the exact stdout bytes; a change here is an output change and
    # must be listed in CHANGES.md with its before and after
    for name, lines in PINNED_INPUTS.items():
        (tmp_path / name).write_text("".join(line + "\n" for line in lines))
    monkeypatch.chdir(tmp_path)
    code, out = run_capture(capsys, shlex.split(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
