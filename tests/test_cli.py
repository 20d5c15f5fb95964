import argparse
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fraction_oracle as oracle
import hexphi.cli as cli
import hexphi.construction as construction
from hexphi.cli import main
from hexphi.exact import ECHO_CHARS, HALF_EVEN, MAX_DIGITS, PHI, TRUNCATE, to_decimal
from hexphi.fibonacci import convergent, convergents

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cluster_default.svg"
VERIFY_JSON = ROOT / "tests" / "data" / "verify_default.json"
FAILED_VERIFY_JSON = ROOT / "tests" / "data" / "verify_failed.json"
# sha256 of the stdout of long `fib` tables, by argv
FIB_SHA256 = json.loads((ROOT / "tests" / "data" / "fib_sha256.json").read_text(encoding="utf-8"))
# sha256 of the stdout of `scan` and `verify` runs, and of `render` figures by flags
STDOUT_SHA256 = json.loads(
    (ROOT / "tests" / "data" / "stdout_sha256.json").read_text(encoding="utf-8"))
SVG_SHA256 = json.loads((ROOT / "tests" / "data" / "svg_sha256.json").read_text(encoding="utf-8"))
# exit code and sha256 of stdout and stderr of argparse's own help, usage and
# error output at COLUMNS=80, by argv; "{LONG}" stands for `LONG`
USAGE_SHA256 = json.loads(
    (ROOT / "tests" / "data" / "usage_sha256.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_defaults(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "ratio = 1.6180339887" in out
    assert "PHI-EXACT: PASS" in out
    assert "EQUAL-LENGTHS: PASS" in out
    assert "vertex = 0,0,0" in out


def test_verify_digits_flag(capsys):
    code, out, _ = run(capsys, "verify", "--digits", "12")
    assert code == 0
    assert "ratio = 1.618033988750" in out


def test_verify_nondefault_vertex_and_side(capsys):
    code, out, _ = run(capsys, "verify", "--vertex", "1,-1,3", "--side", "3/2")
    assert code == 0
    assert "vertex = " in out
    assert "side = 3/2" in out
    assert "PHI-EXACT: PASS" in out


def test_verify_vertex_value_may_start_with_minus(capsys):
    separate = run(capsys, "verify", "--vertex", "-1,0,3")
    joined = run(capsys, "verify", "--vertex=-1,0,3")
    assert separate == joined == run(capsys, "verify", "--vert", "-1,0,3")
    assert separate[0] == 0 and "PHI-EXACT: PASS" in separate[1]


def test_side_value_may_start_with_minus(capsys):
    separate = run(capsys, "verify", "--side", "-3/-4")
    assert separate == run(capsys, "verify", "--side=-3/-4")
    assert separate == run(capsys, "verify", "--s", "-3/-4")
    assert separate == run(capsys, "verify", "--side", "3/4")
    assert separate[0] == 0 and "side = 3/4" in separate[1]


@pytest.mark.parametrize("subcommand", ["verify", "fib"])
def test_digits_above_limit_is_usage_error(capsys, subcommand):
    extra = ["--max", "3"] if subcommand == "fib" else []
    code, out, err = run(capsys, subcommand, *extra, "--digits", "4301")
    assert code == 2
    assert out == ""
    assert "from 1 to 4300" in err


def test_verify_corner_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--vertex", "0,0,9")
    assert code == 2
    assert "corner" in err


@pytest.mark.parametrize("side", ["0", "-1/2", "abc", "1/0"])
def test_bad_side_is_usage_error(capsys, side):
    code, _, err = run(capsys, "verify", "--side", side)
    assert code == 2
    assert err


def test_missing_subcommand_and_unknown_flag(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "verify", "--frobnicate")[0] == 2
    assert run(capsys, "scan")[0] == 2  # --radius is required
    assert run(capsys, "--help")[0] == 0


def test_oversized_vertex_component_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--vertex=" + "1" * 5000 + ",0,0")
    assert (code, out) == (2, "")
    assert "vertex components may have at most 4300 digits each" in err
    assert "1" * 100 not in err  # the literal is not echoed
    largest = "9" * MAX_DIGITS
    args = cli.build_parser().parse_args(["verify", f"--vertex={largest},-{largest},0"])
    assert str(args.vertex) == f"{largest},-{largest},0"


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["vertex"] == "0,0,0"
    assert report["side"] == "1/1"
    assert report["phi_exact_ok"] is True
    assert report["equal_lengths_ok"] is True
    assert report["ratio_decimal"] == "1.6180339887"
    assert len(report["segments"]) == 6
    assert report["segments"][0]["ao2"]["a"] == "3/1"
    assert set(report["fibonacci"]) == {"n", "ratio", "variance"}


def test_verify_reports_failure_detail(capsys, monkeypatch):
    real_make_report = cli.make_report

    def doctored(cluster):
        report = real_make_report(cluster)
        bad_first = report.segments[0]._replace(ab2=report.segments[0].ao2)
        return report._replace(
            segments=(bad_first,) + report.segments[1:],
            phi_exact_ok=False,
            equal_lengths_ok=False,
        )

    monkeypatch.setattr(cli, "make_report", doctored)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "segment 1: |AB|^2 == Phi^2 * |AO|^2 fails" in out
    assert "distinct |AB|^2 values" in out
    assert "PHI-EXACT: FAIL" in out
    assert "ratio =" not in out


def test_verify_json_bytes_are_pinned(capsys):
    # key order and layout too: the report's keys, then ratio_decimal and fibonacci
    assert run(capsys, "verify", "--json") == (0, VERIFY_JSON.read_text(encoding="utf-8"), "")


def test_failed_verify_json_bytes_are_pinned(capsys, monkeypatch):
    real_construct_segments = construction.construct_segments

    def doctored(cluster):
        first, *rest = real_construct_segments(cluster)
        return (first._replace(ab2=first.ab2 * 2), *rest)

    monkeypatch.setattr(construction, "construct_segments", doctored)
    code, out, err = run(capsys, "verify", "--json")
    assert (code, out, err) == (1, FAILED_VERIFY_JSON.read_text(encoding="utf-8"), "")
    payload = json.loads(out)
    assert payload["ratio_decimal"] is None
    assert payload["fibonacci"] is None


def test_scan_radius_zero(capsys):
    code, out, _ = run(capsys, "scan", "--radius", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines.count("0,0,0 PASS") == 1
    assert "vertices = 6" in lines
    assert "SCAN: PASS" in lines


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "--radius", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 24
    assert payload["all_ok"] is True
    assert payload["failures"] == []
    assert len(payload["vertices"]) == 24
    assert all(entry["ok"] for entry in payload["vertices"])


def test_scan_reports_failures(capsys, monkeypatch):
    real_make_report = cli.make_report

    def doctored(cluster):
        return real_make_report(cluster)._replace(phi_exact_ok=False)

    monkeypatch.setattr(cli, "make_report", doctored)
    code, out, _ = run(capsys, "scan", "--radius", "0")
    assert code == 1
    assert "failures = 6" in out
    assert "SCAN: FAIL" in out


@pytest.mark.parametrize("argv", [("scan", "--radius", "2"), ("render", "--out", "{out}")],
                         ids=["scan", "render"])
def test_scan_computes_no_ratio_and_searches_no_convergent(capsys, monkeypatch, tmp_path, argv):
    # a scan prints verdicts only and a figure draws no ratio, so neither
    # needs the decimal nor the search; only verify does
    figure = tmp_path / "figure.svg"
    last_line = {
        "scan": "SCAN: PASS",
        "render": f"wrote {figure} ({len(GOLDEN.read_text(encoding='utf-8'))} bytes)",
    }[argv[0]]
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "assess_nearest", counted("assess_nearest", cli.assess_nearest))
    monkeypatch.setattr(cli, "to_decimal", counted("to_decimal", cli.to_decimal))
    code, out, _ = run(capsys, *(str(figure) if arg == "{out}" else arg for arg in argv))
    assert (code, out.splitlines()[-1]) == (0, last_line)
    assert calls == []
    assert run(capsys, "verify")[0] == 0
    assert calls == ["to_decimal", "assess_nearest"]


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_scan_radius_above_limit_is_usage_error(capsys, extra):
    code, out, err = run(capsys, "scan", "--radius", "101", *extra)
    assert (code, out) == (2, "")
    assert "expected an integer from 0 to 100, got '101'" in err


def test_scan_radius_limit_is_accepted():
    # parsed only: that patch has 61,206 vertices
    args = cli.build_parser().parse_args(["scan", "--radius", str(cli.MAX_SCAN_RADIUS)])
    assert args.radius == cli.MAX_SCAN_RADIUS == 100


def test_fib_table(capsys):
    code, out, _ = run(capsys, "fib", "--max", "12")
    assert code == 0
    lines = out.splitlines()
    assert "# rounding = truncate" in lines
    assert lines[2] == "n\tF_n\tF_n-1\tratio\tvariance"
    rows = lines[3:]
    assert len(rows) == 11
    assert rows[9] == "11\t89\t55\t1.6181818181\t0.0001478294"


def test_fib_half_even(capsys):
    code, out, _ = run(capsys, "fib", "--max", "11", "--rounding", "half-even")
    assert code == 0
    assert "11\t89\t55\t1.6181818182\t0.0001478294" in out.splitlines()


def test_fib_json(capsys):
    code, out, _ = run(capsys, "fib", "--max", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["digits"] == 10
    assert payload["rounding"] == "truncate"
    assert payload["decimal_separator"] == "."
    assert [row["n"] for row in payload["rows"]] == [2, 3, 4, 5]
    assert payload["rows"][0] == {
        "n": 2,
        "fn": 1,
        "fn_1": 1,
        "ratio": "1.0000000000",
        "variance": "0.6180339887",
    }


def _fib_rows(max_n: int, digits: int, rounding: str) -> list[dict]:
    """The rows `fib` should print, from a plain recurrence and the `Fraction`
    kernel of `fraction_oracle`, so no decimal comes from `hexphi`."""
    rows = []
    fn_1, fn = 1, 1
    for n in range(2, max_n + 1):
        ratio = Fraction(fn, fn_1)
        rows.append({
            "n": n,
            "fn": fn,
            "fn_1": fn_1,
            "ratio": oracle.to_decimal(ratio, digits, rounding),
            "variance": oracle.to_decimal(abs(oracle.QuadExt(ratio) - oracle.PHI), digits, rounding),
        })
        fn_1, fn = fn, fn + fn_1
    return rows


@pytest.mark.parametrize(
    "max_n, digits, rounding", [(300, 10, TRUNCATE), (120, 45, HALF_EVEN), (1200, 30, HALF_EVEN)]
)
def test_fib_table_matches_convergent_per_row(capsys, max_n, digits, rounding):
    rows = _fib_rows(max_n, digits, rounding)
    flags = ["--max", str(max_n), "--digits", str(digits), "--rounding", rounding]
    code, out, err = run(capsys, "fib", *flags)
    assert (code, err) == (0, "")
    expected = [f"# digits = {digits}", f"# rounding = {rounding}", "n\tF_n\tF_n-1\tratio\tvariance"]
    expected += ["\t".join(str(row[key]) for key in ("n", "fn", "fn_1", "ratio", "variance"))
                 for row in rows]
    assert out == "\n".join(expected) + "\n"
    code, out, err = run(capsys, "fib", *flags, "--json")
    assert (code, err) == (0, "")
    payload = {"digits": digits, "rounding": rounding, "decimal_separator": ".", "rows": rows}
    assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("argv", list(FIB_SHA256))
def test_fib_stdout_bytes_are_pinned(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FIB_SHA256[argv]


@pytest.mark.parametrize("argv", list(STDOUT_SHA256))
def test_scan_and_verify_stdout_bytes_are_pinned(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


@pytest.mark.parametrize("flags", list(SVG_SHA256))
def test_render_figure_bytes_are_pinned(capsys, tmp_path, flags):
    figure = tmp_path / "figure.svg"
    code, _, err = run(capsys, "render", "--out", str(figure), *flags.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(figure.read_bytes()).hexdigest() == SVG_SHA256[flags]


def test_fib_prints_each_row_as_it_is_made(capsys, monkeypatch):
    def interrupted(start=2):
        yield from itertools.islice(convergents(start), 3)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "convergents", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["fib", "--max", "100"])
    assert capsys.readouterr().out.splitlines() == [
        "# digits = 10",
        "# rounding = truncate",
        "n\tF_n\tF_n-1\tratio\tvariance",
        "2\t1\t1\t1.0000000000\t0.6180339887",
        "3\t2\t1\t2.0000000000\t0.3819660112",
        "4\t3\t2\t1.5000000000\t0.1180339887",
    ]


def test_scan_prints_each_vertex_as_it_is_verified(capsys, monkeypatch):
    printed = []  # stdout so far, read as each vertex is about to be verified

    def recording(cluster):
        printed.append(capsys.readouterr().out)
        return construction.make_report(cluster)

    monkeypatch.setattr(cli, "make_report", recording)
    assert main(["scan", "--radius", "0"]) == 0
    rest = capsys.readouterr().out
    assert printed[:3] == ["", "-1,0,0 PASS\n", "-1,0,1 PASS\n"]
    assert len(printed) == 6
    assert "".join(printed) + rest == (
        "-1,0,0 PASS\n-1,0,1 PASS\n-1,1,0 PASS\n0,-1,1 PASS\n0,0,0 PASS\n0,0,1 PASS\n"
        "vertices = 6\nfailures = 0\nSCAN: PASS\n"
    )


def test_fib_max_must_be_at_least_two(capsys):
    assert run(capsys, "fib", "--max", "1")[0] == 2


def test_max_fib_index_is_last_row_that_prints():
    last, first_too_long = convergent(cli.MAX_FIB_INDEX + 1), convergent(cli.MAX_FIB_INDEX + 2)
    assert last.fn_1 < 10**MAX_DIGITS <= first_too_long.fn_1


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_fib_max_above_limit_is_usage_error(capsys, extra):
    code, out, err = run(capsys, "fib", "--max", "20578", *extra)
    assert code == 2
    assert out == ""
    assert "expected an integer from 2 to 20577" in err


def test_assess_decimal(capsys):
    code, out, _ = run(capsys, "assess", "--ratio", "1.618")
    assert code == 0
    lines = out.splitlines()
    assert "n = 12" in lines
    assert "ratio = 144/89" in lines
    assert "distance = 1/44500" in lines


def test_assess_comma_decimal(capsys):
    code, out, _ = run(capsys, "assess", "--ratio", "1,618")
    assert code == 0
    assert "n = 12" in out.splitlines()


def test_assess_exact_convergent(capsys):
    code, out, _ = run(capsys, "assess", "--ratio", "89/55")
    assert code == 0
    lines = out.splitlines()
    assert "n = 11" in lines
    assert "distance = 0/1" in lines
    assert "variance = 0.0001478294" in lines


@pytest.mark.parametrize("ratio", ["0", "-1.618", "phi"])
def test_assess_rejects_bad_targets(capsys, ratio):
    assert run(capsys, "assess", "--ratio", ratio)[0] == 2


def test_assess_oversized_distance_is_usage_error(capsys):
    # the target fits the literal bound, but its distance to the nearest
    # convergent has a denominator of about 4,500 digits
    code, out, err = run(capsys, "assess", "--ratio", to_decimal(PHI, 3000))
    assert code == 2
    assert out == ""
    assert "distance out of range" in err
    assert "has over 4300 digits" in err
    assert "Exceeds the limit" not in err


@pytest.mark.parametrize("argv", [
    ("assess", "--ratio", "1e-5000"),
    ("verify", "--side", "1e-5000"),
    ("assess", "--ratio", "1e999999999"),
    ("verify", "--side", "1" * 4301 + "/7"),
])
def test_oversized_rational_literal_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "may have at most 4300 digits" in err
    assert "Exceeds the limit" not in err


@pytest.mark.parametrize("arg", [
    "--vertex=" + "1" * 5000,
    "--side=" + "x" * 5000,
    "--vertex=1," + "x" * 5000 + ",0",
    "--digits=" + "x" * 5000,
    "--side=-" + "1" * 4300 + "/" + "3" * 4300,
    "--side=1/" + "x" * 5000,
])
def test_long_rejected_literal_is_cut_in_the_message(capsys, arg):
    code, out, err = run(capsys, "verify", arg)
    assert (code, out) == (2, "")
    assert len(err.encode()) < 300
    assert f"... ({len(arg.partition('=')[2])} characters)" in err


def test_short_rejected_literal_is_repeated_whole(capsys):
    literal = "x" * ECHO_CHARS
    code, _, err = run(capsys, "verify", f"--side={literal}")
    assert code == 2
    assert err.endswith(f"not a rational literal: {literal!r}\n")
    code, _, err = run(capsys, "verify", literal)  # argparse's own message
    assert code == 2
    assert err.endswith(f"unrecognized arguments: {literal}\n")


LONG = "x" * 5000
TOO_LONG_TO_PRINT = "over 4300 digits"

# every documented bound of every subcommand, the sides whose derived values
# pass the 4300-digit print limit, and argparse's own echoes of long tokens;
# only inputs that run in about a second or less
BOUNDARY_SWEEP = [
    (("verify", "--digits", "1"), 0, ""),
    (("verify", "--digits", "4300"), 0, ""),
    (("verify", "--digits", "4301"), 2, "from 1 to 4300"),
    (("verify", "--json", "--side", "1e2149"), 0, ""),
    (("scan", "--radius", "101"), 2, "from 0 to 100"),
    (("fib", "--max", "2"), 0, ""),
    (("fib", "--max", "20578"), 2, "from 2 to 20577"),
    (("assess", "--ratio", "1e4299"), 0, ""),
    (("assess", "--ratio", "1e-4299"), 0, ""),
    (("fib", "--max", "3", "--rounding", LONG), 2, "(5000 characters)"),
    (("verify", LONG), 2, "(5000 characters)"),
    ((LONG,), 2, "(5000 characters)"),
    (("verify", "--json=" + LONG), 2, "(5000 characters)"),
    (("-h" + LONG,), 2, "(5000 characters)"),
]
for side in ("1e4299", "1e-4299", "1e2150", "1e-2150"):
    BOUNDARY_SWEEP += [
        (("verify", "--side", side), 0, ""),
        (("verify", "--json", "--side", side), 2, TOO_LONG_TO_PRINT),
        (("render", "--out", "{out}", "--side", side),
         2 if side == "1e4299" else 0, TOO_LONG_TO_PRINT if side == "1e4299" else ""),
    ]
BOUNDARY_SWEEP += [
    (("render", "--out", "{out}", "--side", "1e4297"), 0, ""),
    (("render", "--out", "{out}", "--side", "1e4298"), 2, TOO_LONG_TO_PRINT),
]
# a separate value that starts with "-" and a digit reaches the domain check,
# as "--side=-3/4" does, and is not read by argparse as a missing value
NOT_POSITIVE = "expected a positive value, got "
BOUNDARY_SWEEP += [
    (("verify", "--side", "-3/4"), 2, NOT_POSITIVE + "'-3/4'"),
    (("verify", "--side", "-1e3"), 2, NOT_POSITIVE + "'-1e3'"),
    (("verify", "--side", "-.5e3"), 2, NOT_POSITIVE + "'-.5e3'"),
    (("verify", "--si", "-3/4"), 2, NOT_POSITIVE + "'-3/4'"),
    (("render", "--out", "{out}", "--side", "-1/2"), 2, NOT_POSITIVE + "'-1/2'"),
    (("assess", "--ratio", "-1/2"), 2, NOT_POSITIVE + "'-1/2'"),
    (("assess", "--ra", "-1e3"), 2, NOT_POSITIVE + "'-1e3'"),
    (("verify", "--side", "-3/-4"), 0, ""),
    (("verify", "--side=-3/-4"), 0, ""),
]
# zero is refused by the option's own check; "--" is not an option to join a
# value to; and a distance whose denominator, 10**4300 + 2, is one digit too long
_ODD_Q = 5 * 10**4299 + 1  # the nearest convergent to (3q + 1)/(2q) is 3/2
BOUNDARY_SWEEP += [
    (("verify", "--side", "0"), 2, NOT_POSITIVE + "'0'"),
    (("assess", "--ratio", "0"), 2, NOT_POSITIVE + "'0'"),
    (("verify", "--", "-1,0,3"), 2, "unrecognized arguments: -- -1,0,3\n"),
    (("assess", "--ratio", f"{(3 * _ODD_Q + 1) // 2}/{_ODD_Q}"), 2, "distance out of range"),
]
# a p/q literal with a malformed side is refused as a decimal one is
BOUNDARY_SWEEP += [
    (("verify", "--side", "1/2/3"), 2, "not a rational literal: '1/2/3'\n"),
    (("assess", "--ratio", "1/2/3"), 2, "not a rational literal: '1/2/3'\n"),
]


@pytest.mark.parametrize("argv, expected_code, message", BOUNDARY_SWEEP)
def test_boundary_sweep(capsys, tmp_path, argv, expected_code, message):
    figure = tmp_path / "figure.svg"
    code, out, err = run(capsys, *(str(figure) if arg == "{out}" else arg for arg in argv))
    assert code in {0, 1, 2, 3}
    assert "set_int_max_str_digits" not in err and "Traceback" not in err
    assert len(err.encode()) < 300
    assert code == expected_code
    assert message in err
    if code != 0:
        assert out == ""
        assert not figure.exists()


@pytest.mark.parametrize("argv", list(USAGE_SHA256))
def test_argparse_output_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap to the terminal width
    code, out, err = run(capsys, *(arg.replace("{LONG}", LONG) for arg in argv.split()))
    assert {"exit": code, "stdout": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": hashlib.sha256(err.encode()).hexdigest()} == USAGE_SHA256[argv]


def test_render_writes_golden_bytes(capsys, tmp_path):
    out_file = tmp_path / "figure.svg"
    code, out, _ = run(capsys, "render", "--out", str(out_file))
    assert code == 0
    assert f"wrote {out_file}" in out
    assert out_file.read_text(encoding="utf-8") == GOLDEN.read_text(encoding="utf-8")


def test_render_vertex_value_may_start_with_minus(capsys, tmp_path):
    separate, joined = tmp_path / "separate.svg", tmp_path / "joined.svg"
    assert run(capsys, "render", "--out", str(separate), "--vertex", "-1,0,3")[0] == 0
    assert run(capsys, "render", "--out", str(joined), "--vertex=-1,0,3")[0] == 0
    assert separate.read_bytes() == joined.read_bytes()


def test_unwritable_stdout_exits_3(capsys, monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["fib", "--max", "3"]) == 3
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_render_unwritable_path(capsys, tmp_path):
    code, _, err = run(capsys, "render", "--out", str(tmp_path / "missing" / "x.svg"))
    assert code == 3
    assert "cannot write" in err


def test_stdout_is_deterministic(capsys):
    first = run(capsys, "verify", "--json")[1]
    second = run(capsys, "verify", "--json")[1]
    assert first == second
    assert run(capsys, "fib", "--max", "30")[1] == run(capsys, "fib", "--max", "30")[1]


def _mixed_session(out_file: Path) -> list[tuple[str, ...]]:
    return [
        ("verify",),
        ("verify", "--json", "--digits", "30", "--vertex=-1,0,3", "--side", "3/2"),
        ("scan", "--radius", "1"),
        ("fib", "--max", "12", "--rounding", "half-even", "--json"),
        ("assess", "--ratio", "1.618"),
        ("render", "--out", str(out_file)),
        ("verify", "--frobnicate"),
        ("verify", "--side", "0"),
        ("--help",),
    ]


def test_results_do_not_depend_on_earlier_calls(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap to the terminal width
    argvs = _mixed_session(tmp_path / "figure.svg")
    forwards = [run(capsys, *argv) for argv in argvs]
    backwards = [run(capsys, *argv) for argv in reversed(argvs)]
    assert forwards == backwards[::-1]
    assert [result[0] for result in forwards] == [0, 0, 0, 0, 0, 0, 2, 2, 0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for argv, result in zip(argvs, forwards):
        fresh = subprocess.run([sys.executable, "-m", "hexphi.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == result, argv


def test_import_loads_no_dataclasses_inspect_or_json():
    # modules, not milliseconds: what importing the CLI adds to a bare interpreter
    script = ("import sys; bare = set(sys.modules); import hexphi.cli; "
              "print(*set(sys.modules) - bare)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "hexphi.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "json"})


def test_each_parser_is_built_on_the_first_call_that_needs_it(capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._command_parser.cache_clear()
    cli._parser.cache_clear()
    calls = ((("verify",), 0, ["hexphi verify"]),
             (("fib", "--max", "5"), 0, ["hexphi fib"]),
             (("scan", "--radius", "101"), 2, ["hexphi scan"]))
    for argv, code, parsers in calls + tuple((argv, code, []) for argv, code, _ in calls):
        built.clear()
        assert run(capsys, *argv)[0] == code, argv
        assert built == parsers, argv
    tree = ["hexphi", *(f"hexphi {name}" for name in ("verify", "scan", "fib", "assess", "render"))]
    for parsers in (tree, []):
        built.clear()
        assert run(capsys, "--help")[0] == 0
        assert built == parsers


def test_a_valid_call_skips_the_top_level_parser(capsys, monkeypatch):
    parsed = []
    real_parse = argparse.ArgumentParser.parse_known_args

    def counting_parse(self, *args, **kwargs):
        parsed.append(self.prog)
        return real_parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
    monkeypatch.setenv("COLUMNS", "80")
    for argv, expected in (
        (("verify", "--vertex", "-1,0,3", "--side", "5/7"), ["hexphi verify"]),
        (("fib", "--max", "5"), ["hexphi fib"]),
        # leftover tokens: the top-level parser parses again, for argparse's own message
        (("verify", "extra"), ["hexphi verify", "hexphi", "hexphi verify"]),
        (("--help",), ["hexphi"]),
    ):
        parsed.clear()
        run(capsys, *argv)
        assert parsed == expected, argv


@pytest.mark.parametrize("argv", [
    ("verify",),
    ("verify", "--json", "--digits", "30", "--vertex=-1,0,3", "--side", "3/2"),
    ("scan", "--radius", "1", "--si=5/7"),
    ("fib", "--max", "12", "--rounding", "half-even", "--json"),
    ("assess", "--ratio", "1.618"),
    ("render", "--out", "figure.svg", "--vertex", "1,0,3"),
])
def test_direct_parse_gives_the_top_level_namespace(argv):
    assert vars(cli._parse(list(argv))) == vars(cli.build_parser().parse_args(argv))
