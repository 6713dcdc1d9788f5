import hashlib
import re
import shlex
import time
from pathlib import Path

import pytest
from mpmath import mpf

from compulse import su2
from compulse.analysis import FAMILIES, component_scan, default_scales, format_sci, to_csv
from compulse.cli import main, make_parser
from compulse.error_models import PerChannel, describe, parse_model
from compulse.precision import quoted, working_digits
from compulse.sequences import build_builtin, evaluate, parse_target


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_refused_below_fifty_digits(self, capsys):
        code, _, err = run(capsys, "--digits", "16", "table")
        assert code == 2
        assert "digits" in err

    def test_prints_all_thirty_six_entries(self, capsys):
        code, out, _ = run(capsys, "--digits", "50", "table")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert "5.5e-35" in lines[-1]
        assert "1.1e-01" in lines[1]


class TestBuildSimulate:
    def test_round_trip_bit_exact(self, capsys, tmp_path):
        code, text, _ = run(capsys, "--digits", "60", "build", "--seq", "pi3:Y", "--target", "x-pi")
        assert code == 0
        path = tmp_path / "seq.txt"
        path.write_text(text, encoding="utf-8")
        code, from_file, _ = run(
            capsys, "--digits", "60", "simulate", "--file", str(path),
            "--model", "model=linear eps=0.1",
        )
        assert code == 0
        code, from_name, _ = run(
            capsys, "--digits", "60", "simulate", "--seq", "pi3:Y", "--target", "x-pi",
            "--model", "model=linear eps=0.1",
        )
        assert code == 0
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("sequence")]
        assert strip(from_file) == strip(from_name)

    def test_zero_error_simulation_is_exact(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--seq", "pi3:Y", "--model", "model=linear eps=0"
        )
        assert code == 0
        infid = mpf(out.splitlines()[-1].split()[-1])
        assert infid < mpf("1e-13")

    def test_build_list(self, capsys):
        code, out, _ = run(capsys, "build", "--list")
        assert code == 0
        assert out.splitlines() == [
            "naive", "pi3:X", "pi3:Y", "pi3:Z", "pi5", "b2", "b4",
            "b2sym", "b4sym", "pi3Y∘b2sym", "pi3Y∘b4sym",
        ]

    @pytest.mark.parametrize("eps", ["inf", "nan", "abc"])
    def test_eps_must_be_a_finite_number(self, capsys, eps):
        code, out, err = run(
            capsys, "simulate", "--seq", "b2", "--model", "model=linear eps=0.1", "--eps", eps
        )
        assert code == 2
        assert out == ""
        assert "--eps" in err

    def test_negative_eps_in_exponent_form(self, capsys):
        base = ("--digits", "30", "simulate", "--seq", "b2", "--model", "model=linear eps=0.1")
        code, spaced, err = run(capsys, *base, "--eps", "-1e-3")
        assert code == 0, err
        _, joined, _ = run(capsys, *base, "--eps=-1e-3")
        assert spaced == joined
        code, _, err = run(capsys, *base, "--eps", "-inf")
        assert code == 2
        assert err == "compulse: non-finite value for --eps\n"

    def test_unknown_sequence_is_config_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--seq", "bogus", "--model", "model=linear eps=0.1")
        assert code == 2
        assert "unknown sequence" in err

    def test_b_family_names_the_wrong_target_axis(self, capsys):
        code, out, err = run(capsys, "build", "--seq", "pi3Y∘b2sym", "--target", "y-pi")
        assert code == 2
        assert out == ""
        assert err == "compulse: b2 corrects rotations about x; got axis Y\n"

    def test_seq_and_file_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("target 1.0 0.0 0.0 1/2\n", encoding="utf-8")
        code, _, err = run(
            capsys, "simulate", "--seq", "naive", "--file", str(path),
            "--model", "model=linear eps=0.1",
        )
        assert code == 2

    def test_dsl_error_reports_position(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("target 1.0 0.0 0.0 1/2\npulse oops\n", encoding="utf-8")
        code, _, err = run(capsys, "simulate", "--file", str(path), "--model", "model=linear eps=0.1")
        assert code == 2
        assert "line 2" in err


class TestScanFit:
    def test_scan_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "--digits", "30", "scan", "--seq", "naive",
            "--model", "model=linear eps=0.4", "--grid", "1e-3:1e-1:4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,cx,cy,cz,infidelity"
        assert len(lines) == 1 + 9

    def test_scan_deterministic(self, capsys):
        args = (
            "--digits", "30", "scan", "--seq", "b2",
            "--model", "model=linear eps=0.4", "--grid", "1e-3:1e-1:4",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_fit_slope_of_b2(self, capsys):
        code, out, _ = run(
            capsys, "--digits", "60", "fit", "--seq", "b2",
            "--model", "model=linear eps=0.4", "--grid", "1e-4:1e-2:9",
        )
        assert code == 0
        slope = float(next(l.split()[1] for l in out.splitlines() if l.startswith("slope")))
        assert abs(slope - 6) < 0.1

    def test_fit_with_too_small_grid_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "--digits", "16", "fit", "--seq", "b4",
            "--model", "model=linear eps=0.4", "--grid", "1e-4:1e-3:4",
        )
        assert code == 3

    def test_bad_grid_is_config_error(self, capsys):
        code, _, err = run(
            capsys, "scan", "--seq", "naive", "--model", "model=linear eps=0.1",
            "--grid", "nope",
        )
        assert code == 2

    @pytest.mark.parametrize("grid", ["1e-3:inf:3", "nan:1e-1:3", "inf:inf:3", "1e-3:nan:3"])
    @pytest.mark.parametrize("command", ["scan", "fit"])
    def test_non_finite_grid_bound_is_config_error(self, capsys, command, grid):
        code, out, err = run(capsys, command, "--seq", "naive", "--model", "model=linear eps=0.1", "--grid", grid)
        assert code == 2 and out == ""
        reason = "need finite bounds 0 < lo < hi and at least one point per decade"
        assert err == f"compulse: bad --grid {grid!r}: {reason}\n"


class TestExpand:
    def test_known_coefficient(self, capsys):
        code, out, _ = run(
            capsys, "--digits", "60", "expand", "--seq", "concat:X", "--target", "z-pi",
            "--family", "covariant", "--orders", "dy=1,ex=1", "--component", "y",
        )
        assert code == 0
        val = float(out.split()[-1])
        assert abs(val - 2 * 3**0.5) < 1e-6

    @pytest.mark.parametrize("orders", ["ex=3,ey=2", "ex=1,ey=4", "ey=2,ez=2"])
    def test_a_total_order_above_three_exits_2_at_once(self, capsys, orders):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "--digits", "60", "expand", "--seq", "naive", "--target", "x-0pi",
            "--family", "target-vector", "--orders", orders, "--component", "x",
        )
        assert (code, out) == (2, "") and "above the limit 3" in err
        assert time.perf_counter() - start < 1

    def test_unknown_family(self, capsys):
        code, _, err = run(
            capsys, "--digits", "60", "expand", "--seq", "naive",
            "--family", "nope", "--orders", "ex=1", "--component", "x",
        )
        assert code == 2


class TestPlan:
    def test_perfect_chain(self, capsys):
        code, out, _ = run(capsys, "plan", "--regime", "perfect", "--start", "inf,inf,1", "--depth", "6")
        assert code == 0
        assert "X,Y,Z,X,Y,Z" in out
        assert "(94;78;49)" in out
        assert "729 target + 1456 correction" in out

    def test_goal_mode(self, capsys):
        code, out, _ = run(capsys, "plan", "--start", "inf,inf,1", "--goal", "4")
        assert code == 0

    def test_unreachable_goal_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "plan", "--regime", "axisdep", "--start", "1,1,1", "--goal", "200",
        )
        assert code == 3

    def test_covariant_with_deltas(self, capsys):
        code, out, _ = run(
            capsys, "plan", "--regime", "covariant", "--start", "inf,inf,1",
            "--deltas", "1,inf,inf", "--depth", "3",
        )
        assert code == 0
        assert "(4;4;4)" in out


# 435 points within one part in 10**15 of 1: they collapse at 16 digits
COLLAPSING_GRID = "1:1.000000000000001:1000000000000000000"

# Lines end at line feeds only.  Each file has the typo 'targe' on its
# third line, counted in line feeds, so it fails at line 3, column 17.
_T = "target 1 0 0 1/2"
_P = "pulse 1 0 0 1/2 target target"
_TYPO = "pulse 1 0 0 1/2 targe target\n"
LINE_FEED_FILES = {
    "comment_line_separator": f"{_T}  # note\u2028see below\n{_P}\n{_TYPO}",
    "comment_form_feed": f"{_T}\n{_P}  # note\fsee below\n{_TYPO}",
    "byte_order_mark": f"\ufeff{_T}\n{_P}\n{_TYPO}",
    "crlf": f"{_T}\r\n{_P}\r\n{_TYPO}",
}

# The --file arguments that BAD_INPUTS spell as {key}, by their bytes
BAD_FILES = {
    "not_utf8": b"target 1 0 0 1/2\n\xff\n",
    # an angle beyond Python's int-string limit
    "angle_too_long": b"target 1 0 0 1/2\npulse 1 0 0 " + b"1" * 4401 + b"/2 target target\n",
    **{key: text.encode("utf-8") for key, text in LINE_FEED_FILES.items()},
}

BAD_INPUTS = {
    "eps": ("simulate", "--seq", "b2", "--model", "model=linear eps=0.1", "--eps", "abc"),
    "eps-minus-inf": ("simulate", "--seq", "b2", "--model", "model=linear eps=0.1", "--eps", "-inf"),
    "depth-high": ("plan", "--start", "1,1,1", "--depth", "70"),
    "depth-negative": ("plan", "--start", "1,1,1", "--depth", "-3"),
    "goal-zero": ("plan", "--start", "1,1,1", "--goal", "0"),
    "start-letter": ("plan", "--start", "1,x,1", "--depth", "2"),
    "start-zero": ("plan", "--start", "0,1,1", "--depth", "2"),
    "deltas-letter": ("plan", "--regime", "covariant", "--start", "1,1,1", "--deltas", "1,x,1", "--depth", "2"),
    "deltas-zero": ("plan", "--regime", "covariant", "--start", "1,1,1", "--deltas", "0,1,1", "--depth", "2"),
    "orders-letter": ("expand", "--seq", "pi3:X", "--family", "covariant", "--orders", "ex=q", "--component", "y"),
    "orders-unknown": ("expand", "--seq", "pi3:X", "--family", "covariant", "--orders", "zz=1", "--component", "y"),
    "orders-zero": ("expand", "--seq", "pi3:X", "--family", "covariant", "--orders", "ex=0", "--component", "y"),
    "orders-high": ("expand", "--seq", "pi3:X", "--family", "covariant", "--orders", "ex=5", "--component", "y"),
    "orders-total-four": (
        "expand", "--seq", "pi3:X", "--target", "z-pi", "--family", "target-vector",
        "--orders", "ey=2,ez=2", "--component", "x",
    ),
    "orders-negative": (
        "expand", "--seq", "pi3:X", "--family", "covariant", "--orders", "ex=1,dy=-1", "--component", "y",
    ),
    "orders-negative-beside-a-second-order": (
        "expand", "--seq", "pi3:X", "--family", "covariant", "--orders", "ex=2,dy=-1", "--component", "y",
    ),
    "orders-repeated": (
        "expand", "--seq", "concat:X", "--target", "z-pi", "--family", "target-vector",
        "--orders", "ex=1,ex=2", "--component", "x",
    ),
    "grid-zero": ("scan", "--seq", "naive", "--model", "model=linear eps=0.1", "--grid", "1e-4:1e-1:0"),
    "grid-too-many-points": (
        "scan", "--seq", "b2", "--model", "model=linear eps=0.01", "--grid", "1e-4:2e-4:1000000000",
    ),
    "grid-not-distinct": (
        "scan", "--seq", "naive", "--model", "model=linear eps=0.1", "--grid", COLLAPSING_GRID, "--digits", "16",
    ),
    "grid-not-distinct-fit": (
        "fit", "--seq", "naive", "--model", "model=linear eps=0.1", "--grid", COLLAPSING_GRID, "--digits", "16",
    ),
    "concat-too-deep": ("build", "--seq", "concat:XYZXYZXYZXYZX"),
    # a pulse count beyond Python's int-string limit is never formatted
    "concat-thousands-of-levels": ("simulate", "--seq", "concat:" + "X" * 9100, "--model", "model=linear eps=0.1"),
    "grid-per-decade-beyond-int-string-limit": (
        "scan", "--seq", "naive", "--model", "model=linear eps=0.1", "--grid", "1e-4:1e-1:" + "9" * 4300,
    ),
    "build-without-seq": ("build",),
    "concat-without-axes": ("build", "--seq", "concat:"),
    "model-key-without-value": ("simulate", "--seq", "naive", "--model", "model=linear eps"),
    "orders-without-name": ("expand", "--seq", "pi3:X", "--family", "covariant", "--orders", "=1", "--component", "y"),
    "start-two-orders": ("plan", "--start", "1,2", "--depth", "1"),
    **{
        f"file-{key.replace('_', '-')}": ("simulate", "--file", "{" + key + "}", "--model", "model=linear eps=0.1")
        for key in ("not_utf8", "angle_too_long", *LINE_FEED_FILES)
    },
    "deltas-perfect-regime": ("plan", "--start", "1,1,1", "--deltas", "1,1,1", "--depth", "2"),
    "deltas-axisdep-regime": ("plan", "--regime", "axisdep", "--start", "1,1,1", "--deltas", "1,1,1", "--depth", "2"),
    "channels-text-outside-blocks": (
        "simulate", "--seq", "pi3:Y", "--model", "model=channels target{linear eps=0.1} eps=0.1",
    ),
    "channels-repeated": (
        "scan", "--seq", "pi3:Y", "--model", "model=channels target{linear eps=0.1} target{linear eps=0.2}",
    ),
    "channels-nested": ("fit", "--seq", "pi3:Y", "--model", "model=channels target{channels pi3{linear eps=0.1}}"),
    "channels-nested-empty": ("simulate", "--seq", "pi3:Y", "--model", "model=channels target{channels}"),
    "channels-perfect": ("simulate", "--seq", "pi5", "--model", "model=channels perfect{linear eps=0.1}"),
    "channels-unknown": ("simulate", "--seq", "pi3:Y", "--model", "model=channels tagret{linear eps=0.1}"),
    # numbers are decimal numerals over ASCII digits, not Python literals
    "start-underscore": ("plan", "--start", "1_0,1,1", "--depth", "1"),
    "orders-underscore": (
        "expand", "--seq", "pi3:X", "--family", "covariant", "--orders", "ex=1_0", "--component", "y",
    ),
    "eps-fraction": ("simulate", "--seq", "b2", "--model", "model=linear eps=0.1", "--eps", "1/10"),
    "model-underscore": ("simulate", "--seq", "b2", "--model", "model=linear eps=1_0e-2"),
    "model-zero-denominator": ("simulate", "--seq", "b2", "--model", "model=linear eps=1/0"),
    "grid-zero-denominator": ("scan", "--seq", "naive", "--model", "model=linear eps=0.1", "--grid", "1/0:1e-2:3"),
    "target-non-ascii-digit": ("simulate", "--seq", "naive", "--target", "x-\u0663pi"),
    "digits-underscore": ("--digits", "3_0", "simulate", "--seq", "naive"),
    "digits-full-width": ("simulate", "--seq", "naive", "--digits", "\uff13\uff10"),
    "digits-decimal": ("build", "--seq", "naive", "--digits", "30.0"),
    "depth-underscore": ("plan", "--start", "1,inf,inf", "--depth", "1_0"),
    "goal-full-width": ("plan", "--start", "1,inf,inf", "--goal", "\uff13"),
    "goal-decimal": ("plan", "--start", "1,inf,inf", "--goal", "3.0"),
    # refused by argparse, on the same one line as every other refusal
    "subcommand-unknown": ("simulat", "--seq", "naive"),
    "regime-unknown": ("plan", "--regime", "perfekt", "--start", "1,1,1", "--depth", "1"),
    "component-unknown": ("expand", "--seq", "pi3:X", "--family", "covariant", "--orders", "ex=1", "--component", "w"),
    "column-unknown": ("fit", "--seq", "naive", "--model", "model=linear eps=0.1", "--column", "cw"),
    "start-missing": ("plan", "--depth", "1"),
    "goal-and-depth-missing": ("plan", "--start", "1,1,1"),
    "seq-and-file": ("simulate", "--seq", "naive", "--file", "seq.txt"),
    "build-seq-and-list": ("build", "--seq", "naive", "--list"),
    "argument-unrecognized": ("build", "--list", "--lsit"),
    "eps-without-value": ("simulate", "--seq", "naive", "--eps"),
}


def _with_bad_files(tmp_path, argv) -> list:
    """``argv`` with each {key} of BAD_FILES replaced by a file holding its bytes."""
    out = []
    for arg in argv:
        key = arg[1:-1] if arg.startswith("{") else None
        if key in BAD_FILES:
            arg = tmp_path / key
            arg.write_bytes(BAD_FILES[key])
        out.append(str(arg))
    return out


class TestBadInput:
    @pytest.mark.parametrize(
        "flags",
        [("--start", "1,2,x"), ("--regime", "covariant", "--start", "1,1,1", "--deltas", "1,2,x")],
        ids=["start", "deltas"],
    )
    def test_a_non_integer_order_is_named(self, capsys, flags):
        code, out, err = run(capsys, "plan", *flags, "--depth", "1")
        assert (code, out) == (2, "")
        assert err == "compulse: bad order triple '1,2,x': orders are positive integers or inf, got 'x'\n"

    @pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_is_a_one_line_config_error(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, "--digits", "50", *_with_bad_files(tmp_path, argv))
        assert code == 2
        assert out == ""
        assert err.startswith("compulse: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", LINE_FEED_FILES)
    def test_a_file_ends_its_lines_at_line_feeds_only(self, capsys, tmp_path, key):
        argv = _with_bad_files(tmp_path, BAD_INPUTS["file-" + key.replace("_", "-")])
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, "compulse: line 3, column 17: unknown role 'targe'\n")

    @pytest.mark.parametrize(
        "key",
        [
            "grid-too-many-points", "concat-too-deep",
            "concat-thousands-of-levels", "grid-per-decade-beyond-int-string-limit",
        ],
    )
    def test_oversized_input_fails_at_once(self, capsys, key):
        start = time.perf_counter()
        code, _, err = run(capsys, *BAD_INPUTS[key])
        assert code == 2 and "limit" in err
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("key", ["orders-negative", "orders-negative-beside-a-second-order"])
    def test_a_negative_power_is_named(self, capsys, key):
        code, _, err = run(capsys, "--digits", "50", *BAD_INPUTS[key])
        assert (code, err) == (2, "compulse: power of dy must be a non-negative integer, got -1\n")

    def test_a_nested_channels_model_is_named_by_its_config_text(self, capsys):
        code, _, err = run(capsys, *BAD_INPUTS["channels-nested-empty"])
        assert (code, err) == (2, "compulse: channel 'target' needs a model of another kind, not channels\n")

    @pytest.mark.parametrize("key", ["grid-not-distinct", "grid-not-distinct-fit"])
    def test_a_grid_whose_points_collapse_is_refused_with_its_reason(self, capsys, key):
        code, _, err = run(capsys, *BAD_INPUTS[key])
        want = f"compulse: bad --grid {COLLAPSING_GRID!r}: grid points are not distinct at 16 digits\n"
        assert (code, err) == (2, want)

    def test_over_rotation_beyond_the_precision_is_a_domain_error_at_once(self, capsys, tmp_path):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "simulate", "--seq", "naive", "--model", "model=linear eps=0.1", "--eps", "1e999999999999"
        )
        assert code == 3 and out == ""
        assert err.startswith("compulse: ") and err.count("\n") == 1
        assert time.perf_counter() - start < 1
        # A stored angle of 10**40 * pi radians has no phase bit left at 16
        # digits, whether a model corrupts it, keeps it ideal or it is the target.
        huge = "1" + "0" * 40 + "/1"
        pulse_file, target_file = tmp_path / "pulse.txt", tmp_path / "target.txt"
        pulse_file.write_text(f"target 1 0 0 1/2\npulse 1 0 0 {huge} target target\n", encoding="utf-8")
        target_file.write_text(f"target 1 0 0 {huge}\npulse 1 0 0 1/2 target target\n", encoding="utf-8")
        models = [], ["--model", "model=channels"], ["--model", "model=vector dx=0.01"], [
            "--model", "model=axisdep delta=0.01 deltahat=0.02"
        ]
        for path, model in [(pulse_file, m) for m in models] + [(target_file, [])]:
            code, out, err = run(capsys, "--digits", "16", "simulate", "--file", str(path), *model)
            assert code == 3 and out == "", (path.name, model)
            assert err.startswith("compulse: ") and err.count("\n") == 1 and "no phase bit left" in err
        for path in (pulse_file, target_file):
            code, out, _ = run(capsys, "--digits", "60", "simulate", "--file", str(path))
            assert code == 0 and "infidelity  1.0000000000000000e+00" in out

    def test_a_file_that_loads_also_evaluates(self, capsys, tmp_path):
        # A unit axis in a frame within the geometry tolerance of
        # orthonormal: its lab image is further off unit than a stored axis
        # may be, yet derives like any other.
        c = "0.57735026918962576450914878050195745564760175127"
        big, small = "1.00000000033", "0.00000000049"
        frame = " ".join([big, small, small, small, big, small, small, small, big])
        path = tmp_path / "tilted.txt"
        path.write_text(f"target 1 0 0 1/2\npulse {c} {c} {c} 1/6 correction pi3 frame {frame}\n", encoding="utf-8")
        code, out, err = run(capsys, "--digits", "30", "simulate", "--file", str(path))
        assert (code, err) == (0, "") and "infidelity" in out

    def test_non_utf8_file_reports_position(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"target 1 0 0 1/2\npulse 1 0 0 1/2 target \xfftarget\n")
        code, _, err = run(capsys, "simulate", "--file", str(path), "--model", "model=linear eps=0.1")
        assert code == 2
        assert "line 2, column 24" in err and "UTF-8" in err

    def test_internal_value_error_is_not_a_config_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr("compulse.cli.evaluate", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["simulate", "--seq", "b2", "--model", "model=linear eps=0.1"])


LONG = "q" * 10**5


class TestLongValues:
    """A bad value of any length, on the command line or as a token of a
    --file, is refused on one short stderr line, its text quoted as its
    first 40 characters and its length."""

    SIMULATE = ("simulate", "--seq", "naive", "--model", "model=linear eps=0.1")
    EXPAND = ("--digits", "60", "expand", "--seq", "naive", "--family", "target-vector", "--component", "x")

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--seq", "naive", "--model", "model=linear eps=0.1", "--grid", "1e-4:1e-1:" + LONG),
            (*SIMULATE, "--target", "x-" + LONG),
            ("simulate", "--seq", LONG, "--model", "model=linear eps=0.1"),
            (*EXPAND, "--orders", "ex=" + LONG),
            ("plan", "--start", "1,1," + LONG, "--depth", "1"),
            ("plan", "--start", "1,1,1", "--goal", LONG),
            ("--digits", LONG, *SIMULATE),
            ("env", *SIMULATE),
            ("simulate", "--seq", "naive", "--model", "model=" + LONG),
            (*SIMULATE, "--eps", LONG),
            ("plan", "--regime", LONG, "--start", "1,1,1", "--depth", "1"),
            (LONG, "--seq", "naive"),
            ("build", "--list", LONG),
            ("plan", "--d=" + LONG, "--start", "1,1,1"),
            ("build", "--list=" + LONG),
            (*EXPAND, "--orders", LONG + "=1"),
            ("--digits", "60", "expand", "--seq", "naive", "--family", LONG, "--orders", "ex=1", "--component", "x"),
        ],
        ids=[
            "grid", "target", "seq", "orders", "start", "goal", "digits", "env-digits", "model", "eps",
            "regime", "subcommand", "unrecognized", "ambiguous-option", "explicit-argument", "orders-key",
            "family",
        ],
    )
    def test_a_bad_value_of_any_length_exits_2_on_one_short_line(self, capsys, monkeypatch, argv):
        if argv[0] == "env":
            monkeypatch.setenv("COMPULSE_DIGITS", LONG)
            argv = argv[1:]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err) - 1 <= 200
        assert re.search(r"q'… \(1000\d\d characters\)", err)

    # A decimal numeral that mpmath alone takes about 17 s to read.
    EXPONENT = "1e" + "9" * 4000

    @pytest.mark.parametrize(
        "argv",
        [
            (*SIMULATE, "--eps", EXPONENT),
            ("simulate", "--seq", "naive", "--model", "model=linear eps=" + EXPONENT),
            ("scan", "--seq", "naive", "--model", "model=linear eps=0.1", "--grid", EXPONENT + ":1e-1:3"),
        ],
        ids=["eps", "model", "grid"],
    )
    def test_a_number_with_a_long_exponent_exits_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("compulse: bad ") and err.count("\n") == 1 and len(err) - 1 <= 200
        assert time.perf_counter() - start < 1

    # Each token the text format names when it refuses it, in a file that
    # is sound but for that token.  No token over 80 characters reads as
    # non-finite, and a zero denominator has at most Python's 4,300 digits.
    FILE_TOKENS = {
        "number": ("target 1 0 0 1/2\npulse {} 0 0 1/2 target target\n", LONG),
        "exponent": ("target 1 0 0 1/2\npulse {} 0 0 1/2 target target\n", EXPONENT),
        "numeral": ("target 1 0 0 1/2\npulse {} 0 0 1/2 target target\n", "9" * 10**5 + "x"),
        "angle": ("target 1 0 0 {}\n", LONG),
        "zero-denominator": ("target 1 0 0 {}\n", "9" * 4300 + "/" + "0" * 4300),
        "directive": ("target 1 0 0 1/2\n{} 1 0 0 1/2\n", LONG),
        "role": ("target 1 0 0 1/2\npulse 1 0 0 1/2 {} target\n", LONG),
        "channel": ("target 1 0 0 1/2\npulse 1 0 0 1/2 target {}\n", LONG),
        "frame-keyword": ("target 1 0 0 1/2\npulse 1 0 0 1/2 target target {}\n", LONG),
        "after-frame-target": ("target 1 0 0 1/2\npulse 1 0 0 1/2 target target frame target {}\n", LONG),
    }

    @pytest.mark.parametrize("key", FILE_TOKENS)
    def test_a_bad_file_token_of_any_length_is_quoted(self, capsys, tmp_path, key):
        text, token = self.FILE_TOKENS[key]
        path = tmp_path / "bad.txt"
        path.write_text(text.format(token), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "simulate", "--file", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and len(err) - 1 <= 200
        assert quoted(token) in err
        assert time.perf_counter() - start < 1

    def test_a_digit_count_of_any_length_is_quoted(self, capsys):
        digits = "9" * 4000
        code, out, err = run(capsys, "--digits", digits, "build", "--list")
        assert (code, out) == (2, "")
        assert err == f"compulse: precision must lie in [16, 200] decimal digits, got {quoted(digits)}\n"
        assert len(err) - 1 <= 200


class TestArgparseRefusals:
    @pytest.mark.parametrize("argv", [("--help",), ("plan", "--help")], ids=["top-level", "subcommand"])
    def test_help_still_prints_the_usage_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
        captured = capsys.readouterr()
        assert exit_.value.code == 0 and captured.err == ""
        assert captured.out.startswith("usage: compulse " + " ".join(argv[:-1]))

    def test_a_short_value_reads_as_argparse_wrote_it(self, capsys):
        code, _, err = run(capsys, *BAD_INPUTS["regime-unknown"])
        assert code == 2 and err.startswith("compulse: argument --regime: invalid choice: 'perfekt' (choose from ")
        code, _, err = run(capsys, *BAD_INPUTS["seq-and-file"])
        assert (code, err) == (2, "compulse: argument --file: not allowed with argument --seq\n")
        code, _, err = run(capsys, "build", "--list", "a\nb", "--lsit")
        assert (code, err) == (2, "compulse: unrecognized arguments: 'a\\nb --lsit'\n")


class TestFlagPlacement:
    def test_global_flags_accepted_after_subcommand(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        code, out, _ = run(capsys, "build", "--seq", "naive", "--out", str(path), "--digits", "30")
        assert code == 0
        assert path.read_text(encoding="utf-8").startswith("# sequence: naive")
        code, out, _ = run(capsys, "table", "--digits", "50")
        assert code == 0
        assert "5.5e-35" in out


class TestPrecisionFlag:
    def test_parser_is_built_once(self):
        assert make_parser() is make_parser()

    def test_no_precision_leaks_into_the_next_call(self, capsys, monkeypatch):
        monkeypatch.delenv("COMPULSE_DIGITS", raising=False)
        argv = ("simulate", "--seq", "b2", "--model", "model=linear eps=0.1")
        _, at_16, _ = run(capsys, "--digits", "16", *argv)
        code, at_30, _ = run(capsys, "--digits", "30", *argv)
        assert code == 0 and at_30 != at_16
        code, plain, err = run(capsys, *argv)
        assert (code, plain, err) == (0, at_16, "")

    def test_digits_out_of_range_is_config_error(self, capsys):
        code, _, err = run(capsys, "--digits", "300", "plan", "--start", "1,1,1", "--depth", "1")
        assert code == 2
        code, _, err = run(capsys, "--digits", "8", "plan", "--start", "1,1,1", "--depth", "1")
        assert code == 2

    def test_non_integer_env_digits_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COMPULSE_DIGITS", "abc")
        code, out, err = run(capsys, "plan", "--start", "1,1,1", "--depth", "2")
        assert code == 2
        assert out == ""
        assert "COMPULSE_DIGITS" in err and "'abc'" in err
        # an explicit --digits wins over the environment
        code, _, _ = run(capsys, "--digits", "30", "plan", "--start", "1,1,1", "--depth", "2")
        assert code == 0

    def test_env_digits_are_an_ascii_integer(self, capsys, monkeypatch):
        for raw in ("3_0", "\u0663\u0660", "30.0"):
            monkeypatch.setenv("COMPULSE_DIGITS", raw)
            code, out, err = run(capsys, "plan", "--start", "1,1,1", "--depth", "2")
            assert (code, out) == (2, "")
            assert err == f"compulse: COMPULSE_DIGITS={raw!r} is not an integer number of digits\n"
        monkeypatch.setenv("COMPULSE_DIGITS", " 30 ")
        code, _, _ = run(capsys, "plan", "--start", "1,1,1", "--depth", "2")
        assert code == 0

    def test_digits_flag_is_an_ascii_integer(self, capsys, monkeypatch):
        monkeypatch.delenv("COMPULSE_DIGITS", raising=False)
        for raw in ("3_0", "\uff13\uff10", "30.0"):
            code, out, err = run(capsys, "--digits", raw, "plan", "--start", "1,1,1", "--depth", "2")
            assert (code, out) == (2, "")
            assert err == f"compulse: --digits={raw!r} is not an integer number of digits\n"
        for raw in ("30", " 30 ", "+30"):
            code, _, _ = run(capsys, "--digits", raw, "plan", "--start", "1,1,1", "--depth", "2")
            assert code == 0

    def test_env_digits_sets_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("COMPULSE_DIGITS", "50")
        code, _, _ = run(capsys, "table")
        assert code == 0


class TestOutput:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, "--digits", "30", "--out", str(path), "scan", "--seq", "naive",
            "--model", "model=linear eps=0.4", "--grid", "1e-2:1e-1:4",
        )
        assert code == 0
        assert out == ""
        assert path.read_text(encoding="utf-8").startswith("epsilon,")

    def test_huge_decimal_exponents_print_at_once(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "simulate", "--seq", "naive", "--target", "x-0pi", "--model", "model=vector dx=1e-3000000"
        )
        assert code == 0 and "cx          2.000000000000000e-3000000\n" in out
        code, out, _ = run(
            capsys, "scan", "--seq", "naive", "--model", "model=linear eps=0.1", "--grid", "1e99999990:1e100000000:1"
        )
        rows = out.splitlines()[1:]
        assert code == 0 and len(rows) == 11
        assert rows[0] == "1.000000000000000e+100000000,nan,nan,nan,nan"
        assert time.perf_counter() - start < 1

    def test_digits_sixteen_and_sixty_agree_on_large_table_entries(self, capsys):
        # entries >= 1e-12 match to 2 significant figures across precisions
        for seq, eps, want in (("naive", "0.1", "1.2e-2"), ("b2", "0.1", "4.6e-6"), ("pi3Y∘b2sym", "0.1", "1.6e-7")):
            vals = {}
            for digits in ("16", "60"):
                code, out, _ = run(
                    capsys, "--digits", digits, "simulate", "--seq", seq,
                    "--model", "model=linear eps=0.1", "--eps", "1",
                )
                assert code == 0
                vals[digits] = mpf(out.splitlines()[-1].split()[-1])
            assert abs(vals["16"] - vals["60"]) < mpf(want) * mpf("0.005")
            assert abs(vals["60"] - mpf(want)) < mpf(want) * mpf("0.05")


class TestPerfectPi3:
    """Holding the pi/3 pulses ideal is a channels model that lists only
    the target channel."""

    MODEL = "model=linear eps=0.1"
    HELD = "model=channels target{linear eps=0.1}"

    def test_simulate_equals_a_target_only_model(self, capsys):
        base = ("--digits", "30", "simulate", "--seq", "pi3:Y", "--eps", "0.01")
        code, held, _ = run(capsys, *base, "--model", self.HELD)
        assert code == 0
        _, noisy, _ = run(capsys, *base, "--model", self.MODEL)
        assert held != noisy
        lines = dict(line.split(None, 1) for line in held.splitlines())
        assert lines["model"] == "channels target{linear eps=0.1}"
        with working_digits(30):
            seq = build_builtin("pi3:Y")
            actual = evaluate(seq, PerChannel({"target": parse_model(self.MODEL)}), mpf("0.01"))
            ideal = seq.ideal_unitary()
            want = [format_sci(v, 17) for v in (*su2.trace_components(ideal, actual), su2.infidelity(ideal, actual))]
        assert [lines[k] for k in ("cx", "cy", "cz", "infidelity")] == want

    def test_scan_equals_a_target_only_model(self, capsys):
        base = ("--digits", "30", "scan", "--seq", "pi3:Y", "--grid", "1e-3:1e-1:3")
        code, held, _ = run(capsys, *base, "--model", self.HELD)
        assert code == 0
        _, noisy, _ = run(capsys, *base, "--model", self.MODEL)
        assert held != noisy
        with working_digits(30):
            model = PerChannel({"target": parse_model(self.MODEL)})
            want = to_csv(component_scan(build_builtin("pi3:Y"), model, default_scales("1e-3", "1e-1", 3)))
        assert held == want

    def test_simulate_without_model_stays_ideal(self, capsys):
        args = ("--digits", "30", "simulate", "--seq", "pi3:Y")
        _, plain, _ = run(capsys, *args)
        code, held, _ = run(capsys, *args, "--model", "model=channels")
        assert code == 0
        assert held.replace("model       channels\n", "model       none\n") == plain
        assert "model       none\n" in plain


class TestModelText:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_family_model_runs_from_its_text(self, capsys, family):
        # in-bound parameters 0.01, 0.02, ... (axisdep's ratio 1.25 included)
        with working_digits(30):
            factory = FAMILIES[family]()
            model = factory.build([mpf(k + 1) / 100 for k in range(len(factory.names))])
            text = describe(model)
            assert parse_model("model=" + text) == model
            seq = build_builtin("concat:XY", parse_target("z-pi"))
            actual = evaluate(seq, model, 1)
            ideal = seq.ideal_unitary()
            want = [format_sci(v, 17) for v in (*su2.trace_components(ideal, actual), su2.infidelity(ideal, actual))]
        code, out, _ = run(
            capsys, "--digits", "30", "simulate", "--seq", "concat:XY", "--target", "z-pi", "--model", "model=" + text
        )
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.splitlines())
        assert lines["model"] == text
        assert [lines[k] for k in ("cx", "cy", "cz", "infidelity")] == want


def readme_commands():
    """Every ``compulse ...`` line of README's code blocks, continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```", readme, re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("compulse ")]


# SHA-256 of the bytes each README example writes (its --out or redirect
# file, else stdout), in README order: the table, build, three simulates
# (linear, poly, channels with vector and axisdep), scan, fit, expand and
# plan.  A change that alters one of these outputs on purpose updates its
# hash and says so.
README_OUTPUT_SHA256 = (
    "c29345eb3181529a764d23b73ccd3d1a2f289a6ae5b321c4c5465a96656ebb22",
    "2af8f73d033d718fc59b67d7933e257652206a0451703c18d20661b4bebb38e8",
    "f1ff033de181267f9867e96f1b3a78beea9e04326e1e1ad202b806613f4390f7",
    "a51e286d56965a6c065685fc85d904b74bac372513a10493c81a5c3489b14c1e",
    "0ca05ee33aba9ca480ac3b06e7e36779125ab659b033d88e655dd3ea055f503d",
    "54ced0a552e1907e2c8836e6578f4ff789c381bf2682582f1de671170cdbb4af",
    "1060bf8137409bd0993682db308eb5231357543495c158ff9012f49fc8293add",
    "f645da99155154c59dd7f89b304903966d5f96b91bbfcf09da50a2de1f36699d",
    "332544b4811c16b79302f005ec5a51b17021f5205eb31bfe7a3aed5a84ef4a11",
)


class TestReadmeExamples:
    def test_every_cli_example_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert len(commands) == len(README_OUTPUT_SHA256)
        for line, want in zip(commands, README_OUTPUT_SHA256):
            argv = shlex.split(line)[1:]
            if len(argv) > 2 and argv[-2] == ">":
                argv[-2] = "--out"
            code, out, err = run(capsys, *argv)
            assert code == 0, (line, err)
            written = Path(argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv else out.encode()
            assert hashlib.sha256(written).hexdigest() == want, line
