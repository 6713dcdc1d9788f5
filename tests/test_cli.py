import pytest
from mpmath import mpf

from compulse.cli import main


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

    def test_unknown_sequence_is_config_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--seq", "bogus", "--model", "model=linear eps=0.1")
        assert code == 2
        assert "unknown sequence" in err

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


class TestExpand:
    def test_known_coefficient(self, capsys):
        code, out, _ = run(
            capsys, "--digits", "60", "expand", "--seq", "concat:X", "--target", "z-pi",
            "--family", "covariant", "--orders", "dy=1,ex=1", "--component", "y",
        )
        assert code == 0
        val = float(out.split()[-1])
        assert abs(val - 2 * 3**0.5) < 1e-6

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


BAD_INPUTS = {
    "eps": ("simulate", "--seq", "b2", "--model", "model=linear eps=0.1", "--eps", "abc"),
    "start-letter": ("plan", "--start", "1,x,1", "--depth", "2"),
    "start-zero": ("plan", "--start", "0,1,1", "--depth", "2"),
    "deltas-letter": ("plan", "--regime", "covariant", "--start", "1,1,1", "--deltas", "1,x,1", "--depth", "2"),
    "deltas-zero": ("plan", "--regime", "covariant", "--start", "1,1,1", "--deltas", "0,1,1", "--depth", "2"),
    "orders-letter": ("expand", "--seq", "pi3:X", "--family", "covariant", "--orders", "ex=q", "--component", "y"),
    "orders-unknown": ("expand", "--seq", "pi3:X", "--family", "covariant", "--orders", "zz=1", "--component", "y"),
    "orders-zero": ("expand", "--seq", "pi3:X", "--family", "covariant", "--orders", "ex=0", "--component", "y"),
    "orders-high": ("expand", "--seq", "pi3:X", "--family", "covariant", "--orders", "ex=5", "--component", "y"),
    "grid-zero": ("scan", "--seq", "naive", "--model", "model=linear eps=0.1", "--grid", "1e-4:1e-1:0"),
    "file-not-utf8": ("simulate", "--file", "{bad_utf8}", "--model", "model=linear eps=0.1"),
}


class TestBadInput:
    @pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_is_a_one_line_config_error(self, capsys, tmp_path, argv):
        bad_utf8 = tmp_path / "bad.txt"
        bad_utf8.write_bytes(b"target 1 0 0 1/2\n\xff\n")
        argv = [a.format(bad_utf8=bad_utf8) for a in argv]
        code, out, err = run(capsys, "--digits", "50", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("compulse: ") and err.count("\n") == 1
        assert "Traceback" not in err

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
