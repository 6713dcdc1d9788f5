import hashlib
import importlib.util
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from compulse import su2
from compulse.cli import main
from compulse.error_models import parse_model
from compulse.precision import working_digits
from compulse.sequences import (
    BUILTIN_NAMES,
    Role,
    SequenceError,
    build_builtin,
    evaluate,
    parse,
    parse_target,
    serialize,
)

ROOT = Path(__file__).resolve().parent.parent
ORDER_SCALING = ROOT / "scripts" / "order_scaling.py"
EVALUATE_DIGEST = ROOT / "scripts" / "evaluate_digest.py"

CSV_NAMES = {"naive.csv", "b2.csv", "b4.csv", "pi3Y.csv", "pi3Y-b2sym.csv", "pi3Y-b4sym.csv"}


def run_order_scaling(cwd, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(ORDER_SCALING), *args],
        cwd=cwd, env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
    )


class TestOrderScaling:
    def test_too_few_fit_points_reported_per_sequence(self, tmp_path):
        # at 30 digits the b4-based sequences keep fewer than four points
        # of this grid above the precision floor
        proc = run_order_scaling(tmp_path, "out", "--digits", "30", "--grid", "1e-3:1e-2:3")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = {line.split()[0]: line for line in proc.stdout.splitlines()}
        assert "slope" in lines["b2"]
        assert "only 3 points above the precision floor" in lines["b4"]
        assert "precision floor" in lines["pi3Y∘b4sym"]
        assert {p.name for p in (tmp_path / "out").iterdir()} == CSV_NAMES

    def test_all_fits_succeed(self, tmp_path):
        proc = run_order_scaling(tmp_path, "out", "--digits", "40", "--grid", "1e-2:1e-1:3")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert len(proc.stdout.splitlines()) == 6
        assert {p.name for p in (tmp_path / "out").iterdir()} == CSV_NAMES

    @pytest.mark.parametrize("digits", ["5_0", "\uff15\uff10", "50.0", "8"])
    def test_malformed_digits_is_a_usage_error(self, tmp_path, digits):
        proc = run_order_scaling(tmp_path, "out", "--digits", digits)
        assert proc.returncode == 2
        assert "error: --digits: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_malformed_grid_is_a_usage_error(self, tmp_path):
        proc = run_order_scaling(tmp_path, "out", "--grid", "1e-3:1e-2")
        assert proc.returncode == 2
        assert "bad --grid '1e-3:1e-2'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "grid,why",
        [
            ("1e-3:inf:3", "need finite bounds"),
            ("nan:1e-1:3", "need finite bounds"),
            ("1e-1:1e-3:3", "need finite bounds 0 < lo < hi"),
            ("1e-3:1e-1:x", "expected lo:hi:per_decade"),
        ],
    )
    def test_bad_grid_gets_the_cli_reason(self, tmp_path, capsys, grid, why):
        proc = run_order_scaling(tmp_path, "out", "--grid", grid)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert main(["scan", "--seq", "naive", "--model", "model=linear eps=0.1", "--grid", grid]) == 2
        reason = capsys.readouterr().err.removeprefix("compulse: ")
        assert reason.startswith(f"bad --grid {grid!r}: {why}")
        assert proc.stderr.endswith(f"error: {reason}")
        assert not (tmp_path / "out").exists()

    def test_a_grid_whose_points_collapse_is_a_usage_error(self, tmp_path):
        # 435 points within one part in 10**15 of 1 are not distinct at 16 digits
        grid = "1:1.000000000000001:1000000000000000000"
        proc = run_order_scaling(tmp_path, "out", "--digits", "16", "--grid", grid)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr.endswith(f"error: bad --grid {grid!r}: grid points are not distinct at 16 digits\n")
        assert not (tmp_path / "out").exists()


def _load_evaluate_digest():
    spec = importlib.util.spec_from_file_location("evaluate_digest", EVALUATE_DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEvaluateDigest:
    NAMES = ("pi3:Y", "pi5", "b2")
    MODELS = ("model=linear eps=0.01", "model=channels target{vector dx=0.01} pi3{axisdep delta=0.01 deltahat=0.02}")

    def test_repeat_calls_agree_and_one_flipped_bit_shows(self, monkeypatch):
        digest = _load_evaluate_digest().digest
        want = digest(self.NAMES, self.MODELS, (16, 30))
        assert digest(self.NAMES, self.MODELS, (16, 30)) == want
        monkeypatch.setattr(su2, "multiply", _flipping(su2.multiply))
        assert digest(self.NAMES, self.MODELS, (16, 30)) != want

    def test_wrapped_case_repeats_and_shows_a_flipped_bit(self, monkeypatch):
        wrapped_digest = _load_evaluate_digest().wrapped_digest
        want = wrapped_digest(self.NAMES, self.MODELS)
        assert wrapped_digest(self.NAMES, self.MODELS) == want
        monkeypatch.setattr(su2, "multiply", _flipping(su2.multiply))
        assert wrapped_digest(self.NAMES, self.MODELS) != want

    def test_each_precision_pair_of_the_mixed_digest_hashes_as_its_own_part(self):
        module = _load_evaluate_digest()
        parts = {}
        for key, result in module._evaluations(self.NAMES, self.MODELS, (16, 30)):
            parts.setdefault(key, hashlib.sha256()).update(result)
        assert list(parts) == [(16, 16), (16, 30), (30, 30)]
        assert parts[16, 16].hexdigest() == module.digest(self.NAMES, self.MODELS, (16,))
        assert parts[30, 30].hexdigest() == module.digest(self.NAMES, self.MODELS, (30,))

    # All five model kinds, dagger pairs and the text round trip.  A change
    # that alters result bits on purpose updates these hashes and says so.
    PINNED = ("pi3:Y", "pi5", "b2sym", "pi3Y∘b2sym", "concat:ZZY:b2sym")

    def test_results_at_one_precision_keep_their_pinned_bits(self):
        # Built, written, read and evaluated at one precision.
        module = _load_evaluate_digest()
        assert module.digest(self.PINNED, module.MODELS, (16,)) == (
            "28d6883e05999a3f6fef06ec1a127a7901d1980bc4bda0ad9936dfe5e1d5152a"
        )
        assert module.digest(self.PINNED, module.MODELS, (60,)) == (
            "49d87cf700723fdeaca235c9811d3c40980ce995c13428f4e2cc12ef8af916b9"
        )

    def test_results_across_precisions_keep_their_pinned_bits(self):
        # A 16-digit build evaluated at 60, and pi3_correct at 60 digits
        # around 16-digit builds.  Conjugated pulses refer to their target,
        # so their frames are derived at 60 digits; the b2/b4 phase axes are
        # read at 60 digits, and the axes of a text written at 16 keep their
        # 16-digit numbers until they are made unit at 60 digits.
        module = _load_evaluate_digest()
        assert module.digest(self.PINNED, module.MODELS, (16, 60)) == (
            "0678b0c49849676edc48c51d7bc2a521f2b34bdcf84b45cd7f1ff984d95afeea"
        )
        assert module.wrapped_digest(("pi3:Y", "pi5", "b2sym"), module.MODELS) == (
            "d3277c059b6d170ba7c1ff61854b6bb9d14f5274f8fb3361f393545d0741b94f"
        )

    def test_written_text_keeps_its_pinned_bytes_and_reads_back(self):
        # Every text the digest matrix writes, at 16 and 60 digits.  A change
        # that alters the written format on purpose updates this hash and
        # says so.
        module = _load_evaluate_digest()
        h = hashlib.sha256()
        for digits, name, target in product((16, 60), module.NAMES, module.TARGETS):
            with working_digits(digits):
                try:
                    text = serialize(build_builtin(name, parse_target(target)))
                except SequenceError:  # the b family corrects rotations about x only
                    continue
                assert serialize(parse(text)) == text
            h.update(text.encode())
        assert h.hexdigest() == "954ab19849c7451cd24e7ebcb73450f4f3b6f35b97f5aa2c7e5e7f8e84a0532d"

    @pytest.mark.parametrize("digits", [16, 60])
    def test_a_respelled_file_loads_and_evaluates_like_its_canonical_text(self, digits):
        module = _load_evaluate_digest()
        with working_digits(digits):
            models = [parse_model(config) for config in module.MODELS]
            for name, target in (("pi3Y∘b2sym", "x-pi"), ("concat:XZ", "y-3pi/4")):
                text = serialize(build_builtin(name, parse_target(target)))
                respelled = _respell_dagger_lines(text)
                assert respelled != text
                canonical, other = parse(text), parse(respelled)
                assert _sharing(other) == _sharing(canonical)
                assert list(module._results(other, models)) == list(module._results(canonical, models))


LEAK_NAMES = BUILTIN_NAMES + ("concat:XY", "concat:XYZXY", "concat:ZZY:b2sym")
LEAK_TARGETS = ("x-pi", "x-pi/2", "z-pi", "y-3pi/4")
LEAK_MODELS = (
    "model=linear eps=0.01",
    "model=vector dx=0.01;dy=-0.004,0.002;dz=0.003",
    "model=axisdep delta=0.01 deltahat=0.02",
)


def _leaks(name) -> list:
    """(target, model) where ``name`` built at 16 digits and evaluated at 60
    differs from the 60-digit build, under LEAK_MODELS; targets that the
    builtin rejects are skipped."""
    leaks = []
    for target in LEAK_TARGETS:
        with working_digits(16):
            try:
                low = build_builtin(name, parse_target(target))
            except SequenceError:  # the b family corrects rotations about x only
                continue
        with working_digits(60):
            high = build_builtin(name, parse_target(target))
            for config in LEAK_MODELS:
                model = parse_model(config)
                if evaluate(low, model, mpf(1)) != evaluate(high, model, mpf(1)):
                    leaks.append((target, config))
    return leaks


class TestBuildPrecision:
    @pytest.mark.parametrize("name", LEAK_NAMES)
    def test_a_16_digit_build_evaluates_at_60_like_a_60_digit_build(self, name):
        assert _leaks(name) == []


def _respell_dagger_lines(text: str) -> str:
    """``text`` with every number of its dagger pulse lines spelled with one
    more decimal zero ("1" as "1.0", "0.25e-3" as "0.250e-3"); a
    ``frame target`` block is kept."""

    def respell(tok):
        mantissa, e, exponent = tok.partition("e")
        return mantissa + ("0" if "." in mantissa else ".0") + e + exponent

    lines = []
    for line in text.splitlines():
        words = line.split()
        if words[0] == "pulse" and Role(words[5]).is_dagger:
            words[1:4] = map(respell, words[1:4])
            if words[8:9] != ["target"]:
                words[8:] = map(respell, words[8:])
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


def _sharing(seq) -> list:
    """For each pulse, the first positions of it and of its linked dagger
    partner in ``seq`` (None when the partner is not in it)."""
    first = {}
    for k, p in enumerate(seq.pulses):
        first.setdefault(id(p), k)
    return [(first[id(p)], first.get(id(p.daggered()))) for p in seq.pulses]


def _flipping(multiply):
    """``multiply`` with one low bit of each product's w component flipped."""

    def flipped(a, b):
        u = multiply(a, b)
        sign, man, exp, _ = u.w._mpf_
        w = mp.make_mpf(from_man_exp(-(man ^ 2) if sign else man ^ 2, exp))
        return su2.Unitary(w, u.x, u.y, u.z)

    return flipped
