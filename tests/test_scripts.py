import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDER_SCALING = ROOT / "scripts" / "order_scaling.py"

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

    def test_malformed_grid_is_a_usage_error(self, tmp_path):
        proc = run_order_scaling(tmp_path, "out", "--grid", "1e-3:1e-2")
        assert proc.returncode == 2
        assert "bad --grid '1e-3:1e-2'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()
