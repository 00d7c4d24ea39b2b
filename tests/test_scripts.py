import csv
import subprocess
import sys

from .conftest import ROOT, child_env


class TestRunScalarBenchmark:
    def test_writes_numeric_sweep_tables(self, tmp_path):
        script = ROOT / "scripts" / "run_scalar_benchmark.py"
        result = subprocess.run(
            [sys.executable, str(script), "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        for name, parameter in (("eps_sweep.csv", "epsilon"), ("time_sweep.csv", "t")):
            with open(tmp_path / name, newline="") as handle:
                header, *rows = csv.reader(handle)
            assert header == [parameter, "r", "avg_term", "entropy_term", "kl_1", "kl_2"]
            values = [[float(cell) for cell in row] for row in rows]
            assert values and all(len(row) == len(header) for row in values)
