import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # the selftest installs every span the benchmark binds, so a renamed or
    # deleted traced function fails here as well as in the benchmark
    proc = subprocess.run([sys.executable, "sepbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
