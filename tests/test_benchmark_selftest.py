import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    # the benchmark's own checks import copkern from src/ and trace its bindings
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 self-test failure(s)" in proc.stdout


def test_traced_study_benchmark_run_is_correct():
    # a traced study-small-n pass replays records through `sample` bit for bit,
    # repeats its per-layer counts and finds every traced function
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "study-small-n",
                           "--seed", "1", "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert '"correct": true' in proc.stdout.strip().splitlines()[-1], proc.stdout
