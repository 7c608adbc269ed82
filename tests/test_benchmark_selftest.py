import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    # the benchmark's own checks import copkern from src/ and trace its bindings
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 self-test failure(s)" in proc.stdout


@pytest.mark.parametrize("workload", ["study-small-n", "estimate-large-n", "measure-sweep"])
def test_traced_study_benchmark_run_is_correct(workload):
    # a traced pass of each workload checks its outputs (the study's records
    # replay through `sample` bit for bit), repeats its per-layer counts and
    # finds every traced function, the models' kernels on the CLI paths too
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert '"correct": true' in proc.stdout.strip().splitlines()[-1], proc.stdout
