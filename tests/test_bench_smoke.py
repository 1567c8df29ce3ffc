"""Shrunken benchmark runs pass the benchmark's own checks.

``bench/run.py`` checks the outputs it times: for ``tune`` the nested
rates and the threshold selections; for ``classify`` the rows of
``sets.csv``, read back, against a per-draw recomputation of the
posteriors and, row by row, against the exhaustive oracle's value; for
``conformal`` the audited coverage against its band.  The traced runs
also go through the names ``bench/tracing.py`` wraps and build its span
tree.  A change that breaks any of these fails here, on a shrunken
workload, rather than in a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def tiny_run(workload, trace):
    """Run ``workload`` at its tiny size for one second and check that its
    result line reports correct outputs and no failed call."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--tiny",
         "--seconds", "1", "--trace", str(trace), "--seed", "101"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0


def test_tiny_traced_tune_run_is_correct():
    tiny_run("tune-warbler", trace=1)


def test_tiny_classify_run_is_correct():
    tiny_run("classify-decide", trace=0)


def test_tiny_conformal_run_is_correct():
    tiny_run("conformal-two", trace=0)


def test_tiny_traced_classify_dense_run_is_correct():
    tiny_run("classify-dense", trace=1)
