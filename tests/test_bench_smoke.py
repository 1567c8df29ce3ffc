"""Shrunken benchmark runs pass the benchmark's own checks.

``bench/run.py`` checks the outputs it times: for ``tune`` the nested
rates and the threshold selections; for ``classify`` the rows of
``sets.csv``, read back, against a per-draw recomputation of the
posteriors and, row by row, against the exhaustive oracle's value; for
``conformal`` the audited coverage against its band.  The traced runs
also go through the names ``bench/tracing.py`` wraps and build its span
tree.  A change that breaks any of these fails here, on a shrunken
workload, rather than in a full benchmark run.

Each run works in a copy of ``bench/`` and ``src/``: ``run.py`` writes its
inputs, outputs and spans under ``.bench_run/`` beside its own ``bench/``,
so the checkout is left as it was.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def tiny_run(workload, trace, tmp_path):
    """Run ``workload`` at its tiny size for one second and check that its
    result line reports correct outputs and no failed call."""
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", workload, "--tiny",
         "--seconds", "1", "--trace", str(trace), "--seed", "101"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0


def test_tiny_traced_tune_run_is_correct(tmp_path):
    tiny_run("tune-warbler", trace=1, tmp_path=tmp_path)


def test_tiny_classify_run_is_correct(tmp_path):
    tiny_run("classify-decide", trace=0, tmp_path=tmp_path)


def test_tiny_conformal_run_is_correct(tmp_path):
    tiny_run("conformal-two", trace=0, tmp_path=tmp_path)


def test_tiny_traced_classify_dense_run_is_correct(tmp_path):
    tiny_run("classify-dense", trace=1, tmp_path=tmp_path)
