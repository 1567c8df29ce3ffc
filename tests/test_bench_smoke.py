"""The benchmark's tune workload runs, traced, and passes its own checks.

``bench/run.py`` checks the ``tune`` outputs it times (nested rates, the
threshold selections) and traces the fold path through the names
``bench/tracing.py`` wraps.  A change to that path that breaks either
fails here, on a shrunken workload, rather than in a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_tiny_traced_tune_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "tune-warbler", "--tiny",
         "--seconds", "1", "--trace", "1", "--seed", "101"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
