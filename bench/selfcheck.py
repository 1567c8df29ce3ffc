"""Self-check of the benchmark harness at a tiny size.

Run from the repository root:

    python3 bench/selfcheck.py

Runs every workload shrunk (``run.py --tiny``), untraced once and traced
twice, and fails unless every run is correct with no failed call
(error rate 0), reports exactly the metrics BENCHMARK.json lists with
their units, and the traced counts repeat exactly.  It also checks that
the benchmark exits non-zero, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: dict, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: not correct"
    assert result["attempted"] >= 1 and result["failed"] == 0, f"{label}: error rate above 0"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{label}: metrics {sorted(got)} != {sorted(expected)}"


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = [name for name, unit in per_layer.items() if unit == "count"]

    for w in spec["workloads"]:
        name = w["name"]
        check_result(result_of(run(ROOT, name, 0)), end_to_end, f"{name} untraced")
        traced = [result_of(run(ROOT, name, 1)) for _ in range(2)]
        for result in traced:
            check_result(result, per_layer, f"{name} traced")
        for count in counts:
            values = [r["metrics"][count]["value"] for r in traced]
            assert values[0] == values[1], f"{name}: {count} differs between runs: {values}"
        print(f"ok {name}")

    bare = ROOT / ".bench_run" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark succeeded without the program's sources"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok without sources: exit code", proc.returncode)


if __name__ == "__main__":
    main()
