"""Run the benchmark over several seeds and summarize it as one results file.

Run from the repository root, for example:

    python3 bench/collect.py --seeds 101-110 --out bench/results/BENCH_1.json

For every workload this makes one untraced run per seed and one traced
run on the first seed, in sequence.  Each end-to-end metric is reported as
the median and quartiles (``statistics.quantiles(values, n=4)``) of the
per-run values, with the interquartile spread as a share of the median;
each per-layer metric as the traced run's value.  The environment record,
the raw medians in seconds (``raw`` line) and the outputs' SHA-256 of each
run are kept as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("env", "raw", "sha256", "dominant"):
            record[key] = json.loads(rest)
    record["seed"] = seed
    record["run_s"] = elapsed
    print(f"{workload} seed {seed} trace {trace}: {elapsed:.1f}s "
          f"correct={record['correct']}", file=sys.stderr)
    return record


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110", help="'a-b' or 'a,b,c'")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workloads", default=None, help="comma list; default all")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        summary = {
            metric: spread([r["metrics"][metric]["value"] for r in runs])
            for metric in runs[0]["metrics"]
        }
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summary,
            "sha256": {str(r["seed"]): r["sha256"] for r in runs},
            "raw": {str(r["seed"]): r["raw"] for r in runs},
            "raw_wall_s": spread([r["raw"]["wall_s"] for r in runs]),
            "env": runs[0]["env"],
        }
        for metric, s in summary.items():
            flag = "" if s["spread"] <= bounds[metric] / 3 else "  <-- above bound/3"
            print(f"{name:16s} {metric:12s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} bound {bounds[metric]}{flag}", file=sys.stderr)
        raw = entry["raw_wall_s"]
        print(f"{name:16s} {'raw wall_s':12s} median {raw['median']:.6g} "
              f"spread {raw['spread']:.4f} (not a metric)", file=sys.stderr)
        traced = run_once(name, seeds[0], seconds, 1)
        entry["traced"] = {
            "seed": seeds[0],
            "correct": traced["correct"],
            "dominant": traced.get("dominant"),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        results["workloads"][name] = entry

    text = json.dumps(results, indent=2, sort_keys=True) + "\n"
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
    else:
        print(text)


if __name__ == "__main__":
    main()
