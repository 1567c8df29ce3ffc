"""Benchmark of the setbayes CLI stages on four seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload classify-dense --seed 1 --seconds 24 --trace 0

One run does this, in one client process making sequential calls (a
closed loop with a single client):

1. Set-up: ``SETUP_REPEATS`` fresh processes each import ``setbayes`` and
   build the workload's inputs from the seed (``make_inputs.py``);
   ``setup_s`` is the median of their wall times.
2. ``--trace 0``: one warm-up call of the workload's CLI stage, in-process
   through ``setbayes.cli.main``, then timed calls until the next one would
   end after ``--seconds`` (at least ``MIN_CALLS``).  A run of the fixed
   ``reference_kernel`` comes before every timed call and after the last,
   so each call has a reference time on either side.  Then every
   end-to-end metric.
   ``--trace 1``: the same, with untraced and traced calls alternating;
   then every per-layer metric.  The spans are written to
   ``.bench_run/traces/``.
3. Output checks on the warm-up call's files, and a byte comparison of
   every later call's files with them.  A call fails on a non-zero exit,
   an exception, outputs that differ from the first call's, or a failed
   check.

The end-to-end times are relative: ``call_ref`` is the median over the
calls of a call's wall time divided by the mean time of the two reference
runs around it, so it reads in units of the reference kernel.  On a
shared 2-vCPU virtual machine the host's speed drifts by a quarter or more
within a minute, and the kernel, run in the same thread between calls,
sees most of that drift: over two sets of ten 24-second runs per workload
the interquartile spread of the ratio was 0.05-0.12 of its median, where
that of the raw call time was 0.09-0.20.  A change to the program moves
the ratio as it moves the call time.  The raw medians in seconds are
printed on the ``raw`` line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it record the environment, the raw medians, the outputs' SHA-256 and the
error rate.  The BLAS thread count is pinned to ``BLAS_THREADS`` in this
process and its children.  Without ``src/setbayes`` beside ``bench/`` the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_run"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: BLAS threads in this process and its set-up processes: one client on
#: one core, so that nothing of the benchmark competes for the other.
BLAS_THREADS = 1
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest timed calls per run (per kind, with tracing), whatever ``--seconds``.
MIN_CALLS = 3
SETUP_TIMEOUT_S = 120


def pin_environment() -> None:
    """Pin the BLAS threads and make ``src/setbayes`` importable, or exit 2.

    Must run before numpy is imported.  The set-up processes call it too.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "setbayes" / "__init__.py").is_file():
        print(f"error: no setbayes package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def reference_kernel() -> float:
    """Run a fixed kernel that tracks the host's speed; its wall time in seconds.

    A pure-Python integer loop of about 0.2 s, run beside every stage call.
    It touches nothing of ``setbayes``, so a change to the program cannot
    change its time, and it allocates nothing that lasts, so the stage
    calls alone set the peak resident memory.  Of the kernels tried beside
    the four workloads' calls (small-matrix NumPy arithmetic, CSV
    formatting and parsing, passes over large arrays, and mixes of these),
    this one's time followed the calls' times most closely.
    """
    start = time.perf_counter()
    sum(i * i for i in range(2_500_000))
    return time.perf_counter() - start


def set_up(name: str, seed: int, tiny: bool, run_dir: Path) -> tuple[Path, list[float]]:
    """Build the inputs ``SETUP_REPEATS`` times, each in a fresh process.

    Returns the first input directory and every set-up's wall time.
    Raises RuntimeError if a set-up fails or two of them disagree.
    """
    times = []
    digests = []
    for k in range(SETUP_REPEATS):
        out = run_dir / f"inputs{k}"
        out.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "make_inputs.py"),
               "--workload", name, "--seed", str(seed), "--out", str(out)]
        if tiny:
            cmd.append("--tiny")
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited with code {proc.returncode}:\n{proc.stderr}")
        digests.append({p.name: sha256(p) for p in sorted(out.iterdir())})
    if any(d != digests[0] for d in digests):
        raise RuntimeError("set-ups with one seed wrote different input files")
    return run_dir / "inputs0", times


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Stage:
    """Calls of one workload's CLI stage, with the outcome of each."""

    def __init__(self, workload, directory: Path, seed: int):
        from setbayes import cli

        self.main = cli.main
        self.argv = workload.argv(directory, seed)
        self.outputs = [directory / name for name in workload.outputs]
        self.reference = None
        self.failed = 0
        self.attempted = 0

    def call(self, main=None) -> float | None:
        """One stage call; its wall time in seconds, or None if it failed."""
        for path in self.outputs:
            path.unlink(missing_ok=True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = (main or self.main)(self.argv)
        except Exception:
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter() - start
        digests = {p.name: sha256(p) for p in self.outputs if p.exists()}
        ok = rc == 0 and len(digests) == len(self.outputs)
        if ok and self.reference is None:
            self.reference = digests
        if not ok or digests != self.reference:
            print(f"error: call {self.attempted} exited with {rc}, outputs {digests}",
                  file=sys.stderr)
            self.failed += 1
            return None
        return elapsed


class Timing:
    """Wall times of the timed calls of one run, and of the reference runs.

    ``refs`` holds one more entry than ``calls``: the reference runs before
    every call and after the last one.  ``traced`` holds the traced calls'
    times, if the run traces.
    """

    def __init__(self):
        self.calls: list[float] = []
        self.refs: list[float] = []
        self.traced: list[float] = []

    def ratios(self) -> list[float]:
        """Each call's time over the mean of the reference runs around it."""
        return [c / ((a + b) / 2) for c, a, b in zip(self.calls, self.refs, self.refs[1:])]


def timed_calls(stage: Stage, seconds: float, traced=None) -> Timing:
    """A warm-up call, then timed calls until the next would end past ``seconds``.

    With ``traced`` = (tracer, stage name), a traced call follows each
    timed call.  The warm-up call counts towards ``seconds``.
    """
    start = time.perf_counter()
    timing = Timing()
    if stage.call() is None:
        return timing
    timing.refs.append(reference_kernel())
    per_round = 0.0
    while (len(timing.calls) < MIN_CALLS
           or time.perf_counter() - start + per_round < seconds):
        round_start = time.perf_counter()
        elapsed = stage.call()
        if elapsed is None:
            break
        if traced is not None:
            tracer, stage_name = traced
            with tracer.call(stage_name) as run:
                elapsed_traced = stage.call(run)
            if elapsed_traced is None:
                break
            timing.traced.append(elapsed_traced)
        timing.refs.append(reference_kernel())
        timing.calls.append(elapsed)
        per_round = max(per_round, time.perf_counter() - round_start)
    return timing


def layer_metrics(tracer, timing: Timing) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over the traced calls) and any count mismatch."""
    from tracing import COUNTS, UNITS, summarize

    per_call = [summarize(spans, errors) for spans, errors in zip(tracer.calls, tracer.errors)]
    problems = [
        f"{name} differs between traced calls: {[m[name] for m in per_call]}"
        for name in COUNTS
        if any(m[name] != per_call[0][name] for m in per_call)
    ]
    values = {
        name: per_call[0][name] if name in COUNTS else statistics.median(m[name] for m in per_call)
        for name in per_call[0]
    }
    values["trace.overhead_s"] = statistics.median(timing.traced) - statistics.median(timing.calls)
    return {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}, problems


def dominant(metrics: dict, spans: list[list]) -> dict:
    """The layer and the traced function with the most self time, with shares.

    Layer shares come from the per-layer medians; the function's share from
    ``spans``, one traced call.
    """
    from tracing import LAYERS, self_times

    selfs = {layer: metrics[f"{layer}.self_s"]["value"] for layer in LAYERS}
    layer = max(selfs, key=selfs.get)
    by_name = {}
    for span, own in zip(spans, self_times(spans)):
        by_name[span[0]] = by_name.get(span[0], 0) + own
    function = max(by_name, key=by_name.get)
    return {
        "layer": layer,
        "layer_share": selfs[layer] / sum(selfs.values()),
        "function": function,
        "function_share": by_name[function] / sum(by_name.values()),
        "layer_self_s": {k: round(v, 6) for k, v in selfs.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark the setbayes CLI stages.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (harness self-check only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    import workloads

    table = workloads.workloads(tiny=args.tiny)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    env = environment()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        directory, setup_times = set_up(args.workload, args.seed, args.tiny, run_dir)
        stage = Stage(workload, directory, args.seed)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            timing = timed_calls(stage, args.seconds, (tracer, workload.stage))
        else:
            timing = timed_calls(stage, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            problems = workload.check(directory) if stage.reference else []
        except Exception as exc:
            traceback.print_exc()
            problems = [f"the output check raised {exc!r}"]
        if args.trace and timing.traced:
            metrics, count_problems = layer_metrics(tracer, timing)
            problems += count_problems
            trace_dir = WORK / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json.gz"
            tracer.write(trace_path)
            print("dominant " + json.dumps(dominant(metrics, tracer.calls[-1]), sort_keys=True))
            print(f"spans written to {trace_path.relative_to(ROOT)}")
        elif not args.trace and timing.calls:
            call_ref = statistics.median(timing.ratios())
            metrics = {
                "call_ref": {"value": call_ref, "unit": "ref"},
                "items_per_ref": {"value": workload.items / call_ref, "unit": "items/ref"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        else:
            metrics = {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    failed = stage.attempted if problems else stage.failed
    print("env " + json.dumps(env, sort_keys=True))
    if timing.calls:
        raw = {"wall_s": statistics.median(timing.calls),
               "reference_s": statistics.median(timing.refs),
               "calls": len(timing.calls)}
        print("raw " + json.dumps(raw, sort_keys=True))
    print("sha256 " + json.dumps(stage.reference, sort_keys=True))
    print(f"error_rate {failed / stage.attempted} ({failed} of {stage.attempted} calls failed)")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": stage.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
