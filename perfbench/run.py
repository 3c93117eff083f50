"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, runs timed passes for about S
seconds (at least one), checks every output, and prints a metric table, the
environment record and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``setup_s``
is the median package import time in fresh interpreters plus the median
input generation, each over seven repetitions.  ``--trace 1``
runs one untraced pass and then one pass with every layer wrapped by the span
recorder, and reports the per-layer metrics plus the tracing overhead
(traced pass wall time minus untraced pass wall time).

The package is imported from ``src/`` of the checkout that holds this
directory; without it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="negrefractor benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("discrete_matrix", "radon_refine", "trace_many"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run for the benchmark's own tests")
    return parser.parse_args(argv)


def environment(workload) -> dict:
    import numpy as np
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__

    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "simd": sorted(k for k, on in __cpu_features__.items() if on),
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": workload.name,
        "sizes": workload.sizes(),
    }


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    probe = ("import time; t0 = time.perf_counter(); import negrefractor; "
             "print(time.perf_counter() - t0)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def measure(workload, seconds: float) -> list[list]:
    """Passes until the next one would end after `seconds`; at least one."""
    passes = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass())
        now = time.perf_counter()
        if now - begin + (now - t0) > seconds:
            return passes


def pass_wall(ops) -> float:
    return sum(op.seconds for op in ops)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "negrefractor" / "__init__.py").is_file():
        print(f"negrefractor sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](tiny=args.size == "tiny")
        setup_times = []
        for i in range(SETUP_REPEATS):
            # a fresh directory each time: rewriting files in place can make
            # the file system flush them; the passes use the last one
            inputs_dir = workdir / f"setup-{i}"
            inputs_dir.mkdir()
            t0 = time.perf_counter()
            workload.setup(args.seed, inputs_dir)
            setup_times.append(time.perf_counter() - t0)

        if args.trace:
            passes = [workload.run_pass()]
            recorder = tracer.SpanRecorder()
            with tracer.traced(recorder):
                passes.append(workload.run_pass())
            metrics = recorder.per_layer()
            untraced, traced = pass_wall(passes[0]), pass_wall(passes[1])
            metrics["tracing.untraced_wall_s"] = (untraced, "s")
            metrics["tracing.traced_wall_s"] = (traced, "s")
            metrics["tracing.overhead_s"] = (traced - untraced, "s")
            recorder.save(WORK / f"spans-{args.workload}-{args.seed}.npz")
        else:
            passes = measure(workload, args.seconds)
            op_times = [op.seconds for ops in passes for op in ops]
            metrics = {
                "wall_s": (statistics.median(pass_wall(ops) for ops in passes), "s"),
                "op_s_p50": (statistics.median(op_times), "s"),
                "setup_s": (import_seconds() + statistics.median(setup_times), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        env = environment(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for ops in passes for op in ops]
    failures = [op for op in ops if op.error is not None]
    for op in failures:
        print(f"FAILED {op.name}: {op.error}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"operations={len(ops)} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    for name in dict.fromkeys(op.name for op in ops):
        secs = statistics.median(op.seconds for op in ops if op.name == name)
        print(f"{'op ' + name:45s} {secs:>16.6g} s (median)")
    print(f"{'fail_ratio':45s} {len(failures) / len(ops):>16.6g} ratio")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
