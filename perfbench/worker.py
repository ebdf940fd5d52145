"""One workload in one fresh process; started by ``run.py``, not by hand.

The process imports ``robustpr.cli`` first and prints ``ready``: ``run.py``
times that as set-up.  With ``--setup-probe`` it exits there.  Otherwise it
drives the workload in a closed loop with one client (each problem starts
after the previous one ends), checks every output, and prints one JSON line
with the raw results.  With ``--pauses N`` it stops N times between problems,
evenly over its measured time, prints ``pause`` and waits for a line on
standard input, so ``run.py`` can time a cold start while it is idle.  With
``--trace 1`` it runs a fixed number of problems, each once untraced and
once traced, so counts repeat exactly and the gap between the two is the
tracing overhead.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import robustpr.cli  # noqa: E402,F401  (set-up ends once this import is done)

if __name__ == "__main__":
    print("ready", flush=True)
    if "--setup-probe" in sys.argv:
        sys.exit(0)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import BLAS_THREAD_VARS  # noqa: E402


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def run_problem(name, work, pseed):
    """Time one problem; returns (seconds, Outcome)."""
    try:
        problem = workloads.WORKLOADS[name](work, pseed)
        t0 = time.perf_counter()
        result = problem.run()
        elapsed = time.perf_counter() - t0
        return elapsed, problem.check(result)
    except Exception:  # a crash is a failed problem; keep measuring
        traceback.print_exc()
        return None, workloads.Outcome(False, [], "raised")


class Loop:
    """Closed-loop driver that keeps every per-problem result."""

    def __init__(self, name, seed, work):
        self.name, self.seed, self.work = name, seed, work
        self.times, self.attempted, self.failed, self.statuses = [], 0, 0, []

    def one(self, index):
        elapsed, outcome = run_problem(self.name, self.work,
                                       workloads.problem_seed(self.name, self.seed, index))
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            print(f"problem {index} failed: {outcome.detail}", file=sys.stderr)
        if elapsed is not None:
            self.times.append(elapsed)
        self.statuses.extend(outcome.solver_statuses)
        return elapsed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    parser.add_argument("--pauses", type=int, default=0, help="idle stops in a timed run")
    args = parser.parse_args()

    work = os.path.join(ROOT, "perfbench", "out", f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        # One warm-up problem outside the measurement, so one-off first-call
        # costs do not land on the first timed problem.
        run_problem(args.workload, work, workloads.problem_seed(args.workload, args.seed, -1))
        out = {"machine": machine()}
        if args.trace:
            out.update(traced(args, work))
        else:
            out.update(timed(args, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))


def timed(args, work):
    loop = Loop(args.workload, args.seed, work)
    measured, paused = 0.0, 0
    while measured < args.seconds:
        t0 = time.perf_counter()
        loop.one(loop.attempted)
        measured += time.perf_counter() - t0
        # Pauses are not measured time; the last one is due before the end.
        while paused < args.pauses and measured >= (paused + 1) * args.seconds / (args.pauses + 1):
            print("pause", flush=True)
            if not sys.stdin.readline():
                sys.exit("no reply to pause")
            paused += 1
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "times": loop.times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(args, work):
    # Each problem runs once untraced and once traced, back to back, so the
    # pair sees the same machine state; the order alternates so that an
    # order effect (warm caches) cancels in the median ratio.  The problem
    # count is fixed so counts repeat exactly.
    n = max(2, round(args.seconds / (2.0 * workloads.NOMINAL_PROBLEM_S[args.workload])))
    plain = Loop(args.workload, args.seed, work)
    spanned = Loop(args.workload, args.seed, work)
    tracer = tracing.Tracer()
    ratios = []

    def traced_one(i):
        tracer.install()
        tracer.begin_problem(i)
        try:
            return spanned.one(i)
        finally:
            tracer.end_problem()
            tracer.uninstall()

    for i in range(n):
        if i % 2:
            traced_s = traced_one(i)
            plain_s = plain.one(i)
        else:
            plain_s = plain.one(i)
            traced_s = traced_one(i)
        if plain_s and traced_s:
            ratios.append(traced_s / plain_s)
    if args.spans:
        tracer.dump(args.spans)
    metrics = tracing.layer_metrics(tracer.spans, spanned.statuses)
    metrics["trace.overhead_fraction"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    return {
        "attempted": plain.attempted + spanned.attempted,
        "failed": plain.failed + spanned.failed,
        "traced_problems": n,
        "layers": metrics,
    }


if __name__ == "__main__":
    main()
