"""robustpr benchmark: end-to-end time per problem, traced per-layer numbers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dense_recover --seed 1 --seconds 20 --trace 0

Each run starts fresh worker processes (``worker.py``) with the BLAS thread
count pinned to at most the number of usable cores.  Set-up time is the
fastest of the cold starts taken before, between the problems of, and after
the run; the workload process runs the problems as a closed loop with one client,
in-process through ``robustpr.cli.main``.  The last line of standard
output is one JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run, whose spans are written
to ``perfbench/out/``.  The lines above it give every metric with its unit,
``failed_fraction`` and the machine.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("dense_recover", "corrupted_solve", "sketch_image", "landscape_audit")
# Cold starts timed per run besides the workload process's own: some before
# and as many after the workload, the rest while it pauses between problems,
# spread evenly over its measured time.  Set-up time is their minimum: on a
# shared box, load from other tenants only ever adds to a cold start, and it
# moved the median and lower quartile of a run's starts by up to 30% between
# two sets of runs of the same code, where the minimum moved by at most 21%.
SETUP_EDGE_STARTS = 5
SETUP_PAUSE_STARTS = 20
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Only dense_recover's products are large enough for a second BLAS thread to
# pay: 1 thread doubles its problem time.  The other workloads run as fast on
# 1 thread (inner dimension 2, FWHT without BLAS, d=200 gemv), and a second
# one only adds synchronisation and thread start-up: on a shared 2-core box it
# doubled the run-to-run spread of landscape_audit and tripled that of
# corrupted_solve's set-up time.
BLAS_THREADS = {"corrupted_solve": 1, "sketch_image": 1, "landscape_audit": 1}


def child_env(workload):
    env = dict(os.environ)
    threads = str(BLAS_THREADS.get(workload, len(os.sched_getaffinity(0))))
    for var in BLAS_THREAD_VARS:
        env[var] = threads
    return env


def start(args, env, stdin=subprocess.DEVNULL):
    """Start a worker; return it and the seconds until robustpr.cli was ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT, env=env,
                            stdin=stdin, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RuntimeError("worker failed before robustpr.cli was imported")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return proc, ready


def finish(proc, timeout):
    """The rest of a worker's output; the worker is ended and reaped either way."""
    try:
        return proc.communicate(timeout=timeout)[0]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def probe(env):
    """Seconds for one fresh process to import robustpr.cli."""
    proc, ready = start(["--setup-probe"], env)
    finish(proc, DEADLINE_S)
    if proc.returncode != 0:
        sys.exit("set-up probe failed")
    return ready


def serve(proc, env, deadline):
    """Run the workload to its end, timing a cold start at each of its pauses.

    Returns the cold-start times and the workload's last output line.  A
    workload still running at ``deadline`` is killed; it is reaped either way.
    """
    timer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    setup, last = [], ""
    try:
        for line in proc.stdout:
            if line.strip() == "pause":
                setup.append(probe(env))
                proc.stdin.write("go\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    return setup, last


def tail_percentile(times):
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Below 20 samples no percentile from the median up qualifies; the median
    is reported then, and the count beyond it says so.
    """
    n = len(times)
    pct = max(50, math.floor(100 * (n - 10) / n)) if n else 50
    rank = max(1, math.ceil(pct * n / 100))
    return sorted(times)[rank - 1], pct, n - rank


def end_to_end(raw, setup):
    times = raw["times"]
    tail, pct, beyond = tail_percentile(times)
    busy = sum(times)
    passed = raw["attempted"] - raw["failed"]
    metrics = {
        "setup_s": (min(setup), "s", f"fastest of {len(setup)} cold starts, "
                    f"median {statistics.median(setup):.4f}"),
        "problem_s_p50": (statistics.median(times), "s", f"n={len(times)}"),
        "problem_s_tail": (tail, "s", f"p{pct} of n={len(times)}, {beyond} beyond"),
        "problems_per_s": (passed / busy, "1/s", f"{passed} passed / {busy:.3f} s busy"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", "ru_maxrss of the workload process"),
    }
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "robustpr", "cli.py")):
        sys.exit(f"no robustpr sources under {ROOT}/src: run from a source checkout")
    began = time.perf_counter()
    env = child_env(args.workload)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("terminated"))

    pauses = 0 if args.trace else SETUP_PAUSE_STARTS
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--pauses", str(pauses)]
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        worker_args += ["--spans", os.path.join(
            HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")]
    # Cold starts before, during and after the workload, which is itself one
    # of them, so set-up is sampled across the whole run.
    edge = 0 if args.trace else SETUP_EDGE_STARTS
    setup = [probe(env) for _ in range(edge)]
    proc, ready = start(worker_args, env, stdin=subprocess.PIPE)
    setup.append(ready)
    during, last = serve(proc, env, began + DEADLINE_S)
    if proc.returncode != 0:
        sys.exit(f"workload process exited with {proc.returncode}")
    setup += during + [probe(env) for _ in range(edge)]
    raw = json.loads(last)

    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
          f"{attempted} problems attempted"
          + (f", {raw['traced_problems']} of them traced" if args.trace else ""))
    print(f"machine {json.dumps(raw['machine'], sort_keys=True)}")
    if args.trace:
        metrics = {name: (value, layer_unit(name), "") for name, value in raw["layers"].items()}
    else:
        metrics = end_to_end(raw, setup)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f" ({note})" if note else ""))
    print(f"failed_fraction {failed / attempted:.6g} fraction ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("_fraction"):
        return "fraction"
    return "count"


if __name__ == "__main__":
    main()
