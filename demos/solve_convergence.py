"""Measurement-ratio sweep for the Polyak subgradient method.

Reproduces the qualitative convergence picture at desk scale: for each ratio
m/d the script generates a Gaussian problem, runs spectral initialization
followed by the Polyak method, and reports how far the iterates get.  Low
ratios stagnate; from around m = 3d the method converges linearly to the
signal (up to global sign).  A last run corrupts 15% of the measurements
with gross errors; the minimal value is then unknown, so the solver takes
geometrically decaying steps instead of Polyak's and still recovers the
signal exactly.  ``solver.run`` tries the fast decay q = 0.85 first, which
suffices here, so the line reports restarts=0; a harder problem would restart
at q = 0.95 within the same run, as a library call to ``solver.run`` would.

Run:  python demos/solve_convergence.py
"""

import os
import tempfile

import numpy as np

import robustpr as rp
from robustpr import harness

d = 100
ratios = [2.2, 2.45, 2.7, 2.95, 3.2, 3.45, 3.7]
out_dir = os.path.join(tempfile.gettempdir(), "robustpr_sweep")

print(f"dimension d = {d}, one seed per ratio, traces under {out_dir}\n")
print(f"{'m/d':>5} {'m':>6} {'status':>12} {'iters':>6} {'final rel dist':>15} {'rate':>7}")

for ratio in ratios:
    m = int(round(ratio * d))
    cfg = harness.ExperimentConfig(command="solve", d=d, m=m, seeds=[0],
                                   max_iters=2000, tol_dist=1e-10,
                                   out_dir=os.path.join(out_dir, f"ratio{ratio}"),
                                   quiet=True)
    summary = harness.run_solve_experiment(cfg)[0]
    rate = summary["rate_estimate"]
    print(f"{ratio:>5} {m:>6} {summary['status']:>12} {summary['iterations']:>6} "
          f"{summary['final_rel_dist']:>15.3e} "
          f"{rate if rate is None else round(rate, 4)!s:>7}")

p_fail = 0.15
cfg = harness.ExperimentConfig(command="solve", d=200, m=1600, seeds=[0],
                               noise_p_fail=p_fail, noise_scale=10.0, noise_seed=100,
                               max_iters=2000, tol_dist=1e-10,
                               out_dir=os.path.join(out_dir, "corrupted"), quiet=True)
summary = harness.run_solve_experiment(cfg)[0]
print(f"\ncorrupted: d = 200, m = 1600, p_fail = {p_fail}, no min-value oracle:"
      f" step_rule={summary['step_rule']} status={summary['status']}"
      f" iters={summary['iterations']} restarts={summary['restarts']}"
      f" final_rel_dist={summary['final_rel_dist']:.3e}")

print("\nEach trace CSV has columns iter,f_value,rel_dist,subgrad_norm,step_length;")
print("plot rel_dist on a log axis to see the linear rate kick in above m = 3d.")

# The same sweep is available from the command line:
#   robustpr solve d=100 m=370 seeds=0 out_dir=/tmp/sweep
#   robustpr solve d=200 m=1600 noise_p_fail=0.15 noise_scale=10 noise_seed=100 seeds=0
