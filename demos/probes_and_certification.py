"""Regularity probes, stagnation certificates, and the planar audit.

Three empirical studies of the objective's geometry:

1. seeded probes for the sharpness slope and the concentration of the
   absolute-product average, next to the weak-convexity modulus in closed
   form;
2. certification of solver stagnation points: runs at m = 2.2 d mostly fail,
   and their endpoints score as near the extraneous stationary structure
   (origin and orthogonal ring) at the (d/m)^(1/4) scale;
3. the planar graph-closeness audit: grid-stationary points of the empirical
   objective pair with near-critical points of the population objective
   within an explicitly computed radius.

Run:  python demos/probes_and_certification.py
"""

import math

import numpy as np

import robustpr as rp

# --- 1. regularity probes -------------------------------------------------
print("regularity probes on Gaussian problems (d = 50, m = 500):")
for seed in (0, 1, 2):
    ens = rp.gaussian_ensemble(50, 500, seed=seed)
    xbar = rp.rng_for(seed, 99).standard_normal(50)
    problem = rp.measure(ens, xbar)
    kappa = rp.sharpness_probe(problem, 200, seed=seed).kappa_hat
    rho = rp.weak_convexity_modulus(problem)
    dev = rp.concentration_probe(ens, 50, seed=seed)
    print(f"  seed {seed}: sharpness slope >= {kappa:.4f}, weak-convexity "
          f"modulus {rho:.4f}, concentration deviation {dev:.4f}")
print("  (the Gaussian design guarantees a slope of at least 0.0456 and a"
      " modulus of at most 16)\n")

# --- 2. stagnation points and their certificates ---------------------------
d = 200
m = int(2.2 * d)
print(f"certifying stagnation endpoints at m = 2.2 d (d = {d}):")
for seed in range(5):
    ens = rp.gaussian_ensemble(d, m, seed=seed)
    xbar = rp.rng_for(seed, 99).standard_normal(d)
    problem = rp.measure(ens, xbar)
    start = rp.spectral_init(problem, seed=seed)
    trace = rp.run(problem, start.x0, rp.SolverConfig(max_iters=2000, tol_dist=1e-10))
    rel = trace.final_rel_dist
    if rel <= 1e-2:
        print(f"  seed {seed}: converged (rel dist {rel:.1e}), nothing to certify")
        continue
    cert = rp.certify_stationary(trace.final_x, xbar, m)
    print(f"  seed {seed}: stagnated at rel dist {rel:.2f}; verdict {cert.verdict} "
          f"(scores {cert.block1_score:.2f} / {cert.block2_ratio_score:.2f} / "
          f"{cert.block2_angle_score:.2f}, scale {cert.scale:.2f})")

# --- 3. planar graph-closeness audit ---------------------------------------
print("\nplanar audit (d = 2, m = 5000): empirical grid-stationary points vs"
      " population partners")
ens = rp.gaussian_ensemble(2, 5000, seed=0)
xbar = np.array([1.0, 1.0]) / math.sqrt(2.0)
problem = rp.measure(ens, xbar)
pairs = rp.graph_closeness_audit(problem, 1.6, 161,
                                 max_subgrad_norm=0.2 * np.linalg.norm(xbar))
for p in pairs:
    print(f"  x_S = {np.round(p.x_s, 3)} (|subgrad| {p.subgrad_norm:.4f})  ->  "
          f"x_P = {np.round(p.x_p_near, 3)} with |grad F| {p.pop_grad_norm:.1e} "
          f"at distance {p.dist:.3f} (radius {p.radius:.3f})")
print("  the empirical stationary points sit on the origin and the two ring"
      " points, as the population analysis predicts")
