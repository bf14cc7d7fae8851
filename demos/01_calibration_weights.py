"""Calibration weights on a synthetic observational sample.

A source sample suffers both confounding (treatment depends on
covariates) and covariate shift (the target population differs in x1 and
x2). Only summary-level means of (x1, x2, x3) are known for the target.
This script solves for extended balancing weights and shows the balance
constraints they enforce.

Run: python demos/01_calibration_weights.py
"""

import numpy as np

import genbal as gb
from genbal.mathutil import sigmoid

rng = np.random.default_rng(7)

# --- a source sample with confounded treatment -------------------------
n = 600
X = rng.uniform(-2, 2, (n, 5))
pi = sigmoid(0.35 * X[:, 1] + 0.25 * X[:, 2] + 0.2 * X[:, 3] - 0.7 * X[:, 4])
A = (rng.random(n) < pi).astype(int)
Y = 0.5 * X[:, 0] + (A - 0.5) * (X[:, 0] - 0.6 * X[:, 1]) + rng.standard_normal(n)
sample = gb.SourceSample(X, A, Y)
print(f"source sample: n_s = {sample.n_s}, treated = {len(sample.s1)}, control = {len(sample.s0)}")

# --- the target is known only through its (x1, x2, x3) means -----------
target_raw = np.array([1.0, -0.35, -0.25, 0.0])  # const, x1, x2, x3
spec = gb.BasisSpec.from_names(["const", "x1", "x2", "x3"], ["x4", "x5"])
design = gb.evaluate_basis(spec, sample)
target = gb.align_target_summary(spec, target_raw, design)

print("\nbefore weighting (raw means):")
raw_h = spec.evaluate_h(X)
for k, name in enumerate(spec.h_names):
    t_mean = raw_h[sample.s1, k].mean()
    c_mean = raw_h[sample.s0, k].mean()
    print(f"  {name:>6}: treated {t_mean:+.3f}  control {c_mean:+.3f}  target {target_raw[k]:+.3f}")

# --- solve the dual and materialize weights ----------------------------
solution, weights = gb.solve_extended(design, target, sample.treated, normalize=True)
print(f"\nsolved in {solution.iterations} Newton iterations, "
      f"gradient sup-norm {solution.grad_norm:.1e}")

res = gb.balance_residuals(design, target, sample.treated, weights.w)
print(f"balance residual sup-norm: {res.sup_norm:.2e}")

print("\nafter weighting (weighted raw means, per arm):")
w = weights.w
for k, name in enumerate(spec.h_names):
    t_mean = raw_h[sample.s1, k] @ w[sample.s1] / w[sample.s1].sum()
    c_mean = raw_h[sample.s0, k] @ w[sample.s0] / w[sample.s0].sum()
    print(f"  {name:>6}: treated {t_mean:+.3f}  control {c_mean:+.3f}  target {target_raw[k]:+.3f}")

raw_g = spec.evaluate_g(X)
print("\ncross-arm balance of the extra (G) terms:")
for k, name in enumerate(spec.g_names):
    t_mean = raw_g[sample.s1, k] @ w[sample.s1] / w[sample.s1].sum()
    c_mean = raw_g[sample.s0, k] @ w[sample.s0] / w[sample.s0].sum()
    print(f"  {name:>6}: treated {t_mean:+.3f}  control {c_mean:+.3f}")

print("\nweight diagnostics:")
print(f"  min {w.min():.3f}, max {w.max():.3f}")
report = gb.estimate_weighted_ate(sample, weights)
print(f"  effective sample size: treated {report.ess_treated:.1f} of {len(sample.s1)}, "
      f"control {report.ess_control:.1f} of {len(sample.s0)}")

# the log-weights are an exponential tilt over the basis, with the
# G coefficients entering the two arms with opposite signs
l1, l0, g = solution.unstandardized(design)
print("\nraw-coordinate tilt coefficients:")
print(f"  treated H: {np.round(l1, 3)}  G: {np.round(g, 3)}")
print(f"  control H: {np.round(l0, 3)}  G: {np.round(-g, 3)}")
