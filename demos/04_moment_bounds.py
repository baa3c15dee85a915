"""Certifying the moment inequalities.

Three layers, each checked at its natural strength:

* smoothed noise L(phi): exact p-th moment against
  C* ((m2 int phi^2)^{p/2} + m_p int |phi|^p) -- a rational-arithmetic
  comparison, including the tight ratio-1/2 configuration;
* stochastic integral I(X): p-norm against C_p [X]_p at a configured
  discrete-martingale constant (a consistency gate: the classical
  inequality fixes no numerical constant), computed by the moment engine
  for a deterministic integrand (I(X) = L(X)) and Monte Carlo otherwise;
* window limit: the variance of I_{K'} - I_K must match the tail
  integral m2 int_{K<|x|<=K'} phi^2 exactly as K grows.
"""

import numpy as np

import levynoise as ln

unit = ln.atomic_measure([(1.0, 1.0)])
phi = ln.StepFunction.indicator(0.0, 1.0)

print("exact moment bound for L(phi), unit atom, unit indicator:")
for p in (4, 6):
    res = ln.check_linear_moment_bound(unit, phi, p)
    print(f"  p={p}: exact {res.exact_moment} <= {res.rhs} "
          f"(C* = {res.partition_count}, ratio {res.ratio:.3f})")

print("\nthe interpolation inequality m_r <= m_p^theta m_2^(1-theta):")
model = ln.atomic_measure([(1.0, 0.5), (3.0, 0.5)])
for row in ln.interpolation_check(model, 6):
    tag = "equality" if row.equality else f"slack {row.bound - row.value:.4f}"
    print(f"  r={row.r}: m_r = {row.value:9.4f} <= {row.bound:9.4f}  ({tag})")

print("\nintegral bound at Rosenthal constant 1 (monotone-check mode):")
for name in ("det_step", "clamped_left", "poly_block"):
    res = ln.check_integral_moment_bound(unit, ln.catalog_process(name), 4,
                                         n_samples=50_000, seed=3)
    sign = "~" if res.left_side == "sampled" else "="
    print(f"  {name:13s}: ||I(X)||_4 {sign} {res.lhs:.4f} <= {res.rhs:.4f}  "
          f"{'ok' if res.passed else 'VIOLATED'}")

print("\nwindow-tail variance for the Gaussian profile exp(-x^2):")
rows = ln.tail_convergence(unit, lambda x: np.exp(-np.asarray(x) ** 2),
                           [1.0, 2.0, 3.0], 8.0, n_samples=100_000, seed=4)
for r in rows:
    g = r.gate
    print(f"  K={r.k_inner:.0f}: Var(I_8 - I_K) = {g.statistic:.3e} "
          f"vs tail {g.target:.3e}  (z = {(g.statistic - g.target) / g.se:+.2f})")
