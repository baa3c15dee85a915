"""Space-time convolution against the noise.

U(t, x) integrates a deterministic kernel G against a predictable
random field Phi in time and against the noise in space.  Collapsing
the time integral first gives an ordinary stochastic integrand Psi,
built here on a grid with graded time quadrature, and the p-th moment
gate compares E|U|^p -- computed by the moment engine when the field is
deterministic ("="), Monte Carlo otherwise ("~") -- against

    B^p int (G^2 + G^p) E|Phi|^p,   B^p = 2^{p-1} C_p^p (t^{p/2} nu_t^{p/2-1} + t^{p-1}).

Kernels whose p-th power is not space-time integrable (the Gaussian
kernel for p >= 4) are reported as divergent rather than gated.
"""

import numpy as np

import levynoise as ln
from levynoise.errors import InfiniteNuTError

unit = ln.atomic_measure([(1.0, 1.0)])
ones = ln.DeterministicField(lambda s, y: np.ones(np.broadcast(s, y).shape), "unit")

print("boxcar kernel, constant field, p = 2 (everything in closed form):")
res = ln.check_convolution_moment_bound(unit, ln.indicator_kernel(), ones,
                                        p=2, t=1.0, x=0.0, n_samples=50_000, seed=1)
print(f"  nu_1 = {res.nu_t:.6f}, B^2 = {res.b_const_pow:.6f}")
print(f"  E|U|^2 = {res.lhs_pow:.4f} <= {res.rhs_pow:.4f}  "
      f"(quadrature delta {res.quad_delta:.1e})")

print("\nGaussian kernel, p = 2 (graded time quadrature handles the t^(-1/2) spike):")
res = ln.check_convolution_moment_bound(unit, ln.heat_kernel(), ones,
                                        p=2, t=1.0, x=0.0, n_samples=50_000, seed=2,
                                        n_space=128)
print(f"  nu_1 = {res.nu_t:.6f} (closed form {np.sqrt(1 / (2 * np.pi)):.6f})")
print(f"  E|U|^2 = {res.lhs_pow:.4f} <= {res.rhs_pow:.4f}")

print("\nGaussian kernel, p = 4: the kernel power integral diverges ->")
try:
    ln.kernel_power_integral(ln.heat_kernel(), 4, 1.0)
except InfiniteNuTError as exc:
    print(f"  InfiniteNuTError: {exc}")

print("\nrandom separable field (clamped left-reading factor), p = 2:")
field = ln.SeparableField(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                          ln.catalog_process("clamped_left", clip=4.0))
res = ln.check_convolution_moment_bound(unit, ln.indicator_kernel(), field,
                                        p=2, t=1.0, x=1.5, n_samples=50_000, seed=3)
print(f"  E|U|^2 ~ {res.lhs_pow:.4f} <= {res.rhs_pow:.4f}  "
      f"{'ok' if res.passed else 'VIOLATED'}")
