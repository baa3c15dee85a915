"""Annihilation derivative, its oracle, and the adjoint integral.

On step-kernel chaos the derivative at a point equals the add-one-point
difference of the functional -- an identity this package checks
bit-exactly rather than statistically.  Projecting kernels onto the
left half-line realizes conditional expectations, and on predictable
integrands of the form Phi(x) z the adjoint of the derivative is the
pathwise stochastic integral of Phi: the duality pairing confirms it
in Monte Carlo.
"""

import levynoise as ln
from levynoise.coefficients import ClampedNoise, Const
from levynoise.rng import derive_rng

unit = ln.atomic_measure([(1.0, 1.0)])

F = ln.catalog_functional("mixed")
real = ln.sample_prm(unit, 3.0, seed=11)
print("derivative vs add-one-point difference (exact, shown at 5 probes):")
for x in (-1.5, -0.5, 0.25, 0.9, 1.7):
    dv = ln.eval_chaos(real, ln.malliavin_derivative(F, x, 1.0, unit))
    oc = ln.add_one_cost(F, real, x, 1.0)
    print(f"  probe x={x:+.2f}: derivative {float(dv):+.4f}  "
          f"difference {float(oc):+.4f}  equal={dv == oc}")

print("\nprojecting a second-order kernel onto (-inf, 0]:")
kern = ln.catalog_kernel("k2")
proj = ln.project_kernel(kern, 0.0)
print(f"  cells {[(c.a, c.b) for c in kern.cells]} -> {[(c.a, c.b) for c in proj.cells]}")
n = 100_000
batch = ln.sample_prm_batch(unit, 2.0, n, derive_rng(23))
g = ClampedNoise(-1.0, 0.0, 10.0).eval(batch)
d = (ln.eval_multiple_integral(batch, kern) - ln.eval_multiple_integral(batch, proj)) * g
est, se, z, ok = ln.mc_mean_test(d, 0.0, 3.0)
print(f"  E[(I - projected I) * left functional] = {est:+.5f} (z = {z:+.2f})")

print("\nleft-supported functionals have zero derivative to the right, exactly:")
F_left = ln.catalog_functional("second_chaos_left")
ders = [ln.malliavin_derivative(F_left, x, 1.0, unit) for x in (0.1, 1.0, 2.0)]
print(f"  all zero: {all(d.constant == 0 and not d.kernels for d in ders)}")

print("\nduality pairing E<DF, Phi z> = E[F * adjoint(Phi z)]:")
closed = ln.duality_gap(unit, ln.catalog_functional("first_chaos"),
                        ln.validate_simple((0.0, 2.0), (Const(1.0),)),
                        n_samples=100_000, seed=31)
print(f"  closed-form pair: pairing {closed.mean_pairing:.4f}, "
      f"adjoint {closed.mean_adjoint:.4f}, gap {closed.gap:+.5f} +- {closed.se:.5f}")
for fname, pname in (("second_chaos", "two_block"), ("mixed", "det_step")):
    res = ln.duality_gap(unit, ln.catalog_functional(fname),
                         ln.catalog_process(pname), n_samples=50_000, seed=37)
    print(f"  {fname:12s} x {pname:9s}: gap {res.gap:+.5f} +- {res.se:.5f}  "
          f"{'ok' if res.passed else 'OFF'}")
