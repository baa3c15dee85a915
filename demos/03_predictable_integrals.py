"""Predictable simple processes and their pathwise stochastic integral.

A simple process takes a bounded, horizon-checked coefficient on each
cell; the integral is the finite compensated sum over cells.  Because
everything pathwise is exact rational arithmetic, linearity and window
restriction are identities, not approximations, and predictability is a
syntactic check that rejects look-ahead coefficients outright.
"""

import levynoise as ln
from levynoise.coefficients import ClampedNoise, Const, Product, Sum
from levynoise.errors import HorizonViolationError
from levynoise.processes import square_integral
from levynoise.rng import derive_rng

unit = ln.atomic_measure([(1.0, 1.0)])

# a coefficient may read any noise strictly left of its cell
proc = ln.validate_simple((0.0, 1.0, 2.0),
                          (ClampedNoise(-1.0, 0.0, 10.0), Const(1.5)))
print("validated: Y_1 = clamp(L((-1,0]), 10) on (0,1], Y_2 = 1.5 on (1,2]")

try:
    ln.validate_simple((0.0, 1.0), (ClampedNoise(0.0, 0.5, 10.0),))
except HorizonViolationError as exc:
    print(f"rejected look-ahead coefficient: {exc}")

real = ln.sample_prm(unit, 2.0, seed=5)
print(f"\npathwise integral on one realization: I(X) = {float(ln.eval_I_K(real, proc)):+.4f}")

X = ln.catalog_process("clamped_left")
Y = ln.catalog_process("two_block")
# 2X - 3Y cell by cell: on (0,1] X reads L((-1,0]) and Y is 1.5; on (1,2] only Y is there
combo = ln.validate_simple((0.0, 1.0, 2.0),
                           (Sum((Product((Const(2.0), ClampedNoise(-1.0, 0.0))), Const(-4.5))),
                            Product((Const(-3.0), ClampedNoise(0.0, 1.0)))))
lhs = ln.eval_I_K(real, combo)
rhs = 2 * ln.eval_I_K(real, X) - 3 * ln.eval_I_K(real, Y)
print(f"exact linearity: I(2X - 3Y) = {float(lhs):+.4f} = 2 I(X) - 3 I(Y) = {float(rhs):+.4f}")
assert lhs == rhs

# the defining isometry: E I(X)^2 = m2 * E integral X^2
n = 100_000
batch = ln.sample_prm_batch(unit, Y.read_window(), n, derive_rng(17))
ivals = ln.eval_I_K(batch, Y)
paired = ivals ** 2 - float(ln.abs_moment(unit, 2)) * square_integral(Y, batch)
est, se, z, ok = ln.mc_mean_test(paired, 0.0, 3.0)
print(f"\nisometry gap over {n} samples: {est:+.5f} (z = {z:+.2f}, {'ok' if ok else 'OFF'})")
