"""Snapshot of the adaptive Gauss-Legendre rule and of its callers.

The convolution bound's time rule calls the space rule once per time
node, and the density moments, the density characteristic exponent and
the ``tail`` check's profile integrals call the same rule.  Which panels
the rule bisects, and the order in which numpy evaluates and sums each
panel, decide the last bits of every value.  This file pins the
``float.hex()`` of each value as one SHA-256 digest, so that any change
to how the rule computes shows as a changed digest.  The digest was
taken before the rule evaluated all time nodes of one refinement in one
call of the integrand and must not change with it.
"""

import hashlib

import numpy as np

from levynoise import atomic_measure, catalog_process
from levynoise.convolution import (
    DeterministicField,
    SeparableField,
    _rhs_integral,
    heat_kernel,
    indicator_kernel,
    kernel_power_integral,
)
from levynoise.integral import _two_sided_quad
from levynoise.measure import _adaptive_gauss, abs_moment, power_law_measure, signed_moment
from levynoise.prm import char_exponent, simulate

QUADRATURE_SNAPSHOT_COUNT = 146
QUADRATURE_SNAPSHOT_SHA256 = "f2e4a70fbc353ee796227ec7f0b72d27770001db5199d08b1e2b9959ee9880f7"

TIMES = (0.3, 1.0, 2.5)
# x where the indicator kernel's y-range [x - 1, x] meets the separable field's cell (0, 1]
POSITIONS = (0.5, 1.25)

# the fields of the convolution_bound config, as the harness builds them
FIELDS = (
    DeterministicField(lambda s, y: np.ones(np.broadcast(s, y).shape), "unit"),
    DeterministicField(lambda s, y: np.cos(s) * np.ones_like(y), "cosine"),
    SeparableField(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                   catalog_process("clamped_left", clip=4.0), "separable_clamped"),
)

# a peak, a kink, integrable singularities and an oscillation, each with its interval
INTEGRANDS = (
    (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0),
    (lambda x: np.abs(x - 1.0 / 3.0), -1.0, 1.0),
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0),
    (lambda x: np.log(x), 0.0, 2.0),
    (lambda x: np.abs(x) ** -0.75, -1.0, 0.0),
    (lambda x: np.sin(40.0 * x) * np.exp(-x), 0.0, 3.0),
)


def _quadrature_values():
    """Every float of the snapshot, in a fixed order."""
    out = []
    for t in TIMES:
        out.append(kernel_power_integral(indicator_kernel(), 2, t))
        out.append(kernel_power_integral(indicator_kernel(), 4, t))
        out.append(kernel_power_integral(heat_kernel(), 2, t))
    out.append(kernel_power_integral(heat_kernel(), 2, 0.01))
    model = atomic_measure([(1.0, 1.0)])
    for kernel, powers in ((heat_kernel(), (2,)), (indicator_kernel(), (2, 4))):
        for fi, field in enumerate(FIELDS):
            for p in powers:
                for t in TIMES:
                    for x in POSITIONS:
                        moments = {j: simulate(model, draw).stats["abs_pow"] for j, draw
                                   in field.moment_draws(p, 2000, 10 * fi + p).items()}
                        value, delta, _ = _rhs_integral(kernel, field, p, t, x, moments)
                        out += [value, delta]
    for g, a, b in INTEGRANDS:
        out.append(_adaptive_gauss(g, a, b))
    density = power_law_measure(1.5, 0.25, 4.0)
    out += [density.total_mass, density.m2]
    out += [float(abs_moment(density, p)) for p in (2, 3, 4, 6, 2.5)]
    out += [float(signed_moment(density, n)) for n in (1, 2, 3)]
    for theta in (0.1, 1.0, 3.7):
        c = char_exponent(density, theta)
        out += [c.real, c.imag]
    gaussian = lambda x: np.exp(-np.asarray(x) ** 2)
    for k in (0.0, 0.5, 2.0):
        out += [_two_sided_quad(gaussian, k, 4.0, power) for power in (1, 2)]
    return out


def test_quadrature_values_match_snapshot():
    values = _quadrature_values()
    digest = hashlib.sha256("\n".join(float(v).hex() for v in values).encode())
    assert (len(values), digest.hexdigest()) == (QUADRATURE_SNAPSHOT_COUNT,
                                                 QUADRATURE_SNAPSHOT_SHA256)
