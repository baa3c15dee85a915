"""Snapshot of every exact value computed from a deterministic step function.

A step function's power integrals feed the moment engine, the linear
moment bound and the deterministic seminorm.  This file pins each of
those values as one SHA-256 digest of ``(type, value)`` pairs: a
``Fraction`` as its numerator and denominator, a float as its hex form.
The grid covers the atomic measures of ``tests/test_exact_snapshot.py``,
one density, and step functions with negative cells, negative values and
a subnormal-width cell.  The digest was taken while step functions had a
class of their own, before they became deterministic simple processes,
and must not change with that move.
"""

import hashlib
from fractions import Fraction

from levynoise import (
    StepFunction,
    atomic_measure,
    catalog_process,
    check_linear_moment_bound,
    estimate_seminorm,
    moment_of_step_functional,
    step_functional_cumulants,
)
from levynoise.measure import power_law_measure

from test_exact_snapshot import ATOM_GRID

STEP_SNAPSHOT_COUNT = 1648
STEP_SNAPSHOT_SHA256 = "324b4a66b8cc0ddfc65ffdaf27b07c2fdd0addddca21c7dcc778f4c765aeaf22"

STEP_FUNCTIONS = (
    StepFunction.indicator(0.0, 1.0),
    StepFunction((0.0, 1.0, 2.0), (1.5, -0.5)),
    StepFunction((0.0, 1.0, 2.0), (2.0, -1.0)),
    StepFunction.constant_on(0.0, 3.0, 2.0),
    StepFunction((-2.5, -0.75, 0.0, 1.125), (0.1, -3.0, 2.5)),
    StepFunction((-1.0, 0.0, 5e-324, 1.0), (0.0, 3.0, -2.0)),  # a subnormal-width cell
    StepFunction((-3.0, -2.0), (-1e-3,)),
)


def _key(v):
    if isinstance(v, Fraction):
        return ("Fraction", v.numerator, v.denominator)
    return (type(v).__name__, float(v).hex())


def _step_outputs():
    """Every exact step-function value of the snapshot, in a fixed order."""
    models = [atomic_measure(atoms) for atoms in ATOM_GRID]
    models.append(power_law_measure(1.5, 0.25, 4.0))
    out = []
    for phi in STEP_FUNCTIONS:
        for q in range(1, 9):
            out += [phi.power_integral(q), phi.abs_power_integral(q)]
    for model in models:
        for phi in STEP_FUNCTIONS:
            out += step_functional_cumulants(model, phi, 10).values()
            out += [moment_of_step_functional(model, phi, p) for p in range(2, 11)]
            for p in range(2, 11, 2):
                res = check_linear_moment_bound(model, phi, p)
                out += [res.exact_moment, res.rhs]
        for name in ("det_step", "det_two_cell"):
            for p in range(2, 11, 2):
                est = estimate_seminorm(model, catalog_process(name), p)
                out += [est.l2_part, est.lp_part, est.mean_sq_pow, est.mean_abs_pow,
                        est.se_sq_pow, est.se_abs_pow]
    return out


def test_step_outputs_match_snapshot():
    keys = [_key(v) for v in _step_outputs()]
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert (len(keys), digest) == (STEP_SNAPSHOT_COUNT, STEP_SNAPSHOT_SHA256)
