"""Snapshot of the exact backend's outputs on fixed seeds.

Every exact evaluator returns a ``Fraction``; this file pins the value
and the type of each one, as a SHA-256 digest of the
``(type, numerator, denominator)`` triples, so that any change to how the
exact path computes (not only to what the in-process identities compare)
shows as a changed digest.  The digest was taken before the exact path
was moved onto integer arithmetic and must not change with it.
"""

import hashlib
from fractions import Fraction

import numpy as np

from levynoise import (
    add_one_cost,
    atomic_measure,
    catalog_functional,
    catalog_process,
    eval_chaos,
    eval_I_K,
    eval_L_set,
    malliavin_derivative,
    sample_prm,
)
from levynoise.chaos import CATALOG_FUNCTIONAL_NAMES
from levynoise.coefficients import ClampedNoise, Const, Poly, Product, Sum
from levynoise.measure import power_law_measure
from levynoise.processes import CATALOG_PROCESS_NAMES, square_integral

EXACT_SNAPSHOT_COUNT = 2316
EXACT_SNAPSHOT_SHA256 = "e54e1f5a51a5965a53c714409014c9debfc0cf4b4ef1e0b692e858754ed9aef4"

ATOM_GRID = (
    ((1.0, 1.0),),
    ((1.0, 0.5), (-1.0, 0.5)),
    ((2.0, 1.0), (-1.0, 3.0)),
    ((0.5, 2.0), (1.5, 0.25)),
    ((0.1, 3.0), (-0.3, 0.7), (2.5, 0.2)),
)

EXTRA_COEFFICIENTS = (
    Sum((Const(0.1), Const(0.2), Const(0.3))),
    Sum((Const(0.1), ClampedNoise(-1.0, 0.0, 0.3))),
    Poly(ClampedNoise(-2.0, -0.5, 1e6), (0.1, -0.7, 1.0 / 3.0)),
    Product((ClampedNoise(-3.0, -1.0, 1.5), Const(-0.2), ClampedNoise(-0.25, 0.0))),
)


def _exact_outputs():
    """Every exact output of the snapshot, in a fixed order."""
    models = [atomic_measure(atoms) for atoms in ATOM_GRID]
    models.append(power_law_measure(1.5, 0.25, 4.0))
    procs = [catalog_process(name) for name in CATALOG_PROCESS_NAMES]
    functionals = [catalog_functional(name) for name in CATALOG_FUNCTIONAL_NAMES]
    out = []
    for mi, model in enumerate(models):
        for seed in range(4):
            real = sample_prm(model, 3.0, 1000 * mi + seed)
            out.append(eval_L_set(real, (-3.0, 3.0)))
            out.append(eval_L_set(real, [(-2.5, -1.0), (-0.5, 0.75), (1.0, 2.125)]))
            for proc in procs:
                out.extend(eval_L_set(real, cell) for cell in proc.cells)
                out.extend(c.eval(real) for c in proc.coefficients)
                out.append(eval_I_K(real, proc))
                out.append(square_integral(proc, real))
            out.extend(c.eval(real) for c in EXTRA_COEFFICIENTS)
            if not model.is_atomic:
                continue
            z = model.atoms[0][0]
            for F in functionals:
                out.append(eval_chaos(real, F))
                for x in np.linspace(-2.9, 2.9, 7):
                    out.append(eval_chaos(real, malliavin_derivative(F, float(x), z, model)))
                    out.append(add_one_cost(F, real, float(x), z))
    return out


def test_exact_outputs_match_snapshot():
    outputs = _exact_outputs()
    triples = [(type(v).__name__, v.numerator, v.denominator) for v in outputs]
    assert {t[0] for t in triples} == {Fraction.__name__}
    digest = hashlib.sha256(repr(triples).encode()).hexdigest()
    assert (len(triples), digest) == (EXACT_SNAPSHOT_COUNT, EXACT_SNAPSHOT_SHA256)
