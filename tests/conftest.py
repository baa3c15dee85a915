import numpy as np
import pytest

from levynoise import StepFunction, atomic_measure, signed_moment
from levynoise.prm import PointRealization


@pytest.fixture
def unit_atom():
    return atomic_measure([(1.0, 1.0)])


@pytest.fixture
def sym_two_atom():
    return atomic_measure([(1.0, 0.5), (-1.0, 0.5)])


@pytest.fixture
def skew_two_atom():
    return atomic_measure([(2.0, 1.0), (-1.0, 3.0)])


def make_realization(model, window, points):
    """Hand-built realization from (location, jump) pairs, atoms resolved."""
    points = sorted(points)
    xs = np.array([p[0] for p in points], dtype=float)
    zs = np.array([p[1] for p in points], dtype=float)
    atom = None
    if model.is_atomic:
        lookup = {z: j for j, (z, _) in enumerate(model.atoms)}
        atom = np.array([lookup[z] for z in zs], dtype=int) if len(zs) else np.empty(0, dtype=int)
    return PointRealization(float(window), xs, zs, atom, model)


def refined(phi, extra):
    """The step function ``phi`` on a grid that also contains the ``extra`` points.

    Extra points outside the support extend it with zero-valued cells,
    which leaves every integral unchanged.
    """
    pts = sorted(set(phi.breakpoints) | {float(e) for e in extra})
    # new cells never straddle an original breakpoint, so the value at
    # the right end is the cell value (0 outside the original support);
    # a midpoint can round onto the open left end of a subnormal cell
    return StepFunction(tuple(pts), tuple(phi.value_at(hi) for hi in pts[1:]))


def masked_I_K(batch, proc):
    """``eval_I_K`` on a batch by the per-cell masked formula: one mask, one
    bincount from 0.0 and one compensator ``(hi - lo) * mt_1`` per clipped cell.

    The reference that the partitioned batch integral must equal bit for bit.
    """
    mt1 = float(signed_moment(batch.model, 1))
    total = np.full(batch.n, 0.0)
    for (a, b), coef in zip(proc.cells, proc.coefficients):
        lo, hi = max(a, -batch.window), min(b, batch.window)
        if hi > lo:
            inside = (batch.x > lo) & (batch.x <= hi)
            mass = np.bincount(batch.owner[inside], weights=batch.z[inside], minlength=batch.n)
            total += coef.eval(batch) * (mass - (hi - lo) * mt1)
    return total
