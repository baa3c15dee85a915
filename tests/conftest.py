import numpy as np
import pytest
from hypothesis import strategies as st

from levynoise import StepFunction, atomic_measure, signed_moment
from levynoise.coefficients import ClampedNoise, Const, Poly, Product, Sum
from levynoise.measure import power_law_measure
from levynoise.prm import PointRealization, RealizationBatch


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
    """Hand-built realization from (location, jump) pairs."""
    points = sorted(points)
    xs = np.array([p[0] for p in points], dtype=float)
    zs = np.array([p[1] for p in points], dtype=float)
    return PointRealization(float(window), xs, zs, model)


# one atom, two atoms and a density: every kind of mark the exact backend reads
EXACT_MODELS = (atomic_measure([(1.0, 1.0)]), atomic_measure([(1.0, 0.5), (-0.5, 2.0)]),
                power_law_measure(1.5, 0.25, 4.0))


@st.composite
def hand_realizations(draw, window):
    """``make_realization`` of up to 10 drawn points on ``[-window, window]`` under one of
    ``EXACT_MODELS``; integer locations, the catalog's cell ends, are drawn often."""
    model = draw(st.sampled_from(EXACT_MODELS))
    jumps = (st.sampled_from([z for z, _ in model.atoms]) if model.is_atomic
             else st.floats(-4.0, 4.0))
    ends = [float(k) for k in range(-int(window), int(window) + 1)]
    xs = st.one_of(st.sampled_from(ends), st.floats(-window, window))
    return make_realization(model, window, draw(st.lists(st.tuples(xs, jumps), max_size=10)))


def fresh_copy(real):
    """A realization built from copies of ``real``'s arrays, which has answered nothing."""
    return PointRealization(real.window, real.x.copy(), real.z.copy(), real.model)


def refined(phi, extra):
    """The step function ``phi`` on a grid that also contains the ``extra`` points.

    Extra points outside the support extend it with zero-valued cells,
    which leaves every integral unchanged.
    """
    pts = sorted(set(phi.breakpoints) | {float(e) for e in extra})
    # new cells never straddle an original breakpoint, so the value at
    # the right end is the cell value (0 outside the original support);
    # a midpoint can round onto the open left end of a subnormal cell
    return StepFunction(tuple(pts), tuple(float(phi(hi)) for hi in pts[1:]))


def masked_mass(batch, intervals):
    """Compensated mass of disjoint sorted intervals by whole-batch masks: one
    bincount from 0.0 per interval, added in interval order, then one compensator.

    The reference that every float reduction of a batch must equal bit for bit.
    """
    out = np.zeros(batch.n)
    length = 0.0
    for a, b in intervals:
        inside = (batch.x > a) & (batch.x <= b)
        out += np.bincount(batch.owner[inside], weights=batch.z[inside], minlength=batch.n)
        length += b - a
    return out - length * float(signed_moment(batch.model, 1))


def masked_count(batch, a, b, marks):
    """Per-realization counts in ``(a, b] x B`` by whole-batch masks; atom indices
    select the jump sizes of the atoms they name."""
    mask = (batch.x > a) & (batch.x <= b)
    if isinstance(marks, frozenset):
        sizes = [z for j, (z, _) in enumerate(batch.model.atoms or ()) if j in marks]
        mask &= np.isin(batch.z, sizes)
    else:
        zlo, zhi = marks
        mask &= (batch.z > zlo) & (batch.z <= zhi)
    return np.bincount(batch.owner[mask], minlength=batch.n).astype(float)


def masked_coefficient(coef, batch):
    """``coef.eval(batch)`` with every noise read through ``masked_mass``, in the
    catalog's own order of operations."""
    if isinstance(coef, Const):
        return np.full(batch.n, float(coef.value))
    if isinstance(coef, ClampedNoise):
        return np.clip(masked_mass(batch, [(coef.a, coef.b)]), -coef.clip, coef.clip)
    if isinstance(coef, Poly):
        y = masked_coefficient(coef.arg, batch)
        coeffs = coef.coeffs or (0.0,)
        out = float(coeffs[-1]) + y * 0
        for c in coeffs[-2::-1]:
            out = float(c) + out * y
        return out
    if isinstance(coef, Product):
        out = np.full(batch.n, 1.0)
        for f in coef.factors:
            out = out * masked_coefficient(f, batch)
        return out
    if isinstance(coef, Sum):
        out = np.full(batch.n, 0.0)
        for t in coef.terms:
            out = out + masked_coefficient(t, batch)
        return out
    raise TypeError(f"not a catalog coefficient: {coef!r}")


def masked_I_K(batch, proc):
    """``eval_I_K`` on a batch by the per-cell masked formula: one mask, one
    bincount from 0.0 and one compensator ``(hi - lo) * mt_1`` per clipped cell,
    with coefficients from ``masked_coefficient``.

    The reference that the partitioned batch integral must equal bit for bit.
    """
    total = np.full(batch.n, 0.0)
    for (a, b), coef in zip(proc.cells, proc.coefficients):
        lo, hi = max(a, -batch.window), min(b, batch.window)
        if hi > lo:
            total += masked_coefficient(coef, batch) * masked_mass(batch, [(lo, hi)])
    return total


def with_empty_realizations_and_edge_points(batch, edges):
    """The batch with every fifth realization's points removed, the last one's
    too, and every third point moved onto one of the ``edges``."""
    keep = (batch.owner % 5 != 0) & (batch.owner != batch.n - 1)
    x = batch.x[keep]
    x[::3] = np.resize(edges, len(x[::3]))
    return RealizationBatch(batch.window, batch.n, x, batch.z[keep], batch.owner[keep],
                            batch.model)
