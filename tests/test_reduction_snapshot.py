"""Snapshot of the batch reductions that ``test_float_snapshot.py`` does not cover.

Noise masses of interval unions, clamped-noise coefficients, compensated
cell counts and multiple integrals under atom and density marks, and the
weighted mass of the ``tail`` check each reduce the points of a batch to
one float per realization.  The order in which a reduction adds those
points decides the last bits of every float, so this file pins the bytes
of each output array (dtype and shape included) as one SHA-256 digest.
The digest was taken before the reductions moved onto realization-aligned
parts and must not change with it.
"""

import hashlib

import numpy as np

from levynoise import (
    catalog_kernel,
    eval_L_set,
    eval_multiple_integral,
    sample_prm_batch,
    tail_convergence,
)
from levynoise.chaos import Cell, compensated_cell_count, make_kernel
from levynoise.coefficients import ClampedNoise
from levynoise.prm import batch_L_weighted
from levynoise.rng import derive_rng

from test_float_snapshot import BATCH_SIZES, MODELS

REDUCTION_SNAPSHOT_COUNT = 246
REDUCTION_SNAPSHOT_SHA256 = "9019c1fa4935da3168a2dba48592c370f7f4fcd64b19f8aa5d8abed51001f846"

UNIONS = (
    (0.0, 1.0),
    [(-2.5, -1.0), (0.25, 2.5)],
    [(1.0, 2.0), (-1.5, -0.5), (-0.75, 0.5), (2.0, 2.25)],  # unsorted, overlapping, touching
    [(-2.5, 2.5)],
    [(0.5, 0.5)],  # empty
)
CLAMPED = (ClampedNoise(-1.0, 0.0, 0.3), ClampedNoise(-2.5, 2.5), ClampedNoise(0.5, 1.75, 2.0))
CATALOG_KERNELS = ("k1", "k1_two", "k2", "k2_right", "k2_left", "k3")
# (z_lo, z_hi] bands of the power-law density's jump sizes, which lie in [-4, -0.25] and [0.25, 4]
DENSITY_BANDS = ((-4.0, -0.25), (0.25, 1.0), (1.0, 4.0), (-1.0, 0.5))


def _tail_profile(x):
    return np.exp(-0.5 * x * x)


def _atom_kernels(atoms):
    return [catalog_kernel(name) for name in CATALOG_KERNELS] + [
        make_kernel(2, (Cell(-1.0, 0.5, frozenset(range(atoms))), Cell(0.5, 2.0, frozenset({0}))),
                    [[0.0, 1.5], [1.5, 0.0]]),
        make_kernel(1, (Cell(-2.0, 2.0, frozenset()),), [2.0]),
    ]


def _density_kernels():
    cells = tuple(Cell(a, b, band) for (a, b), band in
                  zip(((-2.0, 0.0), (0.0, 1.0), (-1.0, 0.0)), DENSITY_BANDS))
    beta = np.zeros((3, 3, 3))
    beta[0, 1, 2] = 0.5
    return [make_kernel(1, cells[:2], [1.0, -0.5]),
            make_kernel(2, cells[:2], [[0.0, 0.25], [0.25, 0.0]]),
            make_kernel(3, cells, beta)]


def _reduction_outputs():
    """Every float output of the snapshot, in a fixed order."""
    out = []
    for mi, make in enumerate(MODELS):
        model = make()
        for ni, n in enumerate(BATCH_SIZES):
            seed = 100 * mi + ni
            batch = sample_prm_batch(model, 2.5, n, derive_rng(seed, 3))
            out += [eval_L_set(batch, sets) for sets in UNIONS]
            out += [coef.eval(batch) for coef in CLAMPED]
            if model.is_atomic:
                atoms = len(model.atoms)
                mark_sets = (frozenset({0}), frozenset(range(atoms)), frozenset())
                cells = [Cell(-1.0, 1.5, marks) for marks in mark_sets]
                kernels = _atom_kernels(atoms)
                # no compensator for an index past the model's atoms: the raw counts
                for marks in (frozenset({atoms}), frozenset({0, atoms + 3})):
                    out.append(batch.count(-2.0, 2.0, marks))
            else:
                cells = [Cell(-1.5, 2.0, band) for band in DENSITY_BANDS]
                kernels = _density_kernels()
            out += [compensated_cell_count(batch, cell) for cell in cells]
            out += [eval_multiple_integral(batch, kernel) for kernel in kernels]
            wide = sample_prm_batch(model, 4.0, n, derive_rng(seed, 4))
            tail = lambda x: np.where(np.abs(x) > 1.5, _tail_profile(x), 0.0)
            out.append(batch_L_weighted(wide, tail, 0.125))
            if n > 1:  # a standard error needs two samples
                rows = tail_convergence(model, _tail_profile, (0.5, 1.5, 3.0), 4.0, n, seed)
                out.append(np.array([[r.k_inner, r.gate.statistic, r.gate.target, r.gate.se]
                                     for r in rows]))
    return out


def test_reduction_outputs_match_snapshot():
    digest = hashlib.sha256()
    outputs = _reduction_outputs()
    for arr in outputs:
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert (len(outputs), digest.hexdigest()) == (REDUCTION_SNAPSHOT_COUNT,
                                                  REDUCTION_SNAPSHOT_SHA256)
