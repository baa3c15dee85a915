"""Snapshot of the float backend's outputs on fixed seeds.

The batch sampler and the batch evaluator compute with numpy kernels
whose order of operations decides the last bits of every float.  This
file pins the bytes of each output array (dtype and shape included) as
one SHA-256 digest, so that any change to how a kernel computes, not
only to what a statistical gate sees, shows as a changed digest.  The
digest was taken before the mark lookup and the cell masses moved onto
the guided table search and must not change with it.
"""

import hashlib

import numpy as np

from levynoise import (
    ClampedNoise,
    Const,
    Sum,
    atomic_measure,
    catalog_process,
    eval_I_K,
    linear_combination,
    power_law_measure,
    sample_L_interval,
    sample_prm_batch,
    validate_simple,
)
from levynoise.convolution import (
    DeterministicField,
    SeparableField,
    build_convolution_process,
    heat_kernel,
    indicator_kernel,
)
from levynoise.processes import CATALOG_PROCESS_NAMES
from levynoise.rng import derive_rng

FLOAT_SNAPSHOT_COUNT = 248
FLOAT_SNAPSHOT_SHA256 = "362688e57d52425555e647b2fc1ef32cb765f5030c685f0e5ac0b50df5b93862"

MODELS = (
    lambda: atomic_measure([(1.0, 1.0)]),
    lambda: atomic_measure([(2.0, 1.0), (-1.0, 3.0)]),
    lambda: power_law_measure(1.5, 0.25, 4.0),
)
BATCH_SIZES = (0, 1, 7, 20_000)


def _processes():
    """Catalog processes, a merged grid with ``Sum`` coefficients, and the
    64-cell convolution processes; ``True`` marks those whose coefficients
    read no noise, so that they can also run on a window that clips cells."""
    procs = [(catalog_process(name), name.startswith("det_")) for name in CATALOG_PROCESS_NAMES]
    procs.append((linear_combination(0.5, catalog_process("two_block"),
                                     -1.5, catalog_process("poly_block")), False))
    procs.append((validate_simple((-1.0, 0.0, 0.5, 1.0),
                                  (Const(0.25), Sum((Const(0.1), ClampedNoise(-1.0, 0.0, 0.3))),
                                   Sum((Const(-2.0), ClampedNoise(-0.5, 0.5))))), False))
    unit = DeterministicField(lambda s, y: np.ones(np.broadcast(s, y).shape), "unit")
    separable = SeparableField(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                               catalog_process("clamped_left", clip=4.0), "separable")
    for kernel in (indicator_kernel(), heat_kernel()):
        procs.append((build_convolution_process(kernel, unit, 1.0, 0.0), True))
        procs.append((build_convolution_process(kernel, separable, 1.0, 0.5), False))
    return procs


def _float_outputs():
    """Every float output of the snapshot, in a fixed order."""
    procs = _processes()
    out = []
    for mi, make in enumerate(MODELS):
        model = make()
        for ni, n in enumerate(BATCH_SIZES):
            seed = 100 * mi + ni
            batch = sample_prm_batch(model, 2.5, n, derive_rng(seed))
            out += [batch.x, batch.z, batch.owner]
            if batch.atom is not None:
                out.append(batch.atom)
            out.append(sample_L_interval(model, 1.75, n, derive_rng(seed, 1)))
            for pi, (proc, deterministic) in enumerate(procs):
                window = proc.read_window()
                windows = (window, 0.5 * window) if deterministic else (window,)
                for wi, w in enumerate(windows):
                    batch = sample_prm_batch(model, w, n, derive_rng(seed, 2, pi, wi))
                    out.append(eval_I_K(batch, proc))
    return out


def test_float_outputs_match_snapshot():
    digest = hashlib.sha256()
    outputs = _float_outputs()
    for arr in outputs:
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert (len(outputs), digest.hexdigest()) == (FLOAT_SNAPSHOT_COUNT, FLOAT_SNAPSHOT_SHA256)
