"""Reproducible random streams.

Every Monte Carlo routine in the package draws from a counter-based
(Philox) generator keyed by an integer path, e.g. ``(master_seed,
check_index)``.  Streams with distinct key paths are statistically
independent and do not depend on the order in which they are consumed,
so adding, removing or reordering checks never perturbs the draws of
the others.
"""

from __future__ import annotations

import numpy as np

# Stream ids: the component after the seed in every key path, one per
# Monte Carlo routine.  Their values fix which numbers each routine
# draws, so changing one changes that routine's results.
MOMENT_MC_STREAM = 1            # harness: moment_mc
MEAN_ZERO_STREAM = 2            # harness: mean_zero
ISOMETRY_STREAM = 3             # harness: isometry
MARTINGALE_STREAM = 4           # harness: martingale
DERIVATIVE_PROBES_STREAM = 5    # harness: derivative_probes
PROJECTION_STREAM = 6           # harness: projection
CHAOS_ISOMETRY_STREAM = 7       # harness: chaos_isometry
CHAOS_ORTHOGONALITY_STREAM = 8  # harness: chaos_orthogonality
SEMINORM_STREAM = 11            # integral.estimate_seminorm
INTEGRAL_BOUND_STREAM = 12      # integral.check_integral_moment_bound
TAIL_STREAM = 13                # integral.tail_convergence
CHAR_GAP_STREAM = 14            # prm.char_function_gap
CONVOLUTION_STREAM = 15         # convolution.check_convolution_moment_bound
FIELD_MOMENT_STREAM = 16        # convolution: E|C|^p of a field coefficient
DUALITY_STREAM = 17             # chaos.duality_gap
SIMULATE_STREAM = 99            # cli simulate


def derive_rng(*key_path: int) -> np.random.Generator:
    """Return a Philox generator keyed by the given integer path.

    The same path always yields the bit-identical stream.  Components
    must be non-negative integers (any size; they are hashed through
    ``numpy.random.SeedSequence``).
    """
    if not key_path:
        raise ValueError("key path must contain at least one integer")
    for part in key_path:
        if part < 0:
            raise ValueError(f"key path components must be >= 0, got {part}")
    seq = np.random.SeedSequence(tuple(int(p) for p in key_path))
    return np.random.Generator(np.random.Philox(seq))


def derive_seed(*key_path: int) -> int:
    """Collapse an integer key path into one well-mixed 64-bit seed."""
    seq = np.random.SeedSequence(tuple(int(p) for p in key_path))
    return int(seq.generate_state(1, np.uint64)[0])
