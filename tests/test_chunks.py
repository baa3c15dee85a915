"""Chunked draws: the chunk size changes no value, and memory stays bounded.

``prm.sample_chunks`` draws all Poisson counts first, then the points of
each chunk of whole realizations: locations from the generator, marks from
a copy of it skipped past every location.  Each test here sets
``prm._PART_SIZE``, which sizes the chunks (and the parts of each batch
reduction), to a tiny value and compares with the one-chunk draw bit for bit.
"""

import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import levynoise.prm as prm
from levynoise import atomic_measure, power_law_measure
from levynoise.harness import default_verification_config, parse_config, run
from levynoise.integral import tail_plan
from levynoise.prm import (
    Draw,
    _skipped,
    sample_chunks,
    sample_L_interval,
    sample_prm,
    sample_prm_batch,
    simulate,
)
from levynoise.rng import derive_rng

from test_report_snapshot import DENSITY_CHECKS, DENSITY_MEASURE

ONE_CHUNK = 1 << 62
UNIT = atomic_measure([(1.0, 1.0)])
# name: (model, n, window, length, part size); window and length as for a Draw
CASES = {
    "points": (UNIT, 500, 3.0, None, 64),
    "density": (power_law_measure(1.5, 0.25, 4.0), 300, 2.0, None, 64),
    "window_0": (UNIT, 40, 0.0, None, 64),
    "one_realization": (UNIT, 1, 3.0, None, 4),
    "no_points": (atomic_measure([(1.0, 1e-9)]), 50, 1.0, None, 64),
    "realizations_larger_than_a_chunk": (atomic_measure([(1.0, 8.0), (-2.0, 4.0)]), 30, 2.0,
                                         None, 16),
    "L": (UNIT, 500, None, 1.5, 16),
    "L_length_0": (UNIT, 40, None, 0.0, 16),
}


@pytest.mark.parametrize("pos", range(5))
def test_skip_ahead_equals_plain_draws(pos):
    # Philox buffers 4 words a block: every position in the buffer, every skip
    # across it and past whole blocks
    rng = derive_rng(20_260_809, 19)
    bits = rng.bit_generator
    bits.random_raw(max(pos, 1))
    if pos == 0:  # a block made and none of its words read yet
        state = bits.state
        state["buffer_pos"] = 0
        bits.state = state
    assert bits.state["buffer_pos"] == pos
    before = copy.deepcopy(rng)
    for skip in range(10):
        plain = copy.deepcopy(rng)
        plain.bit_generator.random_raw(skip)
        assert _skipped(rng, skip).random(9).tobytes() == plain.random(9).tobytes(), skip
    assert rng.random(9).tobytes() == before.random(9).tobytes()  # rng itself does not move


def _concatenated(chunks):
    """The chunks' arrays joined in realization order, owners renumbered."""
    starts, parts = zip(*chunks)
    sizes = [len(c) if isinstance(c, np.ndarray) else c.n for c in parts]
    assert list(starts) == list(np.cumsum([0, *sizes[:-1]]))
    if isinstance(parts[0], np.ndarray):
        return {"L": np.concatenate(parts)}
    return {"n": np.array(sum(sizes)),
            **{name: np.concatenate([getattr(c, name) for c in parts])
               for name in ("x", "z", *(("atom",) if parts[0].atom is not None else ()))},
            "owner": np.concatenate([c.owner.astype(np.int64) + r0
                                     for r0, c in zip(starts, parts)])}


def _whole(model, n, window, length, seed):
    if length is not None:
        return {"L": sample_L_interval(model, length, n, derive_rng(seed))}
    batch = sample_prm_batch(model, window, n, derive_rng(seed))
    return {"n": np.array(batch.n), "x": batch.x, "z": batch.z,
            **({"atom": batch.atom} if batch.atom is not None else {}),
            "owner": batch.owner.astype(np.int64)}


@pytest.mark.parametrize("case", CASES)
def test_chunks_join_into_the_one_chunk_draw(monkeypatch, case):
    model, n, window, length, part_size = CASES[case]
    monkeypatch.setattr(prm, "_PART_SIZE", part_size)
    chunks = list(sample_chunks(model, n, derive_rng(7), window, length))
    joined = _concatenated(chunks)
    whole = _whole(model, n, window, length, 7)
    assert joined.keys() == whole.keys()
    for name in whole:
        assert joined[name].dtype == whole[name].dtype, name
        assert joined[name].tobytes() == whole[name].tobytes(), name
    points = derive_rng(7).poisson(prm.expected_points(model, 1, window, length), n).sum()
    assert (len(chunks) > 1) == (points > part_size and n > 1)


def _estimate_bytes(est):
    """An Estimates as bytes: every mean and SE, NaN included, and the kept samples."""
    stats = {name: np.array(pair).tobytes() for name, pair in est.stats.items()}
    kept = None if est.samples is None else (est.samples.dtype, est.samples.tobytes())
    return stats, kept


@pytest.mark.parametrize("case", CASES)
def test_simulate_estimates_do_not_depend_on_the_chunks(monkeypatch, case):
    model, n, window, length, part_size = CASES[case]
    if length is None:
        arrays = lambda b: {"points": np.bincount(b.owner, minlength=b.n),
                            "jumps": np.bincount(b.owner, b.z, b.n),
                            "where": np.bincount(b.owner, b.x, b.n)}
    else:
        arrays = lambda values: {"L": values, "L^2": values ** 2}
    draw = Draw(3, 11, n, arrays, window, length, keep="L" if length is not None else "jumps")
    results = []
    for size in (part_size, ONE_CHUNK):
        monkeypatch.setattr(prm, "_PART_SIZE", size)
        results.append(_estimate_bytes(simulate(model, draw)))
    assert results[0] == results[1]


def _run_estimates(monkeypatch, config, part_size):
    """Every Estimates the run's draws reduce to, and the report, at one part size."""
    monkeypatch.setattr(prm, "_PART_SIZE", part_size)
    seen = []

    def recording(model, draw):
        est = simulate(model, draw)
        seen.append(_estimate_bytes(est))
        return est
    monkeypatch.setattr(prm, "simulate", recording)
    report = run(config, keep_samples=True)
    rows = [(c.name, c.gates, c.details, None if c.samples is None else c.samples.tobytes())
            for c in report.checks]
    return seen, repr(rows)


@pytest.mark.parametrize("config", [
    replace(default_verification_config(samples=1000),
            checks=(*default_verification_config().checks,
                    {"kind": "derivative_probes", "n_realizations": 1})),
    parse_config({"measure": DENSITY_MEASURE, "samples": 1000, "seed": 20_260_809,
                  "checks": list(DENSITY_CHECKS)})], ids=["bundled", "density"])
def test_checks_do_not_depend_on_the_chunks(monkeypatch, config):
    chunked, report = _run_estimates(monkeypatch, config, 64)
    assert len(chunked) >= 9
    assert (chunked, report) == _run_estimates(monkeypatch, config, ONE_CHUNK)


def _tail_peak(n: int) -> int:
    plan = tail_plan(UNIT, lambda x: np.exp(-np.asarray(x) ** 2), (1.0, 2.0), 4.0, n, 5)
    tracemalloc.start()
    try:
        plan.run(UNIT)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tail_memory_grows_by_its_arrays_alone():
    # 8 points per realization, 21 bytes each: a draw held whole would grow by
    # 50 MB from 100k to 400k realizations.  Chunked, the growth is one float per
    # realization per array, plus the Poisson counts and one reduction temporary.
    arrays = 2
    small, large = _tail_peak(100_000), _tail_peak(400_000)
    assert large - small <= 8 * 400_000 * (arrays + 2), (small, large)


# one jump size: 0.3 and -1.7 are not dyadic, so a sum taken as count * z0 would show
ONE_ATOM = {"unit": [(1.0, 1.0)], "0.3": [(0.3, 2.0)], "-1.7": [(-1.7, 0.5)]}


def _one_atom_draws(model):
    """Every sampler's arrays for one model: the one-chunk and chunked batches,
    L(A), and one realization."""
    real = sample_prm(model, 3.0, 7)
    return {"batch": _whole(model, 400, 3.0, None, 7),
            "chunks": _concatenated(sample_chunks(model, 400, derive_rng(7), 3.0)),
            "L": _whole(model, 400, None, 1.5, 7),
            "L_chunks": _concatenated(sample_chunks(model, 400, derive_rng(7), None, 1.5)),
            "real": {"x": real.x, "z": real.z, "atom": real.atom}}


@pytest.mark.parametrize("atoms", ONE_ATOM.values(), ids=ONE_ATOM)
def test_one_atom_draws_equal_the_inverse_cdf_draws(monkeypatch, atoms):
    # a one-atom law reads no mark words; its values are the table's, bit for bit
    model = atomic_measure(atoms)
    monkeypatch.setattr(prm, "_PART_SIZE", 64)
    fast = _one_atom_draws(model)
    monkeypatch.setattr(prm._InverseCDF, "one_point", property(lambda self: False))
    general = _one_atom_draws(model)
    assert fast["batch"]["z"].strides == (0,) != general["batch"]["z"].strides
    assert fast.keys() == general.keys()
    for draw in fast:
        assert fast[draw].keys() == general[draw].keys(), draw
        for name in fast[draw]:
            a, b = fast[draw][name], general[draw][name]
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (draw, name)


@pytest.mark.parametrize("part_size", [64, ONE_CHUNK], ids=["chunked", "one_chunk"])
def test_one_atom_generator_stops_after_the_locations(monkeypatch, part_size):
    model = atomic_measure(ONE_ATOM["0.3"])
    monkeypatch.setattr(prm, "_PART_SIZE", part_size)
    rng = derive_rng(7)
    plain = copy.deepcopy(rng)
    list(sample_chunks(model, 400, rng, 3.0))
    counts = plain.poisson(prm.expected_points(model, 1, 3.0), 400)
    plain.uniform(-3.0, 3.0, int(counts.sum()))
    assert rng.bit_generator.random_raw() == plain.bit_generator.random_raw()
    # L(A): the counts alone
    rng = derive_rng(7)
    plain = copy.deepcopy(rng)
    list(sample_chunks(model, 400, rng, None, 1.5))
    plain.poisson(prm.expected_points(model, 1, None, 1.5), 400)
    assert rng.bit_generator.random_raw() == plain.bit_generator.random_raw()


def test_one_atom_marks_are_read_only_views():
    batch = sample_prm_batch(atomic_measure(ONE_ATOM["-1.7"]), 3.0, 100, derive_rng(7))
    for marks in (batch.z, batch.atom):
        assert marks.strides == (0,) and not marks.flags.writeable
    assert len(batch.z) == len(batch.atom) == len(batch.x) > 0


def test_one_atom_batch_stores_twelve_bytes_per_point():
    # x (8 bytes) and owner (4 bytes) per point, the Poisson counts (8 bytes) per
    # realization; z and atom store one value each
    n = 200_000
    tracemalloc.start()
    try:
        batch = sample_prm_batch(UNIT, 4.0, n, derive_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * len(batch.x) + 8 * n, (peak, len(batch.x))
