"""Set-partition enumeration and the cumulant-to-moment formula.

For a centered random variable the m-th moment is the sum, over all set
partitions of ``{1, ..., m}`` whose blocks all have at least two
elements, of the product of cumulants indexed by block sizes.
Partitions containing a singleton block contribute a factor ``kappa_1 = 0``
and drop out, so summing over all partitions with ``kappa_1 = 0`` gives
the same value.

A term depends on its partition only through the sizes of its blocks,
so the engine computes this no-singleton sum by block type: one term per
integer partition of m into parts >= 2, weighted by the number of set
partitions of that type.  The constant ``C*`` of the moment bound is the
same sum with every cumulant set to 1.  Set-partition enumeration (a
restricted-growth recursion with singleton pruning) stays as the
independent oracle the engine is cross-checked against; both are capped
at size 14.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping

from .errors import MissingCumulantError, SizeLimitError
from .measure import LevyMeasureModel, abs_moment, signed_moment
from .stepfun import StepFunction

MAX_PARTITION_SIZE = 14

Partition = tuple[tuple[int, ...], ...]


def _check_size(m: int) -> None:
    if m > MAX_PARTITION_SIZE:
        raise SizeLimitError(
            f"partition enumeration capped at {MAX_PARTITION_SIZE}, got {m}")
    if m < 1:
        raise SizeLimitError("need at least one element")


def _partitions(m: int, min_block: int) -> Iterator[Partition]:
    """Yield partitions of {1,..,m} whose blocks all have >= min_block elements.

    Elements are placed in increasing order, so blocks are created sorted
    by their minimum and each yielded partition is canonical.  Branches
    that cannot grow all undersized blocks to ``min_block`` with the
    elements that remain are pruned.
    """
    blocks: list[list[int]] = []

    def place(e: int) -> Iterator[Partition]:
        if e > m:
            if all(len(b) >= min_block for b in blocks):
                yield tuple(tuple(b) for b in blocks)
            return
        remaining_after = m - e
        for b in blocks:
            b.append(e)
            deficit = sum(min_block - len(x) for x in blocks if len(x) < min_block)
            if deficit <= remaining_after:
                yield from place(e + 1)
            b.pop()
        blocks.append([e])
        deficit = sum(min_block - len(x) for x in blocks if len(x) < min_block)
        if deficit <= remaining_after:
            yield from place(e + 1)
        blocks.pop()

    return place(1)


def all_partitions(m: int) -> Iterator[Partition]:
    """All set partitions of ``{1, ..., m}`` in canonical order."""
    _check_size(m)
    return _partitions(m, 1)


def partitions_no_singletons(m: int) -> list[Partition]:
    """Partitions of ``{1, ..., m}`` in which every block has size >= 2."""
    _check_size(m)
    return list(_partitions(m, 2))


@lru_cache(maxsize=None)
def _block_types(m: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """Block-size multisets of the no-singleton partitions of an m-set.

    Each entry is ``(weight, ((k, a_k), ...))``: a_k blocks of size k,
    every k >= 2, and ``weight = m! / prod(k!^a_k a_k!)`` set partitions
    with exactly these block sizes (Comtet, *Advanced Combinatorics*,
    1974).  The table is built from the integer partitions of m into
    parts >= 2, so its length grows far slower than the number of set
    partitions.
    """
    table = []

    def parts(rest: int, largest: int, sizes: list[int]) -> None:
        if rest == 0:
            blocks = tuple((k, sizes.count(k)) for k in sorted(set(sizes)))
            denom = math.prod(math.factorial(k) ** a * math.factorial(a) for k, a in blocks)
            table.append((math.factorial(m) // denom, blocks))
            return
        for k in range(min(rest, largest), 1, -1):
            sizes.append(k)
            parts(rest - k, k, sizes)
            sizes.pop()

    parts(m, m, [])
    return tuple(table)


def count_no_singleton_partitions(p: int) -> int:
    """Number of no-singleton partitions of a ``p``-element set.

    This count is the combinatorial constant multiplying the p-th moment
    bound of the noise: 1, 1, 4, 11, 41, 162, 715, ... for p = 2, 3, ...
    """
    if p < 2:
        raise SizeLimitError("count defined for p >= 2")
    _check_size(p)
    return sum(weight for weight, _ in _block_types(p))


def moment_from_cumulants(kappas: Mapping[int, Fraction | float], m: int) -> Fraction | float:
    """m-th moment of a centered variable from its cumulants.

    ``kappas`` maps order ``n`` to the n-th cumulant for every
    ``2 <= n <= m``.  The sum runs over no-singleton partitions, grouped
    by block type, in exact rational arithmetic: rational inputs give an
    exact rational result, and float inputs give that exact sum rounded
    once to a float.
    """
    if m < 2:
        raise ValueError("moment order must be >= 2")
    _check_size(m)
    for n in range(2, m + 1):
        if n not in kappas:
            raise MissingCumulantError(n)
    if kappas[2] < 0:
        raise ValueError("second cumulant must be nonnegative")
    kappa = {n: Fraction(kappas[n]) for n in range(2, m + 1)}
    total = Fraction(0)
    for weight, blocks in _block_types(m):
        prod = Fraction(weight)
        for k, a in blocks:
            prod *= kappa[k] ** a
        total += prod
    exact = all(isinstance(kappas[n], (int, Fraction)) for n in range(2, m + 1))
    return total if exact else float(total)


def step_functional_cumulants(model: LevyMeasureModel, phi: StepFunction,
                              p: int) -> dict[int, Fraction | float]:
    """Cumulants of the smoothed noise ``integral phi dL``.

    The n-th cumulant equals ``mt_n * integral phi(x)^n dx``; the step
    structure makes the space integral an exact finite sum.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    out: dict[int, Fraction | float] = {}
    for n in range(2, p + 1):
        mt = signed_moment(model, n)
        integ = phi.power_integral(n)
        out[n] = mt * integ  # a float when mt_n is
    return out


def moment_of_step_functional(model: LevyMeasureModel, phi: StepFunction,
                              p: int) -> Fraction | float:
    """Exact p-th moment of ``integral phi dL`` via cumulants and partitions."""
    if not math.isfinite(float(abs_moment(model, p))):
        raise ValueError(f"m_{p} must be finite")
    return moment_from_cumulants(step_functional_cumulants(model, phi, p), p)
