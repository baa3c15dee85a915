"""The cumulant-to-moment recurrence and set-partition enumeration.

For a centered random variable the m-th moment is the sum, over all set
partitions of ``{1, ..., m}`` whose blocks all have at least two
elements, of the product of cumulants indexed by block sizes.
Partitions containing a singleton block contribute a factor ``kappa_1 = 0``
and drop out, so summing over all partitions with ``kappa_1 = 0`` gives
the same value.

The engine computes this sum by the moment-cumulant recurrence for a
centered variable (McCullagh, *Tensor Methods in Statistics*, 1987,
ch. 2): the block that holds element n has k elements, k - 1 of them
chosen from the other n - 1, so

    m_0 = 1,  m_1 = 0,  m_n = sum_{k=2}^{n} C(n-1, k-1) kappa_k m_{n-k}.

The constant ``C*`` of the moment bound, the number of no-singleton
partitions, is the same recurrence with every cumulant set to 1.  Its
orders are capped at ``MAX_MOMENT_ORDER``, since a ``p`` can come from a
config or the command line.  Set-partition enumeration (a
restricted-growth recursion with singleton pruning) stays as the
independent oracle the engine is cross-checked against.  One pruning
rule (``_moves``) grows its tree: ``_partitions`` lists the leaves and
``_count_partitions`` counts them one by one without building any.
Only the enumeration is capped at ``MAX_PARTITION_SIZE``, because it
visits every partition.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import MissingCumulantError, SizeLimitError
from .measure import LevyMeasureModel, finite_moment, signed_moment
from .processes import StepFunction

MAX_PARTITION_SIZE = 14
MAX_MOMENT_ORDER = 64

Partition = tuple[tuple[int, ...], ...]


def _check_size(m: int) -> None:
    if m > MAX_PARTITION_SIZE:
        raise SizeLimitError(
            f"partition enumeration capped at {MAX_PARTITION_SIZE}, got {m}")
    if m < 1:
        raise SizeLimitError("need at least one element")


def _moves(sizes: list[int], deficit: int, remaining: int,
           min_block: int) -> list[tuple[int, int]]:
    """The pruning rule: the blocks the next element may join, each with the deficit
    after the move.

    ``sizes`` are the block sizes so far, ``deficit`` the elements their undersized
    blocks still need to reach ``min_block``, and ``remaining`` the elements left
    after this one; index ``len(sizes)`` opens a new block.  A move is kept when
    the elements left can still fill every undersized block.
    """
    moves = []
    for j, size in enumerate(sizes):
        after = deficit - (size < min_block)
        if after <= remaining:
            moves.append((j, after))
    after = deficit + min_block - 1
    if after <= remaining:
        moves.append((len(sizes), after))
    return moves


def _partitions(m: int, min_block: int) -> Iterator[Partition]:
    """Yield partitions of {1,..,m} whose blocks all have >= min_block elements.

    Elements are placed in increasing order, so blocks are created sorted
    by their minimum and each yielded partition is canonical.  Branches
    that cannot grow all undersized blocks to ``min_block`` with the
    elements that remain are pruned (``_moves``), so every leaf is one.
    """
    blocks: list[list[int]] = []

    def place(e: int, deficit: int) -> Iterator[Partition]:
        if e > m:
            yield tuple(map(tuple, blocks))
            return
        for j, after in _moves(list(map(len, blocks)), deficit, m - e, min_block):
            if j == len(blocks):
                blocks.append([])
            blocks[j].append(e)
            yield from place(e + 1, after)
            blocks[j].pop()
            if not blocks[j]:
                blocks.pop()

    return place(1, 0)


def _count_partitions(m: int, min_block: int) -> int:
    """``len(list(_partitions(m, min_block)))`` for ``m >= 1``: the leaves of the same
    pruned tree, counted one by one on block sizes alone; the last element's
    moves are the leaves under its node."""
    sizes: list[int] = []

    def leaves(e: int, deficit: int) -> int:
        moves = _moves(sizes, deficit, m - e, min_block)
        if e == m:
            return len(moves)
        total = 0
        for j, after in moves:
            if j == len(sizes):
                sizes.append(0)
            sizes[j] += 1
            total += leaves(e + 1, after)
            sizes[j] -= 1
            if not sizes[j]:
                sizes.pop()
        return total

    return leaves(1, 0)


def all_partitions(m: int) -> Iterator[Partition]:
    """All set partitions of ``{1, ..., m}`` in canonical order."""
    _check_size(m)
    return _partitions(m, 1)


def partitions_no_singletons(m: int) -> list[Partition]:
    """Partitions of ``{1, ..., m}`` in which every block has size >= 2."""
    _check_size(m)
    return list(_partitions(m, 2))


def _check_order(m: int) -> None:
    if m > MAX_MOMENT_ORDER:
        raise SizeLimitError(f"moment order capped at {MAX_MOMENT_ORDER}, got {m}")


def _centered_moment(kappa: Mapping[int, Fraction] | Sequence[int], m: int):
    """The recurrence of the module docstring: m-th moment from ``kappa[2..m]``."""
    moments = [1, 0]
    for n in range(2, m + 1):
        moments.append(sum(math.comb(n - 1, k - 1) * kappa[k] * moments[n - k]
                           for k in range(2, n + 1)))
    return moments[m]


def count_no_singleton_partitions(p: int) -> int:
    """Number of no-singleton partitions of a ``p``-element set.

    This count is the combinatorial constant multiplying the p-th moment
    bound of the noise: 1, 1, 4, 11, 41, 162, 715, ... for p = 2, 3, ...
    """
    if p < 2:
        raise SizeLimitError("count defined for p >= 2")
    _check_order(p)
    return _centered_moment([1] * (p + 1), p)


def moment_from_cumulants(kappas: Mapping[int, Fraction | float], m: int) -> Fraction | float:
    """m-th moment of a centered variable from its cumulants.

    ``kappas`` maps order ``n`` to the n-th cumulant for every
    ``2 <= n <= m``.  The recurrence runs in exact rational arithmetic:
    rational inputs give an exact rational result, and float inputs give
    that exact sum rounded once to a float.
    """
    if m < 2:
        raise ValueError("moment order must be >= 2")
    _check_order(m)
    for n in range(2, m + 1):
        if n not in kappas:
            raise MissingCumulantError(n)
    if kappas[2] < 0:
        raise ValueError("second cumulant must be nonnegative")
    total = _centered_moment({n: Fraction(kappas[n]) for n in range(2, m + 1)}, m)
    exact = all(isinstance(kappas[n], (int, Fraction)) for n in range(2, m + 1))
    return total if exact else finite_moment(total, m, "the moment")


def step_functional_cumulants(model: LevyMeasureModel, phi: StepFunction,
                              p: int) -> dict[int, Fraction | float]:
    """Cumulants of the smoothed noise ``integral phi dL``.

    The n-th cumulant equals ``mt_n * integral phi(x)^n dx``; the step
    structure makes the space integral an exact finite sum.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    _check_order(p)
    out: dict[int, Fraction | float] = {}
    for n in range(2, p + 1):
        mt = signed_moment(model, n)
        integ = phi.power_integral(n)
        out[n] = mt * integ  # a float when mt_n is
    return out


def moment_of_step_functional(model: LevyMeasureModel, phi: StepFunction,
                              p: int) -> Fraction | float:
    """Exact p-th moment of ``integral phi dL`` from its cumulants."""
    return moment_from_cumulants(step_functional_cumulants(model, phi, p), p)
