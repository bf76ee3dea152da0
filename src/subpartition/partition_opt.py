"""Partition enumeration and exact parametric minimization.

This module is the exhaustive engine under the principal-sequence search:

* `enumerate_partitions(n, k)` streams all partitions of {0..n-1} (or those
  with exactly k blocks) in canonical order, lazily, O(n) memory,
* `minimize_g(oracle, b)` minimizes f(P) - b|P| over all partitions,
  returning the exact minimum with minimizer count and the finest and
  coarsest minimizers,
* `brute_force_optimal_k_partition(oracle, k)` is the independent optimum
  oracle the approximation ratios are measured against.

Canonical order is lexicographic on restricted-growth strings: element 0
opens block 0, and each later element either joins an existing block
(ascending index) or opens the next fresh block.  That order makes "first
minimizer found" a well-defined deterministic tie-break.

The parametric objective g(b) = min over P of f(P) - b|P| equals
min over k of OPT_k - b*k, the lower envelope of n lines, one per block
count k, where OPT_k is the minimum of f over k-block partitions.  So
`minimize_g` makes one pass per oracle over all Bell(n) partitions, in
integers scaled by the lcm of the value denominators, keeping for each k
OPT_k, the canonically first partition attaining it and how many do.  That
O(n) summary is cached per oracle; every call then reads g(b) off it in
O(n) exact integer steps.  Brute force never reads the summary: it scans the
k-block partitions itself, so it stays an independent reference for the
optima `minimize_g` is built from.  Both read the oracle's value table, which
checks the enumeration cap on every call; `enumerate_partitions` checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator
from weakref import WeakKeyDictionary

from .core import (
    Partition,
    ValueOracle,
    as_fraction,
    require_block_count,
    require_within_cap,
)

__all__ = [
    "GMinResult",
    "brute_force_all_k",
    "brute_force_optimal_k_partition",
    "enumerate_partitions",
    "minimize_g",
]

# Bell numbers up to the hard cap of 13
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597, 27644437)


def _raw_partitions(n: int, k: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield partitions as canonical tuples of block masks, lexicographically
    by restricted-growth string.  With k, only partitions with k blocks."""
    masks = [0] * n

    def rec(i: int, m: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if k is None or m == k:
                yield tuple(masks[:m])
            return
        if k is not None and m + (n - i) < k:
            return  # cannot open enough new blocks any more
        bit = 1 << i
        for j in range(m):
            masks[j] |= bit
            yield from rec(i + 1, m)
            masks[j] ^= bit
        if k is None or m < k:
            masks[m] = bit
            yield from rec(i + 1, m + 1)
            masks[m] = 0

    masks[0] = 1
    yield from rec(1, 1)


def enumerate_partitions(n: int, k: int | None = None) -> Iterator[Partition]:
    """Stream Partition objects of {0..n-1} in canonical order, lazily.

    With k, restrict to partitions with exactly k blocks.  Subject to the
    enumeration cap.
    """
    require_within_cap(n, "enumerate_partitions")
    if k is not None:
        require_block_count(k, n)
    for masks in _raw_partitions(n, k):
        yield Partition._trusted(n, masks)


@dataclass(frozen=True)
class _BlockCountOptima:
    """One pass over all partitions of an oracle, indexed by k - 1: the
    scaled minimum of f over k-block partitions, the canonically first
    partition attaining it, and how many partitions attain it."""

    denominator: int
    values: tuple[int, ...]
    firsts: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]


_optima: "WeakKeyDictionary[ValueOracle, _BlockCountOptima]" = WeakKeyDictionary()


def _block_count_optima(oracle: ValueOracle) -> _BlockCountOptima:
    d, tab = oracle.scaled_table()  # on every call: the table checks the cap
    opt = _optima.get(oracle)
    if opt is None:
        n = oracle.n
        values: list[int | None] = [None] * n
        firsts: list[tuple[int, ...] | None] = [None] * n
        counts = [0] * n
        for masks in _raw_partitions(n):
            total = 0
            for m in masks:
                total += tab[m]
            i = len(masks) - 1
            best = values[i]
            if best is None or total < best:
                values[i], firsts[i], counts[i] = total, masks, 1
            elif total == best:
                counts[i] += 1
        opt = _BlockCountOptima(d, tuple(values), tuple(firsts), tuple(counts))
        _optima[oracle] = opt
    return opt


@dataclass(frozen=True)
class GMinResult:
    """Exact minimum of f(P) - b|P| over all partitions at one parameter b."""

    b: Fraction
    value: Fraction
    num_minimizers: int
    finest: Partition
    coarsest: Partition


def minimize_g(oracle: ValueOracle, b) -> GMinResult:
    """Minimize f(P) - b * |P| over all partitions of the ground set.

    Returns the exact minimum value, how many partitions attain it, and the
    finest (most blocks) and coarsest (fewest blocks) minimizers.  Ties at
    equal block count keep the canonically first partition.
    """
    n = oracle.n
    b = as_fraction(b)
    p, q = b.numerator, b.denominator
    opt = _block_count_optima(oracle)
    dp = opt.denominator * p
    scores = [q * value - dp * k for k, value in enumerate(opt.values, 1)]
    best = min(scores)
    tied = [i for i, score in enumerate(scores) if score == best]
    return GMinResult(
        b=b,
        value=Fraction(best, opt.denominator * q),
        num_minimizers=sum(opt.counts[i] for i in tied),
        finest=Partition._trusted(n, opt.firsts[tied[-1]]),
        coarsest=Partition._trusted(n, opt.firsts[tied[0]]),
    )


def brute_force_optimal_k_partition(oracle: ValueOracle, k: int) -> tuple[Partition, Fraction]:
    """Exact optimum over partitions with exactly k blocks, by enumeration.

    Ties are broken canonically (first in enumeration order).
    """
    n = oracle.n
    require_block_count(k, n)
    d, tab = oracle.scaled_table()
    best = None
    best_masks = None
    for masks in _raw_partitions(n, k):
        total = 0
        for m in masks:
            total += tab[m]
        if best is None or total < best:
            best = total
            best_masks = masks
    return Partition._trusted(n, best_masks), Fraction(best, d)


def brute_force_all_k(oracle: ValueOracle) -> dict[int, tuple[Partition, Fraction]]:
    """Exact optimum for every k, by brute force at each block count."""
    return {k: brute_force_optimal_k_partition(oracle, k) for k in range(1, oracle.n + 1)}
