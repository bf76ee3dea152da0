"""Partition enumeration and exact parametric minimization.

This module holds the exhaustive engines under the principal-sequence search:

* `_dilworth_greedy(n, D, tab, b)` is Narayanan's greedy for the Dilworth
  truncation of f - b (Narayanan 1991; Fujishige 2005): one pass over the
  2^n sets in scaled integers gives a vector x with x(S) <= D q (f(S) - b)
  for every nonempty S, hence a lower bound x(V) on g(b), and a partition
  R; when R attains x(V), that is g(b), proved for any f, and for
  submodular f it always does, with R the finest minimizer.  `pps` builds
  the whole chain from it and keeps each breakpoint's x as its certificate,
* `minimize_g(oracle, b)` returns g(b) = min over P of f(P) - b|P| as an
  exact Fraction (no count and no minimizer), from the greedy, or from
  `optimal_k_value` where the greedy's partition misses its bound, which
  only non-submodular input reaches,
* `optimal_k_value(oracle, k)` is the optimum every reported ratio and
  bound is measured against (`ratio_report`, CLI `solve --brute-force`,
  every `reproduce` case): the value only, from an exhaustive bottom-up
  DP over (subset, blocks left) with one flat list per level, rebuilt on
  every call; a level counts a remainder only where the level below holds
  a value for it,
* `brute_force_optimal_k_partition(oracle, k)` is the enumeration reference
  the tests check it against: it scans the k-block partitions, streamed
  lazily by the module's one partition generator `_raw_partitions(n, k)`,
  and returns the canonically first optimal one with its value.

Canonical order is lexicographic on restricted-growth strings: element 0
opens block 0, and each later element either joins an existing block
(ascending index) or opens the next fresh block.  That order makes "first
minimizer found" a well-defined deterministic tie-break.

Nothing is cached between calls.  The greedy scans sets and the optimum
scans (subset, block) pairs, so a bug in either cannot reappear in the
other, and brute force shares code with neither.  Only `verify_pps` and
the public `repair_chain` call `minimize_g`, through `pps._pair_attains`,
at a chain pair whose certificate is missing or fails.  All of them read
the oracle's value table, which checks the enumeration cap on every call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .core import (
    Partition,
    ValueOracle,
    as_fraction,
    require_block_count,
    scaled_value,
)

__all__ = [
    "brute_force_all_k",
    "brute_force_optimal_k_partition",
    "minimize_g",
    "optimal_k_value",
]

def _raw_partitions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield the partitions with k blocks as canonical tuples of block masks,
    lexicographically by restricted-growth string."""
    masks = [0] * n

    def rec(i: int, m: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if m == k:
                yield tuple(masks[:m])
            return
        if m + (n - i) < k:
            return  # cannot open enough new blocks any more
        bit = 1 << i
        for j in range(m):
            masks[j] |= bit
            yield from rec(i + 1, m)
            masks[j] ^= bit
        if m < k:
            masks[m] = bit
            yield from rec(i + 1, m + 1)
            masks[m] = 0

    masks[0] = 1
    yield from rec(1, 1)


def _line(total: int, size: int, d: int, b: Fraction) -> int:
    """P's line at b = p/q in integers, D q (f(P) - b|P|), from `size` = |P|
    and `total` = D f(P), D = `d`.  Every test of a partition at b uses it;
    only the greedy's inner loop writes it out, for single sets."""
    return b.denominator * total - d * b.numerator * size


def _dilworth_greedy(
    n: int, d: int, tab: tuple[int, ...], b: Fraction
) -> tuple[int, Partition, tuple[int, ...]]:
    """Narayanan's greedy for the Dilworth truncation of f - b, in integers
    scaled by D q at b = p/q, on the scaled value table (D, tab).

    For i = 0..n-1, x_i is the minimum over the sets S with max(S) = i of
    `_line`(tab[S], 1) - x(S - i), and i merges with every block that meets
    the first minimizing S in ascending mask order.  Returns X = x(V), the
    merged partition R and x = (x_0, ..., x_{n-1}).  Every nonempty S has
    a largest element, so x(S) <= D q (f(S) - b) for all S, and summing
    over the blocks of any partition Q gives X <= `_line`(D f(Q), |Q|):
    whenever R's line attains X, X is D q g(b).  For submodular f it always does, and R is the finest
    minimizer, because the first minimizing S is inclusion-minimal.
    """
    p, q = b.numerator, b.denominator
    dp = d * p
    xs = [0]  # xs[T] = x(T) for every T within {0..i-1}
    x = []
    blocks: list[int] = []
    for i in range(n):
        lo = 1 << i
        # q tab[S] - x(S - i) for S = lo + T, in ascending mask order
        gaps = [q * t - s for t, s in zip(tab[lo : lo << 1], xs)]
        best = min(gaps)
        t = gaps.index(best)
        xi = best - dp
        x.append(xi)
        xs += [s + xi for s in xs]
        merged = lo
        kept = []
        for blk in blocks:
            if blk & t:
                merged |= blk
            else:
                kept.append(blk)
        kept.append(merged)
        blocks = kept
    blocks.sort(key=lambda m: m & -m)
    return xs[-1], Partition._trusted(n, tuple(blocks)), tuple(x)


def minimize_g(oracle: ValueOracle, b) -> Fraction:
    """Minimize f(P) - b * |P| over all partitions of the ground set.

    Returns the exact minimum as a Fraction, with no minimizer and no count,
    for any oracle: x(V) of `_dilworth_greedy` when its partition's `_line`
    attains it, which every submodular oracle guarantees, and otherwise the
    minimum over k of OPT_k - b*k from `optimal_k_value`.
    """
    b = as_fraction(b)
    n = oracle.n
    d, tab = oracle.scaled_table()
    x, r, _ = _dilworth_greedy(n, d, tab, b)
    if _line(scaled_value(tab, r), len(r), d, b) == x:
        return Fraction(x, d * b.denominator)
    return min(optimal_k_value(oracle, k) - b * k for k in range(1, n + 1))


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


def optimal_k_value(oracle: ValueOracle, k: int) -> Fraction:
    """Exact optimum over partitions with exactly k blocks, value only.

    best(M, j), the scaled minimum of f over j-block partitions of M, is
    tab[M] for j = 1; otherwise it is the minimum over blocks S with
    low(M) in S, S a subset of M and |M - S| >= j - 1, of
    tab[S] + best(M - S, j - 1), because every partition of M has exactly
    one block holding low(M).  Equal to the value brute force returns.

    Computed bottom up, one flat list per level j.  best(V, k) reaches
    best(M, j) only after k - j blocks, each holding the lowest element
    left, so level j < k needs only the masks within {k-j..n-1} with at
    least j elements, and the top level needs only V.  Every remainder
    M - S lies within {k-j+1..n-1}, the masks level j - 1 computes, so it
    counts exactly when level j - 1 holds a value for it (None otherwise).
    """
    n = oracle.n
    require_block_count(k, n)
    d, tab = oracle.scaled_table()
    full = (1 << n) - 1
    prev = tab  # best(M, 1)
    for j in range(2, k + 1):
        lowest = 1 << (k - j)  # the masks within {k-j..n-1} are its multiples
        level = [None] * (1 << n)
        for m in range(lowest, full + 1, lowest) if j < k else (full,):
            if m.bit_count() < j:
                continue
            rest = m & (m - 1)  # M - low(M), the largest remainder
            found = tab[m ^ rest] + prev[rest]
            r = (rest - 1) & rest
            while r:
                below = prev[r]
                if below is not None:
                    value = tab[m ^ r] + below
                    if value < found:
                        found = value
                r = (r - 1) & rest
            level[m] = found
        prev = level
    return Fraction(prev[full], d)


def brute_force_all_k(oracle: ValueOracle) -> dict[int, tuple[Partition, Fraction]]:
    """Exact optimum for every k, by brute force at each block count."""
    return {k: brute_force_optimal_k_partition(oracle, k) for k in range(1, oracle.n + 1)}
