"""Partition enumeration and exact parametric minimization.

This module is the exhaustive engine under the principal-sequence search:

* `enumerate_partitions(n, k)` streams all partitions of {0..n-1} (or those
  with exactly k blocks) in canonical order, lazily, O(n) memory,
* `minimize_g(oracle, b)` minimizes f(P) - b|P| over all partitions,
  returning the exact minimum as a Fraction (no count and no minimizer),
* `optimal_k_value(oracle, k)` is the optimum every reported ratio and
  bound is measured against (`ratio_report`, CLI `solve --brute-force`,
  every `reproduce` case): the value only, from an exhaustive DP over subsets,
* `brute_force_optimal_k_partition(oracle, k)` is the enumeration reference
  the tests check it against: it scans the k-block partitions and returns
  the canonically first optimal one with its value.

Canonical order is lexicographic on restricted-growth strings: element 0
opens block 0, and each later element either joins an existing block
(ascending index) or opens the next fresh block.  That order makes "first
minimizer found" a well-defined deterministic tie-break.

The parametric objective g(b) = min over P of f(P) - b|P| equals min over k
of OPT_k - b*k, the lower envelope of n lines, one per block count k, where
OPT_k is the minimum of f over k-block partitions.  The first call on an
oracle computes every OPT_k, values only, with a DP over subsets in integers
scaled by the lcm of the value denominators: about 3^(n-1) (subset, first
block) pairs instead of Bell(n) partitions.  That summary is cached per
oracle.  `pps` reads the principal sequence off the lower convex hull of the
points (k, OPT_k), rebuilding each vertex's optimal partition by a walk down
the stored rows that also tells whether it is unique, and the two-level test
off the points themselves.  `minimize_g` reads g(b) off it in O(n) exact
integer steps; only the checks of a given chain call it (`verify_pps`, and
`repair_chain` before it repairs a chain passed to it).
Neither optimum below reads the summary, so each stays an independent
reference for the optima the chain is built from: brute force scans the
k-block partitions itself, and `optimal_k_value` runs its own top-down
recursion over (mask, blocks left) with a memo that lives for one call.  A
bug in the summary's DP therefore cannot reappear in the optimum the chain
is compared against.  All of them read the oracle's value table, which
checks the enumeration cap on every call; `enumerate_partitions` checks it.
"""

from __future__ import annotations

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
    "brute_force_all_k",
    "brute_force_optimal_k_partition",
    "enumerate_partitions",
    "minimize_g",
    "optimal_k_value",
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
    enumeration cap.  Both checks run when called, before any iteration.
    """
    require_within_cap(n, "enumerate_partitions")
    if k is not None:
        require_block_count(k, n)
    return (Partition._trusted(n, masks) for masks in _raw_partitions(n, k))


class _BlockCountOptima:
    """Per-oracle optima by block count, from a DP over subsets.

    For a mask M and block count k, h_k(M) is the scaled minimum of f over
    k-block partitions of M.  Every partition of M has exactly one block S
    holding low(M), the lowest element of M, so
    h_k(M) = min over S with low(M) in S, S a subset of M, of
    tab[S] + h_{k-1}(M - S).  `_rows` holds the values h_1(M)..h_|M|(M),
    indexed by k - 1, for V and for every mask without element 0 (these
    include every remainder M - S of a partition of V, and the suffix sets
    {i..n-1}).  `values` is V's row.
    """

    def __init__(self, n: int, denominator: int, tab: tuple[int, ...]):
        self.n = n
        self.denominator = denominator
        self._tab = tab
        full = (1 << n) - 1
        rows: list[list[int] | None] = [None] * (full + 1)
        rows[0] = []
        for m in [*range(2, full, 2), full]:
            low = m & -m
            rest = m ^ low
            # S = M gives k = 1, and S = {low(M)} leaves all of M - low(M),
            # which covers every k >= 2; then every other nonempty remainder
            vals = [tab[m]] + [tab[low] + v for v in rows[rest]]
            r = (rest - 1) & rest
            while r:
                ts = tab[m ^ r]
                j = 1
                for v in rows[r]:
                    v += ts
                    if v < vals[j]:
                        vals[j] = v
                    j += 1
                r = (r - 1) & rest
            rows[m] = vals
        self._rows = rows
        self.values = tuple(rows[full])

    def first(self, k: int) -> Partition | None:
        """The k-block partition attaining OPT_k when it is the only one;
        None when several tie.

        Walks down from V: at (M, j) the block holding low(M) of every
        optimal j-block partition of M leaves a remainder r with
        tab[M - r] + h_{j-1}(r) == h_j(M), and every such r is the remainder
        of one.  So the optimum is unique exactly when each step finds one
        match; two matches at any step are a tie.  O(k 2^n) steps.
        """
        tab, rows = self._tab, self._rows
        # each block taken holds the lowest element left, so the blocks come
        # out in canonical order
        blocks = []
        m = (1 << self.n) - 1
        for j in range(k, 1, -1):
            target = rows[m][j - 1]
            rest = m & (m - 1)  # M - low(M)
            found = None
            r = rest
            while r:
                if r.bit_count() >= j - 1 and tab[m ^ r] + rows[r][j - 2] == target:
                    if found is not None:
                        return None
                    found = r
                r = (r - 1) & rest
            blocks.append(m ^ found)
            m = found
        blocks.append(m)
        return Partition._trusted(self.n, tuple(blocks))


_optima: "WeakKeyDictionary[ValueOracle, _BlockCountOptima]" = WeakKeyDictionary()


def _block_count_optima(oracle: ValueOracle) -> _BlockCountOptima:
    d, tab = oracle.scaled_table()  # on every call: the table checks the cap
    opt = _optima.get(oracle)
    if opt is None:
        opt = _BlockCountOptima(oracle.n, d, tab)
        _optima[oracle] = opt
    return opt


def minimize_g(oracle: ValueOracle, b) -> Fraction:
    """Minimize f(P) - b * |P| over all partitions of the ground set.

    Returns the exact minimum as a Fraction, with no minimizer and no count,
    read off the per-oracle block-count optima in O(n) integer steps.
    """
    b = as_fraction(b)
    p, q = b.numerator, b.denominator
    opt = _block_count_optima(oracle)
    dp = opt.denominator * p
    best = min(q * value - dp * k for k, value in enumerate(opt.values, 1))
    return Fraction(best, opt.denominator * q)


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
    """
    n = oracle.n
    require_block_count(k, n)
    d, tab = oracle.scaled_table()
    # memo[j][M] = best(M, j) once computed, one flat list per level j
    memo = [[None] * (1 << n) for _ in range(k + 1)]

    def best(m: int, j: int) -> int:
        if j == 1:
            return tab[m]
        level = memo[j]
        found = level[m]
        if found is None:
            rest = m & (m - 1)  # M - low(M)
            r = rest  # the remainder M - S, from S = {low(M)} on
            while r:
                if r.bit_count() >= j - 1:
                    value = tab[m ^ r] + best(r, j - 1)
                    if found is None or value < found:
                        found = value
                r = (r - 1) & rest
            level[m] = found
        return found

    return Fraction(best((1 << n) - 1, k), d)


def brute_force_all_k(oracle: ValueOracle) -> dict[int, tuple[Partition, Fraction]]:
    """Exact optimum for every k, by brute force at each block count."""
    return {k: brute_force_optimal_k_partition(oracle, k) for k in range(1, oracle.n + 1)}
