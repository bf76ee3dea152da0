"""Submodular k-partition from the principal sequence, with baselines.

The main entry point `pps_k_partition` minimizes sum_i f(V_i) over
partitions into exactly k blocks, approximately, by reading the principal
sequence of f:

* if some chain member has exactly k blocks, return it (this is provably an
  optimal k-partition; `ratio_report` re-checks it against the exact optimum);
* otherwise two neighbors straddle k.  The finer one splits a single block S
  of the coarser one into smaller pieces; keep the cheapest of those pieces
  as their own blocks, as many as needed to reach k, and merge the rest back
  into one block.

Approximation guarantees depend on the declared function class:
4/3 - 4/(9n+3) for monotone, 2 - 2/n for symmetric (1 at n = 1),
2 - 2/(n+1) for posimodular, none for general submodular.
`algorithm_guarantee` and `ratio_to_optimum` measure any algorithm against
a known optimum and its bound (`ratio_report` does so for a chain run,
against `optimal_k_value`); `check_chain_lower_bounds` backs the guarantees.

Baselines: `cheapest_singleton` (split off the k-1 cheapest singletons,
within 2 - 1/k of optimal for monotone f) and `greedy_splitting` (k-1
rounds of the cheapest single-block 2-split).

Everything here except `cheapest_singleton` and `greedy_splitting` at k = 1
reads the oracle's scaled value table: it orders pieces and scores
partitions and bounds in integers (`core.scaled_value`), and builds a
Fraction only for a value it reports.  The two exceptions ask a fresh
oracle's `eval` for only the subsets they name (n + 1 and 1) and build no
table; `cheapest_singleton` has one reader for ordering and scoring, which
is the table when the oracle already holds it.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import NamedTuple

from .core import (
    Partition,
    ValueOracle,
    as_fraction,
    refined_part,
    require_block_count,
    scaled_value,
    trivial_partition,
)
from .partition_opt import optimal_k_value
from .pps import PrincipalSequence, _require_same_ground_set, compute_pps

__all__ = [
    "BaselineResult",
    "ChainBoundsReport",
    "KPartitionRun",
    "RatioReport",
    "algorithm_guarantee",
    "approximation_bound",
    "cheapest_singleton",
    "check_chain_lower_bounds",
    "greedy_splitting",
    "pps_k_partition",
    "ratio_report",
    "ratio_to_optimum",
]


class KPartitionRun(NamedTuple):
    """One run of the sequence-based k-partition algorithm, with diagnostics.

    On an exact hit, `partition` is the chain member with k blocks and the
    straddle fields are None.  Otherwise `below`/`above` are the chain
    neighbors with fewer/more than k blocks, `split_block` is the block of
    `below` that `above` refines, `piece_order` lists the pieces sorted by
    ascending value (ties by minimum element), and the first `num_taken` of
    them became blocks while the remaining `gap_above + 1` were merged.
    """

    k: int
    partition: Partition
    value: Fraction
    exact_hit: bool
    sequence: PrincipalSequence
    below: Partition | None = None
    above: Partition | None = None
    split_block: int | None = None
    piece_order: tuple[int, ...] | None = None
    num_taken: int | None = None
    gap_above: int | None = None


def _straddle(pps: PrincipalSequence, k: int) -> tuple[Partition, Partition]:
    """The adjacent chain members with fewer and more than k blocks, for a k
    that is not a block count of the chain; ValueError when no member has
    fewer or none has more."""
    counts = pps.block_counts()
    above_index = bisect.bisect_right(counts, k)  # counts increase strictly
    if not 0 < above_index < len(counts):
        raise ValueError(f"chain block counts {counts} do not bracket k={k}")
    return pps.partitions[above_index - 1], pps.partitions[above_index]


def pps_k_partition(
    oracle: ValueOracle, k: int, pps: PrincipalSequence | None = None
) -> KPartitionRun:
    """Approximate minimum k-partition read off the principal sequence.

    Pass a precomputed sequence to amortize it across several k values; a
    sequence on another ground set, or one whose block counts do not
    bracket k, raises ValueError.  Pieces are ordered and the result scored
    on the oracle's value table, so the run reads the table (and checks the
    enumeration cap) even with a sequence passed in.
    """
    n = oracle.n
    require_block_count(k, n)
    if pps is None:
        pps = compute_pps(oracle)
    _require_same_ground_set(oracle, pps)
    d, tab = oracle.scaled_table()
    counts = pps.block_counts()

    if k in counts:
        partition = pps.partitions[counts.index(k)]
        return KPartitionRun(
            k=k,
            partition=partition,
            value=Fraction(scaled_value(tab, partition), d),
            exact_hit=True,
            sequence=pps,
        )

    below, above = _straddle(pps, k)
    split = refined_part(below, above)
    if split is None:
        raise ValueError("chain violates single-block refinement; repair it first")
    pieces = sorted(
        (blk for blk in above.blocks if blk & split),
        key=lambda blk: (tab[blk], blk & -blk),
    )
    num_taken = k - len(below)
    merged = 0
    for blk in pieces[num_taken:]:
        merged |= blk
    blocks = [blk for blk in below.blocks if blk != split]
    blocks.extend(pieces[:num_taken])
    blocks.append(merged)
    partition = Partition(n, blocks)
    return KPartitionRun(
        k=k,
        partition=partition,
        value=Fraction(scaled_value(tab, partition), d),
        exact_hit=False,
        sequence=pps,
        below=below,
        above=above,
        split_block=split,
        piece_order=tuple(pieces),
        num_taken=num_taken,
        gap_above=len(above) - k,
    )


class BaselineResult(NamedTuple):
    algorithm: str
    partition: Partition
    value: Fraction


def cheapest_singleton(oracle: ValueOracle, k: int) -> BaselineResult:
    """Split off the k-1 cheapest singletons, keep the rest as one block.

    Ties are broken by element index.  For monotone f this is within a
    factor 2 - 1/k of the optimal k-partition.  One reader orders and
    scores: the value table, with no `eval` call, when the oracle holds
    it, else `eval`, which a fresh oracle answers for the n singletons and
    the rest of V only.
    """
    n = oracle.n
    require_block_count(k, n)
    held = oracle._scaled  # (D, table), if some earlier call built it
    d, read = (held[0], held[1].__getitem__) if held else (1, oracle.eval)
    order = sorted(range(n), key=lambda i: (read(1 << i), i))
    blocks = [1 << i for i in order[: k - 1]]
    blocks.append(oracle.ground_set.full_mask - sum(blocks))
    blocks.sort(key=lambda m: m & -m)
    partition = Partition._trusted(n, tuple(blocks))
    return BaselineResult("singleton", partition, Fraction(sum(map(read, blocks)), d))


def greedy_splitting(oracle: ValueOracle, k: int) -> BaselineResult:
    """k-1 rounds of the globally cheapest single-block 2-split.

    Each round scans blocks in canonical order and, within a block, the
    candidate halves containing the block's minimum element in ascending
    mask order; the first split minimizing f(X) + f(A-X) - f(A) wins.
    Costs are compared, and the result scored, on the scaled value table
    (D > 0 keeps their order and ties), so k >= 2 reads the whole table;
    k = 1 reads only f(V), through `eval`.
    """
    n = oracle.n
    require_block_count(k, n)
    full = oracle.ground_set.full_mask
    if k == 1:
        return BaselineResult("greedy", trivial_partition(n), oracle.eval(full))
    blocks = [full]
    d, tab = oracle.scaled_table()
    for _ in range(k - 1):
        best = None  # (scaled cost, block_index, half with the low bit)
        for bi, blk in enumerate(blocks):
            low = blk & -blk
            rest = blk ^ low
            f_blk = tab[blk]
            t = 0
            while t != rest:  # proper submasks of rest, ascending; none for a singleton
                cost = tab[low | t] + tab[rest ^ t] - f_blk
                if best is None or cost < best[0]:
                    best = (cost, bi, low | t)
                t = (t - rest) & rest
        # k <= n leaves fewer than n blocks here, so some block can split
        _, bi, sub = best
        blk = blocks.pop(bi)
        blocks.extend([sub, blk ^ sub])
        blocks.sort(key=lambda m: m & -m)
    partition = Partition(n, blocks)
    return BaselineResult("greedy", partition, Fraction(scaled_value(tab, partition), d))


def approximation_bound(function_class: str, n: int) -> Fraction | None:
    """Class-specific guarantee for the sequence-based algorithm, or None."""
    if function_class == "monotone":
        return Fraction(4, 3) - Fraction(4, 9 * n + 3)
    if function_class == "symmetric":
        # at n = 1 only k = 1 exists, where every algorithm is exact
        return 2 - Fraction(2, n) if n > 1 else Fraction(1)
    if function_class == "posimodular":
        return 2 - Fraction(2, n + 1)
    if function_class == "general":
        return None
    raise ValueError(f"unknown function class {function_class!r}")


def algorithm_guarantee(algorithm: str, function_class: str, n: int, k: int) -> Fraction | None:
    """Proved approximation guarantee of "pps", "greedy" or "singleton" on a
    function class, or None when there is none; an unknown function class
    raises ValueError whatever the algorithm."""
    bound = approximation_bound(function_class, n)
    if algorithm == "pps":
        return bound
    if algorithm == "singleton" and function_class == "monotone":
        return 2 - Fraction(1, k)
    return None


def ratio_to_optimum(
    value: Fraction, optimum: Fraction, bound: Fraction | None
) -> tuple[Fraction | None, bool]:
    """(ratio, bound_ok) of a value against the exact optimum.  The ratio is 1
    at the optimum, value/optimum above a positive optimum, and None
    (unbounded, over any bound) above a nonpositive one."""
    value, optimum = as_fraction(value), as_fraction(optimum)
    bound = None if bound is None else as_fraction(bound)
    if value == optimum:
        ratio: Fraction | None = Fraction(1)
    elif optimum > 0:
        ratio = value / optimum
    else:
        ratio = None
    return ratio, bound is None or (ratio is not None and ratio <= bound)


class ChainBoundsReport(NamedTuple):
    """The two chain lower bounds on the optimal k-partition value.

    Applicable on straddled (non-exact-hit) runs: with L = |below|, U =
    |above|, the optimum is at least the interpolation
    ((U - k) f(below) + (k - L) f(above)) / (U - L) and at least f(below).
    Both come from the oracle's value table.
    """

    applicable: bool
    interpolated_bound: Fraction | None = None
    coarse_bound: Fraction | None = None
    interpolated_ok: bool | None = None
    coarse_ok: bool | None = None


def check_chain_lower_bounds(
    oracle: ValueOracle,
    k: int,
    pps: PrincipalSequence,
    optimal_value: Fraction,
) -> ChainBoundsReport:
    """Evaluate both chain lower bounds against a known optimal value; a
    chain whose block counts do not bracket k raises ValueError."""
    require_block_count(k, oracle.n)
    _require_same_ground_set(oracle, pps)
    optimal_value = as_fraction(optimal_value)
    if k in pps.block_counts():
        return ChainBoundsReport(applicable=False)
    below, above = _straddle(pps, k)
    low, up = len(below), len(above)
    d, tab = oracle.scaled_table()
    s_below = scaled_value(tab, below)
    s_above = scaled_value(tab, above)
    interpolated = Fraction((up - k) * s_below + (k - low) * s_above, d * (up - low))
    f_below = Fraction(s_below, d)
    return ChainBoundsReport(
        applicable=True,
        interpolated_bound=interpolated,
        coarse_bound=f_below,
        interpolated_ok=optimal_value >= interpolated,
        coarse_ok=optimal_value >= f_below,
    )


class RatioReport(NamedTuple):
    """Run value vs `optimal_k_value` vs class bound, all exact.

    `ratio`, `bound_ok` and, on straddled runs, `chain_coarse_ratio` =
    f(below)/optimum (the quantity the class analyses bound away from the
    worst case) follow `ratio_to_optimum`: None is an unbounded ratio.
    """

    n: int
    k: int
    function_class: str
    algorithm_value: Fraction
    optimal_value: Fraction
    ratio: Fraction | None
    bound: Fraction | None
    bound_ok: bool
    exact_hit: bool
    chain_coarse_ratio: Fraction | None
    run: KPartitionRun


def ratio_report(
    oracle: ValueOracle,
    k: int,
    function_class: str = "general",
    pps: PrincipalSequence | None = None,
) -> RatioReport:
    """Run the algorithm; compare its value with `optimal_k_value` and the bound."""
    run = pps_k_partition(oracle, k, pps=pps)
    opt_value = optimal_k_value(oracle, k)
    bound = algorithm_guarantee("pps", function_class, oracle.n, k)
    ratio, bound_ok = ratio_to_optimum(run.value, opt_value, bound)
    coarse_ratio = None
    if not run.exact_hit:
        d, tab = oracle.scaled_table()
        f_below = Fraction(scaled_value(tab, run.below), d)
        coarse_ratio, _ = ratio_to_optimum(f_below, opt_value, None)
    return RatioReport(
        n=oracle.n,
        k=k,
        function_class=function_class,
        algorithm_value=run.value,
        optimal_value=opt_value,
        ratio=ratio,
        bound=bound,
        bound_ok=bound_ok,
        exact_hit=run.exact_hit,
        chain_coarse_ratio=coarse_ratio,
        run=run,
    )
