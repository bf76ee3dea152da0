"""Principal partition sequences: computation, repair, verification.

For a submodular oracle f on n elements, define g(b) = min over partitions P
of f(P) - b|P|.  As b grows, minimizers move from the one-block partition to
the all-singletons partition through a nested chain.  The principal sequence
of f is a chain P_1, ..., P_r with breakpoints b_1 <= ... <= b_{r-1} such that

  1. P_1 = {V} and P_r is the all-singletons partition,
  2. each P_{j+1} refines P_j by splitting exactly one of its blocks,
  3. the breakpoints are nondecreasing (strictly increasing whenever no
     tie-splitting in step 2 was needed),
  4. at b_j both P_j and P_{j+1} attain g(b_j),
  5. P_j attains g(b) throughout its segment [b_{j-1}, b_j].

Block counts |P_j| increase strictly along the chain.  `compute_pps` builds
the chain by exact parametric search on (coarse, fine) bracket pairs: at the
crossing value b* where the two brackets tie, either the global minimum
equals their common value (record the pair) or the finest minimizer at b*
sits strictly between them (recurse on both sides).  At most 2n-1
minimize_g calls are needed.  `repair_chain` then restores the single-block
refinement of step 2 wherever a recorded pair splits several blocks at one
tied breakpoint, by inserting the intermediate partition that splits only
the first affected block.

`verify_pps` re-checks all five conditions from scratch against minimize_g.
Condition 5 follows from condition 4 without further calls: g is concave
(a minimum of affine lines) and P_j's line never lies below it, so a line
that meets g at both ends of a segment meets it everywhere between.  The
unbounded end segments need |P_1| = 1 and |P_r| = n instead of a far end,
since no line is flatter (steeper) than the one-block (all-singletons) one.
Only a segment this argument does not cover is sampled with minimize_g: at
its midpoint, beyond its ends, and at a requested number of interior points.
The argument uses no property of f, so it holds for any oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    NonSubmodularError,
    Partition,
    ValueOracle,
    g_value,
    partition_value,
    refined_part,
    refines,
    require_within_cap,
    singleton_partition,
    trivial_partition,
)
from .partition_opt import minimize_g

__all__ = [
    "PpsVerification",
    "PrincipalSequence",
    "check_two_level_condition",
    "compute_pps",
    "repair_chain",
    "verify_pps",
]


@dataclass(frozen=True)
class PrincipalSequence:
    """A partition chain with its breakpoints.

    partitions[j] is optimal for g on [breakpoints[j-1], breakpoints[j]]
    (unbounded at the two ends).  Block counts increase strictly.
    """

    partitions: tuple[Partition, ...]
    breakpoints: tuple[Fraction, ...]
    minimize_calls: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not self.partitions:
            raise ValueError("a principal sequence needs at least one partition")
        if len(self.breakpoints) != len(self.partitions) - 1:
            raise ValueError("need exactly one breakpoint between adjacent partitions")
        n = self.partitions[0].n
        for p in self.partitions:
            if p.n != n:
                raise ValueError("chain partitions live on different ground sets")
        counts = [len(p) for p in self.partitions]
        if any(c2 <= c1 for c1, c2 in zip(counts, counts[1:])):
            raise ValueError("chain block counts must increase strictly")

    @property
    def n(self) -> int:
        return self.partitions[0].n

    def __len__(self) -> int:
        return len(self.partitions)

    def block_counts(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.partitions)


def _crossing(oracle: ValueOracle, coarse: Partition, fine: Partition) -> Fraction:
    """Parameter where the two partitions' affine g-lines tie."""
    return (partition_value(oracle, fine) - partition_value(oracle, coarse)) / (
        len(fine) - len(coarse)
    )


def compute_pps(oracle: ValueOracle) -> PrincipalSequence:
    """Compute the principal sequence of a submodular oracle.

    Exact parametric search with at most 2n-1 minimize_g calls, followed by
    the chain repair that restores one-block-at-a-time refinement.  Raises
    NonSubmodularError when the minimizer structure is inconsistent with a
    submodular oracle.
    """
    n = oracle.n
    require_within_cap(n, "compute_pps")
    if n == 1:
        return PrincipalSequence((trivial_partition(1),), (), 0)

    chain = [trivial_partition(n)]
    breakpoints: list[Fraction] = []
    calls = 0

    def rec(coarse: Partition, fine: Partition) -> None:
        nonlocal calls
        b = _crossing(oracle, coarse, fine)
        result = minimize_g(oracle, b)
        calls += 1
        if result.value == g_value(oracle, coarse, b):
            breakpoints.append(b)
            chain.append(fine)
            return
        mid = result.finest
        if not len(coarse) < len(mid) < len(fine):
            raise NonSubmodularError(
                f"minimizer with {len(mid)} blocks at b={b} does not lie strictly "
                f"between brackets of {len(coarse)} and {len(fine)} blocks"
            )
        if not (refines(mid, coarse) and refines(fine, mid)):
            raise NonSubmodularError(
                f"minimizer at b={b} is not nested between the bracket partitions"
            )
        rec(coarse, mid)
        rec(mid, fine)

    rec(trivial_partition(n), singleton_partition(n))
    if calls > 2 * n - 1:
        raise NonSubmodularError(
            f"parametric search made {calls} minimize_g calls, over its budget of "
            f"{2 * n - 1}"
        )
    raw = PrincipalSequence(tuple(chain), tuple(breakpoints), calls)
    return repair_chain(oracle, raw)


def repair_chain(oracle: ValueOracle, sequence: PrincipalSequence) -> PrincipalSequence:
    """Restore single-block refinement between adjacent chain partitions.

    Wherever P_{j+1} splits several blocks of P_j (possible only at tied
    breakpoints), insert between them the partition that splits exactly the
    first affected block of P_j: either Q1 = P_j with that block split as in
    P_{j+1}, or Q2 = P_{j+1} with that block glued back.  Both always attain
    g at the breakpoint when the chain pair does (their g-values sum to twice
    the minimum), and Q1 is preferred.  The two breakpoints replacing b_j
    both equal b_j, which is why repaired chains have nondecreasing rather
    than strictly increasing breakpoints.
    """
    parts = list(sequence.partitions)
    bps = list(sequence.breakpoints)
    calls = sequence.minimize_calls
    n = sequence.n
    j = 0
    while j < len(parts) - 1:
        coarse, fine = parts[j], parts[j + 1]
        if not refines(fine, coarse):
            raise NonSubmodularError("chain partitions are not nested")
        if refined_part(coarse, fine) is not None:
            j += 1
            continue
        b = bps[j]
        result = minimize_g(oracle, b)
        calls += 1
        g_coarse = g_value(oracle, coarse, b)
        g_fine = g_value(oracle, fine, b)
        if g_coarse != result.value or g_fine != result.value:
            raise NonSubmodularError(
                f"chain pair does not attain the parametric minimum at b={b}"
            )
        fine_blocks = set(fine.blocks)
        split = [s for s in coarse.blocks if s not in fine_blocks]
        s = split[0]  # first refined block in canonical order
        inner = tuple(blk for blk in fine.blocks if blk & s)
        q1 = Partition(n, [blk for blk in coarse.blocks if blk != s] + list(inner))
        q2 = Partition(n, [blk for blk in fine.blocks if not blk & s] + [s])
        if g_value(oracle, q1, b) == result.value:
            mid = q1
        elif g_value(oracle, q2, b) == result.value:
            mid = q2
        else:
            raise NonSubmodularError(
                f"no single-block refinement attains the minimum at b={b}"
            )
        b_low = _crossing(oracle, coarse, mid)
        b_high = _crossing(oracle, mid, fine)
        if not b_low == b == b_high:
            raise NonSubmodularError(
                f"repair moved breakpoint {b} to {b_low} and {b_high}"
            )
        parts.insert(j + 1, mid)
        bps[j : j + 1] = [b_low, b_high]
        # re-examine the pair (coarse, mid); it is single-block by now, but
        # (mid, fine) may still split several blocks
    return PrincipalSequence(tuple(parts), tuple(bps), calls)


@dataclass(frozen=True)
class PpsVerification:
    """Re-check of all chain conditions; `failures` lists every violation.

    `segments_optimal_ok` is derived: a segment counts as optimal when
    attainment at its ends proves it, or else when every fallback sample
    passes.  `samples_checked` counts the minimize_g calls made.
    """

    ok: bool
    endpoints_ok: bool
    refinement_ok: bool
    breakpoints_nondecreasing_ok: bool
    breakpoints_attained_ok: bool
    segments_optimal_ok: bool
    formula_ok: bool
    samples_checked: int
    failures: tuple[str, ...]


def verify_pps(
    oracle: ValueOracle, sequence: PrincipalSequence, interior_samples: int = 3
) -> PpsVerification:
    """Check a sequence against minimize_g from scratch.

    Verifies the chain endpoints, single-block refinement, nondecreasing
    breakpoints, the breakpoint formula, that both neighbors attain g at
    every breakpoint, and that each partition attains g throughout its
    segment.  One minimize_g call per breakpoint records, for every chain
    member, whether it attains g at its left and at its right breakpoint.
    A member that attains g at both finite ends of its segment is optimal on
    all of it, because g is concave and the member's line lies on or above
    g; an unbounded end needs |P| = 1 on the left and |P| = n on the right
    instead.  Only segments this does not prove are sampled with minimize_g:
    at the midpoint, one unit beyond a missing end, and `interior_samples`
    evenly spaced interior points.  A correct chain thus costs exactly one
    call per breakpoint.
    """
    if interior_samples < 0:
        raise ValueError("interior_samples must be nonnegative")
    n = sequence.n
    parts = sequence.partitions
    bps = sequence.breakpoints
    r = len(parts)
    failures: list[str] = []

    endpoints_ok = parts[0] == trivial_partition(n) and parts[-1] == singleton_partition(n)
    if not endpoints_ok:
        failures.append("chain must start at {V} and end at singletons")

    refinement_ok = True
    for j in range(r - 1):
        if not refines(parts[j + 1], parts[j]):
            refinement_ok = False
            failures.append(f"chain entry {j + 1} does not refine entry {j}")
        elif refined_part(parts[j], parts[j + 1]) is None:
            refinement_ok = False
            failures.append(f"chain entry {j + 1} splits more than one block of entry {j}")

    nondecreasing_ok = all(b1 <= b2 for b1, b2 in zip(bps, bps[1:]))
    if not nondecreasing_ok:
        failures.append("breakpoints are not nondecreasing")

    formula_ok = True
    for j in range(r - 1):
        expected = _crossing(oracle, parts[j], parts[j + 1])
        if bps[j] != expected:
            formula_ok = False
            failures.append(
                f"breakpoint {j} is {bps[j]}, but the value/count differences give {expected}"
            )

    # the open ends: left of its breakpoint {V}'s line (slope -1) rises the
    # slowest of all lines, right of it the singletons' (slope -n) falls the
    # fastest, so each counts as attained at its open end
    attains_left = [len(parts[0]) == 1] + [False] * (r - 1)
    attains_right = [False] * (r - 1) + [len(parts[-1]) == n]
    samples = 0
    attained_ok = True
    for j, b in enumerate(bps):
        result = minimize_g(oracle, b)
        samples += 1
        attains_right[j] = g_value(oracle, parts[j], b) == result.value
        attains_left[j + 1] = g_value(oracle, parts[j + 1], b) == result.value
        if not (attains_right[j] and attains_left[j + 1]):
            attained_ok = False
            failures.append(f"chain pair {j} does not attain the minimum at b={b}")

    segments_ok = True
    for j in range(r):
        if attains_left[j] and attains_right[j]:
            continue
        lo = bps[j - 1] if j > 0 else None
        hi = bps[j] if j < r - 1 else None
        points: set[Fraction] = set()
        if lo is None and hi is None:
            points.update(Fraction(t) for t in range(-1, interior_samples + 1))
        elif lo is None:
            points.update(hi - 1 - t for t in range(interior_samples + 1))
        elif hi is None:
            points.update(lo + 1 + t for t in range(interior_samples + 1))
        elif lo < hi:
            span = hi - lo
            points.add(lo + span / 2)
            points.update(
                lo + span * Fraction(i, interior_samples + 1)
                for i in range(1, interior_samples + 1)
            )
        # lo == hi: degenerate segment, fully covered by the breakpoint check
        for point in sorted(points):
            result = minimize_g(oracle, point)
            samples += 1
            if g_value(oracle, parts[j], point) != result.value:
                segments_ok = False
                failures.append(
                    f"chain entry {j} is not optimal at b={point} inside its segment"
                )

    return PpsVerification(
        ok=not failures,
        endpoints_ok=endpoints_ok,
        refinement_ok=refinement_ok,
        breakpoints_nondecreasing_ok=nondecreasing_ok,
        breakpoints_attained_ok=attained_ok,
        segments_optimal_ok=segments_ok,
        formula_ok=formula_ok,
        samples_checked=samples,
        failures=tuple(failures),
    )


def check_two_level_condition(oracle: ValueOracle) -> bool:
    """Test the sufficient condition for a two-level principal sequence.

    True when every partition P other than {V} and the singletons Q satisfies
    (f(P) - f(V)) / (|P| - 1) > b* = (f(Q) - f(V)) / (n - 1).  When this
    holds, the principal sequence is exactly ({V}, Q) with the single
    breakpoint b*.  The condition reads f(P) - b*|P| > f(V) - b*, and both
    {V} and Q attain f(V) - b* at b*, so it holds exactly when that is the
    minimum of g(b*) and they are its only two minimizers.
    """
    n = oracle.n
    require_within_cap(n, "check_two_level_condition")
    if n == 1:
        return True
    f_trivial = oracle.eval(oracle.ground_set.full_mask)
    f_singletons = sum(oracle.eval(1 << i) for i in range(n))
    b = (f_singletons - f_trivial) / (n - 1)
    result = minimize_g(oracle, b)
    return result.value == f_trivial - b and result.num_minimizers == 2
