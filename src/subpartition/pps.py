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

Block counts |P_j| increase strictly along the chain.  Since
g(b) = min over k of OPT_k - b*k, with OPT_k the minimum of f over k-block
partitions, the chain's block counts are the strict vertices of the lower
convex hull of the points (k, OPT_k), and its breakpoints are the slopes of
the hull's edges (Narayanan 1991).  `compute_pps` finds them by a bracket
search with Narayanan's greedy (`partition_opt._dilworth_greedy`): at the
crossing b of two members' lines, the greedy either proves the pair
adjacent or returns the finest minimizer at b, a new member strictly
between them in block count, whatever the oracle, since g's tangent points
are ordered by block count.  It makes no minimize_g call.  Where an
adjacent pair splits several blocks at one tied breakpoint, it restores
step 2 by splitting them one at a time; `repair_chain` does the same on any
chain, after checking against minimize_g that each such pair attains g.

Every test of a member at a parameter b reads its line f(P) - b|P| in
integers through one helper, `partition_opt._line`, on the oracle's scaled
value table (`core.scaled_value`): the search's tests against the greedy's
x(V), the breakpoint formula (the two members' lines meet at b), the
certificate check, and the check, shared by `verify_pps` and
`repair_chain`, that a pair attains minimize_g's exact value.

Each breakpoint b of a computed chain comes with a certificate: the vector
x of the greedy call that proved its pair, with x(S) <= D q (f(S) - b) for
every nonempty S.  Summed over the blocks of any partition, that bounds
every line from below by x(V), so a pair whose two lines equal x(V) attains
g(b), for any f and any such x.  `_slacks` checks the bound on all 2^n sets
with its own subset-sum pass, sharing no code with the greedy.

`verify_pps` re-checks all five conditions from scratch in one walk over
the adjacent pairs, and each verdict is the absence of its own failure
lines.  A pair attains g at its breakpoint when the breakpoint's
certificate, if one is passed, proves it, and otherwise when it attains
minimize_g's value; the two tests agree on every input.  Condition 5 is
decided exactly from conditions 1 and 4, without further calls: g is
concave (a minimum of affine lines) and P_j's line never lies below it,
so a line that meets g at both ends of a closed segment meets it
everywhere between, and a line that misses g at an end is not optimal
there.  The unbounded end segments need |P_1| = 1 and |P_r| = n instead
of a far end, since no line is flatter (steeper) than the one-block
(all-singletons) one.  The argument uses no property of f, so it holds
for any oracle and nothing is left to sample.
`check_two_level_condition` reads its answer off one certificate at the
chord's slope as well, and asks `optimal_k_value` only where the greedy's
partition misses x(V), which no submodular oracle allows.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .core import (
    NonSubmodularError,
    Partition,
    ValueOracle,
    _Frozen,
    as_fraction,
    refined_part,
    refines,
    scaled_value,
    singleton_partition,
    trivial_partition,
)
from .partition_opt import _dilworth_greedy, _line, minimize_g, optimal_k_value

__all__ = [
    "PpsVerification",
    "PrincipalSequence",
    "check_two_level_condition",
    "compute_pps",
    "repair_chain",
    "verify_pps",
]


class PrincipalSequence(_Frozen):
    """A partition chain with its breakpoints.

    partitions[j] is optimal for g on [breakpoints[j-1], breakpoints[j]]
    (unbounded at the two ends).  Block counts increase strictly.  Both fields
    take any iterable and are stored as tuples, of `Partition`s (else TypeError)
    and of Fractions: ints and "p/q" strings are converted, floats raise TypeError.
    """

    __slots__ = ("partitions", "breakpoints")
    partitions: tuple[Partition, ...]
    breakpoints: tuple[Fraction, ...]

    def __init__(self, partitions: Iterable[Partition], breakpoints: Iterable):
        object.__setattr__(self, "partitions", tuple(partitions))
        if not all(isinstance(p, Partition) for p in self.partitions):
            raise TypeError("chain members must be Partition objects")
        object.__setattr__(self, "breakpoints", tuple(map(as_fraction, breakpoints)))
        if not self.partitions:
            raise ValueError("a principal sequence needs at least one partition")
        if len(self.breakpoints) != len(self.partitions) - 1:
            raise ValueError("need exactly one breakpoint between adjacent partitions")
        n = self.partitions[0].n
        if any(p.n != n for p in self.partitions):
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


def compute_pps(oracle: ValueOracle) -> PrincipalSequence:
    """Compute the principal sequence of a submodular oracle.

    A bracket search from {V} to the singletons on a stack, with one
    `_dilworth_greedy` call per bracket, at the b where the lines of its two
    members cross.  If the greedy's X equals their value there, both attain
    g(b) and the pair is adjacent, with breakpoint b.  Otherwise the
    greedy's partition R must attain X, which no submodular oracle fails (a
    failure raises NonSubmodularError naming b and the pair's block counts);
    R then has a block count strictly between the pair's, for any oracle
    (the proof is at the push), and splits the bracket, so the search makes
    2r - 3 calls for r members.  For submodular f, R is the finest
    minimizer at b, so the members are the strict vertices of the lower hull
    of the points (k, OPT_k) (Narayanan 1991).  Members that split several
    blocks are then split stepwise as in `repair_chain`, and a pair that is
    not nested raises NonSubmodularError.
    """
    return _certified_pps(oracle)[0]


def _certified_pps(oracle: ValueOracle) -> tuple[PrincipalSequence, tuple[tuple[int, ...], ...]]:
    """`compute_pps`, with the certificate of each breakpoint b: the x of
    the greedy call at b that proved the pair adjacent (`_slacks`)."""
    n = oracle.n
    d, tab = oracle.scaled_table()
    coarse = trivial_partition(n)
    if n == 1:
        return PrincipalSequence((coarse,), ()), ()
    coarse_total = tab[-1]
    chain = [coarse]
    breakpoints: list[Fraction] = []
    proofs: list[tuple[int, ...]] = []  # the x of each accepted pair
    singletons = singleton_partition(n)
    pending = [(singletons, scaled_value(tab, singletons))]  # members to reach, next on top
    while pending:
        fine, fine_total = pending[-1]
        b = Fraction(fine_total - coarse_total, d * (len(fine) - len(coarse)))
        x, r, proof = _dilworth_greedy(n, d, tab, b)
        if x == _line(coarse_total, len(coarse), d, b):
            chain.append(fine)
            breakpoints.append(b)
            proofs.append(proof)
            coarse, coarse_total = pending.pop()
            continue
        r_total = scaled_value(tab, r)
        if _line(r_total, len(r), d, b) != x:
            raise NonSubmodularError(
                f"at b={b}, bracketed by chain members with {len(coarse)} and {len(fine)} "
                "blocks, the greedy's partition does not attain x(V), which no submodular "
                "oracle allows"
            )
        # R attains X <= D q (f(P) - b|P|) for every P (`_dilworth_greedy`),
        # so it minimizes g at b, strictly below both members' lines.  Each
        # member minimizes g somewhere: {V} as b -> -inf, the singletons as
        # b -> +inf, a pushed R at its own b; the coarse one left of b and
        # the fine one right of it, where its line is the lower of the two.
        # Minimizers at b1 < b2 have |P1| <= |P2| (add the two optimality
        # inequalities), and equal counts would put R's line strictly below
        # the member's at the member's own b.  So |coarse| < |R| < |fine|.
        pending.append((r, r_total))
    sequence = _split_stepwise(PrincipalSequence(tuple(chain), tuple(breakpoints)))
    if len(sequence) > len(chain):
        # a member inserted at b attains x(V) as well (`repair_chain`), so
        # it shares b's certificate: the pair it ends is the one whose
        # block counts bracket its own
        counts = [len(p) for p in chain]
        proofs = [proofs[bisect_left(counts, len(p)) - 1] for p in sequence.partitions[1:]]
    return sequence, tuple(proofs)


def _split_stepwise(
    sequence: PrincipalSequence, oracle: ValueOracle | None = None
) -> PrincipalSequence:
    """Split, at the pair's breakpoint, the blocks that a pair's finer
    member splits one at a time in canonical order; a non-nested pair
    raises NonSubmodularError, and so, given an oracle, does a pair that
    splits several blocks and misses minimize_g's value."""
    n = sequence.n
    parts = [sequence.partitions[0]]
    bps: list[Fraction] = []
    for coarse, fine, b in zip(sequence.partitions, sequence.partitions[1:], sequence.breakpoints):
        if not refines(fine, coarse):
            pair = f"chain partitions with {len(coarse)} and {len(fine)} blocks at b={b}"
            raise NonSubmodularError(f"{pair} are not nested")
        fine_blocks = set(fine.blocks)
        split = [s for s in coarse.blocks if s not in fine_blocks]
        if oracle is not None and len(split) > 1 and not _pair_attains(oracle, b, (coarse, fine)):
            raise NonSubmodularError(f"chain pair does not attain the parametric minimum at b={b}")
        for s in split[:-1]:
            rest = [blk for blk in parts[-1].blocks if blk != s]
            parts.append(Partition(n, rest + [blk for blk in fine.blocks if blk & s]))
            bps.append(b)
        parts.append(fine)
        bps.append(b)
    return PrincipalSequence(tuple(parts), tuple(bps))


def _require_same_ground_set(oracle: ValueOracle, sequence: PrincipalSequence) -> None:
    if sequence.n != oracle.n:
        raise ValueError(f"the chain is on {sequence.n} elements, the oracle on {oracle.n}")


def _pair_attains(oracle: ValueOracle, b: Fraction, pair: tuple[Partition, ...]) -> bool:
    """Whether both members of a chain pair attain g(b), from one
    minimize_g call: each member's line must equal D q g(b), compared in
    integers times the denominator of g(b)."""
    best = minimize_g(oracle, b)
    d, tab = oracle.scaled_table()
    target = best.numerator * d * b.denominator
    return all(_line(scaled_value(tab, p), len(p), d, b) * best.denominator == target for p in pair)


def _slacks(d: int, tab: tuple[int, ...], b: Fraction, x: Sequence[int]) -> list[int]:
    """The slack q tab[S] - D p - x(S) of every set S at b = p/q, on the
    scaled value table (D, tab), with x(S) the sum of x_i over i in S,
    rebuilt by doubling: the sums over the subsets of {0..i-1}, then the
    same sums plus x_i.  Entry 0, the empty set's, has no meaning.  x
    certifies b when every other entry is >= 0."""
    sums = [d * b.numerator]  # D p + x(S)
    for xi in x:
        sums += [s + xi for s in sums]
    q = b.denominator
    return [q * t - s for t, s in zip(tab, sums)]


def _certifies(n: int, d: int, tab: tuple[int, ...], b: Fraction, x: Sequence[int], line: int) -> bool:
    """Whether x is a certificate at b (n integers, no slack below 0) whose
    x(V) equals `line`, which then attains g(b)."""
    return (
        len(x) == n
        and all(isinstance(xi, int) for xi in x)
        and sum(x) == line
        and min(_slacks(d, tab, b, x)[1:]) >= 0
    )


def repair_chain(oracle: ValueOracle, sequence: PrincipalSequence) -> PrincipalSequence:
    """Restore single-block refinement between adjacent chain partitions.

    Wherever P_{j+1} splits several blocks of P_j (possible only at tied
    breakpoints), insert between them Q1 = P_j with its first affected block
    split as in P_{j+1}, then repeat on (Q1, P_{j+1}).  Q1 attains g at the
    breakpoint b_j whenever the chain pair does, for any oracle: with
    Q2 = P_{j+1} with that block glued back, g(Q1) + g(Q2) =
    g(P_j) + g(P_{j+1}) = twice the minimum, and neither term lies below
    it.  Three lines that meet g at b_j all cross there, so every
    breakpoint replacing b_j equals b_j, which is why repaired chains have
    nondecreasing rather than strictly increasing breakpoints.  Only the
    input's own pairs are checked against minimize_g, in chain order; one
    that is not nested or misses the minimum raises NonSubmodularError.
    """
    _require_same_ground_set(oracle, sequence)
    return _split_stepwise(sequence, oracle)


class PpsVerification(NamedTuple):
    """Re-check of all chain conditions; `failures` lists every violation.

    Each `*_ok` field is True exactly when its condition added no line to
    `failures`, and `ok` when there are none.  `segments_optimal_ok` is
    `endpoints_ok and breakpoints_attained_ok`, which decides it exactly,
    so it adds no failure line of its own: the attainment or endpoint
    failure already names the point.  `samples_checked` counts the
    breakpoints checked for attainment, each by its certificate or by one
    minimize_g call.
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
    oracle: ValueOracle,
    sequence: PrincipalSequence,
    interior_samples: int = 3,
    *,
    certificates: Sequence[Sequence[int] | None] | None = None,
) -> PpsVerification:
    """Check a sequence from scratch.

    Verifies the chain endpoints, single-block refinement, nondecreasing
    breakpoints, the breakpoint formula, that both neighbors attain g at
    every breakpoint, and that each partition attains g throughout its
    segment.  One walk over the adjacent pairs collects the refinement,
    formula and attainment failures.  A pair attains g at its breakpoint b
    when `certificates`, one entry per breakpoint (an x as kept by
    `compute_pps`, or None), holds an x that certifies b and whose x(V)
    equals both members' lines; otherwise one minimize_g call at b decides,
    in chain order.  Both tests are exact, so the result does not depend on
    the certificates, only its cost.  A member is optimal on all of its
    closed segment exactly when it attains g at both finite ends, because g
    is concave and its line lies on or above g; an unbounded end needs
    |P| = 1 ({V}) on the left and |P| = n (the singletons) on the right
    instead.

    `interior_samples` is accepted and ignored (the exact rule above made
    sampling redundant); a negative value raises ValueError, and so do
    certificates of another length than the breakpoints and a chain on
    another ground set than the oracle's.
    """
    if interior_samples < 0:
        raise ValueError("interior_samples must be nonnegative")
    _require_same_ground_set(oracle, sequence)
    n = sequence.n
    parts = sequence.partitions
    bps = sequence.breakpoints
    if certificates is None:
        certificates = (None,) * len(bps)
    elif len(certificates) != len(bps):
        raise ValueError(f"need one certificate per breakpoint, {len(bps)}, not {len(certificates)}")
    d, tab = oracle.scaled_table()
    totals = [scaled_value(tab, part) for part in parts]  # D f(P_j)
    refinement: list[str] = []
    formula: list[str] = []
    attainment: list[str] = []
    for j, (coarse, fine, b, x) in enumerate(zip(parts, parts[1:], bps, certificates)):
        if not refines(fine, coarse):
            refinement.append(f"chain entry {j + 1} does not refine entry {j}")
        elif refined_part(coarse, fine) is None:
            refinement.append(f"chain entry {j + 1} splits more than one block of entry {j}")
        line = _line(totals[j], len(coarse), d, b)
        meet = line == _line(totals[j + 1], len(fine), d, b)
        if not meet:
            gap = Fraction(totals[j + 1] - totals[j], d * (len(fine) - len(coarse)))
            formula.append(f"breakpoint {j} is {b}, but the value/count differences give {gap}")
        certified = meet and x is not None and _certifies(n, d, tab, b, x, line)
        if not certified and not _pair_attains(oracle, b, (coarse, fine)):
            attainment.append(f"chain pair {j} does not attain the minimum at b={b}")
    endpoints: list[str] = []
    if parts[0] != trivial_partition(n) or parts[-1] != singleton_partition(n):
        endpoints.append("chain must start at {V} and end at singletons")
    nondecreasing: list[str] = []
    if any(b1 > b2 for b1, b2 in zip(bps, bps[1:])):
        nondecreasing.append("breakpoints are not nondecreasing")
    failures = endpoints + refinement + nondecreasing + formula + attainment
    return PpsVerification(
        ok=not failures,
        endpoints_ok=not endpoints,
        refinement_ok=not refinement,
        breakpoints_nondecreasing_ok=not nondecreasing,
        breakpoints_attained_ok=not attainment,
        # each finite segment end is a breakpoint, which attainment covers;
        # the open ends are attained exactly by {V} on the left (its line,
        # slope -1, rises the slowest) and the singletons on the right
        # (slope -n), which endpoints covers
        segments_optimal_ok=not endpoints and not attainment,
        formula_ok=not formula,
        samples_checked=len(bps),
        failures=tuple(failures),
    )


def check_two_level_condition(oracle: ValueOracle) -> bool:
    """Test the sufficient condition for a two-level principal sequence.

    True when every partition P other than {V} and the singletons Q satisfies
    (f(P) - f(V)) / (|P| - 1) > b* = (f(Q) - f(V)) / (n - 1).  When this
    holds, the principal sequence is exactly ({V}, Q) with the single
    breakpoint b*.  Equivalently, every such P's line f(P) - b*|P| lies
    strictly above the chord, the common line of {V} and Q at b*.

    Decided, for any f, from one `_dilworth_greedy` call at b* (its x(V) lies
    on or below every line) and the slacks of its x (`_slacks`):

    * if its partition R attains an x(V) below the chord, R is a P strictly
      below it: False;
    * if x(V) is the chord and no slack is below 0, no P lies below the
      chord, and P lies on it exactly when all its blocks have slack 0.
      The singletons' slacks sum to 0, so each is 0, and S plus the
      singletons of V - S is such a P for any S of slack 0: True exactly
      when no S with 2 <= |S| <= n - 1 has slack 0;
    * otherwise, which no submodular f reaches, every point (k, OPT_k),
      1 < k < n, is tested against the chord, with OPT_k from
      `optimal_k_value`.

    n <= 2 leaves no P to test: True.
    """
    n = oracle.n
    d, tab = oracle.scaled_table()
    if n <= 2:
        return True
    top = tab[-1]
    b = Fraction(sum(tab[1 << i] for i in range(n)) - top, d * (n - 1))
    total, r, x = _dilworth_greedy(n, d, tab, b)
    chord = _line(top, 1, d, b)
    if total < chord and _line(scaled_value(tab, r), len(r), d, b) == total:
        return False
    if total == chord:
        slacks = _slacks(d, tab, b, x)
        if min(slacks[1:]) >= 0:
            return not any(s == 0 and 1 < m.bit_count() < n for m, s in enumerate(slacks))
    return all(optimal_k_value(oracle, k) - Fraction(top, d) > b * (k - 1) for k in range(2, n))
