"""Integer scoring against a Fraction copy of the code it replaced.

Once an oracle's value table is built, `verify_pps`, `repair_chain`, the
chain k-partition, its bounds and reports, and greedy's value score
partitions as sums of scaled table entries.  The references below are
the Fraction versions of those functions, scoring through `partition_value`
and `g_value` on an oracle that calls the family's `value` itself, so the
comparison also pins the table to `value`.
"""

import random
from fractions import Fraction

import pytest

import subpartition as sp
from subpartition.pps import _split_stepwise

from helpers import (
    cardinality,
    footnote_matroid,
    fraction_oracle,
    g_value,
    mono3,
    mono_n,
    omega,
    partition_value,
    partitions,
    posi3,
    two_edges,
    two_triangles,
    weighted_path4,
)


# ---------------------------------------------------------------------------
# the Fraction references


def _fraction_verify(oracle, sequence):
    n = sequence.n
    parts = sequence.partitions
    bps = sequence.breakpoints
    r = len(parts)
    failures = []
    endpoints_ok = parts[0] == sp.trivial_partition(n) and parts[-1] == sp.singleton_partition(n)
    if not endpoints_ok:
        failures.append("chain must start at {V} and end at singletons")
    refinement_ok = True
    for j in range(r - 1):
        if not sp.refines(parts[j + 1], parts[j]):
            refinement_ok = False
            failures.append(f"chain entry {j + 1} does not refine entry {j}")
        elif sp.refined_part(parts[j], parts[j + 1]) is None:
            refinement_ok = False
            failures.append(f"chain entry {j + 1} splits more than one block of entry {j}")
    nondecreasing_ok = all(b1 <= b2 for b1, b2 in zip(bps, bps[1:]))
    if not nondecreasing_ok:
        failures.append("breakpoints are not nondecreasing")
    formula_ok = True
    for j, (coarse, fine) in enumerate(zip(parts, parts[1:])):
        value_gap = partition_value(oracle, fine) - partition_value(oracle, coarse)
        expected = value_gap / (len(fine) - len(coarse))
        if bps[j] != expected:
            formula_ok = False
            failures.append(
                f"breakpoint {j} is {bps[j]}, but the value/count differences give {expected}"
            )
    attains_left = [len(parts[0]) == 1] + [False] * (r - 1)
    attains_right = [False] * (r - 1) + [len(parts[-1]) == n]
    attained_ok = True
    for j, b in enumerate(bps):
        best = sp.minimize_g(oracle, b)
        attains_right[j] = g_value(oracle, parts[j], b) == best
        attains_left[j + 1] = g_value(oracle, parts[j + 1], b) == best
        if not (attains_right[j] and attains_left[j + 1]):
            attained_ok = False
            failures.append(f"chain pair {j} does not attain the minimum at b={b}")
    return sp.PpsVerification(
        ok=not failures,
        endpoints_ok=endpoints_ok,
        refinement_ok=refinement_ok,
        breakpoints_nondecreasing_ok=nondecreasing_ok,
        breakpoints_attained_ok=attained_ok,
        segments_optimal_ok=all(a and b for a, b in zip(attains_left, attains_right)),
        formula_ok=formula_ok,
        samples_checked=len(bps),
        failures=tuple(failures),
    )


def _fraction_repair(oracle, sequence):
    for coarse, fine, b in zip(sequence.partitions, sequence.partitions[1:], sequence.breakpoints):
        if not sp.refines(fine, coarse):
            break
        if sp.refined_part(coarse, fine) is None:
            best = sp.minimize_g(oracle, b)
            if g_value(oracle, coarse, b) != best or g_value(oracle, fine, b) != best:
                raise sp.NonSubmodularError(
                    f"chain pair does not attain the parametric minimum at b={b}"
                )
    return _split_stepwise(sequence)


def _fraction_straddle(pps, k):
    above_index = next(i for i, c in enumerate(pps.block_counts()) if c > k)
    return pps.partitions[above_index - 1], pps.partitions[above_index]


def _fraction_k_partition(oracle, k, pps):
    counts = pps.block_counts()
    if k in counts:
        partition = pps.partitions[counts.index(k)]
        value = partition_value(oracle, partition)
        return sp.KPartitionRun(k, partition, value, True, pps)
    below, above = _fraction_straddle(pps, k)
    split = sp.refined_part(below, above)
    if split is None:
        raise ValueError("chain violates single-block refinement; repair it first")
    pieces = sorted(
        (blk for blk in above.blocks if blk & split),
        key=lambda blk: (oracle.eval(blk), blk & -blk),
    )
    num_taken = k - len(below)
    merged = 0
    for blk in pieces[num_taken:]:
        merged |= blk
    blocks = [blk for blk in below.blocks if blk != split]
    blocks.extend(pieces[:num_taken])
    blocks.append(merged)
    partition = sp.Partition(oracle.n, blocks)
    return sp.KPartitionRun(
        k=k,
        partition=partition,
        value=partition_value(oracle, partition),
        exact_hit=False,
        sequence=pps,
        below=below,
        above=above,
        split_block=split,
        piece_order=tuple(pieces),
        num_taken=num_taken,
        gap_above=len(above) - k,
    )


def _fraction_bounds(oracle, k, pps, optimal_value):
    if k in pps.block_counts():
        return sp.ChainBoundsReport(applicable=False)
    below, above = _fraction_straddle(pps, k)
    low, up = len(below), len(above)
    f_below = partition_value(oracle, below)
    f_above = partition_value(oracle, above)
    interpolated = ((up - k) * f_below + (k - low) * f_above) / (up - low)
    return sp.ChainBoundsReport(
        applicable=True,
        interpolated_bound=interpolated,
        coarse_bound=f_below,
        interpolated_ok=optimal_value >= interpolated,
        coarse_ok=optimal_value >= f_below,
    )


def _fraction_ratio_report(oracle, k, function_class, pps):
    run = _fraction_k_partition(oracle, k, pps)
    opt_value = sp.optimal_k_value(oracle, k)
    bound = sp.algorithm_guarantee("pps", function_class, oracle.n, k)
    ratio, bound_ok = sp.ratio_to_optimum(run.value, opt_value, bound)
    coarse_ratio = None
    if not run.exact_hit:
        coarse_ratio, _ = sp.ratio_to_optimum(
            partition_value(oracle, run.below), opt_value, None
        )
    return sp.RatioReport(
        oracle.n, k, function_class, run.value, opt_value, ratio, bound, bound_ok,
        run.exact_hit, coarse_ratio, run,
    )


# ---------------------------------------------------------------------------
# the cases


def _non_submodular_tables(count):
    """Seeded tables at n = 3..6 with small fractional values that fail the
    submodularity check."""
    i = 0
    while count:
        rng = random.Random(f"integer-scoring:{i}")
        i += 1
        n = 3 + i % 4
        table = [Fraction(rng.randint(-2, 6), rng.randint(1, 3)) for _ in range(1 << n)]
        fam = sp.ExplicitTableFn(n, table, "general")
        if not sp.check_submodular(fam.oracle()).ok:
            count -= 1
            yield fam


def _cases():
    for family in sorted(sp.GENERATOR_FAMILIES):
        for n in range(2, 9):
            for seed in range(4):
                yield sp.random_instance(family, n, seed)
    yield from (
        mono3(),
        mono3(Fraction(1, 3)),
        posi3(),
        posi3(Fraction(1, 2)),
        mono_n(5),
        mono_n(7, Fraction(1, 3)),
        omega(4),
        omega(6, Fraction(7, 3)),
        weighted_path4(),
        two_edges(),
        two_triangles(),
        cardinality(5),
        footnote_matroid(3),
    )
    yield from _non_submodular_tables(100)


def _chain(oracle):
    """The computed chain, or for input that has none the two-member chain
    ({V}, singletons) at the breakpoint where their lines cross."""
    try:
        return sp.compute_pps(oracle)
    except sp.NonSubmodularError:
        n = oracle.n
        top, bottom = sp.trivial_partition(n), sp.singleton_partition(n)
        d, tab = oracle.scaled_table()
        b = Fraction(sp.scaled_value(tab, bottom) - sp.scaled_value(tab, top), d * (n - 1))
        return sp.PrincipalSequence((top, bottom), (b,))


def _broken_chains(seq):
    """Chains built from a good one that fail verification in different
    ways: (those with its members and other breakpoints or cut short at an
    end, those with other members)."""
    n, parts, bps = seq.n, seq.partitions, seq.breakpoints
    moved = [
        sp.PrincipalSequence(parts, tuple(b + Fraction(1, 7) for b in bps)),
        sp.PrincipalSequence(parts, tuple(int(b) for b in bps)),
    ]
    if len(bps) > 1:
        moved.append(sp.PrincipalSequence(parts, tuple(max(bps) - j for j in range(len(bps)))))
    members = []
    if len(parts) > 2:
        mid = parts[1]
        other = next(p for p in partitions(n, len(mid)) if p != mid)
        members.append(sp.PrincipalSequence((parts[0], other) + parts[2:], bps))
        # dropping a middle member leaves a pair that may split several
        # blocks, which repair_chain checks and splits again
        for j in range(1, len(parts) - 1):
            members.append(sp.PrincipalSequence(parts[:j] + parts[j + 1 :], bps[: j - 1] + bps[j:]))
    elif n > 2:
        other = partitions(n, 2)[0]
        members.append(sp.PrincipalSequence((parts[0], other, parts[1]), (bps[0], bps[0])))
    if len(parts) > 1:
        # cut short at either end: every pair left attains g as before, but
        # the chain no longer starts at {V} or ends at the singletons
        moved.append(sp.PrincipalSequence(parts[1:], bps[1:]))
        moved.append(sp.PrincipalSequence(parts[:-1], bps[:-1]))
    return moved, members


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, sp.NonSubmodularError) as exc:
        return type(exc), str(exc)


def test_integer_scoring_matches_the_fraction_code():
    failing_chains = exits = repairs = open_ends = 0
    for fam in _cases():
        oracle, reference = fam.oracle(), fraction_oracle(fam)
        seq = _chain(oracle)
        moved, members = _broken_chains(seq)
        for chain in [seq] + moved + members:
            result = sp.verify_pps(oracle, chain)
            assert result == _fraction_verify(reference, chain), (fam.name, chain)
            failing_chains += not result.ok
            open_ends += result.breakpoints_attained_ok and not result.segments_optimal_ok
            repaired = _outcome(sp.repair_chain, oracle, chain)
            assert repaired == _outcome(_fraction_repair, reference, chain), (fam.name, chain)
            if isinstance(repaired, tuple):
                exits += 1
            else:
                repairs += repaired != chain
        for chain in [seq] + members:
            for k in range(1, fam.n + 1):
                run = _outcome(sp.pps_k_partition, oracle, k, chain)
                assert run == _outcome(_fraction_k_partition, reference, k, chain), (fam.name, k)
        for k in range(1, fam.n + 1):
            report = sp.ratio_report(oracle, k, fam.function_class, pps=seq)
            expected = _fraction_ratio_report(reference, k, fam.function_class, seq)
            assert report == expected, (fam.name, k)
            opt = report.optimal_value
            bounds = sp.check_chain_lower_bounds(oracle, k, seq, opt)
            assert bounds == _fraction_bounds(reference, k, seq, opt), (fam.name, k)
            greedy = sp.greedy_splitting(oracle, k)
            assert greedy.value == partition_value(reference, greedy.partition), (fam.name, k)
    # the broken chains and the non-submodular tables reach every failure
    # path, repair_chain both raises and splits, and chains whose pairs all
    # attain g still fail segment optimality at an open end
    assert failing_chains > 500 and exits > 20 and repairs > 20 and open_ends > 100


def test_breakpoints_are_exact_rationals():
    # the checks compare breakpoints as rationals, so a chain stores them as
    # Fractions: "10" must not sort before "7", and floats are refused
    oracle = sp.random_instance("graph_cut", 5, 1).oracle()
    seq = sp.compute_pps(oracle)
    assert seq.breakpoints == (0, 7, 10, 20)
    text = sp.PrincipalSequence(seq.partitions, tuple(str(b) for b in seq.breakpoints))
    assert text == seq
    assert sp.verify_pps(oracle, text).ok
    with pytest.raises(TypeError, match="floats are not exact"):
        sp.PrincipalSequence(seq.partitions, tuple(float(b) for b in seq.breakpoints))


@pytest.mark.parametrize("k", [2, 5])
def test_chain_checks_reject_a_chain_that_does_not_bracket_k(k):
    # a chain cut to block counts 1..4 has nothing above k = 5, and one cut
    # to 3..5 has nothing below k = 2
    oracle = sp.random_instance("graph_cut", 5, 1).oracle()
    parts = [partitions(5, c)[0] for c in range(1, 6)]
    chains = {
        5: sp.PrincipalSequence(tuple(parts[:4]), (Fraction(1),) * 3),
        2: sp.PrincipalSequence(tuple(parts[2:]), (Fraction(1),) * 2),
    }
    chain = chains[k]
    counts = str(chain.block_counts())
    for call in (
        lambda: sp.pps_k_partition(oracle, k, pps=chain),
        lambda: sp.check_chain_lower_bounds(oracle, k, chain, Fraction(0)),
        lambda: sp.ratio_report(oracle, k, pps=chain),
    ):
        with pytest.raises(ValueError, match=rf"k={k}") as info:
            call()
        assert counts in str(info.value)
