import gc
import pickle
import random
import re
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import subpartition as sp
from subpartition import pps
from subpartition.cli import main
from subpartition.partition_opt import optimal_k_value

from helpers import (
    BIG_A,
    EPS,
    cardinality,
    fraction_oracle,
    g_value,
    mono3,
    mono_n,
    omega,
    partition_value,
    partitions,
    posi3,
    submodular_table,
    two_edges,
    unit_path3,
    weighted_path4,
    zero_fn,
)


def _count_minimize_calls(monkeypatch):
    """Record the parameter of every minimize_g call made from the pps module."""
    calls = []
    real = pps.minimize_g

    def counted(oracle, b):
        calls.append(b)
        return real(oracle, b)

    monkeypatch.setattr(pps, "minimize_g", counted)
    return calls


def test_weighted_path_chain_frozen():
    oracle = weighted_path4().oracle()
    seq = sp.compute_pps(oracle)
    assert seq.partitions == (
        sp.trivial_partition(4),
        sp.Partition(4, [0b0011, 0b1100]),
        sp.Partition(4, [0b0011, 0b0100, 0b1000]),
        sp.singleton_partition(4),
    )
    assert seq.breakpoints == (Fraction(2), Fraction(4), Fraction(6))
    assert seq.block_counts() == (1, 2, 3, 4)
    assert sp.verify_pps(oracle, seq).ok


def test_tied_breakpoint_repair():
    # two disjoint unit edges: the search records ({ab|cd}, singletons)
    # directly at the tied breakpoint 2; repair must insert the partition
    # that splits only the first block, {a|b|cd}
    oracle = two_edges().oracle()
    seq = sp.compute_pps(oracle)
    assert seq.partitions == (
        sp.trivial_partition(4),
        sp.Partition(4, [0b0011, 0b1100]),
        sp.Partition(4, [0b0001, 0b0010, 0b1100]),
        sp.singleton_partition(4),
    )
    assert seq.breakpoints == (Fraction(0), Fraction(2), Fraction(2))
    assert sp.verify_pps(oracle, seq).ok


def test_single_block_split_into_many_is_allowed():
    # unit path on 3 vertices: singletons split the only block of {V} in one
    # step; no intermediate level exists
    oracle = unit_path3().oracle()
    seq = sp.compute_pps(oracle)
    assert seq.partitions == (sp.trivial_partition(3), sp.singleton_partition(3))
    assert seq.breakpoints == (Fraction(2),)
    assert sp.verify_pps(oracle, seq).ok


def test_one_element_chain(monkeypatch):
    calls = _count_minimize_calls(monkeypatch)
    oracle = zero_fn(1).oracle()
    seq = sp.compute_pps(oracle)
    assert seq.partitions == (sp.trivial_partition(1),)
    assert seq.breakpoints == ()
    assert calls == []
    assert sp.verify_pps(oracle, seq).ok


def test_mono3_two_level_chain():
    oracle = mono3().oracle()
    seq = sp.compute_pps(oracle)
    assert len(seq) == 2
    assert seq.breakpoints == (Fraction(1, 2),)
    assert sp.verify_pps(oracle, seq).ok


def test_posi3_two_level_chain():
    oracle = posi3().oracle()
    seq = sp.compute_pps(oracle)
    assert len(seq) == 2
    assert seq.breakpoints == (Fraction(1),)
    assert sp.verify_pps(oracle, seq).ok


def test_breakpoint_formula_holds_on_chain():
    for fam in (weighted_path4(), two_edges(), mono_n(5), omega(5, 10)):
        seq = sp.compute_pps(fam.oracle())
        reference = fraction_oracle(fam)
        for j in range(len(seq) - 1):
            lo, hi = seq.partitions[j], seq.partitions[j + 1]
            expected = (
                partition_value(reference, hi) - partition_value(reference, lo)
            ) / (len(hi.blocks) - len(lo.blocks))
            assert seq.breakpoints[j] == expected


def test_two_level_condition_implies_two_level_chain():
    for fam in (mono_n(5), omega(5, 10)):
        oracle = fam.oracle()
        assert sp.check_two_level_condition(oracle)
        seq = sp.compute_pps(oracle)
        assert seq.partitions == (
            sp.trivial_partition(oracle.n),
            sp.singleton_partition(oracle.n),
        )
        n = oracle.n
        q_value = sum(fam.value(1 << i) for i in range(n))
        expected = (q_value - fam.value(oracle.ground_set.full_mask)) / (n - 1)
        assert seq.breakpoints == (expected,)


def test_two_level_condition_frozen_values():
    # sufficient, not necessary: mono3 has a two-level chain but a partition
    # attaining the singleton slope with equality
    assert not sp.check_two_level_condition(mono3().oracle())
    assert not sp.check_two_level_condition(cardinality(4).oracle())
    assert sp.check_two_level_condition(zero_fn(1).oracle())
    assert sp.check_two_level_condition(mono_n(7).oracle())


def _two_level_by_scan(oracle):
    """The condition checked directly: every partition other than {V} and
    the singletons has a strictly larger slope than the singletons."""
    n = oracle.n
    if n == 1:
        return True
    d, tab = oracle.scaled_table()
    f_trivial = tab[oracle.ground_set.full_mask]
    rhs_num = sum(tab[1 << i] for i in range(n)) - f_trivial  # over n - 1
    for part in partitions(n):
        size = len(part)
        if size == 1 or size == n:
            continue
        total = sum(tab[m] for m in part)
        if (total - f_trivial) * (n - 1) <= rhs_num * (size - 1):
            return False
    return True


def test_two_level_condition_matches_scan():
    oracles = [
        sp.random_instance(family, n, seed).oracle()
        for family in sorted(sp.GENERATOR_FAMILIES)
        for n in range(2, 7)
        for seed in range(3)
    ]
    named = (mono3(), posi3(), mono_n(5), mono_n(7), omega(5, 10), cardinality(4), zero_fn(1), zero_fn(3))
    oracles += [fam.oracle() for fam in named]
    rng = random.Random("two-level")
    for i in range(120):
        n = 2 + i % 4
        values = [0] + [rng.randint(0, 6) for _ in range((1 << n) - 1)]
        oracles.append(sp.ExplicitTableFn(n, values).oracle())
    outcomes = [sp.check_two_level_condition(oracle) for oracle in oracles]
    assert outcomes == [_two_level_by_scan(oracle) for oracle in oracles]
    assert 10 < sum(outcomes) < len(outcomes) - 10


def test_mono_n_breakpoint_value():
    oracle = mono_n(5).oracle()
    seq = sp.compute_pps(oracle)
    assert seq.breakpoints == (Fraction(1, 2) + 3 * EPS / 4,)


def test_omega_breakpoint_value():
    oracle = omega(5, BIG_A).oracle()
    seq = sp.compute_pps(oracle)
    assert seq.breakpoints == ((BIG_A + 1),)


def test_determinism():
    a = sp.compute_pps(weighted_path4().oracle())
    b = sp.compute_pps(weighted_path4().oracle())
    assert a == b


def test_minimize_call_budget_on_random_instances(monkeypatch):
    # the chain, its repair included, comes from the greedy alone
    calls = _count_minimize_calls(monkeypatch)
    for family in ("graph_cut", "hypergraph_cut", "graph_coverage"):
        for seed in (1, 2):
            fam = sp.random_instance(family, 7, seed)
            oracle = fam.oracle()
            calls.clear()
            seq = sp.compute_pps(oracle)
            assert calls == []
            assert sp.verify_pps(oracle, seq, interior_samples=1).ok


def test_compute_pps_never_minimizes(monkeypatch):
    # adjacent members attain g at their breakpoint by the greedy's bound,
    # and a member the repair inserts attains it too, so even the chain
    # that needs a repair (two_edges) asks minimize_g nothing
    calls = _count_minimize_calls(monkeypatch)
    sp.compute_pps(weighted_path4().oracle())
    seq = sp.compute_pps(two_edges().oracle())
    assert len(seq) == 4
    assert calls == []


def test_two_level_condition_never_minimizes(monkeypatch):
    calls = _count_minimize_calls(monkeypatch)
    for fam in (mono3(), mono_n(5), cardinality(4), zero_fn(1), two_edges()):
        sp.check_two_level_condition(fam.oracle())
    assert calls == []


def _two_level_by_optima(oracle):
    """The two-level test as it read OPT_k for every k before the
    certificate: every point (k, OPT_k), 1 < k < n, strictly above the
    chord from (1, f(V)) to (n, f(singletons))."""
    n = oracle.n
    d, tab = oracle.scaled_table()
    top = Fraction(tab[-1], d)
    rise = Fraction(sum(tab[1 << i] for i in range(n)), d) - top
    return all((optimal_k_value(oracle, k) - top) * (n - 1) > rise * (k - 1) for k in range(2, n))


def test_two_level_certificate_matches_the_optima(monkeypatch):
    # the inputs are generator instances, submodular tables and tie-heavy
    # cuts, all submodular and decided from the greedy's certificate, then
    # arbitrary tables, which fall back to the optima wherever the greedy's
    # partition misses x(V)
    rng = random.Random("two-level-certificate")
    families = [
        sp.random_instance(family, n, seed)
        for family in sorted(sp.GENERATOR_FAMILIES)
        for n in range(2, 10)
        for seed in range(6)
    ]
    families += [sp.ExplicitTableFn(n, submodular_table(rng, n)) for n in [2, 3, 4, 5, 6, 7] * 100]
    families += _tie_heavy_cuts(rng, 600)
    submodular = len(families)
    for i in range(2000):
        n = 1 + i % 6
        families.append(sp.ExplicitTableFn(n, [rng.randint(0, 4) for _ in range(1 << n)]))
    oracles = [fam.oracle() for fam in families]
    calls = []
    monkeypatch.setattr(
        pps, "optimal_k_value", lambda oracle, k: calls.append(k) or optimal_k_value(oracle, k)
    )
    outcomes, fell_back = [], []
    for i, oracle in enumerate(oracles):
        calls.clear()
        outcomes.append(sp.check_two_level_condition(oracle))
        if calls:
            fell_back.append(i)
    monkeypatch.undo()
    assert outcomes == [_two_level_by_optima(oracle) for oracle in oracles]
    assert (submodular, len(outcomes), sum(outcomes), len(fell_back)) == (1488, 3488, 1129, 870)
    assert fell_back[0] >= submodular


def test_two_level_condition_checks_the_greedy_certificate(monkeypatch):
    # an x that keeps x(V) but lies above D q (f(S) - b*) on {0} proves
    # nothing: the answer then comes from the optima, and is unchanged
    real = pps._dilworth_greedy

    def skewed(n, d, tab, b):
        total, r, x = real(n, d, tab, b)
        return total, r, (x[0] + 10**9, x[1] - 10**9, *x[2:])

    calls = []
    monkeypatch.setattr(
        pps, "optimal_k_value", lambda oracle, k: calls.append(k) or optimal_k_value(oracle, k)
    )
    for fam, expected in ((mono_n(5), True), (omega(5, 10), True), (mono3(), False), (cardinality(4), False)):
        oracle = fam.oracle()
        calls.clear()
        assert sp.check_two_level_condition(oracle) is expected
        assert calls == []
        monkeypatch.setattr(pps, "_dilworth_greedy", skewed)
        assert sp.check_two_level_condition(oracle) is expected
        assert calls
        monkeypatch.setattr(pps, "_dilworth_greedy", real)


def _strict_lower_hull(optima):
    """Block counts of the strict vertices of the lower convex hull of the
    points (k, OPT_k): the two ends, and every k that lies strictly below
    the segment between each pair of points on either side of it."""
    n = len(optima)
    inner = [
        k
        for k in range(2, n)
        if all(
            (optima[k] - optima[i]) * (j - i) < (optima[j] - optima[i]) * (k - i)
            for i in range(1, k)
            for j in range(k + 1, n + 1)
        )
    ]
    return [1, *inner, n]


def _tie_heavy_cuts(rng, count):
    """Graph cuts and hypergraph cuts with weights 0-2 at n = 2..7, where
    many partitions tie and the greedy's crossing b often lands on a hull
    edge instead of a vertex."""
    for i in range(count):
        n = 2 + i % 6
        if i % 2:
            edges = [(u, v, rng.randint(0, 2)) for u in range(n) for v in range(u + 1, n)]
            yield sp.GraphCutFn(n, rng.sample(edges, rng.randint(1, len(edges))))
        else:
            hyperedges = [
                (rng.sample(range(n), rng.randint(2, n)), rng.randint(0, 2))
                for _ in range(rng.randint(1, 4))
            ]
            yield sp.HypergraphCutFn(n, hyperedges)


def test_chain_is_the_lower_hull_of_enumerated_optima():
    # before repair, the chain is the optimal partition at each strict
    # vertex of the hull of (k, OPT_k) and the breakpoints are the hull's
    # slopes; the reference hull is built here from brute-force enumeration,
    # which shares no code with the greedy
    families = [
        sp.random_instance(family, n, seed)
        for family in sorted(sp.GENERATOR_FAMILIES)
        for n in range(2, 9)
        for seed in range(4)
    ]
    families += [mono3(), posi3(), mono_n(7), omega(6)]
    rng = random.Random("lower-hull")
    families += _tie_heavy_cuts(rng, 240)
    families += [sp.ExplicitTableFn(n, submodular_table(rng, n)) for n in [2, 3, 4, 5, 6, 7] * 20]
    repaired = 0
    for fam in families:
        oracle = fam.oracle()
        optima = sp.brute_force_all_k(oracle)
        hull = _strict_lower_hull({k: value for k, (_, value) in optima.items()})
        members = tuple(optima[k][0] for k in hull)
        slopes = tuple(
            (optima[j][1] - optima[i][1]) / (j - i) for i, j in zip(hull, hull[1:])
        )
        expected = sp.repair_chain(oracle, sp.PrincipalSequence(members, slopes))
        assert sp.compute_pps(oracle) == expected, fam
        repaired += len(expected) > len(hull)
    assert repaired


def test_compute_pps_names_a_pair_that_is_not_nested():
    # not submodular: the greedy's partitions at the crossings attain g, but
    # its 2- and 3-block members are not nested
    oracle = sp.ExplicitTableFn(4, [0, 0, 0, 1, 0, 2, 1, 4, 1, 3, 3, 0, 0, 4, 1, 2]).oracle()
    with pytest.raises(sp.NonSubmodularError, match="with 2 and 3 blocks at b=0 are not nested"):
        sp.compute_pps(oracle)


def test_compute_pps_endings_on_tie_heavy_tables():
    # values in {0, 1, 2} tie often and are mostly not submodular; every
    # partition that attains the greedy's bound lies strictly between its
    # bracket in block count, so the search ends in a verified chain, an
    # unattained bound or a pair that is not nested, and in nothing else
    rng = random.Random("tie-heavy")
    errors = ("does not attain x(V)", "are not nested")
    endings = dict.fromkeys(("chain", *errors), 0)
    for _ in range(2000):
        n = rng.randint(2, 7)
        values = [0] + [rng.randint(0, 2) for _ in range((1 << n) - 1)]
        oracle = sp.ExplicitTableFn(n, values).oracle()
        try:
            chain = sp.compute_pps(oracle)
        except sp.NonSubmodularError as err:
            endings[next(end for end in errors if end in str(err))] += 1
        else:
            assert sp.verify_pps(oracle, chain).ok, values
            endings["chain"] += 1
    assert endings == {"chain": 600, "does not attain x(V)": 1397, "are not nested": 3}


def test_repair_checks_attainment_of_the_pairs_it_splits(monkeypatch):
    # ({ab|cd}, singletons) splits two blocks, but at b=3 the singletons'
    # g of -8 beats {ab|cd}'s -6: the public repair checks the pair it would
    # split and rejects it at its breakpoint, where its two lines differ, so
    # with no minimize_g call
    oracle = two_edges().oracle()
    halves = sp.Partition(4, [0b0011, 0b1100])
    chain = sp.PrincipalSequence(
        (sp.trivial_partition(4), halves, sp.singleton_partition(4)), (Fraction(0), Fraction(3))
    )
    calls = _count_minimize_calls(monkeypatch)
    with pytest.raises(
        sp.NonSubmodularError, match="chain pair does not attain the parametric minimum at b=3"
    ):
        sp.repair_chain(oracle, chain)
    assert calls == []


def test_repair_reports_the_first_failing_pair():
    # pairs are checked in chain order: a pair that is not nested before an
    # unattained one is reported as not nested, and the other way round
    a, b, c, d, e, f = (1 << i for i in range(6))
    nested_late = sp.PrincipalSequence(
        (
            sp.Partition(6, [a | b, c | d | e | f]),
            sp.Partition(6, [a, b, c | d, e | f]),  # splits both blocks, unattained at b=1
            sp.Partition(6, [a | c, b, d, e, f]),  # not nested in the member before
        ),
        (Fraction(1), Fraction(1)),
    )
    nested_early = sp.PrincipalSequence(
        (
            sp.Partition(5, [a | b | c, d | e]),
            sp.Partition(5, [a | d, b, c | e]),  # not nested in the member before
            sp.singleton_partition(5),  # splits two blocks, unattained at b=1
        ),
        (Fraction(1), Fraction(1)),
    )
    with pytest.raises(sp.NonSubmodularError, match="does not attain the parametric minimum"):
        sp.repair_chain(zero_fn(6).oracle(), nested_late)
    with pytest.raises(sp.NonSubmodularError, match="with 2 and 3 blocks at b=1 are not nested"):
        sp.repair_chain(zero_fn(5).oracle(), nested_early)


def test_repair_splits_blocks_one_at_a_time_in_canonical_order():
    # three blocks split at once: two members go in, each splitting the
    # next block in canonical order, all at the pair's breakpoint
    a, b, c, d, e, f = (1 << i for i in range(6))
    coarse = sp.Partition(6, [a | b, c | d, e | f])
    chain = sp.PrincipalSequence((coarse, sp.singleton_partition(6)), (Fraction(0),))
    repaired = sp.repair_chain(zero_fn(6).oracle(), chain)
    assert repaired.partitions == (
        coarse,
        sp.Partition(6, [a, b, c | d, e | f]),
        sp.Partition(6, [a, b, c, d, e | f]),
        sp.singleton_partition(6),
    )
    assert repaired.breakpoints == (Fraction(0),) * 3


def test_chain_on_another_ground_set_is_rejected():
    three = sp.compute_pps(zero_fn(3).oracle())
    four = zero_fn(4).oracle()
    with pytest.raises(ValueError, match="the chain is on 3 elements, the oracle on 4"):
        sp.verify_pps(four, three)
    with pytest.raises(ValueError, match="the chain is on 3 elements, the oracle on 4"):
        sp.repair_chain(four, three)


def test_repair_is_idempotent(monkeypatch):
    oracle = two_edges().oracle()
    seq = sp.compute_pps(oracle)
    calls = _count_minimize_calls(monkeypatch)
    again = sp.repair_chain(oracle, seq)
    assert again == seq
    assert calls == []


def test_minimize_calls_per_breakpoint_and_per_multi_split_pair(monkeypatch):
    # unit edges a-b, c-d and weight-3 edges e-f, g-h: the chain splits a
    # block at 0, two at the tied breakpoint 2 and two at 6.  Its
    # certificates prove every pair, also after a repair, which keeps them;
    # its copy without them makes one call per breakpoint
    oracle = sp.GraphCutFn(8, [(0, 1, 1), (2, 3, 1), (4, 5, 3), (6, 7, 3)]).oracle()
    seq = sp.compute_pps(oracle)
    assert seq.breakpoints == (0, 2, 2, 6, 6)
    calls = _count_minimize_calls(monkeypatch)
    assert sp.verify_pps(oracle, seq).ok
    repaired = sp.repair_chain(oracle, seq)
    assert repaired.certificates == seq.certificates
    assert sp.verify_pps(oracle, repaired).ok
    assert calls == []
    plain = sp.PrincipalSequence(seq.partitions, seq.breakpoints)
    assert sp.verify_pps(oracle, plain).ok
    assert calls == list(seq.breakpoints)
    # with the middle member of each tie dropped, the pairs at 2 and 6 split
    # two blocks each, and only they are checked
    parts = seq.partitions
    dropped = sp.PrincipalSequence((parts[0], parts[1], parts[3], parts[5]), (0, 2, 6))
    calls.clear()
    assert sp.repair_chain(oracle, dropped) == seq
    assert calls == [2, 6]
    calls.clear()
    assert not sp.verify_pps(oracle, dropped).refinement_ok
    assert calls == [0, 2, 6]
    # with the certificates of its breakpoints, the same chain is repaired
    # without a call, and the repaired chain keeps them: it verifies without one
    xs = seq.certificates
    certified = sp.PrincipalSequence(dropped.partitions, dropped.breakpoints, (xs[0], xs[1], xs[3]))
    calls.clear()
    repaired = sp.repair_chain(oracle, certified)
    assert repaired == seq
    assert repaired.certificates == seq.certificates
    assert sp.verify_pps(oracle, repaired).ok
    assert calls == []


def _certified_instances():
    for family in sorted(sp.GENERATOR_FAMILIES):
        for n in (3, 5, 7):
            yield sp.random_instance(family, n, 1)
    yield from (weighted_path4(), two_edges(), mono3(), posi3(), mono_n(5), omega(5, 10), zero_fn(1))
    yield sp.GraphCutFn(8, [(0, 1, 1), (2, 3, 1), (4, 5, 3), (6, 7, 3)])


def _tampered_chains(seq, certificates):
    """The chain with its certificates, then copies broken as the verify
    tests break them, each with the certificates of its breakpoints: every
    breakpoint moved, every inner member dropped, either end dropped, and
    every inner member replaced, where one exists, by one with as many
    blocks that is not nested between its neighbours."""
    parts, bps, xs = list(seq.partitions), list(seq.breakpoints), list(certificates)
    yield parts, bps, xs
    for j in range(len(bps)):
        for shift in (Fraction(-1, 3), Fraction(1, 2)):
            yield parts, bps[:j] + [bps[j] + shift] + bps[j + 1 :], xs
    for j in range(1, len(parts) - 1):
        yield parts[:j] + parts[j + 1 :], bps[:j] + bps[j + 1 :], xs[:j] + xs[j + 1 :]
        before, after = parts[j - 1], parts[j + 1]
        for other in partitions(seq.n, len(parts[j])):
            if not (sp.refines(other, before) and sp.refines(after, other)):
                yield parts[:j] + [other] + parts[j + 1 :], bps, xs
                break
    if bps:
        yield parts[1:], bps[1:], xs[1:]
        yield parts[:-1], bps[:-1], xs[:-1]


def test_certificates_leave_every_verdict_unchanged(monkeypatch):
    # a certificate only spares the minimize_g call: on a computed chain
    # every pair is certified, and on a broken copy every pair whose
    # certificate fails has two different lines, which fail with no call;
    # without certificates, each pair whose lines agree makes the call
    calls = _count_minimize_calls(monkeypatch)
    pairs = fallbacks = plain_calls = broken = 0
    for fam in _certified_instances():
        oracle = fam.oracle()
        seq = sp.compute_pps(oracle)
        for i, (parts, bps, xs) in enumerate(_tampered_chains(seq, seq.certificates)):
            calls.clear()
            certified = sp.verify_pps(oracle, sp.PrincipalSequence(parts, bps, xs))
            assert certified.ok is (i == 0)
            fallbacks += len(calls)
            calls.clear()
            plain = sp.PrincipalSequence(parts, bps)
            assert certified == sp.verify_pps(oracle, plain), (fam.name, parts, bps)
            pairs, plain_calls = pairs + len(bps), plain_calls + len(calls)
            broken += i > 0
    assert broken > 100
    assert fallbacks == 0 < plain_calls < pairs


def test_a_tampered_certificate_falls_back_to_minimize_g(monkeypatch):
    # one entry raised by 1, another breakpoint's x, all zeros, and weight
    # moved from x_1 to x_0, which keeps x(V) but leaves a negative slack;
    # inexact floats and an extra element are refused by the constructor
    calls = _count_minimize_calls(monkeypatch)
    instances = ("graph_coverage", 2), ("hypergraph_cut", 1), ("graph_cut", 2)
    for fam in (weighted_path4(), *(sp.random_instance(family, 7, seed) for family, seed in instances)):
        oracle = fam.oracle()
        seq = sp.compute_pps(oracle)
        expected = sp.verify_pps(oracle, seq)
        assert expected.ok
        parts, bps, certificates = seq.partitions, seq.breakpoints, seq.certificates
        for j, x in enumerate(certificates):
            other = next(y for b, y in zip(bps, certificates) if b != bps[j])
            for bad in (
                (x[0] + 1, *x[1:]),
                other,
                (0,) * len(x),
                (x[0] + 10**9, x[1] - 10**9, *x[2:]),
            ):
                tampered = list(certificates)
                tampered[j] = bad
                calls.clear()
                assert sp.verify_pps(oracle, sp.PrincipalSequence(parts, bps, tampered)) == expected
                assert calls == [bps[j]], (fam.name, j, bad)
            for bad, error in ((tuple(map(float, x)), TypeError), ((*x, 0), ValueError)):
                tampered = list(certificates)
                tampered[j] = bad
                with pytest.raises(error, match=f"^certificate {j} "):
                    sp.PrincipalSequence(parts, bps, tampered)


def test_certificates_need_one_entry_per_breakpoint():
    oracle = weighted_path4().oracle()
    seq = sp.compute_pps(oracle)
    parts, bps, certificates = seq.partitions, seq.breakpoints, seq.certificates
    for wrong in ((), certificates[:-1], certificates + (None,)):
        with pytest.raises(ValueError, match="need one certificate per breakpoint, 3, not"):
            sp.PrincipalSequence(parts, bps, wrong)
    unproved = sp.PrincipalSequence(parts, bps, (None,) * 3)
    assert sp.verify_pps(oracle, unproved) == sp.verify_pps(oracle, seq)
    # each entry is checked where the chain is built, naming its breakpoint:
    # an int, a string, a list, a Fraction or a bool entry, or too few entries
    entries = list(certificates)
    not_ints = "certificate 1 must be None or a tuple of ints"
    for entry, error, message in (
        (5, TypeError, not_ints),
        ("1234", TypeError, not_ints),
        (list(certificates[1]), TypeError, not_ints),
        ((1, 2, 3, Fraction(4)), TypeError, not_ints),
        ((1, 2, 3, True), TypeError, not_ints),
        ((1, 2, 3), ValueError, "certificate 1 has 3 entries, not 4"),
    ):
        entries[1] = entry
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            sp.PrincipalSequence(parts, bps, entries)


def test_pair_with_two_lines_fails_without_a_minimize_call(monkeypatch):
    # breakpoint 0 moved by 1/7: the pair's two lines differ there, so both
    # cannot equal g(b), and the formula failure is reported beside the
    # attainment failure with no minimize_g call
    calls = _count_minimize_calls(monkeypatch)
    oracle = sp.random_instance("graph_cut", 7, 1).oracle()
    seq = sp.compute_pps(oracle)
    bps = list(seq.breakpoints)
    bps[0] += Fraction(1, 7)
    res = sp.verify_pps(oracle, sp.PrincipalSequence(seq.partitions, bps, seq.certificates))
    assert res.failures == (
        "breakpoint 0 is 85/7, but the value/count differences give 12",
        "chain pair 0 does not attain the minimum at b=85/7",
    )
    assert calls == []


def test_cli_pps_makes_no_minimize_call(monkeypatch, tmp_path, capsys):
    # the chain's certificates prove every breakpoint, also where the
    # chain was split stepwise (two_edges); without them, the check makes
    # one minimize_g call per breakpoint
    calls = _count_minimize_calls(monkeypatch)
    families = [sp.random_instance(family, 7, seed) for family in sorted(sp.GENERATOR_FAMILIES) for seed in (1, 2)]
    for i, fam in enumerate(families + [two_edges()]):
        path = tmp_path / f"inst{i}.json"
        sp.save_instance(fam, path)
        calls.clear()
        assert main(["pps", str(path)]) == 0
        assert calls == []
        assert "verification: PASS" in capsys.readouterr().out
        oracle = fam.oracle()
        seq = sp.compute_pps(oracle)
        assert sp.verify_pps(oracle, seq).ok
        assert calls == []
        assert sp.verify_pps(oracle, sp.PrincipalSequence(seq.partitions, seq.breakpoints)).ok
        assert calls == list(seq.breakpoints)


@pytest.mark.parametrize("partitions", [[(1, 2)], "ab", [sp.trivial_partition(2), 3]])
def test_sequence_members_must_be_partitions(partitions):
    # checked first: a tuple member has no block count, and a string's
    # characters would be counted against the breakpoints
    with pytest.raises(TypeError, match="chain members must be Partition objects"):
        sp.PrincipalSequence(partitions, [])


def test_sequence_validation():
    with pytest.raises(ValueError):
        sp.PrincipalSequence((), ())
    with pytest.raises(ValueError):
        sp.PrincipalSequence((sp.trivial_partition(3),), (Fraction(1),))
    with pytest.raises(ValueError):
        sp.PrincipalSequence(
            (sp.singleton_partition(3), sp.trivial_partition(3)), (Fraction(1),)
        )
    with pytest.raises(ValueError, match="chain partitions live on different ground sets"):
        sp.PrincipalSequence(
            (sp.trivial_partition(3), sp.singleton_partition(4)), (Fraction(1),)
        )


def test_sequence_rejects_consecutive_members_with_equal_block_counts():
    # the counts must increase strictly: two different 2-block members, one
    # after the other, are refused although no count decreases
    pair = (sp.Partition(3, [0b011, 0b100]), sp.Partition(3, [0b101, 0b010]))
    with pytest.raises(ValueError, match="chain block counts must increase strictly"):
        sp.PrincipalSequence(pair, (Fraction(1),))
    with pytest.raises(ValueError, match="chain block counts must increase strictly"):
        sp.PrincipalSequence((sp.trivial_partition(3),) + pair, (Fraction(0), Fraction(1)))


def test_sequence_stores_its_partitions_as_a_tuple():
    oracle = sp.GraphCutFn(3, [(0, 1, 1), (1, 2, 2)]).oracle()
    seq = sp.compute_pps(oracle)
    for partitions in (list(seq.partitions), (p for p in seq.partitions)):
        again = sp.PrincipalSequence(partitions, list(seq.breakpoints))
        assert isinstance(again.partitions, tuple)
        assert again == seq
        assert hash(again) == hash(seq)


def test_sequence_takes_its_breakpoints_from_any_iterable():
    oracle = sp.GraphCutFn(3, [(0, 1, 1), (1, 2, 2)]).oracle()
    seq = sp.compute_pps(oracle)
    again = sp.PrincipalSequence(seq.partitions, (b for b in seq.breakpoints))
    assert again == seq


def test_verify_lists_every_kind_of_failure_in_order(monkeypatch):
    # a chain on the path a-b-c-d-e (weights 1, 2, 1, 3) that breaks every
    # condition at once: it starts at {ab|cde}, its first pair is not
    # nested, its second splits two blocks, its breakpoints decrease, and
    # neither breakpoint is its pair's crossing nor attains g, which the
    # pair's two different lines show with no minimize_g call
    oracle = sp.GraphCutFn(5, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 3)]).oracle()
    parts = (
        sp.Partition(5, [0b00011, 0b11100]),
        sp.Partition(5, [0b00101, 0b00010, 0b11000]),
        sp.singleton_partition(5),
    )
    calls = _count_minimize_calls(monkeypatch)
    res = sp.verify_pps(oracle, sp.PrincipalSequence(parts, (Fraction(2), Fraction(1))))
    assert calls == []
    assert res == sp.PpsVerification(
        ok=False,
        endpoints_ok=False,
        refinement_ok=False,
        breakpoints_nondecreasing_ok=False,
        breakpoints_attained_ok=False,
        segments_optimal_ok=False,
        formula_ok=False,
        samples_checked=2,
        failures=(
            "chain must start at {V} and end at singletons",
            "chain entry 1 does not refine entry 0",
            "chain entry 2 splits more than one block of entry 1",
            "breakpoints are not nondecreasing",
            "breakpoint 0 is 2, but the value/count differences give 4",
            "breakpoint 1 is 1, but the value/count differences give 3",
            "chain pair 0 does not attain the minimum at b=2",
            "chain pair 1 does not attain the minimum at b=1",
        ),
    )


def test_verify_reports_decreasing_breakpoints():
    oracle = weighted_path4().oracle()
    good = sp.compute_pps(oracle)
    bad = sp.PrincipalSequence(good.partitions, (Fraction(4), Fraction(2), Fraction(6)))
    res = sp.verify_pps(oracle, bad)
    assert not res.ok
    assert not res.breakpoints_nondecreasing_ok
    assert any("nondecreasing" in msg for msg in res.failures)


def test_verify_reports_shifted_breakpoint():
    # structure intact, first breakpoint moved off its crossing value: the
    # formula check and the attainment check at that point must both trip,
    # and so must segment optimality, without a failure line of its own
    oracle = two_edges().oracle()
    good = sp.compute_pps(oracle)
    bad = sp.PrincipalSequence(good.partitions, (Fraction(1), Fraction(2), Fraction(2)))
    res = sp.verify_pps(oracle, bad)
    assert not res.ok
    assert res.endpoints_ok and res.refinement_ok
    assert res.breakpoints_nondecreasing_ok
    assert not res.segments_optimal_ok
    assert not res.formula_ok
    assert not res.breakpoints_attained_ok
    assert len(res.failures) == 2
    # the witness: {V} claims [.., 1] but is beaten inside it, at b = 1/2
    half = Fraction(1, 2)
    assert g_value(fraction_oracle(two_edges()), bad.partitions[0], half) == Fraction(-1, 2)
    assert sp.minimize_g(oracle, half) == -1


def test_verify_reports_wrong_middle_partition():
    oracle = weighted_path4().oracle()
    good = sp.compute_pps(oracle)
    parts = list(good.partitions)
    parts[1] = sp.Partition(4, [0b0001, 0b1110])
    bad = sp.PrincipalSequence(tuple(parts), good.breakpoints)
    res = sp.verify_pps(oracle, bad)
    assert not res.ok
    assert not res.formula_ok
    assert not res.breakpoints_attained_ok
    assert not res.segments_optimal_ok
    assert not res.refinement_ok
    assert res.endpoints_ok


def test_verify_reports_wrong_endpoints():
    # two_edges without its repair: ({V}, {ab|cd}, singletons) is a valid
    # sequence object, but a truncated copy of it misses an end of the chain
    oracle = two_edges().oracle()
    full, halves, singles = (
        sp.trivial_partition(4),
        sp.Partition(4, [0b0011, 0b1100]),
        sp.singleton_partition(4),
    )
    for parts, bps in [((halves, singles), (Fraction(2),)), ((full, halves), (Fraction(0),))]:
        res = sp.verify_pps(oracle, sp.PrincipalSequence(parts, bps))
        assert not res.ok
        assert not res.endpoints_ok
        assert "chain must start at {V} and end at singletons" in res.failures


def test_verify_reports_multi_block_split():
    oracle = two_edges().oracle()
    halves = sp.Partition(4, [0b0011, 0b1100])
    parts = (sp.trivial_partition(4), halves, sp.singleton_partition(4))
    res = sp.verify_pps(oracle, sp.PrincipalSequence(parts, (Fraction(0), Fraction(2))))
    assert not res.ok
    assert res.endpoints_ok
    assert not res.refinement_ok
    assert "chain entry 2 splits more than one block of entry 1" in res.failures


def test_verify_interior_samples():
    # the count is accepted and ignored: segment optimality is decided from
    # attainment at the breakpoints, on correct and broken chains alike
    oracle = weighted_path4().oracle()
    seq = sp.compute_pps(oracle)
    two = two_edges().oracle()
    good = sp.compute_pps(two)
    bad = sp.PrincipalSequence(good.partitions, (Fraction(1), Fraction(2), Fraction(2)))
    for orc, chain, ok in ((oracle, seq, True), (two, bad, False)):
        sparse = sp.verify_pps(orc, chain, interior_samples=0)
        dense = sp.verify_pps(orc, chain, interior_samples=5)
        assert sparse == dense
        assert sparse.ok is ok
        assert sparse.samples_checked == len(chain.breakpoints)
    with pytest.raises(ValueError):
        sp.verify_pps(oracle, seq, interior_samples=-1)


def _segment_witness(oracle, seq):
    """Whether some chain member is beaten inside its claimed segment, found
    by direct search: at each finite end, at the midpoint, and 10^6 beyond
    an open end.  Pass a `fraction_oracle`, so that members are scored on
    the family's `value`."""
    bps = seq.breakpoints
    far = Fraction(10**6)
    for j, part in enumerate(seq.partitions):
        lo = bps[j - 1] if j > 0 else None
        hi = bps[j] if j < len(bps) else None
        points = [b for b in (lo, hi) if b is not None]
        if lo is None:
            points.append(hi - far)
        elif hi is None:
            points.append(lo + far)
        else:
            points.append((lo + hi) / 2)
        for point in points:
            if g_value(oracle, part, point) > sp.minimize_g(oracle, point):
                return True
    return False


def test_segment_flag_is_exact_on_broken_chains():
    # shift one breakpoint of a correct chain at a time, keeping the
    # breakpoints nondecreasing: the flag must fail exactly when a member is
    # beaten somewhere in its claimed segment; the unshifted chain is the
    # control on which it must pass
    outcomes = []
    for family in sorted(sp.GENERATOR_FAMILIES):
        for n in range(3, 9):
            for seed in range(4):
                fam = sp.random_instance(family, n, seed)
                oracle, reference = fam.oracle(), fraction_oracle(fam)
                seq = sp.compute_pps(oracle)
                chains = [seq.breakpoints]
                for i in range(len(seq.breakpoints)):
                    for shift in (Fraction(-1, 3), Fraction(1, 2), Fraction(2)):
                        bps = list(seq.breakpoints)
                        bps[i] += shift
                        if all(b1 <= b2 for b1, b2 in zip(bps, bps[1:])):
                            chains.append(tuple(bps))
                for bps in chains:
                    chain = sp.PrincipalSequence(seq.partitions, bps)
                    res = sp.verify_pps(oracle, chain)
                    witness = _segment_witness(reference, chain)
                    assert res.segments_optimal_ok is not witness, (family, n, seed, bps)
                    outcomes.append(witness)
    assert sum(outcomes) > 1000 and len(outcomes) - sum(outcomes) > 100


def _old_sample_points(lo, hi, interior=3):
    """Sampling check points for one segment: the midpoint, one unit beyond
    a missing end, and evenly spaced interior points."""
    if lo is None and hi is None:
        return {Fraction(t) for t in range(-1, interior + 1)}
    if lo is None:
        return {hi - 1 - t for t in range(interior + 1)}
    if hi is None:
        return {lo + 1 + t for t in range(interior + 1)}
    if lo == hi:
        return set()
    span = hi - lo
    points = {lo + span / 2}
    points.update(lo + span * Fraction(i, interior + 1) for i in range(1, interior + 1))
    return points


def _proof_instances():
    for family in sorted(sp.GENERATOR_FAMILIES):
        for n in range(4, 9):
            for seed in (1, 2):
                yield sp.random_instance(family, n, seed)
    yield from (mono3(), mono_n(5), mono_n(7), posi3(), omega(8))


def test_segment_proof_agrees_with_sampling():
    # attainment at the breakpoints proves each segment; sampling every
    # segment directly must agree on every chain member
    checked = 0
    for fam in _proof_instances():
        oracle, reference = fam.oracle(), fraction_oracle(fam)
        seq = sp.compute_pps(oracle)
        res = sp.verify_pps(oracle, seq)
        assert res.ok, fam.name
        assert res.samples_checked == len(seq.breakpoints)
        bps = seq.breakpoints
        for j, part in enumerate(seq.partitions):
            lo = bps[j - 1] if j > 0 else None
            hi = bps[j] if j < len(bps) else None
            for point in _old_sample_points(lo, hi):
                best = sp.minimize_g(oracle, point)
                assert g_value(reference, part, point) == best, (fam.name, j, point)
                checked += 1
    assert checked > 700


def test_cap_enforced(monkeypatch):
    monkeypatch.setenv("SUBMOD_N_CAP", "4")
    with pytest.raises(sp.GroundSetCapError):
        sp.compute_pps(zero_fn(5).oracle())
    with pytest.raises(sp.GroundSetCapError):
        sp.check_two_level_condition(zero_fn(5).oracle())


def test_chain_at_the_cap():
    # n = 13, the enumeration cap: the chain comes from the greedy and its
    # members, with 1, 2 and 13 blocks, are checked by brute force
    fam = sp.random_instance("graph_cut", 13, 1)
    oracle = fam.oracle()
    seq = sp.compute_pps(oracle)
    assert sp.verify_pps(oracle, seq).ok
    assert seq.block_counts() == (1, 2, 13)
    for part in seq.partitions:
        _, opt = sp.brute_force_optimal_k_partition(oracle, len(part))
        assert partition_value(fraction_oracle(fam), part) == opt


@pytest.mark.parametrize("n", [9, 10, 11, 12, 13])
def test_optimum_hull_matches_the_chain_up_to_the_cap(n):
    # where enumeration is too slow to be the reference, OPT_k comes from
    # the subset DP, which shares no code with the greedy: every chain
    # member attains OPT at its block count, the distinct breakpoints are
    # the slopes of the hull of (k, OPT_k), and every hull vertex is a
    # block count of the chain
    for family in sorted(sp.GENERATOR_FAMILIES):
        fam = sp.random_instance(family, n, 1)
        oracle = fam.oracle()
        opt = {k: optimal_k_value(oracle, k) for k in range(1, n + 1)}
        seq = sp.compute_pps(oracle)
        for part in seq.partitions:
            assert partition_value(fraction_oracle(fam), part) == opt[len(part)], (family, len(part))
        hull = _strict_lower_hull(opt)
        slopes = [(opt[j] - opt[i]) / (j - i) for i, j in zip(hull, hull[1:])]
        assert sorted(set(seq.breakpoints)) == slopes, family
        assert set(hull) <= set(seq.block_counts()), family


def test_computed_chains_carry_their_certificates_beside_their_identity(monkeypatch):
    # the six generator families at n = 13 (seed 1) and the random ones at
    # n = 7: the computed chain and its copy built by hand are one chain
    # (equal, same hash and repr) and verify alike, the chain with no
    # minimize_g call, the copy with one per breakpoint; a pickle drops the
    # certificates and verifies alike too
    calls = _count_minimize_calls(monkeypatch)
    instances = [sp.random_instance(family, 13, 1) for family in sorted(sp.GENERATOR_FAMILIES)]
    instances += [sp.random_instance(family, 7, seed) for family in sorted(sp.GENERATOR_FAMILIES) for seed in (1, 2)]
    for fam in instances:
        oracle = fam.oracle()
        seq = sp.compute_pps(oracle)
        assert len(seq.certificates) == len(seq.breakpoints)
        copied = sp.PrincipalSequence(seq.partitions, seq.breakpoints)
        assert copied == seq and hash(copied) == hash(seq) and repr(copied) == repr(seq)
        assert copied.certificates is None
        calls.clear()
        verdict = sp.verify_pps(oracle, seq)
        assert verdict.ok and calls == []
        assert sp.verify_pps(oracle, copied) == verdict
        assert calls == list(seq.breakpoints)
        unpickled = pickle.loads(pickle.dumps(seq))
        assert unpickled == seq and unpickled.certificates is None
        assert sp.verify_pps(oracle, unpickled) == verdict


def test_readme_library_example_runs(monkeypatch):
    # the README's Library block, run as written: its chain verifies from
    # its own certificates, with no minimize_g call
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    calls = _count_minimize_calls(monkeypatch)
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["sp"].verify_pps(names["oracle"], names["seq"]).ok
    assert names["rep"].algorithm_value == names["run"].value >= names["rep"].optimal_value
    assert calls == []


def test_chain_search_frees_the_oracle():
    # no reference cycle may keep an oracle and its value table alive until
    # the cyclic collector happens to run
    gc.disable()
    try:
        oracle = weighted_path4().oracle()
        sp.verify_pps(oracle, sp.compute_pps(oracle))
        ref = weakref.ref(oracle)
        del oracle
        assert ref() is None
    finally:
        gc.enable()


def _derived_oracle(n, d, ints):
    """A bare oracle on the integer table `ints` over the denominator d."""
    return sp.ValueOracle(
        sp.GroundSet(n), lambda mask: Fraction(ints[mask], d), "derived", table=lambda: (d, ints)
    )


def _mask_table(n, image):
    """For each mask, the sum of image[i] over its elements i."""
    out = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        out[mask] = out[mask ^ low] + image[low.bit_length() - 1]
    return out


def test_metamorphic_relations_at_the_cap():
    # relations that follow from the definitions, so they need no reference
    # answer, on the six generator families at n = 13: adding a modular
    # w >= 0 keeps the chain, a shift by c on every nonempty set moves each
    # breakpoint by c, scaling by c multiplies each by c, and relabelling
    # keeps the distinct breakpoints; OPT_k and the class verdicts follow
    # (OPT_k at one k from 9..12, where the DP is cheap).  The chain itself
    # differs under relabelling only where tied blocks split in label
    # order, pinned below until the chain at ties is label-free
    n = 13
    relabelled_chains_differ = []
    for family in sorted(sp.GENERATOR_FAMILIES):
        rng = random.Random(f"relations:{family}")
        d, tab = sp.random_instance(family, n, 1).scaled_table()
        base = _derived_oracle(n, d, tab)
        seq = sp.compute_pps(base)
        verdicts = {name: r.ok for name, r in sp.check_classes(base).items()}
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        weight = _mask_table(n, [rng.randint(0, 5) for _ in range(n)])
        sigma = rng.sample(range(n), n)
        k = rng.randint(9, 12)
        opt = optimal_k_value(base, k)
        image = _mask_table(n, [1 << s for s in sigma])
        relabelled = [0] * (1 << n)
        for mask, value in enumerate(tab):
            relabelled[image[mask]] = value
        derived = {
            "modular": (d, [t + d * w for t, w in zip(tab, weight)]),
            "shift": (
                d * c.denominator,
                [t * c.denominator + (d * c.numerator if m else 0) for m, t in enumerate(tab)],
            ),
            "scale": (d * c.denominator, [t * c.numerator for t in tab]),
            "relabel": (d, relabelled),
        }
        for relation, (dd, ints) in derived.items():
            oracle = _derived_oracle(n, dd, ints)
            out = sp.compute_pps(oracle)
            got = {name: r.ok for name, r in sp.check_classes(oracle).items()}
            where = (family, relation)
            assert optimal_k_value(oracle, k) == {
                "modular": opt + weight[-1],
                "shift": opt + c * k,
                "scale": opt * c,
                "relabel": opt,
            }[relation], where
            if relation == "relabel":
                assert sorted(set(out.breakpoints)) == sorted(set(seq.breakpoints)), where
                mapped = [sp.Partition(n, [image[b] for b in p.blocks]) for p in seq.partitions]
                if out.partitions != tuple(mapped):
                    relabelled_chains_differ.append((family, seq.block_counts(), out.block_counts()))
            else:
                assert out.partitions == seq.partitions, where
                moved = {
                    "modular": list(seq.breakpoints),
                    "shift": [b + c for b in seq.breakpoints],
                    "scale": [b * c for b in seq.breakpoints],
                }[relation]
                assert list(out.breakpoints) == moved, where
            if relation in ("scale", "relabel"):
                assert got == verdicts, where
            else:
                assert got["submodular"] == verdicts["submodular"], where
                for name in ("monotone", "posimodular"):
                    assert got[name] or not verdicts[name], (where, name)
    assert relabelled_chains_differ == [
        ("partition_matroid", (1, 6, 7, 8, 10, 12, 13), (1, 6, 7, 8, 9, 11, 13)),
    ]
