import random
from fractions import Fraction
from itertools import combinations, islice

import pytest

import subpartition as sp
from subpartition import partition_opt

from helpers import (
    BELL,
    EPS,
    cardinality,
    coverage_path3,
    footnote_matroid,
    fraction_oracle,
    g_value,
    mono3,
    mono_n,
    omega,
    partition_value,
    partitions,
    posi3,
    rgs,
    submodular_table,
    two_edges,
    two_triangles,
    unit_path3,
    weighted_path4,
    zero_fn,
)

STIRLING = {(4, 2): 7, (5, 3): 25, (6, 3): 90, (7, 4): 350, (8, 4): 1701}


def test_bell_counts():
    for n in range(1, 9):
        assert len(partitions(n)) == BELL[n]


def test_stirling_counts():
    for (n, k), count in STIRLING.items():
        assert len(partitions(n, k)) == count


def test_raw_partitions_are_the_canonical_k_block_partitions():
    # brute force keeps the first optimum that `_raw_partitions` yields and
    # trusts its block order, so at every k the generator must yield exactly
    # the k-block partitions, as canonical block tuples, in canonical order
    for n in range(1, 8):
        counts = []
        for k in range(1, n + 1):
            raw = list(partition_opt._raw_partitions(n, k))
            assert raw == [p.blocks for p in partitions(n, k)], (n, k)
            counts.append(len(raw))
        assert sum(counts) == BELL[n], n


def test_single_element_ground_set():
    assert partitions(1) == (sp.Partition(1, [0b1]),)
    assert rgs(partitions(1)[0]) == (0,)


def test_canonical_order_n3():
    assert [rgs(p) for p in partitions(3)] == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (0, 1, 2),
    ]


def test_order_is_lex_on_growth_strings():
    seen = [rgs(p) for p in partitions(5)]
    assert seen == sorted(seen)
    assert len(set(seen)) == BELL[5]


def test_k_out_of_range():
    # no partition has 0 blocks or more blocks than elements
    for k in (0, 4):
        assert list(partition_opt._raw_partitions(3, k)) == []


def test_streaming_is_lazy():
    # S(13, 7) is 5.6 million; taking a prefix must not materialize the rest
    first = list(islice(partition_opt._raw_partitions(13, 7), 2))
    assert [rgs(sp.Partition(13, masks)) for masks in first] == [
        (0,) * 7 + (1, 2, 3, 4, 5, 6),
        (0,) * 6 + (1, 0, 2, 3, 4, 5, 6),
    ]


def _finest(oracle, b):
    """The partition R that Narayanan's greedy merges at b: for submodular f
    the finest minimizer of f(P) - b|P|."""
    d, tab = oracle.scaled_table()
    return partition_opt._dilworth_greedy(oracle.n, d, tab, sp.as_fraction(b))[1]


def test_minimize_g_zero_oracle():
    oracle = zero_fn(4).oracle()
    value = sp.minimize_g(oracle, 1)
    assert isinstance(value, Fraction)
    assert value == -4
    assert _finest(oracle, 1) == sp.singleton_partition(4)


def test_minimize_g_tie_handling():
    oracle = zero_fn(3).oracle()
    assert sp.minimize_g(oracle, 0) == 0
    assert _finest(oracle, 0) == sp.singleton_partition(3)


def test_minimize_g_mono3_small_b():
    oracle = mono3().oracle()
    assert sp.minimize_g(oracle, Fraction(1, 4)) == Fraction(7, 4) + 2 * EPS


def test_minimize_g_mono3_breakpoint():
    # b = 1/2 is a breakpoint: the whole chain from {V} to singletons ties
    oracle = mono3().oracle()
    assert sp.minimize_g(oracle, Fraction(1, 2)) == Fraction(3, 2) + 2 * EPS
    assert _finest(oracle, Fraction(1, 2)) == sp.singleton_partition(3)


def test_minimize_g_result_is_global_minimum():
    for fam in (weighted_path4(), posi3()):
        oracle, reference = fam.oracle(), fraction_oracle(fam)
        for b in (0, Fraction(1, 3), 1, Fraction(5, 2)):
            value = sp.minimize_g(oracle, b)
            for p in partitions(oracle.n):
                assert value <= g_value(reference, p, b)
            assert value == g_value(reference, _finest(oracle, b), b)


def test_minimizer_line_bounds_h_everywhere():
    # h(b) = min_P f(P) - b|P| is concave piecewise linear; the line of any
    # minimizer at b0 must dominate h on the whole axis
    oracle, reference = weighted_path4().oracle(), fraction_oracle(weighted_path4())
    grid = [Fraction(i, 4) for i in range(20)]
    for b0 in (Fraction(1, 2), Fraction(3, 2), Fraction(7, 2)):
        star = _finest(oracle, b0)
        for bp in grid:
            assert sp.minimize_g(oracle, bp) <= g_value(reference, star, bp)


def test_minimize_g_rejects_float_parameter():
    oracle = zero_fn(3).oracle()
    with pytest.raises(TypeError):
        sp.minimize_g(oracle, 0.5)


def test_brute_force_k_equals_n():
    for fam in (mono3(), posi3(), weighted_path4()):
        oracle = fam.oracle()
        n = oracle.n
        _, value = sp.brute_force_optimal_k_partition(oracle, n)
        assert value == sum(fam.value(1 << i) for i in range(n))


def test_brute_force_k2_symmetric_is_min_cut():
    for seed in (3, 11):
        fam = sp.random_instance("graph_cut", 6, seed)
        oracle = fam.oracle()
        _, value = sp.brute_force_optimal_k_partition(oracle, 2)
        full = oracle.ground_set.full_mask
        assert value == 2 * min(fam.value(s) for s in range(1, full))


def test_brute_force_frozen_small_cases():
    p, v = sp.brute_force_optimal_k_partition(mono3().oracle(), 2)
    assert v == Fraction(5, 2) + 2 * EPS
    assert p == sp.Partition(3, [0b011, 0b100])

    p, v = sp.brute_force_optimal_k_partition(posi3().oracle(), 2)
    assert v == 2 + 2 * EPS
    assert p == sp.Partition(3, [0b011, 0b100])

    p, v = sp.brute_force_optimal_k_partition(cardinality(5).oracle(), 3)
    assert v == 5
    assert p == sp.Partition(5, [0b00111, 0b01000, 0b10000])


def test_brute_force_canonical_tie_break():
    p, v = sp.brute_force_optimal_k_partition(zero_fn(3).oracle(), 2)
    assert v == 0
    assert p == sp.Partition(3, [0b011, 0b100])


def test_brute_force_k_out_of_range():
    oracle = zero_fn(3).oracle()
    with pytest.raises(ValueError):
        sp.brute_force_optimal_k_partition(oracle, 0)
    with pytest.raises(ValueError):
        sp.brute_force_optimal_k_partition(oracle, 4)


def test_brute_force_all_k_matches_per_k():
    fam = weighted_path4()
    oracle = fam.oracle()
    table = sp.brute_force_all_k(oracle)
    assert sorted(table) == [1, 2, 3, 4]
    assert table[1] == (sp.trivial_partition(4), fam.value(0b1111))
    for k, (part, value) in table.items():
        pk, vk = sp.brute_force_optimal_k_partition(oracle, k)
        assert (part, value) == (pk, vk)
        assert len(part.blocks) == k


def test_enumeration_cap_enforced(monkeypatch):
    monkeypatch.setenv("SUBMOD_N_CAP", "4")
    oracle5 = zero_fn(5).oracle()
    with pytest.raises(sp.GroundSetCapError):
        sp.minimize_g(oracle5, 1)
    with pytest.raises(sp.GroundSetCapError):
        sp.brute_force_optimal_k_partition(oracle5, 2)


def test_cap_gates_warm_caches(monkeypatch):
    # the value table checks the cap on every call, so a cached table lets
    # no exhaustive work past a lowered cap
    oracle = sp.GraphCutFn(5, [(0, 1, 3), (1, 2, 1), (2, 3, 2), (3, 4, 1)]).oracle()
    oracle.scaled_table()
    sp.minimize_g(oracle, 1)
    monkeypatch.setenv("SUBMOD_N_CAP", "4")
    calls = [
        lambda: sp.minimize_g(oracle, 1),
        lambda: sp.brute_force_optimal_k_partition(oracle, 2),
        lambda: sp.brute_force_all_k(oracle),
        lambda: sp.compute_pps(oracle),
        lambda: sp.check_two_level_condition(oracle),
        lambda: sp.check_submodular(oracle),
        lambda: sp.check_posimodular(oracle),
        lambda: sp.check_monotone(oracle),
        lambda: sp.check_symmetric(oracle),
        lambda: sp.greedy_splitting(oracle, 2),
    ]
    for call in calls:
        with pytest.raises(sp.GroundSetCapError):
            call()


def _minimize_g_by_scan(scored, b):
    """Reference minimizer: scan (partition, f(P)) pairs, keeping the minimum
    of f(P) - b|P| and the minimizers with the most blocks.  The finest
    minimizer is the only one with that many blocks, or None when several
    tie there."""
    best, finest = None, []
    for part, value in scored:
        score = value - b * len(part)
        if best is None or score < best:
            best, finest = score, [part]
        elif score == best:
            if len(part) > len(finest[0]):
                finest = [part]
            elif len(part) == len(finest[0]):
                finest.append(part)
    return best, finest[0] if len(finest) == 1 else None


def test_minimize_g_matches_independent_scan():
    families = [
        sp.random_instance(family, n, seed)
        for family in sorted(sp.GENERATOR_FAMILIES)
        for n in range(2, 7)
        for seed in range(3)
    ]
    families += [mono3(), posi3(), mono_n(5), omega(6)]
    rng = random.Random("minimize-g")
    for i in range(60):
        n = 2 + i % 5
        top = 2 if i % 2 else 9  # half of the tables are tie-heavy
        values = [0] + [rng.randint(0, top) for _ in range((1 << n) - 1)]
        families.append(sp.ExplicitTableFn(n, values))
    tied_finest = missed = 0
    for fam in families:
        oracle = fam.oracle()
        submodular = sp.check_submodular(oracle).ok
        reference = fraction_oracle(fam)
        scored = [(p, partition_value(reference, p)) for p in partitions(oracle.n)]
        params = {Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(50)}
        try:
            breakpoints = sp.compute_pps(oracle).breakpoints
        except sp.NonSubmodularError:
            breakpoints = ()
        params.update(breakpoints)
        params.update(b + Fraction(1, 7) for b in breakpoints)
        for b in sorted(params):
            value, finest = _minimize_g_by_scan(scored, b)
            assert sp.minimize_g(oracle, b) == value, (fam, b)
            if submodular:
                # the minimizers form a lattice, and the greedy merges its finest
                assert _finest(oracle, b) == finest, (fam, b)
            else:
                tied_finest += finest is None
                # where the greedy's partition misses g(b), minimize_g falls back
                missed += g_value(reference, _finest(oracle, b), b) != value
    assert tied_finest and missed


def _three_block_table(low_values):
    """A 4-element table that is 10 on every nonempty set but the given
    masks, so only the 3-block partitions made of those sets cost 2."""
    values = [0] + [10] * 15
    for mask, value in low_values.items():
        values[mask] = value
    return sp.ExplicitTableFn(4, values).oracle()


def test_optimal_k_value_finds_ties_at_any_depth():
    # {0} is the only block holding element 0 in an optimal 3-partition,
    # but its remainder {1, 2, 3} splits as {1}{2, 3} or {1, 2}{3}
    deep = _three_block_table({0b0001: 0, 0b0010: 1, 0b1100: 1, 0b0110: 1, 0b1000: 1})
    # the converse: {0}{1}{2, 3} and {0, 1}{2}{3} tie at the top step, and
    # each remainder splits one way only
    top = _three_block_table({0b0001: 0, 0b0010: 1, 0b1100: 1, 0b0011: 0, 0b0100: 1, 0b1000: 1})
    # without {1, 2} the deep tie is gone and the optimum is unique
    unique = _three_block_table({0b0001: 0, 0b0010: 1, 0b1100: 1, 0b1000: 1})
    for oracle, ties in ((deep, 2), (top, 2), (unique, 1)):
        assert len(_optima_by_bell_scan(oracle)[3][1]) == ties
        assert sp.optimal_k_value(oracle, 3) == 2


def _optima_by_bell_scan(oracle):
    """Per block count k, OPT_k and every k-block partition attaining it,
    from one walk over all partitions (in integers scaled by d)."""
    d, tab = oracle.scaled_table()
    optima = {}
    for part in partitions(oracle.n):
        k, value = len(part), sum(tab[m] for m in part.blocks)
        if k not in optima or value < optima[k][0]:
            optima[k] = (value, [part])
        elif value == optima[k][0]:
            optima[k][1].append(part)
    return {k: (Fraction(value, d), parts) for k, (value, parts) in optima.items()}


def test_finest_minimizer_is_unique_on_submodular_input():
    # for submodular f the minimizers of f(P) - b|P| form a lattice
    # (Narayanan 1991), so exactly one has the most blocks at every b, and
    # the greedy merges it; checked at every crossing of two block-count
    # lines, where ties happen, and 1/3 to either side
    rng = random.Random("lattice")
    families = [sp.ExplicitTableFn(n, submodular_table(rng, n)) for n in [2, 3, 4, 5, 6, 7] * 50]
    families += [
        sp.random_instance(family, n, seed)
        for family in sorted(sp.GENERATOR_FAMILIES)
        for n in range(2, 9)
        for seed in range(4)
    ]
    families += [
        mono3(), posi3(), mono_n(5), mono_n(7), omega(6), weighted_path4(), two_edges(),
        unit_path3(), coverage_path3(), footnote_matroid(), two_triangles(), cardinality(5),
        zero_fn(4),
    ]
    for fam in families:
        oracle = fam.oracle()
        assert sp.check_submodular(oracle).ok, fam
        optima = _optima_by_bell_scan(oracle)
        params = set()
        for i, j in combinations(optima, 2):
            b = (optima[j][0] - optima[i][0]) / (j - i)
            params.update((b - Fraction(1, 3), b, b + Fraction(1, 3)))
        for b in params:
            scores = {k: value - b * k for k, (value, _) in optima.items()}
            best = min(scores.values())
            (finest,) = optima[max(k for k, score in scores.items() if score == best)][1]
            assert _finest(oracle, b) == finest, (fam, b)


def test_optimal_k_value_matches_enumeration():
    families = [
        sp.random_instance(family, n, seed)
        for family in sorted(sp.GENERATOR_FAMILIES)
        for n in range(2, 9)
        for seed in range(3)
    ]
    families += [mono3(), posi3(), mono_n(5), mono_n(7), omega(6)]
    rng = random.Random("optimal-k-value")
    for i in range(80):
        n = 2 + i % 6
        low, high = ((0, 1), (-2, 2), (-9, 9), (0, 9))[i % 4]  # tie-heavy, negative, spread
        values = [rng.randint(low, high) for _ in range(1 << n)]
        families.append(sp.ExplicitTableFn(n, values))
    # n = 1 has only the top level; at n = 8-9 every level between keeps
    # masks of several sizes, tie-heavy and negative
    families += [sp.ExplicitTableFn(1, [0, v]) for v in (-3, 0, 5)]
    for n in (8, 9):
        for low, high in ((0, 1), (-9, 9)):
            families.append(sp.ExplicitTableFn(n, [rng.randint(low, high) for _ in range(1 << n)]))
    non_submodular = 0
    for fam in families:
        oracle = fam.oracle()
        non_submodular += not sp.check_submodular(oracle).ok
        for k in range(1, oracle.n + 1):
            _, expected = sp.brute_force_optimal_k_partition(oracle, k)
            assert sp.optimal_k_value(oracle, k) == expected, (fam, k)
    assert non_submodular >= 40


def test_optimal_k_value_checks_k_and_the_cap(monkeypatch):
    oracle = sp.GraphCutFn(5, [(0, 1, 3), (1, 2, 1), (2, 3, 2), (3, 4, 1)]).oracle()
    assert sp.optimal_k_value(oracle, 2) == 2
    for k in (0, 6):
        with pytest.raises(ValueError, match="block count"):
            sp.optimal_k_value(oracle, k)
    monkeypatch.setenv("SUBMOD_N_CAP", "4")
    with pytest.raises(sp.GroundSetCapError):
        sp.optimal_k_value(oracle, 2)
