import random
from fractions import Fraction

import pytest

import subpartition as sp
from subpartition import partition_opt

from helpers import (
    EPS,
    cardinality,
    coverage_path3,
    footnote_matroid,
    mono3,
    mono_n,
    omega,
    partition_value,
    posi3,
    two_triangles,
    weighted_path4,
)


def test_weighted_path_all_k_exact_hits():
    oracle = weighted_path4().oracle()
    pps = sp.compute_pps(oracle)
    expected = {1: Fraction(0), 2: Fraction(2), 3: Fraction(6), 4: Fraction(12)}
    for k, value in expected.items():
        run = sp.pps_k_partition(oracle, k, pps=pps)
        assert run.exact_hit
        assert run.value == value
        assert run.below is None and run.above is None
        _, opt = sp.brute_force_optimal_k_partition(oracle, k)
        assert run.value == opt


def test_mono3_straddle_diagnostics():
    oracle = mono3().oracle()
    run = sp.pps_k_partition(oracle, 2)
    assert not run.exact_hit
    assert run.below == sp.trivial_partition(3)
    assert run.above == sp.singleton_partition(3)
    assert run.split_block == 0b111
    assert run.piece_order == (0b001, 0b010, 0b100)
    assert run.num_taken == 1
    assert run.gap_above == 1
    assert run.partition == sp.Partition(3, [0b001, 0b110])
    assert run.value == 3 + 2 * EPS


def test_mono_n5_k3_run():
    oracle = mono_n(5).oracle()
    run = sp.pps_k_partition(oracle, 3)
    assert not run.exact_hit
    assert run.partition == sp.Partition(5, [0b00001, 0b00010, 0b11100])
    assert run.value == 5


def test_cardinality_n6_k3():
    oracle = cardinality(6).oracle()
    rep = sp.ratio_report(oracle, 3, "monotone")
    assert rep.algorithm_value == 6
    assert rep.optimal_value == 6
    assert rep.ratio == 1
    assert rep.bound_ok


def test_chain_lower_bounds_mono3():
    oracle = mono3().oracle()
    pps = sp.compute_pps(oracle)
    _, opt = sp.brute_force_optimal_k_partition(oracle, 2)
    rep = sp.check_chain_lower_bounds(oracle, 2, pps, opt)
    assert rep.applicable
    # the interpolated bound is tight here: it equals the optimum
    assert rep.interpolated_bound == Fraction(5, 2) + 2 * EPS == opt
    assert rep.coarse_bound == 2 + 2 * EPS
    assert rep.interpolated_ok and rep.coarse_ok


def test_chain_lower_bounds_posi3():
    oracle = posi3().oracle()
    pps = sp.compute_pps(oracle)
    _, opt = sp.brute_force_optimal_k_partition(oracle, 2)
    assert opt == 2 + 2 * EPS
    rep = sp.check_chain_lower_bounds(oracle, 2, pps, opt)
    assert rep.applicable
    assert rep.interpolated_bound == 2 + EPS
    assert rep.coarse_bound == 1 + EPS
    assert rep.interpolated_ok and rep.coarse_ok


def test_chain_lower_bounds_digraph():
    oracle = omega(5, 10).oracle()
    pps = sp.compute_pps(oracle)
    _, opt = sp.brute_force_optimal_k_partition(oracle, 3)
    rep = sp.check_chain_lower_bounds(oracle, 3, pps, opt)
    assert rep.applicable
    assert rep.interpolated_bound == 22
    assert rep.coarse_bound == 0
    assert rep.interpolated_ok and rep.coarse_ok


def test_chain_lower_bounds_not_applicable_on_hit():
    oracle = weighted_path4().oracle()
    pps = sp.compute_pps(oracle)
    rep = sp.check_chain_lower_bounds(oracle, 2, pps, Fraction(2))
    assert not rep.applicable


def test_exact_hit_reports():
    oracle = weighted_path4().oracle()
    pps = sp.compute_pps(oracle)
    for k in range(1, 5):
        rep = sp.ratio_report(oracle, k, pps=pps)
        assert rep.exact_hit
        assert rep.algorithm_value == rep.optimal_value
    mono = mono3().oracle()
    assert not sp.ratio_report(mono, 2, "monotone").exact_hit


def test_chain_checks_reject_k_out_of_range():
    oracle = weighted_path4().oracle()
    pps = sp.compute_pps(oracle)
    for k in (0, oracle.n + 1):
        with pytest.raises(ValueError):
            sp.check_chain_lower_bounds(oracle, k, pps, Fraction(2))
        with pytest.raises(ValueError):
            sp.ratio_report(oracle, k, pps=pps)


def test_chain_checks_reject_a_chain_on_another_ground_set():
    # the 3-element path's chain read against a 4-element cut that holds
    # its edges: without the check, k = 3 would pass the path's singletons
    # off as an exact hit on four elements
    three = sp.GraphCutFn(3, [(0, 1, 1), (1, 2, 1)])
    four = sp.GraphCutFn(4, [(0, 1, 1), (1, 2, 1), (2, 3, 5)]).oracle()
    pps = sp.compute_pps(three.oracle())
    message = "the chain is on 3 elements, the oracle on 4"
    with pytest.raises(ValueError, match=message):
        sp.pps_k_partition(four, 3, pps=pps)
    with pytest.raises(ValueError, match=message):
        sp.ratio_report(four, 3, "symmetric", pps=pps)
    with pytest.raises(ValueError, match=message):
        sp.check_chain_lower_bounds(four, 2, pps, Fraction(2))


def test_two_triangles_k2_exact_hit():
    oracle = two_triangles().oracle()
    rep = sp.ratio_report(oracle, 2, "symmetric")
    assert rep.exact_hit
    assert rep.algorithm_value == 0
    assert rep.optimal_value == 0
    # both-zero convention: ratio 1, inside any bound
    assert rep.ratio == 1
    assert rep.bound_ok
    assert sp.brute_force_optimal_k_partition(oracle, 2)[0] == sp.Partition(6, [0b000111, 0b111000])


def test_cheapest_singleton_matroid_tightness():
    k = 4
    oracle = footnote_matroid(k).oracle()
    base = sp.cheapest_singleton(oracle, k)
    assert base.value == 2 * k - 1
    _, opt = sp.brute_force_optimal_k_partition(oracle, k)
    assert opt == k
    assert base.value == (2 - Fraction(1, k)) * opt


def test_cheapest_singleton_cardinality():
    oracle = cardinality(6).oracle()
    for k in range(1, 7):
        assert sp.cheapest_singleton(oracle, k).value == 6


def test_cheapest_singleton_reads_a_held_table():
    # an oracle that holds its table answers the baseline from the table:
    # no eval, so no call of the family's value; partition and value equal
    # those of the eval path on a fresh oracle, ties by index included
    families = [
        sp.random_instance(family, 6, seed)
        for family in sorted(sp.GENERATOR_FAMILIES)
        for seed in range(3)
    ]
    families += [footnote_matroid(), cardinality(5), mono3(), posi3(), mono_n(5), omega(5)]
    for fam in families:
        calls = []

        def counted(mask, value=fam.value):
            calls.append(mask)
            return value(mask)

        oracle = sp.ValueOracle(fam.ground_set(), counted)
        oracle.scaled_table()
        calls.clear()
        queries = oracle.total_calls
        for k in range(1, fam.n + 1):
            assert sp.cheapest_singleton(oracle, k) == sp.cheapest_singleton(fam.oracle(), k)
        assert calls == [] and oracle.total_calls == queries, fam


def test_cheapest_singleton_coverage():
    oracle = coverage_path3().oracle()
    base = sp.cheapest_singleton(oracle, 2)
    assert base.partition == sp.Partition(3, [0b001, 0b110])
    assert base.value == 3
    _, opt = sp.brute_force_optimal_k_partition(oracle, 2)
    assert base.value == opt


def test_greedy_first_split_is_optimal_for_symmetric():
    for seed in range(10):
        fam = sp.random_instance("graph_cut", 5 + seed % 4, seed)
        oracle = fam.oracle()
        greedy = sp.greedy_splitting(oracle, 2)
        _, opt = sp.brute_force_optimal_k_partition(oracle, 2)
        assert greedy.value == opt


def test_greedy_cardinality_stays_flat():
    oracle = cardinality(5).oracle()
    for k in range(1, 6):
        assert sp.greedy_splitting(oracle, k).value == 5


def _fraction_greedy(oracle, k):
    """Reference greedy on Fraction values: k-1 rounds of the first cheapest
    2-split, blocks in canonical order and, within a block, the halves
    holding its minimum element in ascending mask order."""
    blocks = [oracle.ground_set.full_mask]
    for _ in range(k - 1):
        best = None
        for bi, blk in enumerate(blocks):
            low = blk & -blk
            for sub in range(low, blk):
                if sub & blk != sub or not sub & low:
                    continue
                cost = oracle.eval(sub) + oracle.eval(blk ^ sub) - oracle.eval(blk)
                if best is None or cost < best[0]:
                    best = (cost, bi, sub)
        _, bi, sub = best
        blk = blocks.pop(bi)
        blocks.extend([sub, blk ^ sub])
        blocks.sort(key=lambda m: m & -m)
    partition = sp.Partition(oracle.n, blocks)
    return partition, partition_value(oracle, partition)


def _greedy_cases():
    for family in sorted(sp.GENERATOR_FAMILIES):
        for n in range(2, 8):
            yield sp.random_instance(family, n, n)
    # tie-heavy and negative tables, most of them not submodular
    value_sets = ((0, 1), (0, 1, 2), (-3, -1, 0, Fraction(1, 2), 2))
    for i in range(120):
        rng = random.Random(f"greedy:{i}")
        n = 2 + i % 5
        values = value_sets[i % 3]
        yield sp.ExplicitTableFn(n, [rng.choice(values) for _ in range(1 << n)], "general")


def test_greedy_matches_fraction_scan():
    non_submodular = 0
    for fam in _greedy_cases():
        oracle = fam.oracle()
        non_submodular += not sp.check_submodular(oracle).ok
        bare = sp.ValueOracle(fam.ground_set(), fam.value)
        for k in range(1, fam.n + 1):
            expected = _fraction_greedy(fam.oracle(), k)
            for run in (sp.greedy_splitting(oracle, k), sp.greedy_splitting(bare, k)):
                assert (run.partition, run.value) == expected, (fam.name, fam.n, k)
    assert non_submodular > 60


def test_greedy_reads_no_table_at_k1():
    oracle = cardinality(5).oracle()
    sp.greedy_splitting(oracle, 1)
    assert oracle.distinct_evaluations == 1
    sp.greedy_splitting(oracle, 2)
    assert oracle.distinct_evaluations == 32


def test_oracle_evals_contract(monkeypatch):
    # a fresh oracle builds no table for the table-less baselines.  Singleton
    # asks once per element to order them and once per block to score,
    # n + k calls, over the n singletons and the rest of V (itself a
    # singleton at k = n); greedy at k = 1 asks for V once
    families = [sp.GraphCutFn(1, []), footnote_matroid(3), cardinality(4)]
    families += [sp.random_instance(family, n, 1) for family in sorted(sp.GENERATOR_FAMILIES) for n in (2, 6)]
    for fam in families:
        n = fam.n
        for k in range(1, n + 1):
            oracle = fam.oracle()
            sp.cheapest_singleton(oracle, k)
            assert (oracle.total_calls, oracle.distinct_evaluations) == (n + k, n + (k < n)), (fam, k)
        oracle = fam.oracle()
        sp.greedy_splitting(oracle, 1)
        assert (oracle.total_calls, oracle.distinct_evaluations) == (1, 1), fam
    fam = sp.random_instance("graph_cut", 6, 1)
    # the chain k-partition reads the table even with a chain passed in, so
    # it counts all 2^n subsets and checks the cap, as greedy does
    seq = sp.compute_pps(fam.oracle())
    oracle = fam.oracle()
    sp.pps_k_partition(oracle, 3, pps=seq)
    assert oracle.distinct_evaluations == 64
    monkeypatch.setenv("SUBMOD_N_CAP", "5")
    for solve in (lambda o: sp.pps_k_partition(o, 3, pps=seq), lambda o: sp.greedy_splitting(o, 3)):
        with pytest.raises(sp.GroundSetCapError):
            solve(fam.oracle())


def test_eval_answers_from_the_table(monkeypatch):
    calls = []
    value = sp.GraphCutFn.value

    def counted(self, mask):
        calls.append(mask)
        return value(self, mask)

    monkeypatch.setattr(sp.GraphCutFn, "value", counted)
    fam = sp.random_instance("graph_cut", 6, 1)
    assert fam.oracle().eval(0b101) == value(fam, 0b101)
    assert calls == [0b101]  # no table yet: eval asks the family
    oracle = fam.oracle()
    d, tab = oracle.scaled_table()
    sp.cheapest_singleton(oracle, 3)
    for mask in range(64):
        assert oracle.eval(mask) == Fraction(tab[mask], d) == value(fam, mask)
    assert calls == [0b101]


def test_approximation_bound_frozen():
    assert sp.approximation_bound("monotone", 3) == Fraction(6, 5)
    assert sp.approximation_bound("posimodular", 3) == Fraction(3, 2)
    assert sp.approximation_bound("symmetric", 4) == Fraction(3, 2)
    assert sp.approximation_bound("general", 9) is None
    with pytest.raises(ValueError):
        sp.approximation_bound("concave", 3)


def test_approximation_bound_is_never_below_one():
    # a ratio is at least 1, so a bound below 1 fails even an exact answer;
    # at n = 1 only k = 1 exists and every algorithm is exact
    for function_class in sp.FUNCTION_CLASSES:
        for n in range(1, 14):
            bound = sp.approximation_bound(function_class, n)
            assert bound is None or bound >= 1, (function_class, n)


def test_ratio_never_below_one():
    for family in ("graph_cut", "graph_coverage", "hypergraph_cut"):
        fam = sp.random_instance(family, 6, 5)
        oracle = fam.oracle()
        pps = sp.compute_pps(oracle)
        for k in range(2, 7):
            rep = sp.ratio_report(oracle, k, pps=pps)
            if isinstance(rep.ratio, Fraction):
                assert rep.ratio >= 1
            assert rep.algorithm_value >= rep.optimal_value


def test_chain_coarse_ratio_value():
    oracle = mono3().oracle()
    rep = sp.ratio_report(oracle, 2, "monotone")
    assert rep.chain_coarse_ratio == (2 + 2 * EPS) / (Fraction(5, 2) + 2 * EPS)
    assert rep.bound == Fraction(6, 5)
    assert rep.ratio <= rep.bound
    assert rep.bound_ok


def test_value_is_label_invariant():
    edges = [(0, 1, Fraction(3)), (1, 2, Fraction(1)), (2, 3, Fraction(2)), (0, 4, Fraction(5))]
    perm = [4, 2, 0, 1, 3]
    permuted = [(perm[u], perm[v], w) for u, v, w in edges]
    a = sp.GraphCutFn(5, edges).oracle()
    b = sp.GraphCutFn(5, permuted).oracle()
    for k in range(1, 6):
        assert sp.pps_k_partition(a, k).value == sp.pps_k_partition(b, k).value


def test_straddle_partition_structure():
    # the output coarsens the chain member above k and keeps every block of
    # the one below k outside the split block
    for fam in (mono3(), mono_n(5), omega(6, 7), two_triangles()):
        oracle = fam.oracle()
        pps = sp.compute_pps(oracle)
        for k in range(1, oracle.n + 1):
            run = sp.pps_k_partition(oracle, k, pps=pps)
            assert len(run.partition.blocks) == k
            if run.exact_hit:
                continue
            assert sp.refines(run.above, run.partition)
            assert sp.refines(run.partition, run.below)
            for blk in run.partition.blocks:
                assert blk in run.below.blocks or blk & ~run.split_block == 0


def test_precomputed_sequence_is_reused():
    oracle = mono3().oracle()
    pps = sp.compute_pps(oracle)
    run = sp.pps_k_partition(oracle, 2, pps=pps)
    assert run.sequence is pps


def test_k_out_of_range():
    oracle = mono3().oracle()
    for bad in (0, 4):
        with pytest.raises(ValueError):
            sp.pps_k_partition(oracle, bad)
        with pytest.raises(ValueError):
            sp.cheapest_singleton(oracle, bad)
        with pytest.raises(ValueError):
            sp.greedy_splitting(oracle, bad)


def test_ratio_to_optimum_rule():
    assert sp.ratio_to_optimum(Fraction(3), Fraction(2), Fraction(2)) == (Fraction(3, 2), True)
    assert sp.ratio_to_optimum(Fraction(5), Fraction(2), Fraction(2)) == (Fraction(5, 2), False)
    # optimal values give ratio 1 at any sign of the optimum
    for opt in (Fraction(-2), Fraction(0), Fraction(7)):
        assert sp.ratio_to_optimum(opt, opt, Fraction(1)) == (1, True)
    # above a nonpositive optimum the ratio is unbounded and meets no bound
    for value, opt in ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(-2))):
        assert sp.ratio_to_optimum(value, opt, Fraction(3, 2)) == (None, False)
        assert sp.ratio_to_optimum(value, opt, None) == (None, True)


def test_ratio_helpers_reject_floats():
    for args in (
        (Fraction(3), 2.0, None),
        (3.0, Fraction(2), None),
        (Fraction(3), Fraction(2), 1.5),
    ):
        with pytest.raises(TypeError, match="floats are not exact"):
            sp.ratio_to_optimum(*args)
    oracle = sp.random_instance("graph_cut", 6, 1).oracle()
    chain = sp.compute_pps(oracle)
    assert 3 not in chain.block_counts()
    with pytest.raises(TypeError, match="floats are not exact"):
        sp.check_chain_lower_bounds(oracle, 3, chain, 2.5)


def test_algorithm_guarantee():
    assert sp.algorithm_guarantee("pps", "symmetric", 6, 3) == sp.approximation_bound("symmetric", 6)
    assert sp.algorithm_guarantee("pps", "general", 6, 3) is None
    assert sp.algorithm_guarantee("singleton", "monotone", 6, 3) == Fraction(5, 3)
    assert sp.algorithm_guarantee("singleton", "symmetric", 6, 3) is None
    assert sp.algorithm_guarantee("greedy", "monotone", 6, 3) is None


@pytest.mark.parametrize("algorithm", ["pps", "greedy", "singleton"])
def test_algorithm_guarantee_rejects_an_unknown_class(algorithm):
    # "no bound" (None) is an answer about a known class, never about a typo
    with pytest.raises(ValueError, match="unknown function class 'nonsense'"):
        sp.algorithm_guarantee(algorithm, "nonsense", 5, 2)


def test_ratio_report_negative_optimum_attained():
    # f = -1 everywhere passes every class check; any 2-partition is optimal
    oracle = sp.ExplicitTableFn(4, [-1] * 16, "monotone").oracle()
    for check in (sp.check_submodular, sp.check_monotone, sp.check_symmetric, sp.check_posimodular):
        assert check(oracle).ok
    rep = sp.ratio_report(oracle, 2, "monotone")
    assert rep.algorithm_value == rep.optimal_value == -2
    assert rep.ratio == 1
    assert rep.bound_ok


@pytest.mark.parametrize(
    "fam, k, function_class, algorithm_value, optimal_value",
    [
        (sp.MonoTightNFn(13, EPS), 7, "monotone", 13, Fraction(10500007, 10**6)),
        (sp.DigraphHyperFn(13, 10**6), 7, "general", 12000006, 6000007),
    ],
)
def test_ratio_report_at_the_cap_enumerates_nothing(
    monkeypatch, fam, k, function_class, algorithm_value, optimal_value
):
    def no_enumeration(n, k):
        raise AssertionError(f"enumerated the partitions of {n} elements")

    monkeypatch.setattr(partition_opt, "_raw_partitions", no_enumeration)
    rep = sp.ratio_report(fam.oracle(), k, function_class)
    assert rep.algorithm_value == algorithm_value
    assert rep.optimal_value == optimal_value
