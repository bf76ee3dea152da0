import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import subpartition as sp

from helpers import EPS, cardinality, coverage_path3, mono3, mono_n, omega, posi3

E = EPS


def table_of(fam):
    return tuple(fam.value(m) for m in range(1 << fam.n))


def test_graph_cut_values():
    fam = sp.GraphCutFn(3, [(0, 1, 3), (1, 2, 1)])
    assert fam.value(0) == 0
    assert fam.value(0b001) == 3
    assert fam.value(0b010) == 4
    assert fam.value(0b011) == 1
    assert fam.value(0b111) == 0
    # parallel edges add up
    fam2 = sp.GraphCutFn(2, [(0, 1, 1), (1, 0, Fraction(1, 2))])
    assert fam2.value(0b01) == Fraction(3, 2)


def test_graph_cut_rejects_bad_edges():
    with pytest.raises(ValueError):
        sp.GraphCutFn(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        sp.GraphCutFn(3, [(0, 3, 1)])
    with pytest.raises(ValueError):
        sp.GraphCutFn(3, [(0, 1, -2)])
    with pytest.raises(TypeError):
        sp.GraphCutFn(3, [(0, 1, 0.5)])


def test_duplicate_labels_rejected():
    # the family's ground set checks its labels, so a repeat fails at once
    with pytest.raises(ValueError, match="distinct"):
        sp.GraphCutFn(3, [(0, 1, 1)], labels=("a", "a", "b"))


def test_hypergraph_cut_values():
    fam = sp.HypergraphCutFn(4, [([0, 1, 2], 2), ([2, 3], Fraction(1, 2))])
    assert fam.value(0) == 0
    assert fam.value(0b0001) == 2  # splits the triple only
    assert fam.value(0b0111) == Fraction(1, 2)  # triple whole, pair split
    assert fam.value(0b1111) == 0
    assert fam.value(0b0100) == Fraction(5, 2)
    with pytest.raises(ValueError):
        sp.HypergraphCutFn(3, [([1], 1)])
    with pytest.raises(ValueError):
        sp.HypergraphCutFn(3, [([1, 1], 1)])


def test_coverage_values():
    fam = coverage_path3()
    assert table_of(fam) == (0, 1, 2, 2, 1, 2, 2, 2)


def test_partition_matroid_rank_values():
    fam = sp.PartitionMatroidRankFn(4, [[0, 2], [1], [3]])
    assert fam.value(0) == 0
    assert fam.value(0b0101) == 1  # both in one base block
    assert fam.value(0b0011) == 2
    assert fam.value(0b1111) == 3
    with pytest.raises(ValueError):
        sp.PartitionMatroidRankFn(3, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        sp.PartitionMatroidRankFn(3, [[0, 1]])
    with pytest.raises(ValueError, match="base blocks must be nonempty"):
        sp.PartitionMatroidRankFn(3, [[0, 1], [], [2]])


def test_graphic_matroid_rank_values():
    # triangle plus a pendant edge on 4 vertices
    fam = sp.GraphicMatroidRankFn(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert fam.n == 4
    assert fam.value(0) == 0
    assert fam.value(0b0111) == 2  # triangle edges: one is dependent
    assert fam.value(0b1111) == 3
    assert fam.value(0b1000) == 1
    # parallel edges: second copy never adds rank
    multi = sp.GraphicMatroidRankFn(2, [(0, 1), (0, 1)])
    assert multi.value(0b11) == 1


def test_graphic_matroid_cost_ignores_isolated_vertices():
    # the rank does not depend on isolated vertices, so a huge vertex count
    # must not make every evaluation allocate that many entries
    edges = [(0, 1), (1, 2), (2, 0)]
    wide = sp.GraphicMatroidRankFn(10**6, edges).oracle()
    tracemalloc.start()
    try:
        table = wide.scaled_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert table == sp.GraphicMatroidRankFn(3, edges).oracle().scaled_table()


def test_graphic_matroid_table_matches_union_find():
    # the low-bit recurrence against a fresh union-find per mask, on
    # multigraphs with self-loops, parallel edges and isolated vertices
    rng = random.Random("graphic-table")
    for i in range(120):
        n, num_vertices = 1 + i % 10, rng.randint(1, 7)
        edges = [(rng.randrange(num_vertices), rng.randrange(num_vertices)) for _ in range(n)]
        fam = sp.GraphicMatroidRankFn(num_vertices, edges)
        assert fam.scaled_table() == (1, tuple(fam._rank(m) for m in range(1 << n))), edges


def test_graphic_matroid_rejects_bool_vertex_count():
    # a bool is an int subclass, and True would pass as one vertex
    for count in (True, False):
        with pytest.raises(ValueError, match="num_vertices must be a positive int"):
            sp.GraphicMatroidRankFn(count, [(0, 0)])
    with pytest.raises(ValueError, match="a graphic matroid needs at least one edge"):
        sp.GraphicMatroidRankFn(3, [])


def test_explicit_table_validation():
    with pytest.raises(ValueError):
        sp.ExplicitTableFn(2, [0, 1, 1], "general")
    with pytest.raises(ValueError):
        sp.ExplicitTableFn(1, [0, 1], "convex")
    fam = sp.ExplicitTableFn(2, [0, 1, 1, 2], "monotone")
    assert fam.value(0b11) == 2


def test_combination_values():
    cov = coverage_path3()
    cut = sp.GraphCutFn(3, [(0, 2, 2)])
    combo = sp.CombinationFn((cov, cut), (Fraction(1, 2), 3), "posimodular")
    for m in range(8):
        assert combo.value(m) == cov.value(m) / 2 + 3 * cut.value(m)
    with pytest.raises(ValueError):
        sp.CombinationFn((cov, cut), (1,), "posimodular")
    with pytest.raises(ValueError):
        sp.CombinationFn((cov, sp.GraphCutFn(4, [(0, 1, 1)])), (1, 1), "posimodular")
    with pytest.raises(ValueError, match="a combination needs at least one part"):
        sp.CombinationFn((), (), "general")


def test_base_family_has_no_value():
    with pytest.raises(NotImplementedError):
        sp.SetFunctionFamily(2).value(0)


def test_tight_monotone3_table():
    fam = mono3()
    assert table_of(fam) == (
        0,
        1,
        1 + E,
        Fraction(3, 2) + E,
        1 + E,
        Fraction(3, 2) + E,
        2 + 2 * E,
        2 + 2 * E,
    )
    assert fam.function_class == "monotone"


def test_tight_posimodular3_table():
    fam = posi3()
    assert table_of(fam) == (0, 1, 1, 1 + E, 1 + E, 2, 2, 1 + E)
    assert fam.function_class == "posimodular"


def test_eps_window_enforced():
    for make in (sp.MonoTight3Fn, sp.PosiTight3Fn):
        with pytest.raises(ValueError):
            make(Fraction(0))
        with pytest.raises(ValueError):
            make(Fraction(2, 3))
    with pytest.raises(ValueError):
        sp.MonoTightNFn(5, Fraction(-1, 4))


def test_tight_monotone_odd_family_values():
    n = 7
    fam = mono_n(n)
    full = (1 << n) - 1
    assert fam.value(0) == 0
    assert fam.value(full) == Fraction(n + 1, 2)
    assert fam.value(fam.u_mask) == Fraction(n + 1, 4)
    assert fam.value(fam.d_mask) == Fraction(n + 1, 2)
    for i in range(n):
        expected = Fraction(1) if (1 << i) & fam.u_mask else 1 + E
        assert fam.value(1 << i) == expected
    # the clamp is what keeps large sets cheap
    assert fam.unclamped(full) > fam.value(full)
    with pytest.raises(ValueError):
        sp.MonoTightNFn(6)
    with pytest.raises(ValueError):
        sp.MonoTightNFn(3)


def test_digraph_hyper_values():
    n = 5
    fam = omega(n, 10)
    a = Fraction(10)
    assert fam.value(0) == 0
    assert fam.value(0b00001) == 0  # the tail alone: no arc enters it
    assert fam.value(0b00010) == a + 1
    rest = ((1 << n) - 1) ^ 1
    assert fam.value(rest) == a * (n - 1)  # all heads, tail outside, edge whole
    assert fam.value((1 << n) - 1) == 0
    assert fam.value(0b00011) == 1  # tail plus one head: edge split only
    with pytest.raises(ValueError):
        sp.DigraphHyperFn(2, 10)
    with pytest.raises(ValueError):
        sp.DigraphHyperFn(5, Fraction(1, 2))


def test_cardinality_is_modular():
    fam = cardinality(4)
    for m in range(16):
        assert fam.value(m) == m.bit_count()


def _fraction_table(fam):
    # the reference: the lowest-terms table read off the Fraction `value`
    return sp.ValueOracle(fam.ground_set(), fam.value).scaled_table()


@pytest.mark.parametrize("family", sorted(sp.GENERATOR_FAMILIES))
def test_integer_table_matches_fraction_table(family):
    for n in range(2, 9):
        for seed in range(4):
            fam = sp.random_instance(family, n, seed)
            assert fam.scaled_table() == _fraction_table(fam), (n, seed)


def test_integer_table_of_a_fractional_combination():
    cov = sp.GraphCoverageFn(4, [(0, 1, Fraction(1, 3)), (1, 2, Fraction(5, 4)), (0, 3, 2)])
    cut = sp.GraphCutFn(4, [(0, 2, Fraction(7, 6)), (2, 3, Fraction(1, 10)), (1, 0, 1)])
    hyper = sp.HypergraphCutFn(4, [([0, 1, 3], Fraction(3, 14))])
    combo = sp.CombinationFn(
        (cov, cut, hyper), (Fraction(2, 9), Fraction(3, 4), Fraction(7, 3)), "posimodular"
    )
    assert combo.scaled_table() == _fraction_table(combo)
    assert combo.oracle().scaled_table() == _fraction_table(combo)
    # a zero coefficient and whole coefficients over whole weights
    plain = sp.CombinationFn((cov, cut), (0, 6), "symmetric")
    assert plain.scaled_table() == _fraction_table(plain)


def test_integer_table_of_explicit_tables():
    rng = random.Random("integer-table")
    for n in range(1, 6):
        for _ in range(10):
            values = [
                Fraction(rng.randint(-10**9, 10**9), rng.choice((1, 7, 10**12 + 39, 2**61 - 1)))
                for _ in range(1 << n)
            ]
            fam = sp.ExplicitTableFn(n, values, "general")
            assert fam.scaled_table() == _fraction_table(fam)
    # a common factor across the whole table must still be divided out
    halves = sp.ExplicitTableFn(2, [0, Fraction(2, 4), 1, Fraction(3, 2)], "general")
    assert halves.scaled_table() == (2, (0, 1, 2, 3))
    assert sp.ExplicitTableFn(2, [0] * 4, "general").scaled_table() == (1, (0, 0, 0, 0))


@pytest.mark.parametrize("fam", [mono3(), posi3(), mono_n(7), omega(6)], ids=lambda f: f.name)
def test_integer_table_of_named_instances(fam):
    assert fam.scaled_table() == _fraction_table(fam)
    assert fam.oracle().scaled_table() == _fraction_table(fam)


@pytest.mark.parametrize("eps", [EPS, Fraction(1, 3)], ids=str)
def test_mono_tight_n_integer_table_at_every_n(eps):
    for n in range(5, 14, 2):
        fam = sp.MonoTightNFn(n, eps)
        assert fam.scaled_table() == _fraction_table(fam), n


@pytest.mark.parametrize("a", [Fraction(10**6), Fraction(7, 3)], ids=str)
def test_digraph_hyper_integer_table_at_every_n(a):
    for n in range(3, 14):
        fam = sp.DigraphHyperFn(n, a)
        assert fam.scaled_table() == _fraction_table(fam), n


def test_integer_table_is_in_lowest_terms():
    # weights 2/3 and 4/3 share the factor 2/3: D = 3 with values 0, 2, 4, 6
    fam = sp.GraphCutFn(3, [(0, 1, Fraction(2, 3)), (1, 2, Fraction(4, 3))])
    d, table = fam.scaled_table()
    assert d == 3
    assert table == (0, 2, 6, 4, 4, 6, 2, 0)
    scaled = sp.GraphCutFn(2, [(0, 1, 4)])
    assert scaled.scaled_table() == (1, (0, 4, 4, 0))


EDGE_LISTS = {
    "parallel both ways": (
        4,
        [(0, 1, 2), (1, 0, 3), (2, 3, 1), (3, 2, Fraction(1, 2)), (0, 3, 1), (3, 0, 1)],
    ),
    "zero weights": (5, [(0, 1, 0), (1, 2, 3), (2, 4, 0), (4, 0, 2), (3, 1, 0), (1, 0, 0)]),
    "mixed denominators": (
        5,
        [(0, 1, "1/3"), (1, 2, Fraction(2, 7)), (2, 3, 5), (3, 4, "1/3"), (3, 1, 5), (4, 0, 2)],
    ),
    "edgeless middle elements": (6, [(0, 1, 1), (5, 1, 2), (0, 4, 3), (4, 5, "1/2")]),
    "edgeless n=1": (1, []),
    "edgeless n=5": (5, []),
}


@pytest.mark.parametrize("family", [sp.GraphCutFn, sp.GraphCoverageFn], ids=lambda f: f.name)
@pytest.mark.parametrize("case", sorted(EDGE_LISTS))
def test_doubling_edge_tables_on_unusual_edges(family, case):
    # edge lists the generators never write: parallel edges given both ways,
    # zero weights, weights over different denominators, edgeless elements
    n, edges = EDGE_LISTS[case]
    fam = family(n, edges)
    assert fam.scaled_table() == _fraction_table(fam)


def test_doubling_partition_matroid_tables():
    for n in range(1, 10):
        layouts = [[[i] for i in range(n)], [list(range(n))]]
        # interleaved blocks, e.g. {0,2,4} and {1,3} at n = 5
        layouts += [[list(range(r, n, step)) for r in range(step)] for step in (2, 3) if step <= n]
        for blocks in layouts:
            fam = sp.PartitionMatroidRankFn(n, blocks)
            assert fam.scaled_table() == _fraction_table(fam), blocks


def test_doubling_tables_in_a_fractional_combination():
    n, edges = EDGE_LISTS["mixed denominators"]
    cut = sp.GraphCutFn(n, edges)
    cov = sp.GraphCoverageFn(n, EDGE_LISTS["parallel both ways"][1])
    combo = sp.CombinationFn((cut, cov), (Fraction(3, 5), Fraction(7, 2)), "posimodular")
    assert combo.scaled_table() == _fraction_table(combo)


def test_integer_table_skips_value():
    # families with a builder fill the oracle's table without calling value,
    # and the oracle then counts all 2^n subsets as evaluated
    class NoValue(sp.GraphCutFn):
        def value(self, mask):
            raise AssertionError("value called")

    oracle = NoValue(4, [(0, 1, 1), (2, 3, Fraction(1, 2))]).oracle()
    assert oracle.scaled_table() == (2, (0, 2, 2, 0, 1, 3, 3, 1, 1, 3, 3, 1, 0, 2, 2, 0))
    assert oracle.distinct_evaluations == 16
    assert oracle.total_calls == 0
    # every built-in family has a builder, the tight constructions included
    for cls, args in ((sp.MonoTightNFn, (5, EPS)), (sp.DigraphHyperFn, (4, 7))):
        no_value = type("NoValue", (cls,), {"value": NoValue.value})(*args)
        assert no_value.oracle().scaled_table() == _fraction_table(cls(*args))


class HalfCardinality(sp.SetFunctionFamily):
    """A family with no integer builder: f(S) = |S| / 2, or |S| / 2 + 1/3
    on sets of three or more elements."""

    name = "half_cardinality"

    def value(self, mask):
        return Fraction(mask.bit_count(), 2) + (Fraction(1, 3) if mask.bit_count() > 2 else 0)


class FloatCardinality(sp.SetFunctionFamily):
    name = "float_cardinality"

    def value(self, mask):
        return mask.bit_count() / 2


def test_family_without_a_builder_reads_value(monkeypatch):
    fam = HalfCardinality(4)
    assert fam.scaled_table() == _fraction_table(fam)
    oracle = fam.oracle()
    assert oracle.scaled_table() == _fraction_table(fam)
    # the oracle built its table from value, once per subset: it counts all
    # 2^n subsets as evaluated without having answered a query
    assert oracle.distinct_evaluations == 16
    assert oracle.total_calls == 0
    floats = FloatCardinality(3)
    message = "oracle 'float_cardinality' returned a float for mask 0x0"
    with pytest.raises(TypeError, match=message):
        floats.scaled_table()
    with pytest.raises(TypeError, match=message):
        floats.oracle().scaled_table()
    monkeypatch.setenv("SUBMOD_N_CAP", "3")
    with pytest.raises(sp.GroundSetCapError):
        fam.scaled_table()
    with pytest.raises(sp.GroundSetCapError):
        fam.oracle().scaled_table()


def test_nested_combination_with_a_part_without_a_builder():
    inner = sp.CombinationFn(
        (sp.GraphCutFn(4, [(0, 1, Fraction(2, 3)), (2, 3, 4)]), HalfCardinality(4)),
        (Fraction(3, 4), Fraction(6, 5)),
        "general",
    )
    outer = sp.CombinationFn(
        (inner, HalfCardinality(4), sp.GraphCoverageFn(4, [(1, 3, Fraction(5, 7))])),
        (Fraction(10, 3), Fraction(1, 6), 2),
        "general",
    )
    for fam in (inner, outer):
        d, table = fam.scaled_table()
        assert (d, table) == _fraction_table(fam)
        assert math.gcd(d, *table) == 1
        assert fam.oracle().scaled_table() == (d, table)
