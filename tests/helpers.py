"""Named test instances.

Everything here is tiny and fully determined, so expected values in the
tests can be frozen as exact rationals.
"""

from fractions import Fraction
from functools import cache

import subpartition as sp

EPS = Fraction(1, 10**6)
BIG_A = Fraction(10**6)

# Bell(n), the number of partitions of an n-element set, for n = 0..8
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)


@cache
def _canonical_partitions(n: int) -> tuple[sp.Partition, ...]:
    strings = [(0,)]
    for _ in range(n - 1):
        # extending a lexicographically sorted list keeps it sorted
        strings = [s + (j,) for s in strings for j in range(max(s) + 2)]
    out = []
    for s in strings:
        blocks = [0] * (max(s) + 1)
        for i, j in enumerate(s):
            blocks[j] |= 1 << i
        out.append(sp.Partition(n, blocks))
    return tuple(out)


def partitions(n: int, k: int | None = None) -> tuple[sp.Partition, ...]:
    """Every partition of {0..n-1} (with k, every one with k blocks) in
    canonical order: lexicographic on restricted-growth strings, which are
    built here string by string, sharing no code with the package's own
    generator."""
    every = _canonical_partitions(n)
    return every if k is None else tuple(p for p in every if len(p) == k)


def rgs(partition: sp.Partition) -> tuple[int, ...]:
    """The restricted-growth string of a partition: element i's block index,
    blocks taken in the partition's canonical order."""
    blocks = partition.blocks
    return tuple(next(j for j, b in enumerate(blocks) if b >> i & 1) for i in range(partition.n))


def partition_value(oracle: sp.ValueOracle, partition: sp.Partition) -> Fraction:
    """f(P), the sum of oracle values over the blocks of P, as a Fraction
    through `eval`: the reference that `sp.scaled_value` is compared with."""
    total = Fraction(0)
    for b in partition.blocks:
        total += oracle.eval(b)
    return total


def g_value(oracle: sp.ValueOracle, partition: sp.Partition, b) -> Fraction:
    """The parametric objective f(P) - b|P| of one partition, through the
    oracle's `eval`."""
    return partition_value(oracle, partition) - sp.as_fraction(b) * len(partition)


def mono3(eps=EPS) -> sp.MonoTight3Fn:
    return sp.MonoTight3Fn(eps)


def posi3(eps=EPS) -> sp.PosiTight3Fn:
    return sp.PosiTight3Fn(eps)


def mono_n(n: int, eps=EPS) -> sp.MonoTightNFn:
    return sp.MonoTightNFn(n, eps)


def omega(n: int = 8, a=BIG_A) -> sp.DigraphHyperFn:
    return sp.DigraphHyperFn(n, a)


def weighted_path4() -> sp.GraphCutFn:
    """Path a-b-c-d with weights 3, 1, 2; chain has all four levels."""
    return sp.GraphCutFn(4, [(0, 1, 3), (1, 2, 1), (2, 3, 2)])


def two_edges() -> sp.GraphCutFn:
    """Two disjoint unit edges a-b, c-d; forces one chain repair."""
    return sp.GraphCutFn(4, [(0, 1, 1), (2, 3, 1)])


def unit_path3() -> sp.GraphCutFn:
    return sp.GraphCutFn(3, [(0, 1, 1), (1, 2, 1)])


def coverage_path3() -> sp.GraphCoverageFn:
    return sp.GraphCoverageFn(3, [(0, 1, 1), (1, 2, 1)])


def footnote_matroid(k: int = 4) -> sp.PartitionMatroidRankFn:
    """k base blocks of size 2 laid out so the first k-1 indices come from
    distinct blocks; the worst case for the cheapest-singleton baseline."""
    return sp.PartitionMatroidRankFn(2 * k, [[i, i + k] for i in range(k)])


def two_triangles() -> sp.GraphCutFn:
    """Two disjoint unit triangles on 6 elements; component split is free."""
    edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)]
    return sp.GraphCutFn(6, edges)


def cardinality(n: int) -> sp.ExplicitTableFn:
    values = [Fraction(m.bit_count()) for m in range(1 << n)]
    return sp.ExplicitTableFn(n, values, "monotone", name="cardinality")


def zero_fn(n: int) -> sp.ExplicitTableFn:
    return sp.ExplicitTableFn(n, [Fraction(0)] * (1 << n), "symmetric", name="zero")


def fraction_oracle(fam) -> sp.ValueOracle:
    """An oracle that answers every query from the family's Fraction `value`
    (and builds its table, when asked, from those answers): the reference
    that integer tables and integer scoring are compared against."""
    return sp.ValueOracle(fam.ground_set(), fam.value)


def submodular_table(rng, n):
    """A random submodular table with f(empty) != 0: a nonzero constant plus
    one to four small-integer terms, each a cut, a coverage, a hypergraph
    cut, a concave function of |S| or a signed modular function."""
    masks = range(1 << n)
    values = [rng.choice((-3, -2, -1, 1, 2, 3))] * (1 << n)
    for _ in range(rng.randint(1, 4)):
        kind, w = rng.randrange(5), rng.randint(1, 3)
        if kind == 0:  # the cut of one edge u-v
            u, v = rng.sample(range(n), 2)
            term = [w * ((m >> u ^ m >> v) & 1) for m in masks]
        elif kind == 1:  # one item, covered by any element of `members`
            members = rng.randrange(1, 1 << n)
            term = [w * bool(m & members) for m in masks]
        elif kind == 2:  # the cut of one hyperedge
            members = sum(1 << i for i in rng.sample(range(n), rng.randint(2, n)))
            term = [w * (m & members not in (0, members)) for m in masks]
        elif kind == 3:  # concave in |S|: nonincreasing increments
            steps = sorted((rng.randint(-2, 3) for _ in range(n)), reverse=True)
            term = [sum(steps[: m.bit_count()]) for m in masks]
        else:  # signed modular
            weights = [rng.randint(-3, 3) for _ in range(n)]
            term = [sum(x for i, x in enumerate(weights) if m >> i & 1) for m in masks]
        values = [v + t for v, t in zip(values, term)]
    return values
