import random
from fractions import Fraction
from itertools import combinations

import pytest

import subpartition as sp
from subpartition import checkers
from subpartition.checkers import _slice_pairs

from helpers import cardinality, mono3, omega, posi3, two_edges, zero_fn


def verify_witness(oracle, result):
    """Recompute the violated inequality from the reported witness; a FAIL
    with a witness that does not actually violate would be a checker bug."""
    assert result.witness is not None
    a, b = result.witness
    f = oracle.eval
    name = result.property_name
    if name == "submodular":
        assert f(a) + f(b) < f(a | b) + f(a & b)
    elif name == "monotone":
        assert a & ~b == 0 and f(a) > f(b)
    elif name == "symmetric":
        assert b == oracle.ground_set.full_mask ^ a and f(a) != f(b)
    elif name == "posimodular":
        assert f(a) + f(b) < f(a & ~b) + f(b & ~a)
    else:
        raise AssertionError(f"unknown property {name}")


def test_zero_function_passes_everything():
    oracle = zero_fn(4).oracle()
    assert sp.check_submodular(oracle).ok
    assert sp.check_monotone(oracle).ok
    assert sp.check_symmetric(oracle).ok
    assert sp.check_posimodular(oracle).ok


def test_graph_cut_class_profile():
    oracle = two_edges().oracle()
    assert sp.check_submodular(oracle).ok
    assert sp.check_symmetric(oracle).ok
    mono = sp.check_monotone(oracle)
    assert not mono.ok
    verify_witness(oracle, mono)
    # symmetric and submodular implies posimodular
    assert sp.check_posimodular(oracle).ok
    # symmetry alone does not: here f({a}) + f({b}) = 0 < f(V) + f({}) = 10
    # and f({a}) + f({a}) = 0 < 2 f({}) = 10
    bowl = sp.ExplicitTableFn(2, [5, 0, 0, 5]).oracle()
    assert sp.check_symmetric(bowl).ok
    for check in (sp.check_submodular, sp.check_posimodular):
        res = check(bowl)
        assert not res.ok
        verify_witness(bowl, res)


def test_check_result_truth_and_description():
    oracle = two_edges().oracle()
    passed, failed = sp.check_submodular(oracle), sp.check_monotone(oracle)
    # a result is as true as its verdict
    assert passed and not failed
    assert passed.describe(oracle.ground_set) == "submodular: ok"
    assert failed.describe(oracle.ground_set) == (
        "monotone: violated at A={a}, B={a,b} (lhs=1, rhs=0)"
    )


def test_matroid_rank_class_profile():
    fam = sp.GraphicMatroidRankFn(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    oracle = fam.oracle()
    assert sp.check_submodular(oracle).ok
    assert sp.check_monotone(oracle).ok
    assert sp.check_posimodular(oracle).ok
    sym = sp.check_symmetric(oracle)
    assert not sym.ok
    verify_witness(oracle, sym)


def test_posimodular_but_not_monotone_or_symmetric():
    oracle = posi3().oracle()
    assert sp.check_submodular(oracle).ok
    assert sp.check_posimodular(oracle).ok
    mono = sp.check_monotone(oracle)
    sym = sp.check_symmetric(oracle)
    assert not mono.ok and not sym.ok
    verify_witness(oracle, mono)
    verify_witness(oracle, sym)


def test_general_instance_fails_all_three_subclasses():
    oracle = omega(5, 10).oracle()
    assert sp.check_submodular(oracle).ok
    for check in (sp.check_monotone, sp.check_symmetric, sp.check_posimodular):
        res = check(oracle)
        assert not res.ok
        verify_witness(oracle, res)


def test_non_submodular_table_is_caught():
    fam = sp.ExplicitTableFn(3, [0, 0, 0, 1, 0, 0, 0, 1], "general")
    oracle = fam.oracle()
    res = sp.check_submodular(oracle)
    assert not res.ok
    verify_witness(oracle, res)
    assert "violated" in res.describe(oracle.ground_set)


def test_first_counterexample_is_reported():
    # f({a}) > f({a,b}) and f({a}) > f({a,c}); scanning supersets of the
    # smallest failing subset in ascending order must report {a,b} first
    fam = sp.ExplicitTableFn(3, [0, 2, 1, 1, 1, 1, 2, 0], "general")
    oracle = fam.oracle()
    res = sp.check_monotone(oracle)
    assert not res.ok
    assert res.witness == (0b001, 0b011)


def test_modular_function_is_monotone_and_posimodular():
    oracle = cardinality(4).oracle()
    assert sp.check_submodular(oracle).ok
    assert sp.check_monotone(oracle).ok
    assert sp.check_posimodular(oracle).ok
    assert not sp.check_symmetric(oracle).ok


def test_checkers_respect_cap(monkeypatch):
    monkeypatch.setenv("SUBMOD_N_CAP", "3")
    oracle = zero_fn(4).oracle()
    with pytest.raises(sp.GroundSetCapError):
        sp.check_submodular(oracle)


def test_single_checks_compute_only_their_own_gains(monkeypatch):
    # each single checker walks for its own property alone: submodularity
    # reads the gains of the n - 1 elements that have a j > i, monotonicity
    # and posimodularity those of all n, symmetry none; all four hold here
    # but symmetry, so no walk stops early
    fam = sp.random_instance("graph_coverage", 6, 1)
    computed = []
    gains = checkers._gains
    monkeypatch.setattr(checkers, "_gains", lambda tab, bit: computed.append(bit) or gains(tab, bit))
    for check, walked in (
        (sp.check_submodular, 5),
        (sp.check_monotone, 6),
        (sp.check_posimodular, 6),
        (sp.check_symmetric, 0),
    ):
        computed.clear()
        assert check(fam.oracle()).ok == (check is not sp.check_symmetric)
        assert computed == [1 << e for e in range(walked)], check.__name__


def test_mono3_is_monotone_submodular():
    oracle = mono3().oracle()
    assert sp.check_submodular(oracle).ok
    assert sp.check_monotone(oracle).ok
    assert not sp.check_symmetric(oracle).ok


def _pair_scan_submodular(oracle):
    """Reference: the full 4^n pair scan, first witness in (A, B) order."""
    d, f = oracle.scaled_table()
    for a in range(len(f)):
        for b in range(len(f)):
            lhs, rhs = f[a] + f[b], f[a | b] + f[a & b]
            if lhs < rhs:
                return False, (a, b), Fraction(lhs, d), Fraction(rhs, d)
    return True, None, None, None


def _local_scan_submodular(oracle):
    """Reference: the local test on the whole table in the documented
    order, i, then j > i, then S outside both ascending; its first
    violation (S+i, S+j) is the witness."""
    d, tab = oracle.scaled_table()
    for i, j in combinations(range(oracle.n), 2):
        bi, bj = 1 << i, 1 << j
        for s in range(len(tab)):
            if s & (bi | bj):
                continue
            lhs, rhs = tab[s | bi] + tab[s | bj], tab[s | bi | bj] + tab[s]
            if lhs < rhs:
                return False, (s | bi, s | bj), Fraction(lhs, d), Fraction(rhs, d)
    return True, None, None, None


def _perturbed_tables(count):
    """Seeded submodular tables from the generators, some left as they are
    (many pairs hold with equality), some with a few entries nudged."""
    families = sorted(sp.GENERATOR_FAMILIES)
    for i in range(count):
        rng = random.Random(f"perturb:{i}")
        n = 3 + i % 5
        base = sp.random_instance(families[i % len(families)], n, i)
        table = [base.value(m) for m in range(1 << n)]
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            m = rng.randrange(len(table))
            table[m] += Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
        yield sp.ExplicitTableFn(n, table, "general")


def test_local_submodular_check_matches_pair_scan():
    outcomes = {True: 0, False: 0}
    for fam in _perturbed_tables(360):
        oracle = fam.oracle()
        res = sp.check_submodular(oracle)
        assert res.ok == _pair_scan_submodular(oracle)[0]
        assert (res.ok, res.witness, res.lhs, res.rhs) == _local_scan_submodular(oracle)
        if not res.ok:
            verify_witness(oracle, res)
        outcomes[res.ok] += 1
    assert outcomes[True] > 50 and outcomes[False] > 50


def _triple_loop_submodular(n, tab):
    """Reference: the local test as a loop over S, then i < j outside S."""
    bits = [1 << i for i in range(n)]
    for s, fs in enumerate(tab):
        free = [bit for bit in bits if not s & bit]
        for x, bi in enumerate(free):
            si = s | bi
            gain_i = tab[si] - fs
            for bj in free[x + 1 :]:
                if gain_i + tab[s | bj] < tab[si | bj]:
                    return False
    return True


def test_local_submodular_matches_pair_loop():
    # the slice pairs pair each index without the bit with index + bit
    # exactly once, and packed puts the indices without it, in order, into
    # the half-size list; sizes up to 256 run both the strided and the
    # chunk branch
    branches = set()
    for m in range(9):
        size = 1 << m
        indices = list(range(size))
        for i in range(m):
            bit = 1 << i
            pairs = _slice_pairs(size, bit)
            branches.add(pairs[0][0].step is None)
            paired, packed = [], [None] * (size >> 1)
            for lacking, having, into in pairs:
                paired += zip(indices[lacking], indices[having])
                packed[into] = indices[lacking]
            assert sorted(paired) == [(s, s + bit) for s in indices if not s & bit]
            assert packed == [s for s in indices if not s & bit]
    assert branches == {False, True}

    tables = []
    for i in range(2000):
        rng = random.Random(f"submodular-slices:{i}")
        n = 1 + i % 7
        low, high = (0, 3) if i % 2 else (-3, 3)
        tables.append((n, [rng.randint(low, high) for _ in range(1 << n)]))
    for family in sorted(sp.GENERATOR_FAMILIES):
        for n in range(2, 10):
            for seed in range(2):
                tables.append((n, sp.random_instance(family, n, seed).scaled_table()[1]))
    outcomes = {True: 0, False: 0}
    for n, tab in tables:
        ok = _triple_loop_submodular(n, tab)
        oracle = sp.ValueOracle(sp.GroundSet(n), None, table=lambda: (1, tab))
        assert sp.check_submodular(oracle).ok == ok, (n, tab)
        outcomes[ok] += 1
    assert outcomes[True] > 150 and outcomes[False] > 1000


def _pair_scan_posimodular(oracle):
    """Reference: the full 4^n pair scan, first witness in (A, B) order."""
    d, f = oracle.scaled_table()
    for a in range(len(f)):
        for b in range(len(f)):
            lhs, rhs = f[a] + f[b], f[a & ~b] + f[b & ~a]
            if lhs < rhs:
                return False, (a, b), Fraction(lhs, d), Fraction(rhs, d)
    return True, None, None, None


def _local_scan_posimodular(oracle):
    """Reference: the local test in the documented order, e, then T subset
    of V-e ascending, then S subset of T ascending; its first violation
    f(S+e) - f(S) < f(V-T-e) - f(V-T) names the pair (S+e, V-T).  A
    symmetric table names (V-A, B) for the submodular witness (A, B)."""
    d, tab = oracle.scaled_table()
    full = len(tab) - 1

    def found(a, b):
        lhs, rhs = tab[a] + tab[b], tab[a & ~b] + tab[b & ~a]
        return False, (a, b), Fraction(lhs, d), Fraction(rhs, d)

    if tab == tab[::-1]:
        ok, witness, _, _ = _local_scan_submodular(oracle)
        return (True, None, None, None) if ok else found(full ^ witness[0], witness[1])
    for e in range(oracle.n):
        be = 1 << e
        floor = min(tab[s | be] - tab[s] for s in range(len(tab)) if not s & be)
        for t in range(len(tab)):
            rest = tab[full ^ t] - tab[full ^ t ^ be]
            if t & be or floor + rest >= 0:
                continue  # T holds e, or even the least gain cannot violate
            s = 0
            while True:  # the subsets of T, ascending
                if tab[s | be] - tab[s] + rest < 0:
                    return found(s | be, full ^ t)
                if s == t:
                    break
                s = (s - t) & t
    return True, None, None, None


def _small_integer_tables(count):
    """Seeded tables with values in {0..3} at n = 1..6."""
    for i in range(count):
        rng = random.Random(f"posimodular:{i}")
        n = 1 + i % 6
        yield sp.ExplicitTableFn(n, [rng.randint(0, 3) for _ in range(1 << n)], "general")


def _mixed_gain_tables(count):
    """Seeded n = 7 tables: a cut on some elements plus a nonnegative
    modular part on the others, so that the elements of the modular part
    have nonnegative gains and the cut elements do not; some with a few
    entries nudged."""
    n = 7
    for i in range(count):
        rng = random.Random(f"mixed-gains:{i}")
        cut_elements = rng.sample(range(n), rng.randint(2, 5))
        edges = [(u, v, rng.randint(1, 3)) for u, v in combinations(cut_elements, 2) if rng.random() < 0.6]
        weights = [0 if e in cut_elements else rng.randint(0, 3) for e in range(n)]
        table = [
            sum(w for u, v, w in edges if (s >> u & 1) != (s >> v & 1))
            + sum(w for e, w in enumerate(weights) if s >> e & 1)
            for s in range(1 << n)
        ]
        for _ in range(rng.choice((0, 1, 2))):
            table[rng.randrange(1 << n)] += rng.choice((-2, -1, 1))
        yield sp.ExplicitTableFn(n, table, "general")


def _gain_signs(fam):
    """For each element e, whether every gain f(T+e) - f(T) is nonnegative."""
    _, tab = fam.oracle().scaled_table()
    return [all(tab[s | 1 << e] >= tab[s] for s in range(len(tab))) for e in range(fam.n)]


def test_local_posimodular_check_matches_pair_scan():
    # fails only at pairs whose local form has S a proper subset of T, so a
    # test of S = T alone would pass it: the witness is S = {}, T = {b}
    pinned = sp.ExplicitTableFn(3, [0, 0, 0, 2, 2, 1, 0, 4], "general")
    res = sp.check_posimodular(pinned.oracle())
    assert (res.ok, res.witness, res.lhs, res.rhs) == (False, (0b001, 0b101), 1, 2)
    # the first witness is at e = a, T = {}, S = {}: the pair ({a}, V)
    diagonal = sp.ExplicitTableFn(2, [1, 0, 1, 1], "general")
    res = sp.check_posimodular(diagonal.oracle())
    assert (res.ok, res.witness, res.lhs, res.rhs) == (False, (1, 3), 1, 2)

    # at n = 7 the sweep folds by strided slices (steps 1, 2, 4) and by
    # contiguous chunks (steps 8, 16, 32), and elements whose gains are all
    # nonnegative skip it
    mixed = list(_mixed_gain_tables(60))
    assert sum(any(signs) and not all(signs) for signs in map(_gain_signs, mixed)) >= 50

    families = [pinned, diagonal, *_perturbed_tables(360), *_small_integer_tables(240)]
    first_mixed = len(families)
    outcomes = {True: 0, False: 0}
    mixed_outcomes = {True: 0, False: 0}
    for i, fam in enumerate(families + mixed):
        oracle = fam.oracle()
        res = sp.check_posimodular(oracle)
        ok = _pair_scan_posimodular(oracle)[0]
        assert res.ok == ok
        assert (res.ok, res.witness, res.lhs, res.rhs) == _local_scan_posimodular(oracle)
        if not ok:
            verify_witness(oracle, res)
        outcomes[ok] += 1
        if i >= first_mixed:
            mixed_outcomes[ok] += 1
    assert outcomes[True] > 50 and outcomes[False] > 50
    assert mixed_outcomes[True] >= 10 and mixed_outcomes[False] >= 10


def _symmetric_tables(count):
    """Seeded symmetric tables: h(S) + h(V - S) with h random in -3..3 at
    n = 1..7, and graph_cut or hypergraph_cut tables at n = 2..7, some with
    a few mirror pairs S, V - S nudged together."""
    for i in range(count):
        rng = random.Random(f"symmetric:{i}")
        if i % 2:
            n = 1 + i // 2 % 7
            h = [rng.randint(-3, 3) for _ in range(1 << n)]
            table = [h[s] + h[-1 - s] for s in range(1 << n)]
        else:
            n = 2 + i // 2 % 6
            family = rng.choice(("graph_cut", "hypergraph_cut"))
            fam = sp.random_instance(family, n, i)
            table = [fam.value(m) for m in range(1 << n)]
            for _ in range(rng.choice((0, 1, 1, 2))):
                m = rng.randrange(1 << n)
                nudge = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
                table[m] += nudge
                table[-1 - m] += nudge
        yield sp.ExplicitTableFn(n, table, "general")


def test_symmetric_tables_match_pair_scans():
    # both local tests read a symmetric table on its half without the last
    # element; on these tables they must agree with the references that
    # read all of it, failing ones included, and name the witness of the
    # local test on the whole table
    outcomes = {(name, ok): 0 for name in ("submodular", "posimodular") for ok in (True, False)}
    for fam in _symmetric_tables(320):
        oracle = fam.oracle()
        tab = oracle.scaled_table()[1]
        assert tab == tab[::-1]
        submodular = _triple_loop_submodular(fam.n, tab)
        classes = sp.check_classes(oracle)
        assert classes["submodular"].ok == submodular, fam
        for check, scan, local in (
            (sp.check_submodular, _pair_scan_submodular, _local_scan_submodular),
            (sp.check_posimodular, _pair_scan_posimodular, _local_scan_posimodular),
        ):
            res = check(oracle)
            ok = scan(oracle)[0]
            assert res.ok == ok, fam
            assert (res.ok, res.witness, res.lhs, res.rhs) == local(oracle), fam
            if not ok:
                verify_witness(oracle, res)
            # a symmetric table is posimodular exactly when it is submodular
            assert ok == submodular
            outcomes[res.property_name, ok] += 1
        assert classes["posimodular"].ok == submodular, fam
    assert min(outcomes.values()) >= 50, outcomes


def _ordered_scan_monotone(oracle):
    """Reference: sets S ascending, then added elements ascending."""
    d, tab = oracle.scaled_table()
    for s in range(len(tab)):
        fs = tab[s]
        for v in range(oracle.n):
            bit = 1 << v
            if s & bit:
                continue
            t = s | bit
            if fs > tab[t]:
                return False, (s, t), Fraction(fs, d), Fraction(tab[t], d)
    return True, None, None, None


def _ordered_scan_symmetric(oracle):
    """Reference: sets S ascending, each against V - S."""
    d, tab = oracle.scaled_table()
    full = oracle.ground_set.full_mask
    for s in range(full + 1):
        c = full ^ s
        if tab[s] != tab[c]:
            return False, (s, c), Fraction(tab[s], d), Fraction(tab[c], d)
    return True, None, None, None


def _monotone_or_symmetric_tables(count):
    """Seeded tables at n = 1..8: monotone ones (the max over subsets of
    random values) and symmetric ones (h(S) + h(V - S)), each left as it
    is or with one entry nudged."""
    for i in range(count):
        rng = random.Random(f"monotone-symmetric:{i}")
        n = 1 + i % 8
        size = 1 << n
        values = [rng.randint(-3, 3) for _ in range(size)]
        if i % 2:
            for e in range(n):  # subset-max sweep: monotone
                for s in range(size):
                    if s >> e & 1 and values[s ^ 1 << e] > values[s]:
                        values[s] = values[s ^ 1 << e]
        else:
            values = [values[s] + values[size - 1 - s] for s in range(size)]
        if i % 3 == 0:
            values[rng.randrange(size)] += rng.choice((-1, 1))
        yield sp.ExplicitTableFn(n, values, "general")


def test_monotone_and_symmetric_checks_match_ordered_scans():
    outcomes = {(check, ok): 0 for check in ("monotone", "symmetric") for ok in (True, False)}
    for fam in _monotone_or_symmetric_tables(400):
        oracle = fam.oracle()
        for check, scan in (
            (sp.check_monotone, _ordered_scan_monotone),
            (sp.check_symmetric, _ordered_scan_symmetric),
        ):
            res = check(oracle)
            ok, witness, lhs, rhs = scan(oracle)
            assert (res.ok, res.witness, res.lhs, res.rhs) == (ok, witness, lhs, rhs), fam
            outcomes[res.property_name, ok] += 1
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("check", [sp.check_submodular, sp.check_monotone, sp.check_posimodular])
def test_failed_bulk_test_without_a_violating_set_raises(monkeypatch, check):
    # the cardinality function is submodular, monotone and posimodular, so
    # no set can back a failed bulk test; the checker must say so rather
    # than report the table as ok.  Every local test reads the gains the
    # walk computes, and gains that are negative and grow fail all three
    oracle = cardinality(4).oracle()
    assert check(oracle).ok
    monkeypatch.setattr(
        "subpartition.checkers._gains", lambda tab, bit: list(range(-(len(tab) >> 1), 0))
    )
    with pytest.raises(ValueError, match="a bulk test failed but its scan finds no violation"):
        check(oracle)


def _lowered_at_the_cap(family, mask, by):
    """The n = 13 seed-1 table of `family` with f(mask) lowered by `by`
    scaled units."""
    d, tab = sp.random_instance(family, 13, 1).scaled_table()
    tab = list(tab)
    tab[mask] -= by(d)
    return sp.ExplicitTableFn(13, [Fraction(t, d) for t in tab], "general")


FULL_13 = (1 << 13) - 1
M = 1 << 12  # the element m, last of a..m


@pytest.mark.parametrize(
    "family, mask, by, submodular, posimodular",
    [
        (
            "graph_cut", FULL_13 ^ 1, lambda d: 1,
            ((8189, 8190), Fraction(187, 4), Fraction(281, 6)),
            ((2, 8190), Fraction(187, 4), Fraction(281, 6)),
        ),
        (
            "graph_cut", FULL_13 ^ M, lambda d: 1,
            ((4095, 8190), Fraction(75, 2), Fraction(451, 12)),
            ((4095, 4097), Fraction(51), Fraction(613, 12)),
        ),
        (
            "graph_cut", FULL_13 ^ 3, lambda d: 1,
            ((8185, 8188), Fraction(587, 6), Fraction(1175, 12)),
            ((4, 8188), Fraction(901, 12), Fraction(451, 6)),
        ),
        (
            "graphic_matroid", M, lambda d: 2 * d,
            ((1, M), Fraction(0), Fraction(2)),
            ((M, FULL_13), Fraction(9), Fraction(10)),
        ),
    ],
    ids=["graph_cut-V-a", "graph_cut-V-m", "graph_cut-V-ab", "graphic_matroid-m"],
)
def test_failing_checks_at_the_cap_name_the_first_local_witness(
    family, mask, by, submodular, posimodular
):
    # a lowered value breaks only inequalities that hold it on the left, so
    # each witness holds the lowered set; the local tests name it in
    # milliseconds, where a scan of the 4^n pairs took seconds
    oracle = _lowered_at_the_cap(family, mask, by).oracle()
    for check, local, pinned in (
        (sp.check_submodular, _local_scan_submodular, submodular),
        (sp.check_posimodular, _local_scan_posimodular, posimodular),
    ):
        res = check(oracle)
        assert (res.witness, res.lhs, res.rhs) == pinned
        assert (res.ok, *pinned) == local(oracle)
        verify_witness(oracle, res)
