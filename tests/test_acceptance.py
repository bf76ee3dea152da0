"""End-to-end acceptance runs at desk scale.

Each criterion test covers one numbered criterion, records exactly one
PASS/FAIL line in the terminal summary, and asserts.  The random sweep
(criteria 5-8) is built once per module: 100 seeded instances in each of five
family groups, every k from 2 to n, with the principal sequence, its
verification, the per-k ratio report against the exact optimum, and the
chain lower bounds all kept for the individual criteria to inspect; one more
test checks every optimum in it against partition enumeration.
"""

import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

import subpartition as sp

from conftest import record_criterion
from helpers import (
    EPS,
    BIG_A,
    fraction_oracle,
    mono3,
    mono_n,
    omega,
    partition_value,
    partitions,
    posi3,
)


def finish(code, description, failures):
    record_criterion(code, description, not failures, "; ".join(failures[:3]))
    assert not failures, f"{code}: " + "; ".join(failures)


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, condition, message):
        if not condition:
            self.failures.append(message)


CLASS_BOUNDS = {
    "symmetric": lambda n: 2 - Fraction(2, n),
    "monotone": lambda n: Fraction(4, 3) - Fraction(4, 9 * n + 3),
    "posimodular": lambda n: 2 - Fraction(2, n + 1),
}

SWEEP_GROUPS = (
    ("graph_cut", "symmetric"),
    ("hypergraph_cut", "symmetric"),
    ("graph_coverage", "monotone"),
    ("matroid_rank", "monotone"),
    ("mono_sym_combo", "posimodular"),
)


@dataclass
class SweepRecord:
    group: str
    function_class: str
    seed: int
    n: int
    verification: object
    reports: list = field(default_factory=list)
    chain_bounds: list = field(default_factory=list)


@dataclass
class Sweep:
    records: list
    elapsed: float


def _sweep_family(group, index):
    if group == "matroid_rank":
        return "partition_matroid" if index % 2 == 0 else "graphic_matroid"
    return group


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    records = []
    for group, cls in SWEEP_GROUPS:
        for i in range(100):
            n = 5 + i % 4
            fam = sp.random_instance(_sweep_family(group, i), n, i)
            oracle = fam.oracle()
            seq = sp.compute_pps(oracle)
            rec = SweepRecord(
                group=group,
                function_class=cls,
                seed=i,
                n=n,
                verification=sp.verify_pps(oracle, seq, interior_samples=3),
            )
            for k in range(2, n + 1):
                rep = sp.ratio_report(oracle, k, cls, pps=seq)
                rec.reports.append(rep)
                rec.chain_bounds.append(
                    sp.check_chain_lower_bounds(oracle, k, seq, rep.optimal_value)
                )
            records.append(rec)
    return Sweep(records=records, elapsed=time.perf_counter() - start)


@dataclass
class NamedCase:
    oracle: object
    sequence: object
    verification: object


@pytest.fixture(scope="module")
def named_cases():
    cases = {}
    for name, fam in (
        ("mono3", mono3()),
        ("mono_n5", mono_n(5)),
        ("mono_n7", mono_n(7)),
        ("mono_n9", mono_n(9)),
        ("posi3", posi3()),
        ("omega8", omega(8, BIG_A)),
    ):
        oracle = fam.oracle()
        seq = sp.compute_pps(oracle)
        cases[name] = NamedCase(
            oracle=oracle,
            sequence=seq,
            verification=sp.verify_pps(oracle, seq, interior_samples=3),
        )
    return cases


def test_criterion_01_monotone_tight_n3(named_cases):
    start = time.perf_counter()
    c = Checks()
    case = named_cases["mono3"]
    rep = sp.ratio_report(case.oracle, 2, "monotone", pps=case.sequence)
    c.expect(rep.algorithm_value == 3 + 2 * EPS, f"algorithm value {rep.algorithm_value}")
    c.expect(rep.optimal_value == Fraction(5, 2) + 2 * EPS, f"optimum {rep.optimal_value}")
    c.expect(abs(rep.ratio - Fraction(6, 5)) <= Fraction(1, 10**5), f"ratio {rep.ratio}")
    c.expect(rep.bound == Fraction(6, 5), f"bound {rep.bound}")
    c.expect(rep.bound_ok, "ratio exceeds the bound")
    c.expect(time.perf_counter() - start < 1.0, "took 1 s or longer")
    finish("C01", "monotone tight n=3: value 3+2e, optimum 5/2+2e, ratio near 6/5", c.failures)


def test_criterion_02_monotone_tight_family(named_cases):
    start = time.perf_counter()
    c = Checks()
    for n in (5, 7, 9):
        fam = mono_n(n)
        case = named_cases[f"mono_n{n}"]
        k = (n + 1) // 2
        rep = sp.ratio_report(case.oracle, k, "monotone", pps=case.sequence)
        c.expect(rep.algorithm_value == n, f"n={n}: algorithm value {rep.algorithm_value}")

        d_first = 1 << ((n - 1) // 2)
        d_rest = case.oracle.ground_set.full_mask ^ fam.u_mask ^ d_first
        blocks = [fam.u_mask | d_first]
        while d_rest:
            bit = d_rest & -d_rest
            blocks.append(bit)
            d_rest ^= bit
        comparison = partition_value(fraction_oracle(fam), sp.Partition(n, blocks))
        c.expect(
            comparison == Fraction(3 * n + 3, 4) + Fraction(n + 1, 2) * EPS,
            f"n={n}: comparison partition value {comparison}",
        )
        c.expect(rep.optimal_value <= comparison, f"n={n}: optimum above comparison")
        c.expect(
            rep.ratio >= Fraction(4, 3) - Fraction(4, 3 * n + 3) - Fraction(1, 10**4),
            f"n={n}: ratio {rep.ratio} below window",
        )
        c.expect(rep.bound == Fraction(4, 3) - Fraction(4, 9 * n + 3), f"n={n}: bound")
        c.expect(rep.bound_ok, f"n={n}: ratio exceeds the bound")

    for n in (5, 7):
        fam = mono_n(n)
        oracle = named_cases[f"mono_n{n}"].oracle
        heavy_threshold = Fraction(n + 1, 2)
        worst = 0
        for p in partitions(n):
            heavy = sum(1 for blk in p.blocks if fam.unclamped(blk) >= heavy_threshold)
            worst = max(worst, heavy)
        c.expect(worst <= 1, f"n={n}: a partition has {worst} heavy parts")
        c.expect(
            sp.check_two_level_condition(oracle),
            f"n={n}: strict two-level inequality fails",
        )

    c.expect(time.perf_counter() - start < 30.0, "took 30 s or longer")
    finish(
        "C02",
        "monotone tight family n=5,7,9: exact values, ratio window, both claims",
        c.failures,
    )


def test_criterion_03_posimodular_tight_n3(named_cases):
    c = Checks()
    case = named_cases["posi3"]
    rep = sp.ratio_report(case.oracle, 2, "posimodular", pps=case.sequence)
    c.expect(abs(rep.ratio - Fraction(3, 2)) <= Fraction(1, 10**5), f"ratio {rep.ratio}")
    c.expect(rep.bound == 2 - Fraction(2, 3 + 1), f"bound {rep.bound}")
    c.expect(rep.bound == Fraction(3, 2), "bound is not 3/2 at n=3")
    c.expect(rep.bound_ok, "ratio exceeds the bound")
    finish("C03", "posimodular tight n=3: ratio near 3/2 equals class bound", c.failures)


def test_criterion_04_digraph_construction(named_cases):
    c = Checks()
    n, k, a = 8, 3, BIG_A
    case = named_cases["omega8"]
    c.expect(
        case.sequence.partitions
        == (sp.trivial_partition(n), sp.singleton_partition(n)),
        "sequence is not ({V}, singletons)",
    )
    run = sp.pps_k_partition(case.oracle, k, pps=case.sequence)
    c.expect(run.value >= a * (n - 1), f"value {run.value} below a(n-1)")
    c.expect(run.value == a * (n - 1) + k - 1, f"value {run.value}")
    c.expect(0b1 in run.partition.blocks, "head vertex is not its own block")
    rep = sp.ratio_report(case.oracle, k, "general", pps=case.sequence)
    c.expect(
        rep.ratio >= a * (n - 1) / ((1 + a) * (k - 1) + 1),
        f"ratio {rep.ratio} below the construction's quotient",
    )
    finish(
        "C04",
        "digraph construction n=8 k=3: value and ratio lower bounds, both claims",
        c.failures,
    )


def test_criterion_05_class_bounds_on_random_sweep(sweep):
    c = Checks()
    groups = {g for g, _ in SWEEP_GROUPS}
    c.expect(len(sweep.records) == 500, f"{len(sweep.records)} instances, wanted 500")
    c.expect(
        {r.group for r in sweep.records} == groups,
        "missing an instance group",
    )
    checked = 0
    for rec in sweep.records:
        expected_bound = CLASS_BOUNDS[rec.function_class](rec.n)
        for rep in rec.reports:
            checked += 1
            if rep.bound != expected_bound:
                c.expect(False, f"{rec.group} seed {rec.seed}: bound mismatch")
            if not rep.bound_ok:
                c.expect(
                    False,
                    f"{rec.group} n={rec.n} seed {rec.seed} k={rep.k}: "
                    f"ratio {rep.ratio} exceeds bound {rep.bound}",
                )
    c.expect(checked >= 500 * 4, f"only {checked} (instance, k) runs")
    c.expect(sweep.elapsed < 300.0, f"sweep took {sweep.elapsed:.1f} s")
    finish(
        "C05",
        "500 random instances: ratio never exceeds the class bound for any k",
        c.failures,
    )


def test_criterion_06_exact_hits_are_optimal(sweep):
    c = Checks()
    hits = 0
    for rec in sweep.records:
        for rep in rec.reports:
            if rep.exact_hit:
                hits += 1
                if rep.algorithm_value != rep.optimal_value:
                    c.expect(
                        False,
                        f"{rec.group} seed {rec.seed} k={rep.k}: chain member "
                        f"{rep.algorithm_value} vs optimum {rep.optimal_value}",
                    )
    c.expect(hits > 0, "no exact hits in the sweep")
    finish("C06", "exact chain hits equal the brute-force optimum", c.failures)


def test_criterion_07_chain_lower_bounds(sweep):
    c = Checks()
    straddled = 0
    for rec in sweep.records:
        for rep, cb in zip(rec.reports, rec.chain_bounds):
            c.expect(
                cb.applicable == (not rep.exact_hit),
                f"{rec.group} seed {rec.seed} k={rep.k}: applicability mismatch",
            )
            if cb.applicable:
                straddled += 1
                if not (cb.interpolated_ok and cb.coarse_ok):
                    c.expect(
                        False,
                        f"{rec.group} seed {rec.seed} k={rep.k}: lower bound broken "
                        f"(interpolated {cb.interpolated_bound}, coarse {cb.coarse_bound})",
                    )
    c.expect(straddled > 0, "no straddled runs in the sweep")
    finish("C07", "both chain lower bounds hold on every straddled run", c.failures)


def test_sweep_optima_match_enumeration(sweep):
    # C05-C07 read ratio_report's optimum; enumeration is the reference for it
    for rec in sweep.records:
        fam = sp.random_instance(_sweep_family(rec.group, rec.seed), rec.n, rec.seed)
        oracle = fam.oracle()
        for rep in rec.reports:
            _, opt = sp.brute_force_optimal_k_partition(oracle, rep.k)
            assert rep.optimal_value == opt, (rec.group, rec.seed, rep.k)


def test_criterion_08_sequence_verification(sweep, named_cases):
    c = Checks()
    for name, case in named_cases.items():
        if not case.verification.ok:
            c.expect(False, f"{name}: {'; '.join(case.verification.failures[:2])}")
    for rec in sweep.records:
        if not rec.verification.ok:
            c.expect(
                False,
                f"{rec.group} seed {rec.seed}: "
                + "; ".join(rec.verification.failures[:2]),
            )
    finish("C08", "every principal sequence passes full verification", c.failures)


def test_criterion_09_cheapest_singleton():
    c = Checks()
    k = 4
    fam = sp.PartitionMatroidRankFn(2 * k, [[i, i + k] for i in range(k)])
    oracle = fam.oracle()
    base = sp.cheapest_singleton(oracle, k)
    _, opt = sp.brute_force_optimal_k_partition(oracle, k)
    c.expect(base.value == 2 * k - 1, f"baseline {base.value}, wanted {2 * k - 1}")
    c.expect(opt == k, f"optimum {opt}, wanted {k}")
    c.expect(base.value <= (2 - Fraction(1, k)) * opt, "baseline above (2 - 1/k) opt")

    monotone_families = ("graph_coverage", "partition_matroid", "graphic_matroid")
    for i in range(100):
        n = 5 + i % 4
        fam = sp.random_instance(monotone_families[i % 3], n, 1000 + i)
        oracle = fam.oracle()
        table = sp.brute_force_all_k(oracle)
        for kk in range(2, n + 1):
            value = sp.cheapest_singleton(oracle, kk).value
            _, opt = table[kk]
            if value > (2 - Fraction(1, kk)) * opt:
                c.expect(
                    False,
                    f"{fam.name} n={n} seed {1000 + i} k={kk}: "
                    f"baseline {value} vs optimum {opt}",
                )
    finish(
        "C09",
        "cheapest-singleton worst case is 2k-1 vs k; monotone fuzz stays within 2-1/k",
        c.failures,
    )


def _witness_is_genuine(oracle, result):
    a, b = result.witness
    f = oracle.eval
    if result.property_name == "monotone":
        return a & ~b == 0 and f(a) > f(b)
    if result.property_name == "symmetric":
        return b == oracle.ground_set.full_mask ^ a and f(a) != f(b)
    if result.property_name == "posimodular":
        return f(a) + f(b) < f(a & ~b) + f(b & ~a)
    return False


def test_criterion_10_declared_classes():
    c = Checks()
    shipped = [
        sp.GraphCutFn(4, [(0, 1, 1), (2, 3, 1)]),
        sp.GraphCutFn(4, [(0, 1, 3), (1, 2, 1), (2, 3, 2)]),
        sp.HypergraphCutFn(4, [([0, 1, 2], Fraction(2)), ([2, 3], Fraction(1, 2))]),
        sp.GraphCoverageFn(3, [(0, 1, 1), (1, 2, 1)]),
        sp.PartitionMatroidRankFn(4, [[0, 2], [1], [3]]),
        sp.GraphicMatroidRankFn(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
        mono3(),
        mono_n(5),
        posi3(),
        sp.random_instance("mono_sym_combo", 5, 7),
    ]
    checkers = {
        "monotone": sp.check_monotone,
        "symmetric": sp.check_symmetric,
        "posimodular": sp.check_posimodular,
    }
    for fam in shipped:
        oracle = fam.oracle()
        if not sp.check_submodular(oracle).ok:
            c.expect(False, f"{fam.name}: not submodular")
            continue
        checker = checkers.get(fam.function_class)
        if checker is None:
            c.expect(False, f"{fam.name}: unexpected class {fam.function_class}")
        elif not checker(oracle).ok:
            c.expect(False, f"{fam.name}: declared class {fam.function_class} rejected")
        if fam.function_class == "symmetric":
            c.expect(sp.check_symmetric(oracle).ok, f"{fam.name}: symmetric rejected")

    digraph = omega(5, 10).oracle()
    c.expect(sp.check_submodular(digraph).ok, "digraph: not submodular")
    for check in (sp.check_monotone, sp.check_symmetric, sp.check_posimodular):
        res = check(digraph)
        if res.ok:
            c.expect(False, f"digraph: unexpectedly {res.property_name}")
        elif not _witness_is_genuine(digraph, res):
            c.expect(False, f"digraph: {res.property_name} witness does not violate")
    finish(
        "C10",
        "declared function classes confirmed; digraph counterexamples genuine",
        c.failures,
    )
