import ast
import copy
import dataclasses
import importlib
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import subpartition as sp
from subpartition.core import default_labels, require_within_cap

from helpers import g_value, partition_value, partitions, rgs, weighted_path4


def test_as_fraction_accepts_exact_forms():
    assert sp.as_fraction(3) == Fraction(3)
    assert sp.as_fraction(Fraction(7, 2)) == Fraction(7, 2)
    assert sp.as_fraction("3/4") == Fraction(3, 4)
    assert sp.as_fraction("-2") == Fraction(-2)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        sp.as_fraction(0.5)
    with pytest.raises((ValueError, TypeError)):
        sp.as_fraction("0.5x")
    with pytest.raises(TypeError, match="cannot convert list to an exact Fraction"):
        sp.as_fraction([1])


def test_default_labels():
    assert default_labels(3) == ("a", "b", "c")
    assert default_labels(26)[-1] == "z"
    assert default_labels(27)[0] == "e0"


def test_ground_set_formatting_and_lookup():
    gs = sp.GroundSet(3, ("a", "b", "c"))
    assert gs.full_mask == 0b111
    assert gs.elements(0b110) == ("b", "c")
    assert gs.format_subset(0b101) == "{a,c}"
    assert gs.format_subset(0) == "{}"


def test_ground_set_rejects_bad_labels():
    with pytest.raises(ValueError):
        sp.GroundSet(2, ("x", "x"))
    with pytest.raises(ValueError):
        sp.GroundSet(2, ("x",))
    with pytest.raises(ValueError, match="expected 2 labels, got 0"):
        sp.GroundSet(2, ())
    with pytest.raises(ValueError, match="integer size of at least 1"):
        sp.GroundSet(0)
    assert sp.GroundSet(2).labels == sp.GroundSet(2, None).labels == ("a", "b")


def test_partition_canonicalizes_block_order():
    p = sp.Partition(4, [0b1100, 0b0011])
    assert tuple(p) == (0b0011, 0b1100)
    assert len(p) == 2
    assert 0b1100 in p
    assert p == sp.Partition(4, [0b0011, 0b1100])
    assert hash(p) == hash(sp.Partition(4, [0b0011, 0b1100]))
    assert repr(p) == "Partition(4, [[0, 1], [2, 3]])"


def test_partition_validation():
    with pytest.raises(ValueError):
        sp.Partition(3, [0b011, 0b110])  # overlap
    with pytest.raises(ValueError):
        sp.Partition(3, [0b001])  # does not cover
    with pytest.raises(ValueError):
        sp.Partition(3, [0b111, 0])  # empty block
    with pytest.raises(ValueError):
        sp.Partition(2, [0b100, 0b011])  # out of range
    with pytest.raises(ValueError, match="positive int"):
        sp.Partition(0, [])


def test_partition_rejects_non_int_arguments():
    # no silent coercion: a float mask would truncate and a string would parse
    for n, blocks in [(3, [1.9, 6]), (3, ["1", 6]), (3, [True, 6]), (True, [True]), (3.0, [7])]:
        with pytest.raises(TypeError):
            sp.Partition(n, blocks)


def test_partition_is_immutable():
    p = sp.trivial_partition(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.blocks = ()
    with pytest.raises(AttributeError):
        del p.n
    with pytest.raises(AttributeError):
        sp.Partition(3, [0b001, 0b110]).x = 4
    assert not hasattr(p, "__dict__")


def test_partition_pickle_and_deepcopy_round_trip():
    p = sp.Partition(3, [0b110, 0b001])
    for copied in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert copied == p and copied.blocks == (0b001, 0b110)
        assert hash(copied) == hash(p)


def test_partition_equality_and_hash():
    p = sp.Partition(3, [0b110, 0b001])
    assert p == sp.Partition._trusted(3, (0b001, 0b110))
    assert hash(p) == hash((3, (0b001, 0b110)))
    assert p != sp.trivial_partition(3)
    assert p != (3, (0b001, 0b110))


def _path3():
    # the weighted path a-b-c (weights 1, 2) and its chain {abc}, {a|bc}, singletons
    oracle = sp.GraphCutFn(3, [(0, 1, 1), (1, 2, 2)]).oracle()
    return oracle, sp.compute_pps(oracle)


def test_ground_set_and_sequence_are_immutable():
    for obj, field in ((sp.GroundSet(2), "labels"), (_path3()[1], "breakpoints")):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"field {field!r}"):
            setattr(obj, field, ())
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"field {field!r}"):
            delattr(obj, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.x = 4
        assert not hasattr(obj, "__dict__")


def test_ground_set_and_sequence_pickle_and_deepcopy_round_trip():
    for obj in (sp.GroundSet(3, ["x", "y", "z"]), _path3()[1]):
        for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert copied == obj and type(copied) is type(obj)
            assert hash(copied) == hash(obj)


def test_ground_set_and_sequence_equality_and_hash():
    _, seq = _path3()
    assert hash(sp.GroundSet(2)) == hash((2, ("a", "b")))
    assert hash(seq) == hash((seq.partitions, seq.breakpoints))
    assert sp.GroundSet(2) == sp.GroundSet(2, ["a", "b"])
    assert sp.GroundSet(2) != sp.GroundSet(2, ["b", "a"])
    assert sp.GroundSet(2) != (2, ("a", "b"))
    assert seq != (seq.partitions, seq.breakpoints)
    assert seq != sp.PrincipalSequence(seq.partitions[:2], seq.breakpoints[:1])


def test_value_classes_keep_the_dataclass_repr():
    oracle, seq = _path3()
    chain = (
        "PrincipalSequence(partitions=(Partition(3, [[0, 1, 2]]), Partition(3, [[0], [1, 2]]), "
        "Partition(3, [[0], [1], [2]])), breakpoints=(Fraction(2, 1), Fraction(4, 1)))"
    )
    run = (
        "KPartitionRun(k=2, partition=Partition(3, [[0], [1, 2]]), value=Fraction(2, 1), "
        f"exact_hit=True, sequence={chain}, below=None, above=None, split_block=None, "
        "piece_order=None, num_taken=None, gap_above=None)"
    )
    cases = [
        (sp.GroundSet(2), "GroundSet(n=2, labels=('a', 'b'))"),
        (seq, chain),
        (
            sp.CheckResult("submodular", False, (1, 2), Fraction(1, 2), 3),
            "CheckResult(property_name='submodular', ok=False, witness=(1, 2), "
            "lhs=Fraction(1, 2), rhs=3)",
        ),
        (
            sp.verify_pps(oracle, seq),
            "PpsVerification(ok=True, endpoints_ok=True, refinement_ok=True, "
            "breakpoints_nondecreasing_ok=True, breakpoints_attained_ok=True, "
            "segments_optimal_ok=True, formula_ok=True, samples_checked=2, failures=())",
        ),
        (sp.pps_k_partition(oracle, 2, pps=seq), run),
        (
            sp.greedy_splitting(oracle, 2),
            "BaselineResult(algorithm='greedy', partition=Partition(3, [[0], [1, 2]]), "
            "value=Fraction(2, 1))",
        ),
        (
            sp.check_chain_lower_bounds(oracle, 2, seq, 1),
            "ChainBoundsReport(applicable=False, interpolated_bound=None, coarse_bound=None, "
            "interpolated_ok=None, coarse_ok=None)",
        ),
        (
            sp.ratio_report(oracle, 2, "symmetric", pps=seq),
            "RatioReport(n=3, k=2, function_class='symmetric', algorithm_value=Fraction(2, 1), "
            "optimal_value=Fraction(2, 1), ratio=Fraction(1, 1), bound=Fraction(4, 3), "
            f"bound_ok=True, exact_hit=True, chain_coarse_ratio=None, run={run})",
        ),
    ]
    for obj, text in cases:
        assert repr(obj) == text


def test_result_records_are_named_tuples():
    # the records are tuples: unpacked, indexed, equal to a plain tuple, and
    # read-only, but with no __dict__ for vars()
    result = sp.CheckResult("monotone", False, (1, 3), Fraction(1), Fraction(0))
    name, ok, witness, lhs, rhs = result
    assert (name, ok, witness) == ("monotone", False, (1, 3)) and not result
    assert result == ("monotone", False, (1, 3), 1, 0) and result[3] == lhs
    assert result._asdict()["rhs"] == rhs
    with pytest.raises(AttributeError):
        result.ok = True
    with pytest.raises(TypeError):
        vars(result)
    oracle, seq = _path3()
    records = [
        sp.verify_pps(oracle, seq),
        sp.pps_k_partition(oracle, 2, pps=seq),
        sp.cheapest_singleton(oracle, 2),
        sp.check_chain_lower_bounds(oracle, 2, seq, 1),
        sp.ratio_report(oracle, 2, "symmetric", pps=seq),
    ]
    for record in records:
        assert isinstance(record, tuple) and tuple(record) == record
        assert record._replace() == record


def test_partition_block_of_and_rgs():
    p = sp.Partition(4, [0b0101, 0b1010])
    assert p.block_of(0) == 0b0101
    assert p.block_of(1) == 0b1010
    for element in (-1, 4):
        with pytest.raises(ValueError, match=f"element {element} out of range"):
            p.block_of(element)
    assert rgs(p) == (0, 1, 0, 1)
    assert rgs(sp.singleton_partition(3)) == (0, 1, 2)
    assert rgs(sp.trivial_partition(3)) == (0, 0, 0)


def test_refines_and_refined_part():
    coarse = sp.Partition(4, [0b0011, 0b1100])
    fine = sp.Partition(4, [0b0001, 0b0010, 0b1100])
    assert sp.refines(fine, coarse)
    assert not sp.refines(coarse, fine)
    assert sp.refines(coarse, coarse)
    assert sp.refined_part(coarse, fine) == 0b0011
    # identical partitions: nothing was refined
    assert sp.refined_part(coarse, coarse) is None
    # both blocks split: not a single-part refinement
    assert sp.refined_part(sp.trivial_partition(4), sp.singleton_partition(4)) == 0b1111
    both = sp.Partition(4, [0b0001, 0b0010, 0b0100, 0b1000])
    assert sp.refined_part(coarse, both) is None
    for check in (sp.refines, sp.refined_part):
        with pytest.raises(ValueError, match="different ground sets"):
            check(coarse, sp.trivial_partition(3))


def test_refined_part_matches_its_definition():
    # the reference: `fine` refines `coarse` and exactly one coarse block is
    # not a fine block
    for n in range(1, 6):
        for coarse in partitions(n):
            for fine in partitions(n):
                missing = [b for b in coarse.blocks if b not in fine.blocks]
                single = sp.refines(fine, coarse) and len(missing) == 1
                assert sp.refined_part(coarse, fine) == (missing[0] if single else None)


def test_trivial_and_singleton_partitions():
    assert tuple(sp.trivial_partition(3)) == (0b111,)
    assert tuple(sp.singleton_partition(3)) == (1, 2, 4)


def test_oracle_memoizes_and_counts():
    calls = []

    def fn(mask):
        calls.append(mask)
        return Fraction(mask.bit_count())

    oracle = sp.ValueOracle(sp.GroundSet(3, default_labels(3)), fn)
    assert oracle.eval(0b101) == 2
    assert oracle.eval(0b101) == 2
    assert len(calls) == 1
    assert oracle.distinct_evaluations == 1
    assert oracle.total_calls == 2


def test_oracle_rejects_floats_and_bad_masks():
    gs = sp.GroundSet(2, ("a", "b"))
    bad = sp.ValueOracle(gs, lambda m: 0.5)
    with pytest.raises(TypeError):
        bad.eval(1)
    text = sp.ValueOracle(gs, lambda m: "1", name="texty")
    with pytest.raises(TypeError, match="oracle 'texty' returned str; expected Fraction or int"):
        text.eval(1)
    with pytest.raises(TypeError, match="subset masks must be ints"):
        gs.validate_mask("1")
    ok = sp.ValueOracle(gs, lambda m: m.bit_count())
    with pytest.raises(ValueError):
        ok.eval(1 << 5)
    with pytest.raises(ValueError):
        ok.eval(-1)
    assert ok.eval(0b11) == Fraction(2)


def test_oracle_scaled_table_clears_denominators():
    fam = sp.GraphCutFn(3, [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 3))])
    oracle = fam.oracle()
    d, table = oracle.scaled_table()
    assert all(isinstance(v, int) for v in table)
    for mask in range(8):
        assert Fraction(table[mask], d) == fam.value(mask) == oracle.eval(mask)


def test_bare_oracle_table_build_is_not_a_query():
    # a bare oracle reads fn once per subset to build its table, counts none
    # of those reads as queries, and then answers eval from the table
    gs = sp.GroundSet(4)
    reads = []

    def fn(mask):
        reads.append(mask)
        return Fraction(mask, 6)

    oracle = sp.ValueOracle(gs, fn)
    assert oracle.scaled_table() == (6, tuple(range(16)))
    assert sorted(reads) == list(range(16))
    assert (oracle.total_calls, oracle.distinct_evaluations) == (0, 16)
    assert [oracle.eval(m) for m in range(16)] == [Fraction(m, 6) for m in range(16)]
    assert len(reads) == 16
    assert (oracle.total_calls, oracle.distinct_evaluations) == (16, 16)
    # the build checks each read as eval does, with eval's messages
    floats = sp.ValueOracle(gs, lambda m: 0.5, name="floaty")
    with pytest.raises(TypeError, match="oracle 'floaty' returned a float for mask 0x0; "):
        floats.scaled_table()
    text = sp.ValueOracle(gs, lambda m: "1", name="texty")
    with pytest.raises(TypeError, match="oracle 'texty' returned str; expected Fraction or int"):
        text.scaled_table()


def test_partition_value_and_g_value():
    oracle = weighted_path4().oracle()
    p = sp.Partition(4, [0b0011, 0b1100])
    assert partition_value(oracle, p) == Fraction(2)
    assert g_value(oracle, p, Fraction(1, 2)) == Fraction(1)
    assert g_value(oracle, p, 3) == Fraction(-4)


def test_enumeration_cap_env_lowers_only(monkeypatch):
    assert sp.enumeration_cap() == 13
    monkeypatch.setenv("SUBMOD_N_CAP", "5")
    assert sp.enumeration_cap() == 5
    with pytest.raises(sp.GroundSetCapError):
        require_within_cap(6, "test op")
    require_within_cap(5, "test op")
    monkeypatch.setenv("SUBMOD_N_CAP", "40")
    assert sp.enumeration_cap() == 13
    monkeypatch.setenv("SUBMOD_N_CAP", "zero")
    with pytest.raises(ValueError):
        sp.enumeration_cap()
    monkeypatch.setenv("SUBMOD_N_CAP", "0")
    with pytest.raises(ValueError, match="SUBMOD_N_CAP must be at least 1"):
        sp.enumeration_cap()


def test_no_assert_statements_in_package():
    # assert is gone under python -O, so no guarantee may rest on one
    sources = sorted(Path(sp.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _reads_optimize_state(node: ast.AST) -> bool:
    # __debug__ is False under python -O, and sys.flags.optimize is 1; an
    # attribute or an import named `flags` is refused whatever it names
    if isinstance(node, ast.Name):
        return node.id == "__debug__"
    if isinstance(node, ast.Attribute):
        return node.attr in ("__debug__", "flags")
    return isinstance(node, ast.alias) and node.name in ("__debug__", "flags")


def test_no_debug_or_sys_flags_reads_in_package():
    # python -O only strips asserts and sets __debug__ and sys.flags; with
    # no assert and no read of either, every command prints the same bytes
    # and exits with the same code under -O, for every input
    sources = sorted(Path(sp.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _reads_optimize_state(node)
    ]
    assert found == []


def test_package_namespace_is_the_union_of_module_exports():
    # a name in two module lists would be shadowed silently by the star
    # imports, so the lists must be disjoint and each name must resolve to
    # its defining module's object
    names = "core families checkers partition_opt pps kpartition instances".split()
    modules = [importlib.import_module(f"subpartition.{name}") for name in names]
    exports = [name for module in modules for name in module.__all__]
    assert len(exports) == len(set(exports))
    assert sorted(sp.__all__) == sorted(exports + ["__version__"])
    for module in modules:
        for name in module.__all__:
            assert getattr(sp, name) is getattr(module, name), (module.__name__, name)
    assert "cli" not in sp.__all__
