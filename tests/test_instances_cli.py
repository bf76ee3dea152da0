import argparse
import contextlib
import copy
import csv
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import subpartition as sp
from subpartition import checkers, cli, pps
from subpartition.cli import CSV_COLUMNS, fmt_decimal, fmt_rational, main

from helpers import (
    EPS,
    cardinality,
    coverage_path3,
    footnote_matroid,
    mono3,
    mono_n,
    omega,
    posi3,
    weighted_path4,
)

# non-submodular on purpose; its optimal 2- and 3-block partitions {a,b}|{c,d}
# and {a,c}|{b}|{d} are not nested, and at b=40/3, where the lines of {V}
# and the singletons cross, the greedy's partition misses its bound x(V)
INCONSISTENT_TABLE = [0, 10, 10, 2, 10, 0, 50, 50, 10, 50, 50, 50, 2, 50, 50, 0]

# non-submodular on purpose; at b=5/2 both {a,b}|{c} and {a,c}|{b} minimize
# f(P) - b|P|, so there is no unique finest minimizer, and the greedy's
# partition there misses its bound x(V)
TIED_FINEST_TABLE = [0, 2, 2, 0, 2, 0, 1, 1]


def write_instance(tmp_path, fam, name="inst.json"):
    path = tmp_path / name
    sp.save_instance(fam, path)
    return path


def table_of(fam):
    return [fam.value(m) for m in range(1 << fam.n)]


def test_round_trip_all_families(tmp_path):
    families = [
        weighted_path4(),
        coverage_path3(),
        sp.HypergraphCutFn(4, [([0, 1, 2], Fraction(2)), ([2, 3], Fraction(1, 2))]),
        footnote_matroid(3),
        sp.GraphicMatroidRankFn(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
        mono3(),
        posi3(),
        mono_n(5),
        omega(5, 10),
        cardinality(4),
    ]
    for i, fam in enumerate(families):
        path = write_instance(tmp_path, fam, f"f{i}.json")
        back = sp.load_instance(path)
        # display names are not round-tripped; files carry the canonical tag
        expected = "explicit_table" if isinstance(fam, sp.ExplicitTableFn) else fam.name
        assert back.name == expected
        assert back.n == fam.n
        assert back.labels == fam.labels
        assert table_of(back) == table_of(fam)


def test_combination_round_trips_as_table(tmp_path):
    fam = sp.random_instance("mono_sym_combo", 5, 1)
    assert isinstance(fam, sp.CombinationFn)
    path = write_instance(tmp_path, fam)
    back = sp.load_instance(path)
    assert back.name == "explicit_table"
    assert back.function_class == fam.function_class
    assert table_of(back) == table_of(fam)


def _forbid_value(monkeypatch, fam):
    """Make `value` raise on the family's class and on its parts' classes."""

    def unused(self, mask):
        raise AssertionError("value was called")

    for cls in {type(part) for part in (fam, *getattr(fam, "parts", ()))}:
        monkeypatch.setattr(cls, "value", unused)


def test_table_files_are_written_from_the_value_table(tmp_path, monkeypatch):
    rng = random.Random("table files")
    denominators = (1, 3, 7, 10**12 + 39)
    explicit = sp.ExplicitTableFn(
        4, [Fraction(rng.randint(-50, 50), rng.choice(denominators)) for _ in range(16)]
    )
    combination = sp.CombinationFn(
        [weighted_path4(), cardinality(4)], [Fraction(1, 3), Fraction(5, 2)], "posimodular"
    )
    for i, fam in enumerate([explicit, combination, sp.random_instance("mono_sym_combo", 5, 1)]):
        # the file the Fraction values give, in lowest terms, one [p, q] per mask
        expected = {
            "family": "explicit_table",
            "format_version": 1,
            "labels": list(fam.labels),
            "n": fam.n,
            "params": {
                "values": [[v.numerator, v.denominator] for v in map(fam.value, range(1 << fam.n))],
                "function_class": fam.function_class,
            },
        }
        with monkeypatch.context() as patch:
            _forbid_value(patch, fam)
            path = write_instance(tmp_path, fam, f"t{i}.json")
        assert path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_table_file_above_the_cap_is_refused_before_writing(tmp_path):
    path = tmp_path / "big.json"
    with pytest.raises(sp.GroundSetCapError):
        sp.save_instance(sp.ExplicitTableFn(14, [0] * (1 << 14)), path)
    assert not path.exists()


@pytest.mark.parametrize(
    "family",
    [sp.GraphCutFn(14, [(0, 1, 1)]), sp.MonoTightNFn(15), sp.DigraphHyperFn(14)],
    ids=lambda fam: fam.name,
)
def test_every_family_above_the_cap_is_refused_before_writing(tmp_path, family):
    # load_instance could not read such a file back
    path = tmp_path / "big.json"
    with pytest.raises(sp.GroundSetCapError):
        sp.save_instance(family, path)
    assert not path.exists()


def base_doc():
    return sp.instance_to_json(weighted_path4())


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("format_version"),
        lambda d: d.update(format_version=2),
        lambda d: d.update(format_version="1"),
        lambda d: d.update(family=7),
        lambda d: d.update(family="florp"),
        lambda d: d.update(n=0),
        lambda d: d.update(labels="abcd"),
        lambda d: d.pop("params"),
        lambda d: d["params"]["edges"].append([0, 1]),
        lambda d: d["params"]["edges"].append([0, 1, [1, 0]]),
        lambda d: d["params"]["edges"].append([0, 1, [1]]),
        lambda d: d["params"]["edges"].append([0, 1, "3"]),
    ],
)
def test_schema_rejections(mutate):
    doc = copy.deepcopy(base_doc())
    mutate(doc)
    with pytest.raises(sp.InstanceFormatError):
        sp.instance_from_json(doc)


def test_not_a_json_object():
    with pytest.raises(sp.InstanceFormatError):
        sp.instance_from_json([1, 2, 3])


def test_graphic_matroid_edge_count_mismatch():
    doc = {
        "format_version": 1,
        "family": "graphic_matroid",
        "n": 3,
        "params": {"num_vertices": 4, "edges": [[0, 1], [1, 2]]},
    }
    with pytest.raises(sp.InstanceFormatError):
        sp.instance_from_json(doc)


@pytest.mark.parametrize("edge", [[0, 1.9], [True, 2], ["0", "2"]])
def test_graphic_matroid_rejects_non_int_endpoints(edge):
    # vertex indices must be ints, as in every other family
    doc = {
        "format_version": 1,
        "family": "graphic_matroid",
        "n": 3,
        "params": {"num_vertices": 4, "edges": [[0, 1], [1, 2], edge]},
    }
    with pytest.raises(sp.InstanceFormatError, match="vertex index"):
        sp.instance_from_json(doc)


@pytest.mark.parametrize(
    "edge, message",
    [
        ([0, 1.9], "vertex index 1.9 is not an int"),
        ([True, 2], "vertex index True is not an int"),
        (["0", "2"], "vertex index '0' is not an int"),
        ([0, 4], "vertex index 4 out of range for 4 elements"),
    ],
)
def test_endpoint_errors_tell_type_from_range(edge, message):
    doc = {
        "format_version": 1,
        "family": "graphic_matroid",
        "n": 3,
        "params": {"num_vertices": 4, "edges": [[0, 1], [1, 2], edge]},
    }
    with pytest.raises(sp.InstanceFormatError, match=re.escape(message)):
        sp.instance_from_json(doc)


@pytest.mark.parametrize("validate", [True, False])
def test_duplicate_labels_are_a_format_error(validate):
    doc = {
        "format_version": 1,
        "family": "graph_cut",
        "n": 3,
        "labels": ["a", "a", "b"],
        "params": {"edges": [[0, 1, [1, 1]]]},
    }
    with pytest.raises(sp.InstanceFormatError, match="distinct"):
        sp.instance_from_json(doc, validate=validate)


@pytest.mark.parametrize(
    "family, n, params",
    [
        ("mono_tight3", 3, {"eps": [1, 1000000]}),
        ("posi_tight3", 3, {"eps": [1, 1000000]}),
        ("mono_tight_n", 5, {"eps": [1, 1000000]}),
        ("digraph_hyper", 4, {"a": [10, 1]}),
    ],
    ids=["mono_tight3", "posi_tight3", "mono_tight_n", "digraph_hyper"],
)
@pytest.mark.parametrize("validate", [True, False])
def test_self_naming_families_reject_duplicate_labels(validate, family, n, params):
    doc = {
        "format_version": 1,
        "family": family,
        "n": n,
        "labels": ["a", "a"] + [f"x{i}" for i in range(n - 2)],
        "params": params,
    }
    with pytest.raises(sp.InstanceFormatError, match="distinct"):
        sp.instance_from_json(doc, validate=validate)


@pytest.mark.parametrize(
    "fam",
    [
        sp.MonoTight3Fn(EPS, labels=("p", "q", "r")),
        sp.PosiTight3Fn(EPS, labels=("p", "q", "r")),
        sp.MonoTightNFn(5, EPS, labels=("u1", "u2", "d1", "d2", "d3")),
        sp.DigraphHyperFn(4, 10, labels=("tail", "h1", "h2", "h3")),
    ],
    ids=lambda fam: fam.name,
)
def test_self_naming_families_keep_custom_labels(tmp_path, capsys, fam):
    path = write_instance(tmp_path, fam)
    assert json.loads(path.read_text())["labels"] == list(fam.labels)
    back = sp.load_instance(path)
    assert back.labels == fam.labels
    assert table_of(back) == table_of(fam)
    assert main(["pps", str(path)]) == 0
    assert "{" + ",".join(fam.labels) + "}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "make, defaults",
    [
        (lambda labels: sp.GraphCutFn(3, [(0, 1, 1)], labels=labels), "a b c"),
        (lambda labels: sp.MonoTight3Fn(EPS, labels=labels), "a b c"),
        (lambda labels: sp.MonoTightNFn(5, EPS, labels=labels), "v1 v2 v3 v4 v5"),
        (lambda labels: sp.DigraphHyperFn(4, 10, labels=labels), "v0 v1 v2 v3"),
    ],
)
def test_empty_labels_rejected(make, defaults):
    with pytest.raises(ValueError, match="labels, got 0"):
        make([])
    assert make(None).labels == tuple(defaults.split())


def test_non_string_labels_rejected(tmp_path):
    # int labels would be saved to a file that load_instance rejects, and
    # formatting a subset of them would fail inside str.join
    with pytest.raises(TypeError, match="element labels must be strings"):
        sp.GraphCutFn(2, [(0, 1, 1)], labels=[0, 1])
    with pytest.raises(TypeError, match="element labels must be strings"):
        sp.GroundSet(2, ("a", None))
    back = sp.load_instance(write_instance(tmp_path, sp.GraphCutFn(2, [(0, 1, 1)], labels=["0", "1"])))
    assert back.labels == ("0", "1")
    assert back.ground_set().format_subset(0b11) == "{0,1}"


def test_empty_labels_in_file_rejected(tmp_path, capsys):
    doc = sp.instance_to_json(sp.GraphCutFn(3, [(0, 1, 1), (1, 2, 1)]))
    doc["labels"] = []
    with pytest.raises(sp.InstanceFormatError, match="expected 3 labels, got 0"):
        sp.instance_from_json(doc)
    path = tmp_path / "empty_labels.json"
    path.write_text(json.dumps(doc))
    assert main(["pps", str(path)]) == 2
    assert capsys.readouterr().out == ""
    del doc["labels"]
    assert sp.instance_from_json(doc).labels == ("a", "b", "c")


def _file(family, n, params):
    return json.dumps({"format_version": 1, "family": family, "n": n, "params": params})


@pytest.mark.parametrize(
    "text",
    [
        _file("mono_tight3", 4, {"eps": [1, 1000000]}),
        _file("graph_cut", 3, {"edges": 5}),
        _file("graphic_matroid", 1, {"num_vertices": 3, "edges": [[0, 1, 2]]}),
        _file("hypergraph_cut", 3, {"hyperedges": {}}),
        _file("hypergraph_cut", 3, {"hyperedges": [[0, 1]]}),
        _file("hypergraph_cut", 3, {"hyperedges": [[[0], [1, 1]]]}),
        _file("partition_matroid", 2, {"blocks": [0, 1]}),
        _file("explicit_table", 1, {"values": 3}),
        "{not json",
    ],
    ids=[
        "declared-n-mismatch",
        "edges-not-a-list",
        "unweighted-edge-shape",
        "hyperedges-not-a-list",
        "hyperedge-entry-shape",
        "hyperedge-one-member",
        "blocks-not-lists",
        "values-not-a-list",
        "invalid-json",
    ],
)
def test_loader_error_branches(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(sp.InstanceFormatError):
        sp.load_instance(path)
    assert main(["pps", str(path)]) == 2


def test_unknown_family_cannot_be_serialized():
    class Unsaved(sp.SetFunctionFamily):
        name = "unsaved"

    with pytest.raises(sp.InstanceFormatError, match="cannot serialize"):
        sp.instance_to_json(Unsaved(2))


def test_cap_violation_is_its_own_error(monkeypatch):
    doc = {"format_version": 1, "family": "graph_cut", "n": 14, "params": {"edges": []}}
    with pytest.raises(sp.GroundSetCapError):
        sp.instance_from_json(doc)
    monkeypatch.setenv("SUBMOD_N_CAP", "4")
    doc["n"] = 5
    with pytest.raises(sp.GroundSetCapError):
        sp.instance_from_json(doc)


def test_validation_rejects_non_submodular(tmp_path):
    fam = sp.ExplicitTableFn(4, INCONSISTENT_TABLE, "general")
    path = write_instance(tmp_path, fam)
    with pytest.raises(sp.InstanceFormatError, match="not submodular"):
        sp.load_instance(path)
    back = sp.load_instance(path, validate=False)
    assert table_of(back) == table_of(fam)


def test_validation_covers_n13(tmp_path):
    # n = 13, the top of the enumeration cap, is validated like any other n:
    # zero everywhere except f(V) = 1 breaks f(A) + f(V - A) >= f(V) + f({})
    n = 13
    values = [Fraction(0)] * (1 << n)
    values[-1] = Fraction(1)
    path = write_instance(tmp_path, sp.ExplicitTableFn(n, values, "general"))
    with pytest.raises(sp.InstanceFormatError, match="not submodular"):
        sp.load_instance(path)
    assert main(["pps", str(path)]) == 2


def test_instance_file_bytes_frozen(tmp_path):
    path = write_instance(tmp_path, mono3())
    expected = (
        '{\n'
        '  "family": "mono_tight3",\n'
        '  "format_version": 1,\n'
        '  "labels": [\n'
        '    "a",\n'
        '    "b",\n'
        '    "c"\n'
        '  ],\n'
        '  "n": 3,\n'
        '  "params": {\n'
        '    "eps": [\n'
        '      1,\n'
        '      1000000\n'
        '    ]\n'
        '  }\n'
        '}\n'
    )
    assert path.read_text() == expected


def test_generate_batch_is_byte_deterministic(tmp_path):
    d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (d1, d2, d3):
        d.mkdir()
    first = sp.generate_batch("graph_cut", 6, 9, 3, d1)
    second = sp.generate_batch("graph_cut", 6, 9, 3, d2)
    other = sp.generate_batch("graph_cut", 6, 10, 3, d3)
    assert [p.name for p in first] == [
        "graph_cut_n6_s9_000.json",
        "graph_cut_n6_s9_001.json",
        "graph_cut_n6_s9_002.json",
    ]
    for p1, p2 in zip(first, second):
        assert p1.read_bytes() == p2.read_bytes()
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]


CLASS_CHECKERS = {
    "monotone": sp.check_monotone,
    "symmetric": sp.check_symmetric,
    "posimodular": sp.check_posimodular,
}


def test_generated_instances_match_declared_class():
    for family in sorted(sp.GENERATOR_FAMILIES):
        fam = sp.random_instance(family, 5, 2)
        oracle = fam.oracle()
        assert sp.check_submodular(oracle).ok
        checker = CLASS_CHECKERS.get(fam.function_class)
        assert checker is not None
        assert checker(oracle).ok


def test_random_instance_determinism():
    a = sp.instance_to_json(sp.random_instance("hypergraph_cut", 6, 4))
    b = sp.instance_to_json(sp.random_instance("hypergraph_cut", 6, 4))
    c = sp.instance_to_json(sp.random_instance("hypergraph_cut", 6, 5))
    assert a == b
    assert a != c


def test_random_instance_bad_args():
    with pytest.raises(ValueError):
        sp.random_instance("florp", 5, 1)
    with pytest.raises(ValueError):
        sp.random_instance("graph_cut", 1, 1)


# ---------------------------------------------------------------------------
# command line


def test_cli_pps_text(tmp_path, capsys):
    path = write_instance(tmp_path, weighted_path4())
    assert main(["pps", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verification: PASS" in out
    assert "breakpoint 2" in out


def test_cli_pps_text_reports_failures(tmp_path, capsys, monkeypatch):
    # a chain with its middle breakpoint moved, passed on with the chain's
    # own certificates: the text report lists each failure and the command
    # exits 3
    def shifted_pps(oracle):
        good = pps.compute_pps(oracle)
        bps = list(good.breakpoints)
        bps[1] += 1
        return sp.PrincipalSequence(good.partitions, bps, good.certificates)

    monkeypatch.setattr(cli, "compute_pps", shifted_pps)
    path = write_instance(tmp_path, weighted_path4())
    assert main(["pps", str(path)]) == 3
    out = capsys.readouterr().out
    assert "  failure: breakpoint 1 is " in out
    assert "verification: FAIL" in out


def test_cli_pps_json_deterministic(tmp_path, capsys):
    path = write_instance(tmp_path, weighted_path4())
    assert main(["pps", str(path), "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["pps", str(path), "--json"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["breakpoints"] == [[2, 1], [4, 1], [6, 1]]
    assert doc["partitions"][0] == [[0, 1, 2, 3]]
    assert doc["partitions"][-1] == [[0], [1], [2], [3]]
    assert doc["verification"] == {
        "ok": True,
        "endpoints_ok": True,
        "refinement_ok": True,
        "breakpoints_nondecreasing_ok": True,
        "breakpoints_attained_ok": True,
        "segments_optimal_ok": True,
        "formula_ok": True,
        "samples_checked": 3,
        "failures": [],
    }


def test_cli_pps_has_no_interior_samples_option(tmp_path, capsys):
    # the option was a no-op (segment optimality is decided exactly) and is gone
    path = write_instance(tmp_path, weighted_path4())
    assert main(["pps", str(path), "--interior-samples", "3"]) == 2
    assert "unrecognized arguments: --interior-samples 3" in capsys.readouterr().err


def test_cli_solve_unknown_algorithm_rejected_before_loading(tmp_path, capsys, monkeypatch):
    # so is a name given twice, which would print its row twice, in stdout
    # and in the CSV
    path = write_instance(tmp_path, weighted_path4())

    def no_load(path, validate=True):
        raise AssertionError("load_instance ran before the usage error")

    monkeypatch.setattr(cli, "load_instance", no_load)
    csv_path = tmp_path / "rows.csv"
    for names, message in [
        ("pps,magic", "unknown algorithm 'magic'"),
        ("pps, greedy,pps", "algorithm 'pps' is named twice"),
    ]:
        argv = ["solve", str(path), "--k", "2", "--algorithms", names, "--csv", str(csv_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
    assert not csv_path.exists()


def test_cli_solve_k_out_of_range_without_algorithms(tmp_path, capsys):
    # no algorithm and no brute force reads k, and k = 0 is still an error
    path = write_instance(tmp_path, weighted_path4())
    assert main(["solve", str(path), "--k", "0", "--algorithms", ""]) == 2
    assert capsys.readouterr().out == ""
    assert main(["solve", str(path), "--k", "2", "--algorithms", "", "--no-timing"]) == 0


def test_cli_solve_csv(tmp_path):
    path = write_instance(tmp_path, mono3())
    out = tmp_path / "rows.csv"
    assert main(
        ["solve", str(path), "--k", "2", "--brute-force", "--csv", str(out), "--no-timing"]
    ) == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = {r["algorithm"]: r for r in csv.DictReader(text.splitlines())}
    assert set(rows) == {"pps", "greedy", "singleton"}
    pps_row = rows["pps"]
    assert pps_row["value"] == "1500001/500000"
    assert pps_row["opt"] == "1250001/500000"
    assert pps_row["ratio"] == "1500001/1250001"
    assert pps_row["bound"] == "6/5"
    assert pps_row["bound_ok"] == "true"
    assert pps_row["wall_time_s"] == "0"
    assert pps_row["value_dec"] == "3.000002"
    assert pps_row["ratio_dec"] == "1.19999984000"
    assert rows["singleton"]["bound"] == "3/2"
    # greedy claims no guarantee: bound cells stay empty
    assert rows["greedy"]["bound"] == ""
    assert rows["greedy"]["bound_ok"] == ""

    again = tmp_path / "rows2.csv"
    main(["solve", str(path), "--k", "2", "--brute-force", "--csv", str(again), "--no-timing"])
    assert again.read_bytes() == out.read_bytes()


def test_cli_solve_without_brute_force(tmp_path, capsys):
    path = write_instance(tmp_path, weighted_path4())
    assert main(["solve", str(path), "--k", "3", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "optimal value" not in out


def test_cli_usage_errors(tmp_path):
    path = write_instance(tmp_path, weighted_path4())
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["solve", str(path)]) == 2
    assert main(["solve", str(path), "--k", "9"]) == 2
    assert main(["solve", str(path), "--k", "0"]) == 2
    assert main(["solve", str(path), "--k", "2", "--algorithms", "pps,magic"]) == 2
    assert main(["pps", str(tmp_path / "missing.json")]) == 2


def test_cli_exit_codes_on_inconsistent_instance(tmp_path):
    fam = sp.ExplicitTableFn(4, INCONSISTENT_TABLE, "general")
    path = write_instance(tmp_path, fam)
    # rejected by validation at load time
    assert main(["pps", str(path)]) == 2
    # skipping validation lets the search run into a greedy that misses g(b)
    assert main(["pps", str(path), "--no-validate"]) == 3
    assert main(["verify", str(path)]) == 1


def test_cli_no_validate_names_the_pair_that_is_not_nested(tmp_path, capsys):
    path = write_instance(tmp_path, sp.ExplicitTableFn(4, INCONSISTENT_TABLE, "general"))
    assert main(["pps", str(path), "--no-validate"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at b=40/3, bracketed by chain members with 1 and 4 blocks" in captured.err


def test_cli_no_validate_exits_3_without_a_unique_finest_minimizer(tmp_path, capsys):
    path = write_instance(tmp_path, sp.ExplicitTableFn(3, TIED_FINEST_TABLE, "general"))
    assert main(["pps", str(path), "--no-validate"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at b=5/2, bracketed by chain members with 1 and 3 blocks" in captured.err
    assert main(["pps", str(path)]) == 2


@pytest.mark.parametrize(
    "command",
    [
        ["random", "--family", "graph_cut", "--n", "4", "--seed", "1", "--out-dir", "{file}"],
        ["pps", "{file}/x.json"],
        ["solve", "{instance}", "--k", "2", "--csv", "{file}/x.csv"],
        ["pps", "{nested}"],
        ["verify", "{not_utf8}"],
    ],
    ids=["random-out-dir", "pps-instance", "solve-csv", "pps-nested-json", "verify-not-utf8"],
)
def test_cli_file_errors_are_usage_errors(tmp_path, capsys, command):
    # a path that runs through a regular file, or a file that is not JSON, is
    # a usage error (exit 2) that names the path, not a traceback that reads
    # like a failed check
    file = tmp_path / "file"
    file.write_text("")
    instance = write_instance(tmp_path, weighted_path4())
    nested = tmp_path / "nested.json"  # deeper than the JSON decoder recurses
    nested.write_text("[" * 100_000 + "]" * 100_000)
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'{"family": "\xff"}')
    paths = {"file": file, "instance": instance, "nested": nested, "not_utf8": not_utf8}
    argv = [arg.format(**paths) for arg in command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def _non_submodular_tables(count):
    """Seeded tables at n = 3..6 that fail submodularity: random small
    rationals, and generator tables with 1-3 entries nudged."""
    families = sorted(sp.GENERATOR_FAMILIES)
    i = 0
    while count:
        rng = random.Random(f"no-validate:{i}")
        n = 3 + i % 4
        if i % 2:
            table = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(1 << n)]
        else:
            base = sp.random_instance(families[i // 2 % len(families)], n, i)
            table = [base.value(m) for m in range(1 << n)]
            for _ in range(rng.randint(1, 3)):
                m = rng.randrange(len(table))
                table[m] += Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
        i += 1
        fam = sp.ExplicitTableFn(n, table, "general")
        if not sp.check_submodular(fam.oracle()).ok:
            count -= 1
            yield fam


def test_cli_no_validate_never_passes_a_failed_chain(tmp_path, capsys):
    # past --no-validate a run must stop with exit 3 or print a chain that
    # passes verification; it must never raise or exit 0 unverified.  The
    # counts pin which ending the greedy gives these tables
    endings = {0: 0, 3: 0}
    for i, fam in enumerate(_non_submodular_tables(400)):
        path = write_instance(tmp_path, fam, f"t{i}.json")
        code = main(["pps", str(path), "--json", "--no-validate"])
        out = capsys.readouterr().out
        assert code in endings, (i, code)
        if code == 0:
            assert json.loads(out)["verification"]["ok"] is True
        endings[code] += 1
    assert endings == {0: 139, 3: 261}


def test_cli_verify(tmp_path, capsys):
    good = write_instance(tmp_path, weighted_path4(), "good.json")
    assert main(["verify", str(good)]) == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    assert "submodular" in out


def test_cli_verify_unconfirmed_declared_class(tmp_path, capsys):
    # a cut table is submodular but not monotone
    path = write_instance(tmp_path, sp.ExplicitTableFn(2, [0, 1, 1, 0], "monotone"))
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "declared class 'monotone' not confirmed" in out
    assert "verify: FAIL" in out


RAISED_CUT_VERIFY_STDOUT = """\
instance: explicit_table (n=13, declared class general)
  submodular   FAIL  [submodular: violated at A={a,b}, B={a,c} (lhs=397/4, rhs=1291/12)]
  monotone     FAIL  [monotone: violated at A={a}, B={a,e} (lhs=389/12, rhs=23)]
  symmetric    PASS
  posimodular  FAIL  [posimodular: violated at A={c,d,e,f,g,h,i,j,k,l,m}, B={a,c} (lhs=397/4, rhs=1291/12)]
verify: FAIL
"""


def test_cli_verify_names_the_first_witnesses_of_a_raised_cut_table(tmp_path, capsys):
    # symmetric but not submodular: the graph_cut table at the cap with {a}
    # and V - {a} both raised by 100 scaled units; the half-table tests must
    # fail it, and each witness is the first one of the local test on the
    # whole table: (S+i, S+j) for submodularity, and its mirror (V-A, B)
    # for posimodularity
    d, tab = sp.random_instance("graph_cut", 13, 1).scaled_table()
    tab = list(tab)
    tab[1] += 100
    tab[-2] += 100
    raised = sp.ExplicitTableFn(13, [Fraction(t, d) for t in tab])
    path = write_instance(tmp_path, raised, "raised.json")
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == RAISED_CUT_VERIFY_STDOUT


def _verify_inputs():
    """Tables on which each class check both holds and fails: the generator
    families, the named constructions, and tables with one scaled entry
    moved, or one symmetric pair raised as in the raised-cut test."""
    inputs = [mono3(), posi3(), mono_n(5), mono_n(7), omega(5), omega(8)]
    for family in sorted(sp.GENERATOR_FAMILIES):
        for n in range(2, 10):
            for seed in range(3):
                fam = sp.random_instance(family, n, seed)
                inputs.append(fam)
                d, tab = fam.scaled_table()
                rng = random.Random(f"verify-walk:{family}:{n}:{seed}")
                mask, by = rng.randrange(1 << n), rng.choice((-1, 1))
                moved = [list(tab) for _ in range(2)]
                moved[0][mask] += by
                moved[1][mask] += by
                moved[1][-1 - mask] += by
                for values in moved:
                    inputs.append(sp.ExplicitTableFn(n, [Fraction(t, d) for t in values]))
    return inputs


def test_cli_verify_prints_the_single_checkers_results(tmp_path, capsys):
    # verify decides all four classes in one walk over the elements' gains;
    # check_classes must equal each checker called alone, field by field,
    # and every line verify prints must be that checker's result (run up to
    # n = 6, where loading a file costs less than checking it)
    singles = (sp.check_submodular, sp.check_monotone, sp.check_symmetric, sp.check_posimodular)
    outcomes = {(check.__name__, ok): 0 for check in singles for ok in (True, False)}
    for fam in _verify_inputs():
        oracle = fam.oracle()
        results = [check(oracle) for check in singles]
        assert list(sp.check_classes(fam.oracle()).values()) == results, fam
        for check, r in zip(singles, results):
            outcomes[check.__name__, r.ok] += 1
        if fam.n > 6:
            continue
        main(["verify", str(write_instance(tmp_path, fam))])
        printed = capsys.readouterr().out.splitlines()[1:5]
        assert printed == [
            f"  {r.property_name:<12} PASS" if r.ok
            else f"  {r.property_name:<12} FAIL  [{r.describe(oracle.ground_set)}]"
            for r in results
        ], fam
    assert min(outcomes.values()) >= 30, outcomes


@pytest.mark.parametrize("family, symmetric", [("graph_coverage", False), ("graph_cut", True)])
def test_cli_verify_computes_each_gains_list_once(tmp_path, monkeypatch, family, symmetric):
    # one walk hands each element's gains to every class test: n lists on a
    # table that is not symmetric, and on a symmetric one n - 1 lists over
    # its half without the last element
    fam = sp.random_instance(family, 6, 1)
    assert sp.check_symmetric(fam.oracle()).ok == symmetric
    path = write_instance(tmp_path, fam)
    computed = []
    gains = checkers._gains

    def counted(tab, bit):
        computed.append((bit, len(tab)))
        return gains(tab, bit)

    monkeypatch.setattr(checkers, "_gains", counted)
    main(["verify", str(path)])
    size = 32 if symmetric else 64
    assert computed == [(1 << e, size) for e in range(6 - symmetric)]


def test_cli_reproduce_mono3(capsys):
    assert main(["reproduce", "--case", "mono3"]) == 0
    out = capsys.readouterr().out
    assert "reproduce: PASS" in out


def test_cli_reproduce_reports_failed_check(capsys):
    # at eps = 1/2 the mono3 ratio is 8/7, far from its eps -> 0 limit 6/5
    assert main(["reproduce", "--case", "mono3", "--eps", "1/2"]) == 1
    out = capsys.readouterr().out
    assert "1.14285714286  FAIL" in out
    assert out.endswith("reproduce: FAIL (1 of 3 checks failed)\n")


REPRODUCE_ALL_STDOUT = """\
case                   check                                         expected           observed        status
mono3                  chain 2-partition value                       1500001/500000     1500001/500000  PASS
mono3                  optimal 2-partition value                     1250001/500000     1250001/500000  PASS
mono3                  ratio within 1e-5 of 6/5                      1.2                1.19999984000   PASS
monoN(n=9)             chain 5-partition value is n                  9/1                9/1             PASS
monoN(n=9)             optimum at most the split-one-deep partition  <= 1500001/200000  1500001/200000  PASS
monoN(n=9)             ratio >= 4/3 - 4/(3n+3) - 1e-5                >= 1.19999         1.19999920000   PASS
monoN(n=9)             ratio within the class bound 4/3 - 4/(9n+3)   <= 1.28571428571   1.19999920000   PASS
posi3                  chain 2-partition value                       3/1                3/1             PASS
posi3                  optimal 2-partition value                     1000001/500000     1000001/500000  PASS
posi3                  ratio within 1e-5 of 3/2                      1.5                1.49999850000   PASS
omega(n=8,k=3)         chain jumps from trivial to singletons        2 partitions       2 partitions    PASS
omega(n=8,k=3)         chain partition isolates the arc tail         true               true            PASS
omega(n=8,k=3)         chain value                                   7000002/1          7000002/1       PASS
omega(n=8,k=3)         optimum at most the tail-grouped partition    <= 2000003/1       2000003/1       PASS
omega(n=8,k=3)         ratio at least their quotient                 >= 3.49999575001   3.49999575001   PASS
matroid-footnote(k=4)  cheapest-singleton value is 2k-1              7/1                7/1             PASS
matroid-footnote(k=4)  optimal value is k                            4/1                4/1             PASS
matroid-footnote(k=4)  singleton guarantee 2 - 1/k holds             <= 7/1             7/1             PASS
reproduce: PASS (18 checks)
"""


REPRODUCE_MONO_N5_EPS_HALF_STDOUT = """\
case        check                                         expected          observed  status
monoN(n=5)  chain 3-partition value is n                  5/1               5/1       PASS
monoN(n=5)  optimum at most the split-one-deep partition  <= 6/1            5/1       PASS
monoN(n=5)  ratio >= 4/3 - 4/(3n+3) - 1e-5                >= 1.11110111111  1         FAIL
monoN(n=5)  ratio within the class bound 4/3 - 4/(9n+3)   <= 1.25           1         PASS
reproduce: FAIL (1 of 4 checks failed)
"""

REPRODUCE_OMEGA_N4_K4_STDOUT = """\
case            check                                       expected           observed      status
omega(n=4,k=4)  chain jumps from trivial to singletons      2 partitions       2 partitions  PASS
omega(n=4,k=4)  chain partition isolates the arc tail       true               true          PASS
omega(n=4,k=4)  chain value                                 3000003/1          3000003/1     PASS
omega(n=4,k=4)  optimum at most the tail-grouped partition  <= 3000004/1       3000003/1     PASS
omega(n=4,k=4)  ratio at least their quotient               >= 0.999999666667  1             PASS
reproduce: PASS (5 checks)
"""


def test_cli_reproduce_all(capsys):
    # whole stdout and exit code: every case, a FAIL row, and omega at k = n
    golden = [
        (["--case", "all"], 0, REPRODUCE_ALL_STDOUT),
        (["--case", "monoN", "--n", "5", "--eps", "1/2"], 1, REPRODUCE_MONO_N5_EPS_HALF_STDOUT),
        (["--case", "omega", "--n", "4", "--k", "4"], 0, REPRODUCE_OMEGA_N4_K4_STDOUT),
    ]
    for options, code, stdout in golden:
        assert main(["reproduce"] + options) == code, options
        assert capsys.readouterr().out == stdout, options


@pytest.mark.parametrize(
    "overrides",
    [
        ["--case", "omega", "--n", "6", "--k", "2"],
        ["--case", "monoN", "--n", "5"],
        ["--case", "matroid-footnote", "--k", "3"],
    ],
)
def test_cli_reproduce_overrides(capsys, overrides):
    assert main(["reproduce"] + overrides) == 0
    assert "reproduce: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("option", ["--eps", "--a"])
def test_cli_reproduce_zero_denominator_is_a_usage_error(capsys, option):
    assert main(["reproduce", option, "1/0"]) == 2
    assert f"error: argument {option}: zero denominator: '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["random", "--family", "graph_cut", "--n", "x"], "argument --n: invalid int value: 'x'"),
        (["reproduce", "--eps", "abc"], "argument --eps: invalid Fraction value: 'abc'"),
    ],
)
def test_cli_unparsable_numbers_are_usage_errors(capsys, args, message):
    assert main(args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("case", ["omega", "matroid-footnote"])
def test_cli_reproduce_k_below_range(case):
    assert main(["reproduce", "--case", case, "--k", "1"]) == 2


@pytest.mark.parametrize(
    "case, option, constructor",
    [
        ("monoN", "--n", "MonoTightNFn"),
        ("omega", "--n", "DigraphHyperFn"),
        ("matroid-footnote", "--k", "PartitionMatroidRankFn"),
    ],
)
def test_cli_reproduce_checks_the_cap_before_building(
    monkeypatch, capsys, case, option, constructor
):
    # the case's n (2k for the footnote) is checked against the cap before
    # its family is built, so a huge n fails at once, not after the build
    def build(*args):
        raise AssertionError(f"{constructor} was built")

    monkeypatch.setattr(cli, constructor, build)
    with pytest.raises(AssertionError, match="was built"):
        main(["reproduce", "--case", case, option, "3"])
    above = "7" if option == "--k" else "15"
    assert main(["reproduce", "--case", case, option, above]) == 2
    assert "above the cap of 13" in capsys.readouterr().err


def test_python_m_subpartition():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "subpartition", "reproduce", "--case", "mono3"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "reproduce: PASS" in done.stdout


def test_one_shot_pps_imports_neither_dataclasses_nor_inspect(tmp_path):
    # `dataclasses`, through `inspect`, costs about as much import time as
    # the whole package; -S keeps what `site` imports out of the check
    path = tmp_path / "cut.json"
    sp.save_instance(sp.GraphCutFn(3, [(0, 1, 1), (1, 2, 2)]), path)
    code = (
        "import sys\n"
        "from subpartition.cli import main\n"
        "code = main(['pps', sys.argv[1], '--json'])\n"
        "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(path)],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert '"verification": {' in done.stdout
    assert done.stdout.splitlines()[-1] == "0 []"


def test_cli_installed_entry_point(monkeypatch):
    # `run` is the `subpartition` console script named in pyproject.toml
    monkeypatch.setattr("sys.argv", ["subpartition", "reproduce", "--case", "mono3"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0


def test_cli_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    # every parser argparse makes, the subcommands' included, is counted
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    path = str(write_instance(tmp_path, mono3()))
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    try:
        for argv in (["verify", path], ["pps", path], ["solve", path, "--k", "2"], ["frobnicate"]):
            main(argv)
    finally:
        cli.build_parser.cache_clear()
    subcommands = ["pps", "solve", "reproduce", "random", "verify"]
    assert built == ["subpartition"] + [f"subpartition {name}" for name in subcommands]


def test_cli_calls_leak_nothing_into_later_calls(tmp_path, monkeypatch, capsys):
    # the same calls in one order and then in the reverse order: each call
    # prints, writes and returns the same either way, so no option of one
    # call reaches the next through the reused parser
    monkeypatch.setenv("COLUMNS", "80")
    path = str(write_instance(tmp_path, mono3()))
    rows = tmp_path / "rows.csv"
    solve = ["solve", path, "--k", "2", "--no-timing"]
    calls = [
        solve + ["--brute-force", "--csv", str(rows)],
        solve + ["--brute-force"],
        solve + ["--algorithms", "greedy"],
        solve,
        ["solve", path],
        ["solve", "--help"],
        solve + ["--brute-force", "--function-class", "symmetric"],
        solve + ["--brute-force"],
        ["reproduce", "--case", "mono3", "--eps", "1/2"],
        ["reproduce", "--case", "mono3"],
    ]

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        written = rows.read_bytes() if rows.exists() else None
        rows.unlink(missing_ok=True)
        return code, out, err, written

    forward = [run(argv) for argv in calls]
    backward = [run(argv) for argv in reversed(calls)][::-1]
    for argv, once, again in zip(calls, forward, backward):
        assert once == again, argv
    assert [code for code, *_ in forward] == [0, 0, 0, 0, 2, 0, 0, 0, 1, 0]
    assert [written is not None for *_, written in forward] == [True] + [False] * 9
    assert "the following arguments are required: --k" in forward[4][2]
    assert forward[5][1].startswith("usage: subpartition solve")


def test_cli_help_wraps_to_the_width_at_print_time(monkeypatch, capsys):
    # the parser is built once, but each help is laid out for the COLUMNS of
    # its own call, as a parser built afresh lays it out
    helps = []
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(["solve", "--help"]) == 0
        printed = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(["solve", "--help"])
        assert printed == capsys.readouterr().out, columns
        helps.append(printed)
    assert helps[0] != helps[1]


@contextlib.contextmanager
def _int_digit_limit(limit):
    """Python's int/str conversion limit set to `limit` (0: none) for the
    block, and the caller's limit restored after it."""
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(caller)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int/str digit limit"
)
def test_cli_prints_values_past_the_int_digit_limit(tmp_path, capsys):
    # 10 c(2n - c) in c = |S| is strictly submodular, and 1/(10^1200 + 2m + 1)
    # keeps it so; a sum over several blocks has a denominator of more than
    # 4300 digits, which str() refuses at Python's default limit
    n = 4
    table = [
        10 * c * (2 * n - c) + Fraction(1, 10**1200 + 2 * m + 1)
        for m, c in ((m, bin(m).count("1")) for m in range(1 << n))
    ]
    fam = sp.ExplicitTableFn(n, table, "general")
    path = str(write_instance(tmp_path, fam))
    sequence = sp.compute_pps(fam.oracle())
    optimum = sp.optimal_k_value(fam.oracle(), n)
    argvs = (
        ["pps", path],
        ["pps", path, "--json"],
        ["solve", path, "--k", str(n), "--brute-force", "--no-timing"],
        ["pps", str(tmp_path / "missing.json")],
    )
    printed = []
    with _int_digit_limit(4300):
        for argv, code in zip(argvs, (0, 0, 0, 2)):
            assert main(argv) == code, capsys.readouterr().err
            printed.append(capsys.readouterr().out)
            assert sys.get_int_max_str_digits() == 4300, argv
    text, doc, solved, _ = printed
    with _int_digit_limit(0):
        assert len(str(optimum.denominator)) > 4300
        assert max(len(str(b.denominator)) for b in sequence.breakpoints) > 4300
        breakpoints = re.findall(r"^ +breakpoint (\S+)$", text, re.MULTILINE)
        assert breakpoints == [str(b) for b in sequence.breakpoints]
        pairs = [[b.numerator, b.denominator] for b in sequence.breakpoints]
        assert json.loads(doc)["breakpoints"] == pairs
        assert f"optimal value: {optimum} (" in solved


def test_cli_random(tmp_path, capsys):
    assert main(
        [
            "random",
            "--family",
            "graph_cut",
            "--n",
            "5",
            "--seed",
            "3",
            "--count",
            "2",
            "--out-dir",
            str(tmp_path),
        ]
    ) == 0
    out = capsys.readouterr().out
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 2
    for f in files:
        assert f.name in out
        sp.load_instance(f)


def test_cli_random_writes_the_posimodular_family(tmp_path, capsys):
    # `random` offers every generator family; mono_sym_combo is saved as an
    # explicit table that verify, pps and solve read back as posimodular
    args = ["random", "--family", "mono_sym_combo", "--n", "6", "--seed", "1", "--out-dir"]
    assert main(args + [str(tmp_path / "a")]) == 0
    assert main(args + [str(tmp_path / "b")]) == 0
    path = tmp_path / "a" / "mono_sym_combo_n6_s1_000.json"
    assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
    assert json.loads(path.read_text())["family"] == "explicit_table"
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  submodular   PASS" in lines and "  posimodular  PASS" in lines
    assert main(["pps", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verification: PASS"
    assert main(["solve", str(path), "--k", "3", "--brute-force", "--no-timing"]) == 0
    row = next(line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("pps "))
    assert row[4] == "true"


def test_cli_cap_env(tmp_path, monkeypatch):
    path = write_instance(tmp_path, omega(5, 10))
    monkeypatch.setenv("SUBMOD_N_CAP", "4")
    assert main(["solve", str(path), "--k", "2"]) == 2


@pytest.mark.parametrize(
    "bad, message",
    [
        (["--n", "1"], "argument --n: must be at least 2, got 1"),
        (["--n", "4", "--count", "0"], "argument --count: must be positive, got 0"),
    ],
)
def test_cli_random_usage_error_before_disk(tmp_path, capsys, bad, message):
    out_dir = tmp_path / "new"
    args = ["random", "--family", "graph_cut", "--seed", "1", "--out-dir", str(out_dir)]
    assert main(args + bad) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def _record_table_reads(monkeypatch):
    # every oracle that reads its value table, once per read; each oracle
    # builds its table on its first read, so the distinct ones count builds
    readers = []
    scaled_table = sp.ValueOracle.scaled_table

    def recorded(self):
        readers.append(self)
        return scaled_table(self)

    monkeypatch.setattr(sp.ValueOracle, "scaled_table", recorded)
    return readers


@pytest.mark.parametrize(
    "command",
    [
        ["pps"],
        ["pps", "--json"],
        ["solve", "--k", "3", "--algorithms", "", "--brute-force", "--no-timing"],
        ["solve", "--k", "3", "--algorithms", "pps", "--no-timing"],
        ["solve", "--k", "3", "--algorithms", "pps", "--brute-force", "--no-timing"],
        ["solve", "--k", "3", "--algorithms", "greedy,singleton", "--brute-force", "--no-timing"],
        ["solve", "--k", "3", "--algorithms", "pps,greedy", "--no-timing"],
    ],
)
def test_cli_builds_one_value_table(tmp_path, monkeypatch, command):
    # validation and brute force read the command oracle's table, and each
    # algorithm's own oracle, which counts its own reads, takes that table
    # as its builder: the family's integer table is built once per command,
    # and read by the command oracle plus each named pps or greedy
    path = write_instance(tmp_path, sp.random_instance("graph_cut", 6, 1))
    builds = []
    integer_table = sp.GraphCutFn._integer_table

    def counted(self):
        builds.append(self)
        return integer_table(self)

    monkeypatch.setattr(sp.GraphCutFn, "_integer_table", counted)
    readers = _record_table_reads(monkeypatch)
    assert main(command + [str(path)]) == 0
    assert len(builds) == 1
    named = command[command.index("--algorithms") + 1].split(",") if "solve" in command else []
    assert len(set(readers)) == 1 + len({"pps", "greedy"} & set(named))


@pytest.mark.parametrize("k", ["0", "7"])
def test_cli_solve_checks_k_before_oracle_work(tmp_path, monkeypatch, capsys, k):
    # a block count outside 1..n is a usage error before validation reads f
    path = write_instance(tmp_path, sp.random_instance("graph_cut", 6, 1))
    calls = []
    value = sp.GraphCutFn.value

    def counted(self, mask):
        calls.append(mask)
        return value(self, mask)

    monkeypatch.setattr(sp.GraphCutFn, "value", counted)
    readers = _record_table_reads(monkeypatch)
    assert main(["solve", str(path), "--k", k, "--brute-force"]) == 2
    assert calls == []
    assert readers == []
    assert f"block count k={k} must be between 1 and n=6" in capsys.readouterr().err


def test_cli_random_count_zero(tmp_path):
    args = ["random", "--family", "graph_cut", "--n", "4", "--seed", "1", "--count", "0"]
    assert main(args + ["--out-dir", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cap, n", [(None, 14), ("4", 5)])
def test_cli_random_above_cap_writes_nothing(tmp_path, capsys, monkeypatch, cap, n):
    # a file above the cap could not be loaded back, so none is written
    if cap is not None:
        monkeypatch.setenv("SUBMOD_N_CAP", cap)
    out_dir = tmp_path / "new"
    args = ["random", "--family", "graph_cut", "--n", str(n), "--seed", "1"]
    assert main(args + ["--out-dir", str(out_dir)]) == 2
    assert f"ground set of {n} elements, above the cap" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_solve_optimum_at_the_cap(tmp_path, capsys):
    # 98 is the optimum that enumerating all 7-block partitions gives
    args = ["random", "--family", "graph_cut", "--n", "13", "--seed", "1", "--out-dir", str(tmp_path)]
    assert main(args) == 0
    path = tmp_path / "graph_cut_n13_s1_000.json"
    out = tmp_path / "rows.csv"
    capsys.readouterr()
    args = ["solve", str(path), "--k", "7", "--brute-force", "--no-timing", "--csv", str(out)]
    assert main(args) == 0
    assert "optimal value: 98 (98)" in capsys.readouterr().out.splitlines()
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["algorithm"] for row in rows] == ["pps", "greedy", "singleton"]
    assert {row["opt"] for row in rows} == {"98/1"}
    assert {row["bound_ok"] for row in rows} == {"true", ""}


def test_cli_mislabeled_class_fails_bound(tmp_path):
    # digraph instance declared monotone: the measured ratio exceeds the
    # monotone bound, and the run must say so via the exit code
    path = write_instance(tmp_path, omega(5, 10))
    args = ["solve", str(path), "--k", "3", "--brute-force", "--algorithms", "pps", "--no-timing"]
    assert main(args + ["--function-class", "monotone"]) == 1
    assert main(args) == 0


def _solve_rows(tmp_path, fam, extra):
    path = write_instance(tmp_path, fam)
    out = tmp_path / "rows.csv"
    code = main(["solve", str(path), "--brute-force", "--no-timing", "--csv", str(out)] + extra)
    return code, {r["algorithm"]: r for r in csv.DictReader(out.read_text().splitlines())}


@pytest.mark.parametrize("k, greedy_evals, singleton_evals", [(1, 1, 7), (2, 64, 7), (6, 64, 6)])
def test_cli_solve_greedy_evals(tmp_path, k, greedy_evals, singleton_evals):
    # greedy reads the whole table at k >= 2, like pps, and only V at k = 1;
    # singleton still counts the subsets it queried (the n singletons and
    # the rest block, which is a singleton itself at k = n).  Greedy reads
    # the command's table through its own oracle, which changes no row's
    # count in any order, with or without validation and the optimum
    path = write_instance(tmp_path, sp.random_instance("graph_cut", 6, 1))
    out = tmp_path / "rows.csv"
    evals = {"pps": "64", "greedy": str(greedy_evals), "singleton": str(singleton_evals)}
    for algorithms in ("pps,greedy,singleton", "greedy,singleton", "singleton,greedy", "greedy,pps"):
        for flags in (["--brute-force"], ["--no-validate"]):
            argv = ["solve", str(path), "--k", str(k), "--algorithms", algorithms]
            assert main(argv + flags + ["--no-timing", "--csv", str(out)]) == 0
            rows = csv.DictReader(out.read_text().splitlines())
            assert {r["algorithm"]: r["oracle_evals"] for r in rows} == {
                name: evals[name] for name in algorithms.split(",")
            }, (algorithms, flags)


def test_cli_solve_negative_optimum_attained(tmp_path):
    # f = -1 everywhere: every 2-partition has the optimal value -2
    fam = sp.ExplicitTableFn(4, [-1] * 16, "monotone")
    code, rows = _solve_rows(tmp_path, fam, ["--k", "2"])
    assert code == 0
    for row in rows.values():
        assert row["opt"] == "-2/1"
        assert row["ratio"] == "1/1"
    assert rows["pps"]["bound_ok"] == "true"
    assert rows["singleton"]["bound_ok"] == "true"


def test_cli_solve_single_element_symmetric_bound(tmp_path):
    # n = 1: only k = 1 exists, the chain is exact, and the symmetric bound
    # is 1 rather than 2 - 2/n = 0
    code, rows = _solve_rows(tmp_path, sp.GraphCutFn(1, []), ["--k", "1"])
    assert code == 0
    assert (rows["pps"]["ratio"], rows["pps"]["bound"], rows["pps"]["bound_ok"]) == (
        "1/1",
        "1/1",
        "true",
    )


def test_cli_solve_unbounded_ratio(tmp_path):
    # optimum 0 at {a,b}|{c}; the cheapest singleton {a}|{b,c} costs 1
    fam = sp.ExplicitTableFn(3, [0, 0, 1, 0, 0, 1, 1, 0], "monotone")
    extra = ["--k", "2", "--no-validate", "--algorithms", "greedy,singleton"]
    code, rows = _solve_rows(tmp_path, fam, extra)
    assert code == 1
    single = rows["singleton"]
    assert (single["ratio"], single["ratio_dec"]) == ("inf", "inf")
    assert (single["bound"], single["bound_ok"]) == ("3/2", "false")
    assert rows["greedy"]["ratio"] == "1/1"


def test_fmt_helpers():
    assert fmt_rational(None) == ""
    assert fmt_rational(Fraction(3)) == "3/1"
    assert fmt_rational(Fraction(-5, 2)) == "-5/2"
    assert fmt_decimal(None) == ""
    assert fmt_decimal(Fraction(3)) == "3"
    assert fmt_decimal(Fraction(4, 3)) == "1.33333333333"
