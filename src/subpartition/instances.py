"""Instance files: JSON schema, loading with validation, seeded generators.

An instance file is a single JSON object:

    {
      "format_version": 1,
      "family": "graph_cut",
      "n": 4,
      "labels": ["a", "b", "c", "d"],        // optional on load
      "params": { ... family specific ... }
    }

Rationals are [numerator, denominator] pairs everywhere.  Families and
their params:

    graph_cut / graph_coverage:  {"edges": [[u, v, [p, q]], ...]}
    hypergraph_cut:              {"hyperedges": [[[m0, m1, ...], [p, q]], ...]}
    partition_matroid:           {"blocks": [[e0, e1], ...]}
    graphic_matroid:             {"num_vertices": V, "edges": [[u, v], ...]}
                                 (n must equal the number of edges)
    mono_tight3 / posi_tight3:   {"eps": [p, q]}
    mono_tight_n:                {"eps": [p, q]}        (n from the top level)
    digraph_hyper:               {"a": [p, q]}
    explicit_table:              {"values": [[p, q] x 2^n],
                                  "function_class": "general"}   (optional)

Loading validates the schema, the ground-set cap, and (unless disabled)
exhaustive submodularity.  Saving always writes sorted keys with
2-space indentation and a trailing newline, so files are byte-deterministic.

The random generators take a `random.Random` seeded by the caller and only
draw through documented calls, so equal seeds give byte-identical files.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from .checkers import check_submodular
from .core import ValueOracle, require_within_cap
from .families import (
    CombinationFn,
    DigraphHyperFn,
    ExplicitTableFn,
    GraphCoverageFn,
    GraphCutFn,
    GraphicMatroidRankFn,
    HypergraphCutFn,
    MonoTight3Fn,
    MonoTightNFn,
    PartitionMatroidRankFn,
    PosiTight3Fn,
    SetFunctionFamily,
)

__all__ = [
    "GENERATOR_FAMILIES",
    "InstanceFormatError",
    "generate_batch",
    "instance_from_json",
    "instance_to_json",
    "load_instance",
    "random_instance",
    "save_instance",
]

FORMAT_VERSION = 1


class InstanceFormatError(ValueError):
    """Malformed or rejected instance file."""


def require_submodular(oracle: ValueOracle) -> None:
    """Raise InstanceFormatError unless submodular, naming `check_submodular`'s
    witness: the first violation (S+i, S+j) of its local test."""
    result = check_submodular(oracle)
    if not result.ok:
        raise InstanceFormatError(
            "instance is not submodular: " + result.describe(oracle.ground_set)
        )


def _rat_to_json(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _rat_from_json(obj, what: str) -> Fraction:
    if (
        not isinstance(obj, list)
        or len(obj) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in obj)
    ):
        raise InstanceFormatError(f"{what} must be a [numerator, denominator] pair of ints")
    if obj[1] <= 0:
        raise InstanceFormatError(f"{what} must have a positive denominator")
    return Fraction(obj[0], obj[1])


def _int_field(d, key, what):
    v = d.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise InstanceFormatError(f"{what} must be an int")
    return v


def instance_to_json(family: SetFunctionFamily) -> dict:
    """Serialize a family to the instance-file dict.

    A ground set above the enumeration cap is refused, since
    `load_instance` could not read the file back."""
    require_within_cap(family.n, "reading back a saved instance")
    doc = {
        "format_version": FORMAT_VERSION,
        "family": family.name,
        "n": family.n,
        "labels": list(family.labels),
    }
    if isinstance(family, (GraphCutFn, GraphCoverageFn)):
        doc["params"] = {
            "edges": [[u, v, _rat_to_json(w)] for u, v, w in family.edges]
        }
    elif isinstance(family, HypergraphCutFn):
        doc["params"] = {
            "hyperedges": [
                [list(members), _rat_to_json(w)] for members, _, w in family.hyperedges
            ]
        }
    elif isinstance(family, PartitionMatroidRankFn):
        doc["params"] = {"blocks": [list(b) for b in family.blocks]}
    elif isinstance(family, GraphicMatroidRankFn):
        doc["params"] = {
            "num_vertices": family.num_vertices,
            "edges": [[u, v] for u, v in family.edges],
        }
    elif isinstance(family, (MonoTight3Fn, MonoTightNFn, PosiTight3Fn)):
        doc["params"] = {"eps": _rat_to_json(family.eps)}
    elif isinstance(family, DigraphHyperFn):
        doc["params"] = {"a": _rat_to_json(family.a)}
    elif isinstance(family, (ExplicitTableFn, CombinationFn)):
        # saved as the explicit table; display names are not family tags
        d, ints = family.scaled_table()
        doc["family"] = "explicit_table"
        doc["params"] = {
            "values": [_rat_to_json(Fraction(v, d)) for v in ints],
            "function_class": family.function_class,
        }
    else:
        raise InstanceFormatError(f"cannot serialize family {family.name!r}")
    return doc


def instance_from_json(doc, validate: bool = True) -> SetFunctionFamily:
    """Build a family from an instance-file dict, validating the schema.

    With `validate` (the default), also run the exhaustive submodularity
    check and reject violators.
    """
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance file must hold a JSON object")
    version = _int_field(doc, "format_version", "format_version")
    if version != FORMAT_VERSION:
        raise InstanceFormatError(f"unsupported format_version {version}")
    family = doc.get("family")
    if not isinstance(family, str):
        raise InstanceFormatError("family must be a string")
    n = _int_field(doc, "n", "n")
    if n < 1:
        raise InstanceFormatError("n must be at least 1")
    require_within_cap(n, "instance_from_json")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise InstanceFormatError("labels must be a list of strings")
        labels = tuple(labels)
    params = doc.get("params")
    if not isinstance(params, dict):
        raise InstanceFormatError("params must be an object")

    try:
        fam = _build_family(family, n, labels, params)
    except InstanceFormatError:
        raise
    except (ValueError, TypeError) as exc:
        raise InstanceFormatError(f"bad {family} instance: {exc}") from exc

    if fam.n != n:
        raise InstanceFormatError(
            f"declared n={n} does not match the family ground set of {fam.n}"
        )
    if validate:
        require_submodular(fam.oracle())
    return fam


def _edge_list(params, weighted=True):
    edges = params.get("edges")
    if not isinstance(edges, list):
        raise InstanceFormatError("params.edges must be a list")
    out = []
    for e in edges:
        if weighted:
            if not isinstance(e, list) or len(e) != 3:
                raise InstanceFormatError("each edge must be [u, v, [p, q]]")
            u, v, w = e
            out.append((u, v, _rat_from_json(w, "edge weight")))
        else:
            if not isinstance(e, list) or len(e) != 2:
                raise InstanceFormatError("each edge must be [u, v]")
            out.append(tuple(e))
    return out


def _build_family(family, n, labels, params) -> SetFunctionFamily:
    if family == "graph_cut":
        return GraphCutFn(n, _edge_list(params), labels=labels)
    if family == "graph_coverage":
        return GraphCoverageFn(n, _edge_list(params), labels=labels)
    if family == "hypergraph_cut":
        hyperedges = params.get("hyperedges")
        if not isinstance(hyperedges, list):
            raise InstanceFormatError("params.hyperedges must be a list")
        cleaned = []
        for h in hyperedges:
            if not isinstance(h, list) or len(h) != 2 or not isinstance(h[0], list):
                raise InstanceFormatError("each hyperedge must be [[members], [p, q]]")
            cleaned.append((h[0], _rat_from_json(h[1], "hyperedge weight")))
        return HypergraphCutFn(n, cleaned, labels=labels)
    if family == "partition_matroid":
        blocks = params.get("blocks")
        if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
            raise InstanceFormatError("params.blocks must be a list of lists")
        return PartitionMatroidRankFn(n, blocks, labels=labels)
    if family == "graphic_matroid":
        num_vertices = _int_field(params, "num_vertices", "params.num_vertices")
        edges = _edge_list(params, weighted=False)
        if len(edges) != n:
            raise InstanceFormatError(
                f"graphic matroid needs n == number of edges, got n={n} and {len(edges)} edges"
            )
        return GraphicMatroidRankFn(num_vertices, edges, labels=labels)
    if family == "mono_tight3":
        return MonoTight3Fn(_rat_from_json(params.get("eps"), "eps"), labels=labels)
    if family == "posi_tight3":
        return PosiTight3Fn(_rat_from_json(params.get("eps"), "eps"), labels=labels)
    if family == "mono_tight_n":
        return MonoTightNFn(n, _rat_from_json(params.get("eps"), "eps"), labels=labels)
    if family == "digraph_hyper":
        return DigraphHyperFn(n, _rat_from_json(params.get("a"), "a"), labels=labels)
    if family == "explicit_table":
        values = params.get("values")
        if not isinstance(values, list):
            raise InstanceFormatError("params.values must be a list")
        table = [_rat_from_json(v, f"table entry {i}") for i, v in enumerate(values)]
        function_class = params.get("function_class", "general")
        return ExplicitTableFn(n, table, function_class=function_class, labels=labels)
    raise InstanceFormatError(f"unknown family {family!r}")


def save_instance(family: SetFunctionFamily, path) -> None:
    """Write an instance file (sorted keys, indent 2, trailing newline)."""
    doc = instance_to_json(family)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text)


def load_instance(path, validate: bool = True) -> SetFunctionFamily:
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"{path}: not valid JSON ({exc})") from exc
    return instance_from_json(doc, validate=validate)


# ---------------------------------------------------------------------------
# seeded random instances

def _random_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))


def random_graph_cut(n: int, rng: random.Random) -> GraphCutFn:
    """Each pair independently present with probability 1/2 (at least one
    edge forced), rational weights."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.append((u, v, _random_weight(rng)))
    if not edges:
        u = rng.randrange(n - 1)
        edges.append((u, u + 1, _random_weight(rng)))
    return GraphCutFn(n, edges)


def random_graph_coverage(n: int, rng: random.Random) -> GraphCoverageFn:
    cut = random_graph_cut(n, rng)
    return GraphCoverageFn(n, cut.edges)


def random_hypergraph_cut(n: int, rng: random.Random) -> HypergraphCutFn:
    count = rng.randint(2, n + 2)
    hyperedges = []
    for _ in range(count):
        size = rng.randint(2, min(n, 4))
        members = sorted(rng.sample(range(n), size))
        hyperedges.append((members, _random_weight(rng)))
    return HypergraphCutFn(n, hyperedges)


def random_partition_matroid(n: int, rng: random.Random) -> PartitionMatroidRankFn:
    elements = list(range(n))
    rng.shuffle(elements)
    blocks = []
    while elements:
        size = rng.randint(1, min(3, len(elements)))
        block, elements = elements[:size], elements[size:]
        blocks.append(sorted(block))
    blocks.sort()
    return PartitionMatroidRankFn(n, blocks)


def random_graphic_matroid(n: int, rng: random.Random) -> GraphicMatroidRankFn:
    num_vertices = rng.randint(3, max(3, n))
    edges = []
    for _ in range(n):
        u, v = rng.sample(range(num_vertices), 2)
        edges.append((min(u, v), max(u, v)))
    return GraphicMatroidRankFn(num_vertices, edges)


def random_mono_sym_combo(n: int, rng: random.Random) -> CombinationFn:
    """Positive rational combination of a coverage and a cut instance on one
    ground set: monotone plus symmetric, hence posimodular."""
    coverage = random_graph_coverage(n, rng)
    cut = random_graph_cut(n, rng)
    c1 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    c2 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return CombinationFn(
        (coverage, cut), (c1, c2), "posimodular", name="mono_sym_combo"
    )


GENERATOR_FAMILIES = {
    "graph_cut": random_graph_cut,
    "graph_coverage": random_graph_coverage,
    "hypergraph_cut": random_hypergraph_cut,
    "partition_matroid": random_partition_matroid,
    "graphic_matroid": random_graphic_matroid,
    "mono_sym_combo": random_mono_sym_combo,
}


def random_instance(family: str, n: int, seed) -> SetFunctionFamily:
    """Seeded instance of one of the GENERATOR_FAMILIES.

    The generator is seeded with the string "family:n:seed", so results are
    stable across runs, platforms, and processes.
    """
    try:
        make = GENERATOR_FAMILIES[family]
    except KeyError:
        raise InstanceFormatError(
            f"no generator for family {family!r}; choose one of "
            + ", ".join(sorted(GENERATOR_FAMILIES))
        ) from None
    if n < 2:
        raise ValueError("random instances need n >= 2")
    rng = random.Random(f"{family}:{n}:{seed}")
    return make(n, rng)


def generate_batch(family: str, n: int, seed: int, count: int, out_dir) -> list[Path]:
    """Write `count` seeded instance files; equal arguments give equal bytes.

    An n above the enumeration cap is rejected before anything is written,
    since `load_instance` could not read such a file back."""
    require_within_cap(n, "reading back a generated instance")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        fam = random_instance(family, n, f"{seed}:{i}")
        path = out / f"{family}_n{n}_s{seed}_{i:03d}.json"
        save_instance(fam, path)
        paths.append(path)
    return paths
