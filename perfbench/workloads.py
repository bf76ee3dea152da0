"""The benchmark workloads: seeded inputs, the timed op, and its check.

A workload's set-up turns the seed into a pool of ops (instance generation
and, for the CLI workloads, instance files).  The CLI pools hold whole
rounds of one op per instance family, so every run sees the same family
mix.  A run makes whole passes over its pool.

Each op's check runs outside the timed region and returns None when the
output is correct, else a message.  The program sees only the generated
files (CLI workloads) or family objects (library workload).
"""

from __future__ import annotations

import contextlib
import io
import json
from decimal import Decimal
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import subpartition as sp
from subpartition import cli

# the five families `subpartition random` writes, listed here rather than read
# from the CLI so that a change to the CLI's list cannot change the workload
CLI_FAMILIES = ("graph_cut", "hypergraph_cut", "graph_coverage", "partition_matroid", "graphic_matroid")

# the C05 acceptance-sweep groups: (group, declared class)
SWEEP_GROUPS = (
    ("graph_cut", "symmetric"),
    ("hypergraph_cut", "symmetric"),
    ("graph_coverage", "monotone"),
    ("matroid_rank", "monotone"),
    ("mono_sym_combo", "posimodular"),
)

EPS = sp.as_fraction("1/1000000")
BIG_A = sp.as_fraction(10**6)


@dataclass
class Op:
    family: str
    n: int
    seed: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_instance(family: str, n: int, seed: str, workdir: Path):
    fam = sp.random_instance(family, n, seed)
    path = workdir / f"{family}_n{n}_s{seed.replace(':', '-')}.json"
    sp.save_instance(fam, path)
    return fam, path


# ---------------------------------------------------------------------------
# chain: CLI `pps FILE --json` at its defaults

CHAIN_N, CHAIN_ROUNDS = 9, 10


def _check_chain(path: Path):
    cache = {}  # the family and its brute-force optimum per block count, built once

    def check(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        doc = json.loads(out)
        if not doc["verification"]["ok"]:
            return "verification failed: " + "; ".join(doc["verification"]["failures"])
        if not cache:
            cache["family"] = fam = sp.load_instance(path, validate=False)
            cache["optimum"] = {k: v for k, (_, v) in sp.brute_force_all_k(fam.oracle()).items()}
        fam, optimum = cache["family"], cache["optimum"]
        for blocks in doc["partitions"]:
            # the constructor rejects blocks that do not partition the ground set
            part = sp.Partition(doc["n"], [sum(1 << i for i in blk) for blk in blocks])
            value = sum(fam.value(mask) for mask in part)
            if value != optimum[len(part)]:
                return f"chain member with {len(part)} blocks has value {value}, optimum {optimum[len(part)]}"
        return None

    return check


def build_chain(seed: str, workdir: Path, tiny: bool) -> list[Op]:
    n, rounds = (6, 1) if tiny else (CHAIN_N, CHAIN_ROUNDS)
    ops = []
    for r in range(rounds):
        for family in CLI_FAMILIES:
            s = f"{seed}:{r}"
            _, path = _write_instance(family, n, s, workdir)
            ops.append(Op(family, n, s, lambda p=str(path): run_cli(["pps", p, "--json"]), _check_chain(path)))
    return ops


# ---------------------------------------------------------------------------
# sweep: the acceptance-sweep pipeline through the library

SWEEP_PER_GROUP = 50


def _sweep_op(fam, function_class: str):
    def run():
        oracle = fam.oracle()
        seq = sp.compute_pps(oracle)
        verification = sp.verify_pps(oracle, seq, interior_samples=3)
        per_k = []
        for k in range(2, fam.n + 1):
            rep = sp.ratio_report(oracle, k, function_class, pps=seq)
            bounds = sp.check_chain_lower_bounds(oracle, k, seq, rep.optimal_value)
            greedy = sp.greedy_splitting(oracle, k)
            single = sp.cheapest_singleton(oracle, k)
            per_k.append((rep, bounds, greedy, single))
        return verification, per_k

    return run


def _check_sweep(result) -> str | None:
    verification, per_k = result
    if not verification.ok:
        return "verify_pps failed: " + "; ".join(verification.failures)
    for rep, bounds, greedy, single in per_k:
        k = rep.k
        if not rep.bound_ok:
            return f"k={k}: ratio {rep.ratio} above the class bound {rep.bound}"
        if rep.exact_hit and rep.algorithm_value != rep.optimal_value:
            return f"k={k}: exact hit {rep.algorithm_value} is not the optimum {rep.optimal_value}"
        if bounds.applicable and not (bounds.interpolated_ok and bounds.coarse_ok):
            return f"k={k}: a chain lower bound exceeds the optimum {rep.optimal_value}"
        for base in (greedy, single):
            if len(base.partition) != k or base.value < rep.optimal_value:
                return f"k={k}: {base.algorithm} returned {len(base.partition)} blocks of value {base.value}"
    return None


def _named_constructions(tiny: bool):
    named = [
        ("mono3", sp.MonoTight3Fn(EPS), "monotone"),
        ("mono_n5", sp.MonoTightNFn(5, EPS), "monotone"),
        ("posi3", sp.PosiTight3Fn(EPS), "posimodular"),
    ]
    if not tiny:
        named += [
            ("mono_n7", sp.MonoTightNFn(7, EPS), "monotone"),
            ("mono_n9", sp.MonoTightNFn(9, EPS), "monotone"),
            ("omega8", sp.DigraphHyperFn(8, BIG_A), "general"),
        ]
    return named


def build_sweep(seed: str, workdir: Path, tiny: bool) -> list[Op]:
    per_group, n_low, n_span = (2, 4, 2) if tiny else (SWEEP_PER_GROUP, 5, 4)
    ops = []
    for i in range(per_group):
        n = n_low + i % n_span
        for group, function_class in SWEEP_GROUPS:
            family = group
            if group == "matroid_rank":
                family = "partition_matroid" if i % 2 == 0 else "graphic_matroid"
            s = f"{seed}:{i}"
            fam = sp.random_instance(family, n, s)
            ops.append(Op(family, n, s, _sweep_op(fam, function_class), _check_sweep))
    for name, fam, function_class in _named_constructions(tiny):
        ops.append(Op(name, fam.n, "", _sweep_op(fam, function_class), _check_sweep))
    return ops


# ---------------------------------------------------------------------------
# check: CLI `verify FILE`, then `solve FILE --k K --algorithms greedy,singleton --brute-force`

CHECK_N, CHECK_K, CHECK_ROUNDS = 10, 5, 2


def _check_check(declared: str, k: int):
    def check(result) -> str | None:
        (v_code, v_out, v_err), (s_code, s_out, s_err) = result
        if v_code != 0:
            return f"verify exit {v_code}: {v_err.strip()[:200]}"
        if s_code != 0:
            return f"solve exit {s_code}: {s_err.strip()[:200]}"
        passed = {line.split()[0] for line in v_out.splitlines() if line.endswith(" PASS")}
        for prop in ("submodular", declared):
            if prop != "general" and prop not in passed:
                return f"verify did not report {prop} as PASS"
        lines = s_out.splitlines()
        optimum = next((Decimal(line.split("(")[1].rstrip(")")) for line in lines if line.startswith("optimal value:")), None)
        if optimum is None:
            return "solve printed no optimal value"
        for algorithm in ("greedy", "singleton"):
            row = next((line for line in lines if line.split()[0] == algorithm), None)
            if row is None:
                return f"solve printed no {algorithm} row"
            if row.count("{") != k or Decimal(row.split()[1]) < optimum:
                return f"{algorithm} row is not a {k}-partition at or above the optimum {optimum}: {row}"
        return None

    return check


def build_check(seed: str, workdir: Path, tiny: bool) -> list[Op]:
    n, k, rounds = (6, 3, 1) if tiny else (CHECK_N, CHECK_K, CHECK_ROUNDS)
    solve_args = ["--k", str(k), "--algorithms", "greedy,singleton", "--brute-force", "--no-timing"]
    ops = []
    for r in range(rounds):
        for family in CLI_FAMILIES:
            s = f"{seed}:{r}"
            fam, path = _write_instance(family, n, s, workdir)

            def run(p=str(path)):
                return run_cli(["verify", p]), run_cli(["solve", p] + solve_args)

            ops.append(Op(family, n, s, run, _check_check(fam.function_class, k)))
    return ops


# name -> build(seed, work dir, tiny) -> pool of ops
WORKLOADS = {
    "chain_n9": build_chain,
    "sweep_small": build_sweep,
    "check_n10": build_check,
}
