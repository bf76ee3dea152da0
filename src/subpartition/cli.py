"""Command line driver: solve instances, verify sequences, reproduce examples.

Subcommands:

    pps        compute and verify the principal partition sequence
    solve      run the chain algorithm and baselines on an instance
    reproduce  rebuild the named worst-case constructions and check them
    random     write seeded random instance files
    verify     exhaustive function-class report for an instance

Every reproduce row is shown and decided from one comparison: `_compare`
builds the expected cell and the PASS/FAIL verdict from the same operator
and expected value, with a formatter for values, counts and flags, and
`_near` does the same for the 1e-5 ratio rows.
`solve` runs the algorithms named in the `SOLVERS` table, which also gives
the `--algorithms` default and checks the names at parse time.

Exit codes: 0 success, 1 failed check (a reproduce FAIL, a violated bound,
a non-submodular instance under `verify`), 2 usage, parse, or validation
error, 3 internal invariant failure.

CSV rows keep a fixed column prefix (instance, n, k, algorithm, value, opt,
ratio, bound, bound_ok, oracle_evals, wall_time_s) followed by decimal
companion columns (value_dec, opt_dec, ratio_dec, bound_dec).  Exact values
are serialized as "num/den"; the companions carry 12 significant digits.
Ratio and bound cells render `kpartition.ratio_to_optimum` and
`algorithm_guarantee`: "inf" for an unbounded ratio, an empty bound_ok
when no bound applies.  With --no-timing the wall_time_s cell is 0, which
makes whole files byte-deterministic.  oracle_evals counts the distinct
subsets an algorithm's oracle evaluated: 2^n for `pps`, and for `greedy` at
k >= 2, since both read the whole value table; `singleton` counts its own
queries.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import json
import operator
import sys
import time
from fractions import Fraction
from pathlib import Path

from .checkers import check_classes
from .core import NonSubmodularError, ValueOracle, require_block_count, require_within_cap
from .families import (
    FUNCTION_CLASSES,
    DigraphHyperFn,
    MonoTight3Fn,
    MonoTightNFn,
    PartitionMatroidRankFn,
    PosiTight3Fn,
)
from .instances import GENERATOR_FAMILIES, generate_batch, load_instance, require_submodular
from .kpartition import (
    algorithm_guarantee,
    cheapest_singleton,
    greedy_splitting,
    pps_k_partition,
    ratio_report,
    ratio_to_optimum,
)
from .partition_opt import optimal_k_value
from .pps import compute_pps, verify_pps

__all__ = ["CSV_COLUMNS", "main", "run"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

CSV_COLUMNS = (
    "instance",
    "n",
    "k",
    "algorithm",
    "value",
    "opt",
    "ratio",
    "bound",
    "bound_ok",
    "oracle_evals",
    "wall_time_s",
    "value_dec",
    "opt_dec",
    "ratio_dec",
    "bound_dec",
)

_DEC = decimal.Context(prec=12)


def fmt_rational(x) -> str:
    """Exact "num/den" form; "" for missing."""
    if x is None:
        return ""
    return f"{x.numerator}/{x.denominator}"


def fmt_decimal(x) -> str:
    """12 significant digits; "" for missing."""
    if x is None:
        return ""
    return str(_DEC.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator)))


def _fmt_bool(b) -> str:
    return "true" if b else "false"


def _print_table(headers, rows) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line.rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _blocks_as_indices(partition) -> list[list[int]]:
    return [[i for i in range(partition.n) if mask >> i & 1] for mask in partition]


def _load_oracle(args, k=None):
    """The instance and its one oracle, validated unless --no-validate.  A
    block count k is checked against the instance's n before any oracle work."""
    fam = load_instance(args.instance, validate=False)
    if k is not None:
        require_block_count(k, fam.n)
    oracle = fam.oracle()
    if not args.no_validate:
        require_submodular(oracle)
    return fam, oracle


# ---------------------------------------------------------------------------
# pps

def cmd_pps(args) -> int:
    fam, oracle = _load_oracle(args)
    sequence = compute_pps(oracle)
    report = verify_pps(oracle, sequence)
    gs = oracle.ground_set

    if args.json:
        doc = {
            "breakpoints": [[b.numerator, b.denominator] for b in sequence.breakpoints],
            "labels": list(gs.labels),
            "n": gs.n,
            "partitions": [_blocks_as_indices(p) for p in sequence.partitions],
            "verification": report._asdict(),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"instance: {fam.name} (n={gs.n}, class {fam.function_class})")
        print(f"principal partition sequence: {len(sequence)} partitions")
        for i, part in enumerate(sequence.partitions):
            print(f"  P{i + 1} ({len(part)} blocks): {gs.format_partition(part)}")
            if i < len(sequence.breakpoints):
                print(f"      breakpoint {sequence.breakpoints[i]}")
        checks = [
            ("endpoints", report.endpoints_ok),
            ("stepwise refinement", report.refinement_ok),
            ("nondecreasing breakpoints", report.breakpoints_nondecreasing_ok),
            ("breakpoints attained", report.breakpoints_attained_ok),
            ("segment optimality", report.segments_optimal_ok),
            ("breakpoint formula", report.formula_ok),
        ]
        for label, ok in checks:
            print(f"  {label:<26} {'PASS' if ok else 'FAIL'}")
        print(f"verified at {report.samples_checked} parameter samples")
        for failure in report.failures:
            print(f"  failure: {failure}")
        print(f"verification: {'PASS' if report.ok else 'FAIL'}")

    return EXIT_OK if report.ok else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# solve

# name -> algorithm(oracle, k); each result has `.partition` and `.value`
SOLVERS = {"pps": pps_k_partition, "greedy": greedy_splitting, "singleton": cheapest_singleton}


def cmd_solve(args) -> int:
    k = args.k
    fam, oracle = _load_oracle(args, k)
    n = fam.n
    function_class = args.function_class or fam.function_class
    instance_id = Path(args.instance).stem

    opt_value = optimal_k_value(oracle, k) if args.brute_force else None

    gs = fam.ground_set()
    rows = []
    partitions = []
    any_violation = False
    for algorithm in args.algorithms:
        # every algorithm, pps included, runs on a fresh oracle that borrows
        # the command's table, so oracle_evals counts its own reads alone
        solver_oracle = ValueOracle(gs, fam.value, fam.name, table=oracle.scaled_table)
        started = time.perf_counter()
        result = SOLVERS[algorithm](solver_oracle, k)
        elapsed = time.perf_counter() - started
        partition, value = result.partition, result.value
        evals = solver_oracle.distinct_evaluations

        bound = None
        ratio_cell = ratio_dec = bound_ok_cell = ""
        if opt_value is not None:
            bound = algorithm_guarantee(algorithm, function_class, n, k)
            ratio, bound_ok = ratio_to_optimum(value, opt_value, bound)
            if ratio is None:
                ratio_cell = ratio_dec = "inf"
            else:
                ratio_cell, ratio_dec = fmt_rational(ratio), fmt_decimal(ratio)
            if bound is not None:
                bound_ok_cell = _fmt_bool(bound_ok)
            any_violation = any_violation or not bound_ok

        wall = "0" if args.no_timing else f"{elapsed:.6f}"
        rows.append(
            {
                "instance": instance_id,
                "n": str(n),
                "k": str(k),
                "algorithm": algorithm,
                "value": fmt_rational(value),
                "opt": fmt_rational(opt_value),
                "ratio": ratio_cell,
                "bound": fmt_rational(bound),
                "bound_ok": bound_ok_cell,
                "oracle_evals": str(evals),
                "wall_time_s": wall,
                "value_dec": fmt_decimal(value),
                "opt_dec": fmt_decimal(opt_value),
                "ratio_dec": ratio_dec,
                "bound_dec": fmt_decimal(bound),
            }
        )
        partitions.append(partition)

    print(f"instance: {instance_id} (n={n}, k={k}, class {function_class})")
    if opt_value is not None:
        print(f"optimal value: {opt_value} ({fmt_decimal(opt_value)})")
    table = [
        (
            row["algorithm"],
            row["value_dec"],
            row["ratio_dec"] or "-",
            row["bound_dec"] or "-",
            row["bound_ok"] or "-",
            gs.format_partition(partition),
        )
        for row, partition in zip(rows, partitions)
    ]
    _print_table(("algorithm", "value", "ratio", "bound", "bound_ok", "partition"), table)

    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            writer.writerows([row[c] for c in CSV_COLUMNS] for row in rows)
        print(f"wrote {args.csv}")

    return EXIT_FAIL if any_violation else EXIT_OK


# ---------------------------------------------------------------------------
# reproduce

_RELATIONS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}
_NEAR = Fraction(1, 10**5)


def _compare(case, check, op, expected, observed, fmt=fmt_rational):
    """A reproduce row whose expected cell and verdict both come from
    `observed op expected`; an inequality shows its operator in the cell."""
    shown = fmt(expected) if op == "==" else f"{op} {fmt(expected)}"
    return (case, check, shown, fmt(observed), _RELATIONS[op](observed, expected))


def _near(case, check, target, observed):
    """A reproduce row that passes when `observed` is within 1e-5 of `target`."""
    ok = abs(observed - target) <= _NEAR
    return (case, check, fmt_decimal(target), fmt_decimal(observed), ok)


def _tight3(case, fam, cls, chain, optimum, ratio):
    """The three rows of a 3-element tight table at k = 2: the chain value,
    the optimum, and their ratio near the class bound it meets."""
    rr = ratio_report(fam.oracle(), 2, cls)
    return [
        _compare(case, "chain 2-partition value", "==", chain, rr.algorithm_value),
        _compare(case, "optimal 2-partition value", "==", optimum, rr.optimal_value),
        _near(case, f"ratio within 1e-5 of {ratio}", ratio, rr.ratio),
    ]


def _case_mono3(args):
    fam = MonoTight3Fn(args.eps)
    e = fam.eps
    return _tight3("mono3", fam, "monotone", 3 + 2 * e, Fraction(5, 2) + 2 * e, Fraction(6, 5))


def _case_mono_n(args):
    n = 9 if args.n is None else args.n
    k = (n + 1) // 2
    require_within_cap(n, "reproduce monoN")
    fam = MonoTightNFn(n, args.eps)
    rr = ratio_report(fam.oracle(), k, "monotone")
    upper = Fraction(3 * n + 3, 4) + Fraction(n + 1, 2) * fam.eps
    lower = Fraction(4, 3) - Fraction(4, 3 * n + 3) - _NEAR
    case = f"monoN(n={n})"
    return [
        _compare(case, f"chain {k}-partition value is n", "==", n, rr.algorithm_value),
        _compare(
            case, "optimum at most the split-one-deep partition", "<=", upper, rr.optimal_value
        ),
        _compare(case, "ratio >= 4/3 - 4/(3n+3) - 1e-5", ">=", lower, rr.ratio, fmt_decimal),
        _compare(
            case,
            "ratio within the class bound 4/3 - 4/(9n+3)",
            "<=",
            rr.bound,
            rr.ratio,
            fmt_decimal,
        ),
    ]


def _case_posi3(args):
    fam = PosiTight3Fn(args.eps)
    return _tight3("posi3", fam, "posimodular", 3, 2 + 2 * fam.eps, Fraction(3, 2))


def _case_omega(args):
    n = 8 if args.n is None else args.n
    k = 3 if args.k is None else args.k
    require_within_cap(n, "reproduce omega")
    fam = DigraphHyperFn(n, args.a)
    a = fam.a
    if not 2 <= k <= n:
        raise ValueError(f"omega case needs 2 <= k <= n, got k={k}, n={n}")
    rr = ratio_report(fam.oracle(), k, "general")
    expected_alg = (n - 1) * a if k == 2 else (n - 1) * a + k - 1
    upper = (k - 1) * (1 + a) + 1
    quotient = expected_alg / upper
    case = f"omega(n={n},k={k})"
    return [
        _compare(
            case,
            "chain jumps from trivial to singletons",
            "==",
            2,
            len(rr.run.sequence),
            lambda c: f"{c} partitions",
        ),
        _compare(
            case,
            "chain partition isolates the arc tail",
            "==",
            True,
            1 in rr.run.partition,
            _fmt_bool,
        ),
        _compare(case, "chain value", "==", expected_alg, rr.algorithm_value),
        _compare(
            case, "optimum at most the tail-grouped partition", "<=", upper, rr.optimal_value
        ),
        _compare(case, "ratio at least their quotient", ">=", quotient, rr.ratio, fmt_decimal),
    ]


def _case_footnote(args):
    k = 4 if args.k is None else args.k
    if k < 2:
        raise ValueError("matroid-footnote needs k >= 2")
    n = 2 * k
    require_within_cap(n, "reproduce matroid-footnote")
    fam = PartitionMatroidRankFn(n, [[i, i + k] for i in range(k)])
    oracle = fam.oracle()
    base = cheapest_singleton(oracle, k)
    opt_value = optimal_k_value(oracle, k)
    guarantee = algorithm_guarantee("singleton", "monotone", n, k)
    case = f"matroid-footnote(k={k})"
    # the optimum k is positive, so this is `ratio_to_optimum`'s bound test
    return [
        _compare(case, "cheapest-singleton value is 2k-1", "==", 2 * k - 1, base.value),
        _compare(case, "optimal value is k", "==", k, opt_value),
        _compare(
            case, "singleton guarantee 2 - 1/k holds", "<=", guarantee * opt_value, base.value
        ),
    ]


REPRODUCE_CASES = {
    "mono3": _case_mono3,
    "monoN": _case_mono_n,
    "posi3": _case_posi3,
    "omega": _case_omega,
    "matroid-footnote": _case_footnote,
}


def cmd_reproduce(args) -> int:
    if args.case == "all":
        cases = list(REPRODUCE_CASES)
    else:
        cases = [args.case]
    rows = []
    for name in cases:
        rows.extend(REPRODUCE_CASES[name](args))
    table = [
        (case, check, expected, observed, "PASS" if ok else "FAIL")
        for case, check, expected, observed, ok in rows
    ]
    _print_table(("case", "check", "expected", "observed", "status"), table)
    failed = sum(1 for row in rows if not row[4])
    if failed:
        print(f"reproduce: FAIL ({failed} of {len(rows)} checks failed)")
        return EXIT_FAIL
    print(f"reproduce: PASS ({len(rows)} checks)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# random / verify

def cmd_random(args) -> int:
    for path in generate_batch(args.family, args.n, args.seed, args.count, args.out_dir):
        print(path)
    return EXIT_OK


def cmd_verify(args) -> int:
    fam = load_instance(args.instance, validate=False)
    oracle = fam.oracle()
    gs = oracle.ground_set
    results = check_classes(oracle)
    print(f"instance: {fam.name} (n={gs.n}, declared class {fam.function_class})")
    for name, res in results.items():
        status = "PASS" if res.ok else "FAIL"
        line = f"  {name:<12} {status}"
        if not res.ok:
            line += f"  [{res.describe(gs)}]"
        print(line)

    required = {"monotone", "symmetric", "posimodular"} & {fam.function_class}
    declared_ok = all(results[name].ok for name in required)
    failed = not results["submodular"].ok or not declared_ok
    if not declared_ok:
        print(f"  declared class {fam.function_class!r} not confirmed")
    print(f"verify: {'FAIL' if failed else 'PASS'}")
    return EXIT_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry points

def _int_at_least(low: int, wording: str):
    """argparse type of an int of at least `low`: a smaller value is a usage
    error before any work, with int's own message for text that is no integer."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {wording}, got {value}")
        return value

    return parse


def _rational(text: str) -> Fraction:
    """argparse type of a rational such as 1/1000000: a zero denominator is
    a usage error before any work, like text that is no rational."""
    try:
        return Fraction(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator: {text!r}") from None


def _algorithm_list(text: str) -> list[str]:
    """argparse type of --algorithms: the comma-separated names, each a key
    of SOLVERS named once, so an unknown or repeated name is a usage error
    before any work."""
    names = [a.strip() for a in text.split(",") if a.strip()]
    for i, name in enumerate(names):
        if name not in SOLVERS:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {name!r} (choose from {', '.join(SOLVERS)})"
            )
        if name in names[:i]:
            raise argparse.ArgumentTypeError(f"algorithm {name!r} is named twice")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subpartition",
        description="Submodular k-partition via the principal partition sequence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pps", help="compute and verify the principal partition sequence")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the exhaustive submodularity check on load",
    )
    p.set_defaults(func=cmd_pps)

    p = sub.add_parser("solve", help="run the chain algorithm and baselines")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--k", type=int, required=True, help="number of blocks")
    p.add_argument(
        "--algorithms",
        type=_algorithm_list,
        default=",".join(SOLVERS),
        help=f"comma-separated subset of {','.join(SOLVERS)}",
    )
    p.add_argument(
        "--brute-force",
        action="store_true",
        help="also compute the exact optimum (an exhaustive DP over subsets, not "
        "partition enumeration) and fill opt/ratio/bound columns",
    )
    p.add_argument("--csv", metavar="PATH", help="write report rows to this CSV file")
    p.add_argument(
        "--function-class",
        choices=FUNCTION_CLASSES,
        default=None,
        help="override the declared class used for the bound column",
    )
    p.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the exhaustive submodularity check on load",
    )
    p.add_argument(
        "--no-timing",
        action="store_true",
        help="write 0 in wall_time_s so output is byte-deterministic",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "reproduce", help="rebuild the named worst-case constructions and check them"
    )
    p.add_argument("--case", choices=("all",) + tuple(REPRODUCE_CASES), default="all")
    p.add_argument("--n", type=int, default=None, help="ground-set size override")
    p.add_argument(
        "--eps",
        type=_rational,
        default=Fraction(1, 10**6),
        help="epsilon for the tight tables (rational, e.g. 1/1000000)",
    )
    p.add_argument(
        "--a",
        type=_rational,
        default=Fraction(10**6),
        help="arc weight for the gap construction (rational)",
    )
    p.add_argument("--k", type=int, default=None, help="block count override")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("random", help="write seeded random instance files")
    p.add_argument("--family", required=True, choices=sorted(GENERATOR_FAMILIES))
    p.add_argument("--n", type=_int_at_least(2, "at least 2"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_int_at_least(1, "positive"), default=1)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser(
        "verify", help="exhaustive submodular/monotone/symmetric/posimodular report"
    )
    p.add_argument("instance", help="instance JSON file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonSubmodularError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())
