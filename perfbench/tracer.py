"""Span tracer for the benchmark's traced run.

`Tracer.install()` wraps the public entry point of each layer in every
`subpartition.*` module namespace that binds it (the package imports by
name, so patching only the defining module would miss most calls), plus
`ValueOracle.scaled_table` on the class.  Every wrapped call while the
tracer is active records one span: name, start, end, parent span and op id.
Spans stay in memory until `dump`.

Inner-loop calls such as `ValueOracle.eval` are not wrapped.  Oracle counts
come from the public `total_calls` / `distinct_evaluations` properties of
every oracle built while tracing: a hook on `ValueOracle.__init__` collects
them (it records no span) and `end_op` adds up their counts and lets them go.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs; the span name is "<module>.<function>"
ENTRY_POINTS = (
    ("cli", "main"),
    ("instances", "load_instance"),
    ("instances", "random_instance"),
    ("checkers", "check_submodular"),
    ("checkers", "check_posimodular"),
    ("checkers", "check_monotone"),
    ("checkers", "check_symmetric"),
    ("partition_opt", "minimize_g"),
    ("partition_opt", "brute_force_optimal_k_partition"),
    ("pps", "compute_pps"),
    ("pps", "repair_chain"),
    ("pps", "verify_pps"),
    ("kpartition", "pps_k_partition"),
    ("kpartition", "ratio_report"),
    ("kpartition", "check_chain_lower_bounds"),
    ("kpartition", "greedy_splitting"),
    ("kpartition", "cheapest_singleton"),
)
SCALED_TABLE = "core.scaled_table"
PAIR_SCANS = ("checkers.check_submodular", "checkers.check_posimodular")
MINIMIZE_CALLERS = ("pps.compute_pps", "pps.repair_chain", "pps.verify_pps")
KPARTITION = (
    "greedy_splitting",
    "cheapest_singleton",
    "pps_k_partition",
    "ratio_report",
    "check_chain_lower_bounds",
)


def bell(n: int) -> int:
    """Number of set partitions of an n-element set (Bell triangle)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _ground_size(args, result):
    return args[0].n


# what a span keeps from its call beyond its times, by span name
_EXTRAS = {
    "partition_opt.minimize_g": _ground_size,
    "checkers.check_submodular": _ground_size,
    "checkers.check_posimodular": _ground_size,
    "pps.compute_pps": lambda args, result: len(result.breakpoints),
    "pps.verify_pps": lambda args, result: result.samples_checked,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id, extra]
        self.oracles: list = []  # built during the current op
        self.oracle_queries = 0
        self.oracle_distinct = 0
        self.active = False
        self.op_id = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer = self
        extra = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, 0.0, 0.0, parent, tracer.op_id, None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if extra is not None:
                span[5] = extra(args, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "subpartition" or key.startswith("subpartition.")
        ]
        for module_name, attr in ENTRY_POINTS:
            original = getattr(importlib.import_module(f"subpartition.{module_name}"), attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

        oracle_cls = importlib.import_module("subpartition.core").ValueOracle
        scaled = oracle_cls.__dict__["scaled_table"]
        init = oracle_cls.__dict__["__init__"]
        tracer = self

        @functools.wraps(init)
        def register(oracle, *args, **kwargs):
            init(oracle, *args, **kwargs)
            if tracer.active:
                tracer.oracles.append(oracle)

        self._restore.append((oracle_cls, "scaled_table", scaled))
        self._restore.append((oracle_cls, "__init__", init))
        oracle_cls.scaled_table = self._wrap(SCALED_TABLE, scaled)
        oracle_cls.__init__ = register

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def end_op(self) -> None:
        for oracle in self.oracles:
            self.oracle_queries += oracle.total_calls
            self.oracle_distinct += oracle.distinct_evaluations
        self.oracles.clear()

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "extra"],
                    "spans": self.spans,
                },
                handle,
            )

    def metrics(self, scales: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every recorded span: (value, unit) by name.

        Self time is span time minus the time of its direct child spans,
        times the speed factor `scales[op id]` of the span's op.
        Counts named `*_computed` are derived from call counts and ground
        set sizes (Bell(n) partitions per minimize_g scan, 4^n pairs per
        pair scan), not counted inside the scans.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        minimize_by_caller: Counter = Counter()
        minimize_under: Counter = Counter()  # compute_pps span -> its direct minimize calls
        repair_under: Counter = Counter()  # compute_pps span -> minimize calls made in its repair
        partitions = pairs = samples = 0
        for i, (name, start, end, parent, op, extra) in enumerate(spans):
            self_s[name] += (end - start - child_time[i]) * scales[op]
            calls[name] += 1
            if name == "partition_opt.minimize_g":
                partitions += bell(extra)
                caller = spans[parent][0] if parent is not None else None
                minimize_by_caller[caller] += 1
                if caller == "pps.compute_pps":
                    minimize_under[parent] += 1
                elif caller == "pps.repair_chain":
                    grand = spans[parent][3]
                    if grand is not None and spans[grand][0] == "pps.compute_pps":
                        repair_under[grand] += 1
            elif name in PAIR_SCANS:
                pairs += 4**extra
            elif name == "pps.verify_pps":
                samples += extra
        recorded = attempted = 0
        for i, span in enumerate(spans):
            if span[0] == "pps.compute_pps":
                recorded += span[5] - repair_under[i]
                attempted += minimize_under[i]

        m: dict[str, tuple[float, str]] = {}
        m["partition_opt.minimize_g.self_s"] = (self_s["partition_opt.minimize_g"], "s")
        m["partition_opt.minimize_g.calls"] = (calls["partition_opt.minimize_g"], "count")
        for caller in MINIMIZE_CALLERS:
            short = caller.split(".")[1]
            m[f"partition_opt.minimize_g.calls.{short}"] = (minimize_by_caller[caller], "count")
        m["partition_opt.minimize_g.partitions_scanned_computed"] = (partitions, "count")
        bf = "partition_opt.brute_force_optimal_k_partition"
        m[f"{bf}.self_s"] = (self_s[bf], "s")
        m[f"{bf}.calls"] = (calls[bf], "count")
        for check in ("submodular", "posimodular", "monotone", "symmetric"):
            name = f"checkers.check_{check}"
            m[f"{name}.self_s"] = (self_s[name], "s")
        m["checkers.pairs_scanned_computed"] = (pairs, "count")
        m["core.scaled_table.self_s"] = (self_s[SCALED_TABLE], "s")
        m["core.oracle_queries"] = (self.oracle_queries, "count")
        m["core.oracle_distinct"] = (self.oracle_distinct, "count")
        for name in MINIMIZE_CALLERS:
            m[f"{name}.self_s"] = (self_s[name], "s")
        m["pps.verify_pps.samples"] = (samples, "count")
        m["pps.compute_pps.record_ratio"] = (recorded / attempted if attempted else 0.0, "ratio")
        for name in KPARTITION:
            m[f"kpartition.{name}.self_s"] = (self_s[f"kpartition.{name}"], "s")
        for name in ("load_instance", "random_instance"):
            m[f"instances.{name}.self_s"] = (self_s[f"instances.{name}"], "s")
        m["cli.main.self_s"] = (self_s["cli.main"], "s")
        return m
