"""Benchmark of the subpartition package, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from the repository root.  One process per run and no threads: the
package is imported from `src/` and driven in-process, through
`subpartition.cli.main(argv)` with stdout captured or through the library.

Set-up builds a fixed pool of ops from the seed.  With `--trace 0` the run
makes whole passes over the pool, at least MIN_PASSES of them and until S
seconds of op time have passed, and reports the end-to-end metrics; an
op's cost is the median over passes of its time.  With `--trace 1` the run
makes one pass, running every op once untraced and once traced (alternating
which goes first), and reports per-layer metrics from the traced spans plus
`trace.overhead_ratio`.  All times are in reference-speed seconds (see
REF_S).  Every execution's output is checked outside the
timed region; a failed check, an exception or a non-zero exit counts in
`failed`.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Lines before it give op_p50_s, op_p90_s and fail_ratio, which are
reported but not gated.  A fuller record (each op's family, n, seed and
times, and the environment) goes to
`.perfbench_out/<workload>-seed<N>-trace<T>.json`, and the spans of a traced
run to `.perfbench_out/<workload>-seed<N>-spans.json`.

`--selftest` runs every workload at tiny n, untraced once and traced twice,
and checks that every metric BENCHMARK.json names is emitted with its unit
and that every count repeats exactly between the two traced runs.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_REPEATS = 5
MIN_PASSES = 3

# Every reported time is in reference-speed seconds: the measured time times
# REF_S / t_ref, where t_ref is the time of a fixed reference loop measured
# just before (at most REF_EVERY_S earlier) and REF_S is that loop's time on
# an idle core of the 2.1 GHz VM the benchmark was tuned on.  The VM is
# shared, and its speed there drifts by up to half for minutes at a time.
REF_S = 0.0025
REF_EVERY_S = 0.1
_REF_TABLE = tuple((i * 7919) % 1013 for i in range(256))


def _reference_loop() -> float:
    """Seconds taken by fixed pure-Python work of the package's kind: an
    integer pair scan over a table, then a sum of Fractions."""
    start = time.perf_counter()
    tab = _REF_TABLE
    worse = 0
    for a in range(0, 256, 2):
        fa = tab[a]
        for b in range(256):
            if fa + tab[b] < tab[a | b] + tab[a & b]:
                worse += 1
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i)
    return time.perf_counter() - start


class _Speed:
    """The factor from measured to reference-speed seconds, re-measured
    whenever the last reference loop is more than REF_EVERY_S old."""

    def __init__(self):
        self.refs: list[float] = []
        self._at = float("-inf")

    def scale(self) -> float:
        if time.perf_counter() - self._at >= REF_EVERY_S:
            self.refs.append(_reference_loop())
            self._at = time.perf_counter()
        return REF_S / self.refs[-1]


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc,
        "git_revision": _git_revision(),
    }


def _execute(op):
    """Run one op; returns (seconds, output, error or None)."""
    start = time.perf_counter()
    try:
        out, error = op.run(), None
    except Exception:  # a failing op is counted, the run goes on
        out, error = None, traceback.format_exc(limit=4)
    return time.perf_counter() - start, out, error


def _check(op, out):
    try:
        return op.check(out)
    except Exception:  # a check that crashes is a failed op
        return "check raised: " + traceback.format_exc(limit=4)


def _timed_passes(pool, seconds, min_passes, speed):
    """Passes over the pool until the op time reaches `seconds`, at least
    `min_passes` of them; returns each op's times (measured seconds and
    reference-speed seconds) and failures."""
    times = [[] for _ in pool]
    scaled = [[] for _ in pool]
    errors = [[] for _ in pool]
    busy = 0.0
    passes = 0
    while passes < min_passes or busy < seconds:
        for i, op in enumerate(pool):
            scale = speed.scale()
            dt, out, error = _execute(op)
            busy += dt
            times[i].append(dt)
            scaled[i].append(dt * scale)
            error = error or _check(op, out)
            if error:
                errors[i].append(error)
        passes += 1
    return times, scaled, errors


def _traced_pass(pool, tracer, speed):
    """One pass, each op once untraced and once traced; returns the traced
    times, failures, each op's speed factor, and traced/untraced - 1 over
    the pass in reference-speed seconds."""
    times = [[] for _ in pool]
    errors = [[] for _ in pool]
    scales = {}
    plain = traced = 0.0
    for i, op in enumerate(pool):
        for on in (False, True) if i % 2 == 0 else (True, False):
            scale = speed.scale()
            tracer.active, tracer.op_id = on, i
            dt, out, error = _execute(op)
            tracer.active = False
            tracer.end_op()
            if on:
                scales[i] = scale
                traced += dt * scale
                times[i].append(dt)
                error = error or _check(op, out)
                if error:
                    errors[i].append(error)
            else:
                plain += dt * scale
    return times, errors, scales, traced / plain - 1


def _set_up(name, seed, workdir, tiny):
    """Import the package afresh and build the pool; the import is timed
    again on each call because the package and workload modules are first
    dropped from sys.modules (the standard library ones they pull in stay)."""
    for key in list(sys.modules):
        if key in ("subpartition", "workloads") or key.startswith("subpartition."):
            del sys.modules[key]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return importlib.import_module("workloads").WORKLOADS[name](str(seed), workdir, tiny)


def run_workload(name, seed, seconds, trace, tiny=False, min_passes=MIN_PASSES):
    """One benchmark run: writes the full record, returns the result line
    and the reported but ungated figures."""
    label = f"{name}{'-tiny' if tiny else ''}-seed{seed}"
    workdir = OUT / f"work-{os.getpid()}"
    tracer = Tracer() if trace else None
    speed = _Speed()
    setup_times = []
    setup_scaled = []
    try:
        for _ in range(SETUP_REPEATS):
            scale = speed.scale()
            start = time.perf_counter()
            pool = _set_up(name, seed, workdir, tiny)
            setup_times.append(time.perf_counter() - start)
            setup_scaled.append(setup_times[-1] * scale)
        if tracer:
            # one more set-up, traced and untimed, so generation shows per layer
            tracer.install()
            scale = speed.scale()
            tracer.active, tracer.op_id = True, "setup"
            pool = importlib.import_module("workloads").WORKLOADS[name](str(seed), workdir, tiny)
            tracer.active = False
            tracer.end_op()
            times, errors, scales, overhead = _traced_pass(pool, tracer, speed)
            scales["setup"] = scale
        else:
            times, scaled, errors = _timed_passes(pool, seconds, min_passes, speed)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(ts) for ts in times)
    failed = sum(len(es) for es in errors)
    if tracer:
        metrics = tracer.metrics(scales)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        tracer.dump(OUT / f"{label}-spans.json")
        cost = [ts[0] * scales[i] for i, ts in enumerate(times)]
    else:
        # an op's cost: the median over passes of its reference-speed time
        cost = [statistics.median(ts) for ts in scaled]
        metrics = {
            "ops_per_s": (len(cost) / sum(cost), "1/s"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    # reported but not gated: see perfbench/README.md
    p90 = statistics.quantiles(cost, n=10)[-1] if len(cost) > 1 else cost[0]
    extra = {
        "op_p50_s": (statistics.median(cost), "s", f"median over {len(cost)} ops"),
        "op_p90_s": (p90, "s", f"{sum(c > p90 for c in cost)} ops above it"),
        "fail_ratio": (failed / attempted, "ratio", f"{failed} of {attempted} executions"),
    }
    full = {
        "workload": name,
        "tiny": tiny,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": _environment(),
        "setup_repeats_measured_s": setup_times,
        "reference_loop_s": {"nominal": REF_S, "min": min(speed.refs), "median": statistics.median(speed.refs), "max": max(speed.refs), "count": len(speed.refs)},
        "result": line,
        "extra": {k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in extra.items()},
        "ops": [
            {"family": op.family, "n": op.n, "seed": op.seed, "cost_s": c, "measured_s": ts, "errors": es}
            for op, c, ts, es in zip(pool, cost, times, errors)
        ],
    }
    with open(OUT / f"{label}-trace{int(trace)}.json", "w") as handle:
        json.dump(full, handle, indent=1)
    return line, extra


# ---------------------------------------------------------------------------
# self-test

def selftest(workloads, seed) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(workloads):
        problems.append("BENCHMARK.json workloads differ from the benchmark's own")
    for name in workloads:
        start = time.perf_counter()
        lines = [run_workload(name, seed, 0, trace, tiny=True, min_passes=1)[0] for trace in (0, 1, 1)]
        for trace, line in zip((0, 1, 1), lines):
            if not line["correct"]:
                problems.append(f"{name}: {line['failed']} of {line['attempted']} ops failed")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(got.items() ^ wanted[trace].items())}")
        first, second = lines[1]["metrics"], lines[2]["metrics"]
        for key, spec_unit in wanted[1].items():
            if spec_unit == "count" and first.get(key) != second.get(key):
                problems.append(f"{name}: {key} differs between traced runs: {first.get(key)} vs {second.get(key)}")
        print(f"selftest {name}: {time.perf_counter() - start:.1f} s")
    for problem in problems:
        print(f"selftest: {problem}")
    print(f"selftest: {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "subpartition" / "__init__.py").is_file():
        print(f"error: {src}/subpartition not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    import subpartition

    if Path(subpartition.__file__).resolve().parent != src / "subpartition":
        print(f"error: subpartition imported from {subpartition.__file__}, not {src}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.selftest:
        return selftest(WORKLOADS, args.seed)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    line, extra = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    for key, (value, unit, note) in extra.items():
        print(f"{key} {value:.6g} {unit} ({note})")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
