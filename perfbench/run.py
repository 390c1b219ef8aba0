#!/usr/bin/env python3
"""Benchmark of the cobwebs package, one workload per run.

    python3 perfbench/run.py --workload cobweb_cli --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Set-up imports the package and writes the seeded inputs; it is
repeated at even intervals through the run.  The timed loop makes passes
over the workload's operations until ``--seconds`` have passed, checking
every result.  Every timing is scaled to a fixed machine speed (see
Clock).  The last line of standard output is one JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (each operation also runs untraced, which gives
the tracing overhead), whose spans are written to ``.perfbench-out/``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPS = 7
MIN_PASSES = 3
# The calibration's duration at the reference speed: about its median on an
# otherwise idle 2-vCPU Intel Xeon virtual machine with Python 3.11.7.
CALIBRATION_S = 0.4e-3
# A duration is scaled by the median of at least this many calibrations on
# each side of it.
CALIBRATION_WINDOW = 4

# Per-layer metrics of a traced run, per pass.  Span totals unless noted.
SPAN_METRICS = {
    "cli.gen_s": "cli.gen",
    "cli.check_s": "cli.check",
    "cli.realize_s": "cli.realize",
    "serialization.parse_json_s": "serialization.parse_json",
    "serialization.parse_edgelist_s": "serialization.parse_edgelist",
    "serialization.emit_json_s": "serialization.emit_json",
    "serialization.emit_edgelist_s": "serialization.emit_edgelist",
    "cobweb.build_s": "cobweb.build",
    "graphs.acyclic_s": "graphs.acyclic",
    "graphs.regular_s": "graphs.regular",
    "graphs.reachability_s": "graphs.reachability",
    "graphs.admissible_s": "graphs.admissible",
    "realizers.decide_s": "realizers.decide",
    "realizers.verify_s": "realizers.verify",
    "realizers.conjugate_s": "realizers.conjugate",
    "oracle.poset_build_s": "oracle.poset_build",
    "oracle.pair_search_s": "oracle.pair_search",
    "oracle.dimension_s": "oracle.dimension",
}
COUNT_METRICS = {
    "serialization.bytes_in": "bytes",
    "serialization.bytes_out": "bytes",
    "cobweb.arcs": "count",
    "graphs.reach_pairs": "count",
    "realizers.verdict_orderable": "count",
    "realizers.verdict_no": "count",
    "realizers.verdict_inconclusive": "count",
    "oracle.extensions": "count",
}


def calibration_work() -> int:
    """A fixed piece of pure-Python work: dict, integer and call operations."""
    table: dict[int, int] = {}
    total = 0
    for i in range(3000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += len(table) ^ i
    return total


class Clock:
    """Scales durations to the reference machine speed.

    Other tenants of the machine change its speed by up to half within
    seconds, in CPU time as much as in wall time, so raw timings of the
    same code differ by a third between runs.  The calibration runs after
    every timed piece of work.  A duration is scaled by CALIBRATION_S over
    the median of the calibrations around it: those that ran within one
    duration of it on either side, and at least CALIBRATION_WINDOW on each
    side.  This cancels the machine's changes of speed and keeps those of
    the package, which the calibration does not call.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []  # when each calibration ended
        self.calibrations: list[float] = []
        self.calibrate()

    def calibrate(self) -> None:
        start = perf_counter()
        calibration_work()
        end = perf_counter()
        self.ends.append(end)
        self.calibrations.append(end - start)

    def record(self, duration: float) -> tuple[float, float, int]:
        """Note a piece of work of ``duration`` that has just ended; calibrate."""
        now = perf_counter()
        self.calibrate()
        return duration, now, len(self.calibrations) - 1

    def scaled(self, record: tuple[float, float, int]) -> float:
        duration, end, after = record
        lo = bisect.bisect_left(self.ends, end - 2 * duration)
        hi = bisect.bisect_right(self.ends, end + duration)
        lo = max(0, min(lo, after - CALIBRATION_WINDOW))
        hi = max(hi, after + CALIBRATION_WINDOW)
        return duration * CALIBRATION_S / statistics.median(self.calibrations[lo:hi])


@dataclass
class Measurement:
    samples: list[float]  # per operation, the median of its scaled passes
    completed: int  # operations that passed their check on every pass
    classes: list[str]  # classification of every execution
    untraced_time: float
    traced_time: float
    passes: int
    setup_times: list[float]  # scaled
    log: list[str]


def import_package():
    """Import cobwebs from ``src/`` afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "cobwebs" or m.startswith("cobwebs.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cobwebs")
    importlib.import_module("cobwebs.cli")
    importlib.import_module("cobwebs.serialization")
    return pkg


def setup(name: str, seed: int, workdir: Path, tiny: bool):
    """Import the package and build the inputs; return them and the time taken.

    Starts and ends with a collected heap, so garbage from earlier work is
    not counted here and garbage from here is not counted in the timed loop.
    """
    gc.collect()
    start = perf_counter()
    pkg = import_package()
    workload = workloads.build(name, pkg, seed, workdir, tiny)
    elapsed = perf_counter() - start
    gc.collect()
    return workload, elapsed


def execute(op, tracer, log) -> tuple[float, str]:
    """Run one operation, return its duration and classification."""
    op.prepare()
    start = perf_counter()
    try:
        result = op.run(tracer)
    except Exception as err:  # the loop must keep going; the failure is counted
        duration = perf_counter() - start
        log.append(f"{op.name}: {type(err).__name__}: {err}"[:300])
        return duration, checks.ERROR
    duration = perf_counter() - start
    try:
        outcome = op.check(result)
    except Exception:
        log.append(f"{op.name}: output did not parse\n{traceback.format_exc(limit=2)}")
        outcome = checks.WRONG
    if outcome != checks.OK:
        log.append(f"{op.name}: {outcome}")
    return duration, outcome


def measure(
    workload,
    seconds: float,
    tracer: Tracer | None,
    clock: Clock,
    first_setup: tuple[float, float, int],
    resetup: Callable[[], float],
):
    """Run passes over every operation until ``seconds`` have passed.

    An untraced run makes at least MIN_PASSES passes.  An operation's
    sample is the median of its scaled passes.  ``resetup`` repeats the
    set-up between operations, SETUP_REPS - 1 times at even intervals,
    so that set-ups and operations meet the same stretches of the machine.
    """
    ops = workload.ops
    durations: list[list[tuple[float, float, int]]] = [[] for _ in ops]
    completed = [True] * len(ops)
    classes: list[str] = []
    untraced_time = traced_time = 0.0
    log: list[str] = []
    setups = [first_setup]
    setup_at = [seconds * i / SETUP_REPS for i in range(1, SETUP_REPS)]
    passes = 0
    start = perf_counter()
    while passes < (1 if tracer else MIN_PASSES) or perf_counter() - start < seconds:
        for k, op in enumerate(ops):
            if setup_at and perf_counter() - start >= setup_at[0]:
                setup_at.pop(0)
                setups.append(clock.record(resetup()))
            duration, outcome = execute(op, None, log)
            durations[k].append(clock.record(duration))
            untraced_time += duration
            completed[k] &= outcome == checks.OK
            classes.append(outcome)
            if tracer is not None:
                tracer.op = f"pass {passes} op {k}: {op.name}"
                duration, outcome = execute(op, tracer, log)
                traced_time += duration
                classes.append(outcome)
                op.annotate(tracer)
        passes += 1
    setups += [clock.record(resetup()) for _ in setup_at]
    samples = [statistics.median(map(clock.scaled, records)) for records in durations]
    setup_times = [clock.scaled(record) for record in setups]
    return Measurement(
        samples, sum(completed), classes, untraced_time, traced_time, passes, setup_times, log
    )


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(m: Measurement) -> dict:
    return {
        "ops_per_s": (m.completed / sum(m.samples), "1/s"),
        "op_p50_ms": (statistics.median(m.samples) * 1e3, "ms"),
        "op_tail_ms": (tail(m.samples)[1] * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(m.setup_times), "s"),
    }


def per_layer(tracer: Tracer, m: Measurement, probe_errors: int) -> dict:
    """Per-layer figures of a traced run, per pass."""
    total, self_time = tracer.totals()
    out = {key: (total.get(span, 0.0) / m.passes, "s") for key, span in SPAN_METRICS.items()}
    out["realizers.search_s"] = (self_time.get("realizers.decide", 0.0) / m.passes, "s")
    cli_self = sum(v for k, v in self_time.items() if k.startswith("cli."))
    out["cli.self_s"] = (cli_self / m.passes, "s")
    for key, unit in COUNT_METRICS.items():
        out[key] = (tracer.counts.get(key, 0) / m.passes, unit)
    out["cli.depth_probe_errors"] = (probe_errors, "count")
    overhead = m.traced_time - m.untraced_time
    out["trace.overhead_s"] = (overhead / m.passes, "s")
    out["trace.overhead_pct"] = (100.0 * overhead / m.untraced_time, "%")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the result object (also used by the smoke test)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        clock = Clock()
        workload, elapsed = setup(name, seed, Path(tmp), tiny)
        first_setup = clock.record(elapsed)
        # Repeated set-ups write to their own directory and drop what they build.
        redo_dir = Path(tmp) / "setup"
        redo_dir.mkdir()
        probe_log: list[str] = []
        probes = [execute(op, None, probe_log)[1] for op in workload.probes]
        tracer = Tracer() if trace else None
        m = measure(
            workload,
            seconds,
            tracer,
            clock,
            first_setup,
            lambda: setup(name, seed, redo_dir, tiny)[1],
        )
    failed = sum(c != checks.OK for c in m.classes)
    wrong = m.classes.count(checks.WRONG) + probes.count(checks.WRONG)
    pct, _ = tail(m.samples)
    summary = (
        f"{name} seed={seed}: {len(m.samples)} operations x {m.passes} passes, "
        f"op_tail_ms is p{pct:.2f} of {len(m.samples)} samples, "
        f"failed_ratio={failed}/{len(m.classes)}, "
        f"inconclusive_ratio={m.classes.count(checks.INCONCLUSIVE)}/{len(m.classes)}, "
        f"depth probes: {probes.count(checks.ERROR)} of {len(probes)} raised, "
        f"scaled set-up times min {min(m.setup_times):.4f} s, "
        f"median {statistics.median(m.setup_times):.4f} s, "
        f"calibration median {statistics.median(clock.calibrations) * 1e3:.3f} ms "
        f"(reference {CALIBRATION_S * 1e3:.3f} ms)"
    )
    if trace:
        metrics = per_layer(tracer, m, probes.count(checks.ERROR))
        trace_file = OUT_DIR / f"trace-{name}-seed{seed}.json"
        tracer.dump(trace_file, workload=name, seed=seed, passes=m.passes)
        summary += f", spans in {trace_file.relative_to(ROOT)}"
    else:
        metrics = end_to_end(m)
    return {
        "summary": summary,
        "log": m.log + [f"probe {line}" for line in probe_log],
        "result": {
            "correct": wrong == 0,
            "attempted": len(m.classes),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cobwebs" / "__init__.py").is_file():
        print(f"error: no cobwebs package under {SRC}", file=sys.stderr)
        return 2
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in outcome["log"][:20]:
        print(line, file=sys.stderr)
    print(outcome["summary"])
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
