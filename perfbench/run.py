"""Repository benchmark: end-to-end and per-layer figures for one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_scalar --seed 1 --seconds 30 --trace 0

One serial process.  After one warm-up, repetitions run until
``--seconds`` have passed (at least three).  Each starts from a cold build
cache, builds its inputs from ``--seed`` (``setup_s``) and runs the
workload's timed phase (``wall_s``).  A machine-speed calibration taken
just before each repetition expresses its times at a reference speed
(``calibrate.py``); the reported timings are medians over repetitions.

Every answer is checked against the program's ground-truth oracle; wrong
or capped answers count as failed operations.  The run's own check
(``correct``) fails only when the accounting does not add up, a leg ran on
an unexpected engine, or two repetitions of the seed simulated different
outcomes.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  Spans and
counters are written to ``perfbench/out/`` at the end.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import pkgutil
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

import tracing
from calibrate import REFERENCE_S, calibration_s

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_REPS = 3


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    outcome: Any
    traced: bool
    calibration_s: float = 0.0
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    export: Dict[str, Any] = field(default_factory=dict)


def _import_all() -> None:
    """Import every module of the program up front, so no import runs inside
    a timed phase or while the traced run has functions swapped out."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _repetition(workload, seed: int, traced: bool) -> Rep:
    from repro.api import registry

    registry.clear_index_cache()
    gc.collect()
    cal = calibration_s()
    gc.collect()
    tracer = tracing.Tracer() if traced else tracing.NULL
    sessions: List[Any] = []
    if traced:
        with tracing.instrument(tracer, sessions):
            t0 = time.perf_counter()
            state = workload.setup(seed)
            t1 = time.perf_counter()
            outcome = workload.run(state, tracer)
            t2 = time.perf_counter()
    else:
        t0 = time.perf_counter()
        state = workload.setup(seed)
        t1 = time.perf_counter()
        outcome = workload.run(state, tracer)
        t2 = time.perf_counter()
    rep = Rep(setup_s=t1 - t0, wall_s=t2 - t1, outcome=outcome, traced=traced,
              calibration_s=cal)
    if traced:
        rep.layers = layer_metrics(tracer, sessions, rep)
        rep.export = tracer.export()
    return rep


def layer_metrics(tracer, sessions: List[Any], rep: Rep) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures of one traced repetition, as (value, unit)."""
    from workloads import INDEXES

    stats = tracer.layer_stats()
    counters = tracer.counters
    wall = rep.wall_s
    m: Dict[str, Tuple[float, str]] = {}

    def busy(name: str) -> float:
        return stats[name]["s"] if name in stats else 0.0

    def calls(name: str) -> int:
        return stats[name]["calls"] if name in stats else 0

    def seconds(metric: str, value: float) -> None:
        m[metric] = (value, "s")

    def count(metric: str, value: float) -> None:
        m[metric] = (value, "count")

    def share(metric: str, value: float) -> None:
        m[metric] = (value, "share")

    seconds("datasets.gen_s", busy("datasets.gen"))
    for kind in INDEXES:
        seconds(f"build_s.{kind}", busy(f"build.{kind}"))
    seconds("timeline.compile_s", busy("timeline.compile"))
    count("timeline.calls", calls("timeline"))
    for kind in INDEXES:
        for query in ("window", "knn"):
            name = f"planner.{kind}.{query}"
            durations = sorted(stats[name]["durations"]) if name in stats else []
            seconds(name + ".s", busy(name))
            count(name + ".calls", calls(name))
            m[name + ".ms_p50"] = (1e3 * _percentile(durations, 50), "ms")
            m[name + ".ms_p95"] = (1e3 * _percentile(durations, 95), "ms")
    planner_s, planner_self = tracer.group_s("planner.")
    seconds("planner.s", planner_s)
    seconds("planner.self_s", planner_self)
    share("planner.share", planner_s / wall)
    share("planner.self_share", planner_self / wall)
    seconds("treeair.s", busy("treeair"))
    count("treeair.calls", calls("treeair"))
    seconds("hilbert.ranges.s", busy("hilbert.ranges"))
    count("hilbert.ranges.calls", calls("hilbert.ranges"))
    seconds("hilbert.covers.s", busy("hilbert.covers"))
    count("hilbert.covers.calls", calls("hilbert.covers"))
    count("hilbert.covers.rects", counters.get("hilbert.covers.rects", 0))
    seconds("ground_truth.s", busy("ground_truth"))
    count("ground_truth.calls", calls("ground_truth"))
    share("ground_truth.share", busy("ground_truth") / wall)
    executions = counters.get("fleet.executions", 0)
    seconds("fleet.s", busy("fleet"))
    seconds("fleet.self_s", stats["fleet"]["self_s"] if "fleet" in stats else 0.0)
    m["fleet.clients_per_execution"] = (
        counters.get("fleet.clients", 0) / executions if executions else 0.0, "ratio"
    )
    share("fleet.kernel_share",
          counters.get("fleet.kernel_executions", 0) / executions if executions else 0.0)
    count("fleet.reference_executions", counters.get("fleet.reference_executions", 0))
    count("fleet.capped_executions", counters.get("fleet.capped_executions", 0))
    seconds("fleet_kernel.s", busy("fleet_kernel"))
    count("fleet_kernel.calls", calls("fleet_kernel"))
    count("fleet_kernel.executions", counters.get("fleet_kernel.executions", 0))
    share("fleet_kernel.share", busy("fleet_kernel") / wall)
    seconds("metrics.add_many.s", busy("metrics.add_many"))
    count("metrics.add_many.values", counters.get("metrics.add_many.values", 0))
    share("metrics.add_many.share", busy("metrics.add_many") / wall)
    seconds("demand.s", busy("demand"))
    seconds("sched.s", busy("sched"))
    for kind in INDEXES:
        seconds(f"sched.{kind}_s",
                tracer.descendants_of(f"leg.optimize.{kind}").get("sched", 0.0))
    count("client.sessions", len(sessions))
    count("client.lost_reads", sum(s.lost_reads for s in sessions))
    answers = sum(leg.answers for leg in rep.outcome.legs)
    share("answers.failed_share", sum(leg.failed for leg in rep.outcome.legs) / answers)
    count("trace.spans", len(tracer.spans))
    seconds("trace.wall_s", wall)
    return m


def _percentile(ordered: List[float], q: float) -> float:
    """Linear-interpolated percentile of a sorted list (0 when empty)."""
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def check(reps: List[Rep]) -> List[str]:
    """The benchmark's output check: complete accounting, expected engines,
    identical simulated outcomes across repetitions of the seed."""
    problems = []
    for leg in reps[0].outcome.legs:
        if leg.correct + leg.incorrect != leg.answers:
            problems.append(
                f"{leg.name}: {leg.correct} right + {leg.incorrect} wrong "
                f"!= {leg.answers} answers"
            )
        if not 0 <= leg.capped_correct <= leg.capped:
            problems.append(f"{leg.name}: capped accounting {leg.capped_correct}/{leg.capped}")
        if leg.backend not in leg.accepted_backends:
            problems.append(
                f"{leg.name}: ran on {leg.backend!r}, expected one of {leg.accepted_backends}"
            )
    digests = {fingerprint(rep.outcome) for rep in reps}
    if len(digests) != 1:
        problems.append(f"simulated outcomes differ between repetitions: {sorted(digests)}")
    return problems


def fingerprint(outcome) -> str:
    """Digest of a repetition's simulated outputs (independent of timing)."""
    rows = [leg.fingerprint() for leg in outcome.legs]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def end_to_end(reps: List[Rep]) -> Dict[str, Any]:
    legs = reps[0].outcome.legs
    answers = sum(leg.answers for leg in legs)
    failed = sum(leg.failed for leg in legs)
    clients = sum(leg.clients for leg in legs)
    executions = sum(leg.executions for leg in legs)
    wall = at_reference_speed(reps, "wall_s")
    return {
        "setup_s": (at_reference_speed(reps, "setup_s"), "s"),
        "wall_s": (wall, "s"),
        "clients_per_s": (clients / wall, "1/s"),
        "executions_per_s": (executions / wall, "1/s"),
        "ok_share": (1.0 - failed / answers, "share"),
        "sim_latency_mean_bytes": (
            sum(leg.latency_mean * leg.answers for leg in legs) / answers, "bytes"
        ),
        "sim_tuning_mean_bytes": (
            sum(leg.tuning_mean * leg.answers for leg in legs) / answers, "bytes"
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def at_reference_speed(reps: List[Rep], timing: str) -> float:
    """Median over the repetitions of one timing, each expressed at the
    reference speed through the calibration taken just before it."""
    return statistics.median(
        getattr(rep, timing) * REFERENCE_S / rep.calibration_s for rep in reps
    )


def per_layer(reps: List[Rep]) -> Dict[str, Any]:
    traced = [rep for rep in reps if rep.traced]
    untraced = [rep for rep in reps if not rep.traced]
    out = {
        name: (statistics.median(rep.layers[name][0] for rep in traced), unit)
        for name, (_, unit) in traced[0].layers.items()
    }
    # At reference speed, like wall_s, so a drift in machine speed between
    # the traced and untraced repetitions does not read as overhead.
    out["trace.overhead_s"] = (
        at_reference_speed(traced, "wall_s") - at_reference_speed(untraced, "wall_s"), "s",
    )
    return out


def _trace_plan(i: int) -> bool:
    """Whether measured repetition ``i`` of a traced run is traced: the
    pattern T U U T T U U T ... puts drift in machine speed on both sides
    alike."""
    return i % 4 in (0, 3)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    _import_all()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # Repetition 0 is a warm-up: process-wide lazy state (numpy, the Hilbert
    # tables) fills there, so it joins the output check but not the figures.
    start = time.perf_counter()
    warmup = _repetition(workload, args.seed, traced=False)
    reps: List[Rep] = []
    min_reps = 4 if args.trace else MIN_REPS
    while len(reps) < min_reps or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and _trace_plan(len(reps))
        reps.append(_repetition(workload, args.seed, traced))

    problems = check([warmup] + reps)
    legs = reps[0].outcome.legs
    attempted = sum(leg.answers for leg in legs)
    failed = sum(leg.failed for leg in legs)
    print(f"workload {args.workload} seed {args.seed} repetitions {len(reps)}"
          f" ({sum(r.traced for r in reps)} traced)")
    for leg in legs:
        print(f"  leg {leg.name}: backend={leg.backend} clients={leg.clients}"
              f" executions={leg.executions} answers={leg.answers} failed={leg.failed}"
              f" capped={leg.capped} latency={leg.latency_mean:.1f}B tuning={leg.tuning_mean:.1f}B")
    print(f"  failed_share {failed / attempted:.6f} ({failed} of {attempted} answers)")
    print(f"  digest {fingerprint(reps[0].outcome)}")
    print("  repetitions wall_s " + " ".join(
        f"{r.wall_s:.3f}{'T' if r.traced else ''}" for r in reps))
    print("  repetitions calibration_s " + " ".join(f"{r.calibration_s:.3f}" for r in reps))
    print(f"  raw medians: setup_s {statistics.median(r.setup_s for r in reps):.4f} s,"
          f" wall_s {statistics.median(r.wall_s for r in reps):.4f} s;"
          f" median calibration {statistics.median(r.calibration_s for r in reps):.4f} s")
    optimize = [r.outcome.optimize_s for r in reps if not r.traced]
    if any(optimize):
        print(f"  optimize_s {statistics.median(optimize):.4f} s")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        last = [r for r in reps if r.traced][-1]
        with gzip.open(path, "wt") as fh:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "repetitions": [
                    {"traced": r.traced, "setup_s": r.setup_s, "wall_s": r.wall_s,
                     "layers": {k: v for k, (v, _) in r.layers.items()}} for r in reps
                ],
                "last_traced": last.export,
            }, fh)
        print(f"  trace written to {path.relative_to(HERE.parent)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
