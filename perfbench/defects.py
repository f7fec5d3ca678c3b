"""Reproduce the known defects the benchmark's failure accounting shows.

Usage (from the repository root)::

    python3 perfbench/defects.py               # every case
    python3 perfbench/defects.py scope_all     # one case

Cases (see README.md, "Known defects"):

* ``scope_all`` -- under ``error_scope="all"`` DSI fleets answer some
  window queries incompletely: a lost data object is re-fetched only once.
* ``replicated_drop`` -- on a 4-channel demand-optimized (replicated)
  schedule the reference DSI window planner misses an object that the
  numpy kernel finds.
* ``roadmap_example`` -- the 1-channel replicated, index-scope-error case
  recorded as a kernel bug: the reference is the side that answers wrong.
* ``flat_drop`` -- the same miss on the paper's own setting: one channel,
  flat schedule, no link errors, 10,000 objects (a ``paper_scalar`` query
  at seed 24).
* ``index_errors`` -- the reference DSI window planner misses an object
  when index buckets are lost (``paper_scalar`` seed 2, lossy leg), although
  index-scope errors never lose data.

The reference path is forced with ``REPRO_PURE=1`` (read per call).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro import BroadcastSchedule, SystemConfig, build_index, uniform_dataset  # noqa: E402
from repro.broadcast.client import ClientSession  # noqa: E402
from repro.broadcast.errors import LinkErrorModel  # noqa: E402
from repro.queries import WindowQuery, Workload, skewed_workload, window_workload  # noqa: E402
from repro.queries.ground_truth import answer  # noqa: E402
from repro.queries.workload import Trial  # noqa: E402
from repro.sim.fleet import run_fleet  # noqa: E402
from repro.sim.runner import execute_query  # noqa: E402
from repro.spatial import Rect  # noqa: E402


def _both_engines(**fleet_kwargs):
    """Run one fleet on the kernel and on the forced reference path."""
    out = {}
    for label, pure in (("kernel", "0"), ("reference", "1")):
        previous = os.environ.get("REPRO_PURE")
        os.environ["REPRO_PURE"] = pure
        try:
            out[label] = run_fleet(verify=True, **fleet_kwargs)
        finally:
            if previous is None:
                del os.environ["REPRO_PURE"]
            else:
                os.environ["REPRO_PURE"] = previous
    return out["kernel"], out["reference"]


def _report_divergence(kernel, reference) -> None:
    for label, result in (("kernel", kernel), ("reference", reference)):
        print(f"  {label:9s} backend={result.backend} accuracy={result.result.accuracy:.4f}"
              f" executions={result.n_executions}")
    diff = np.flatnonzero(
        (kernel.unique_latency != reference.unique_latency)
        | (kernel.unique_tuning != reference.unique_tuning)
    )
    print(f"  executions that differ: {len(diff)}")
    for i in diff[:8]:
        print(f"    execution {i}: kernel - reference = "
              f"{kernel.unique_latency[i] - reference.unique_latency[i]:+.0f} latency bytes, "
              f"{kernel.unique_tuning[i] - reference.unique_tuning[i]:+.0f} tuning bytes")


def scope_all() -> None:
    dataset = uniform_dataset(1500, seed=7)
    workload = window_workload(20, 0.1, seed=42)
    for channels in (1, 4):
        config = SystemConfig(n_channels=channels)
        index = build_index("dsi", dataset, config)
        result = run_fleet(
            index, dataset, config, workload, 100_000, seed=9, max_phases=64,
            error_theta=0.05, error_scope="all", error_seed=5, verify=True,
        )
        print(f"  {channels} channel(s): backend={result.backend} "
              f"accuracy={result.result.accuracy:.5f}")


def replicated_drop() -> None:
    dataset = uniform_dataset(1000, seed=7)
    config = SystemConfig(n_channels=4)
    workload = skewed_workload(8, zipf_s=1.1, seed=1)
    index = build_index("dsi", dataset, config)
    schedule = BroadcastSchedule.optimized(
        index.program, workload.bucket_demand(index, dataset), channels=4, budget=1.5
    )
    kernel, reference = _both_engines(
        index=index, dataset=dataset, config=config, workload=workload,
        n_clients=20_000, seed=1, max_phases=64, schedule=schedule,
    )
    _report_divergence(kernel, reference)
    view = schedule.view()
    cycle = view.cycle_packets
    for qid, trial in enumerate(workload):
        truth = {o.oid for o in answer(dataset, trial.query)}
        for phase in range(64):
            session = ClientSession(view, config, start_packet=(phase * cycle) // 64)
            got = {o.oid for o in execute_query(index, trial.query, session).objects}
            if got != truth:
                print(f"  reference planner, query {qid} phase {phase}: "
                      f"missing {sorted(truth - got)}, extra {sorted(got - truth)}")


def roadmap_example() -> None:
    dataset = uniform_dataset(72, seed=991)
    config = SystemConfig(packet_capacity=64, n_channels=1)
    workload = window_workload(4, 0.15, seed=1024)
    index = build_index("dsi", dataset, config)
    schedule = BroadcastSchedule.optimized(
        index.program, workload.bucket_demand(index, dataset), channels=1, budget=2.0
    )
    kernel, reference = _both_engines(
        index=index, dataset=dataset, config=config, workload=workload,
        n_clients=300, seed=0, max_phases=12, error_theta=0.12, error_seed=5,
        schedule=schedule,
    )
    _report_divergence(kernel, reference)


def flat_drop() -> None:
    dataset = uniform_dataset(10_000, seed=29379551)
    config = SystemConfig()
    index = build_index("dsi", dataset, config)
    query = WindowQuery(
        window=Rect(0.24038694409016503, 0.019923151274924236,
                    0.340386944090165, 0.11992315127492424),
        win_side_ratio=0.1,
    )
    schedule = BroadcastSchedule.for_config(index.program, config)
    cycle = schedule.view().cycle_packets
    start = 23676
    truth = {o.oid for o in answer(dataset, query)}
    session = ClientSession(schedule.view(), config, start_packet=start)
    got = {o.oid for o in execute_query(index, query, session).objects}
    print(f"  reference planner at packet {start}: missing {sorted(truth - got)},"
          f" extra {sorted(got - truth)}")
    kernel, reference = _both_engines(
        index=index, dataset=dataset, config=config,
        workload=Workload("one", [Trial(query, start / cycle)]),
        n_clients=1, tune_in=[start / cycle], max_phases=cycle,
    )
    _report_divergence(kernel, reference)


def index_errors() -> None:
    import workloads

    state = workloads.paper_scalar_setup(2)
    dataset, config = state["dataset"], state["config"]
    index = state["built"]["dsi"]
    view = BroadcastSchedule.for_config(index.program, config).view()
    cycle = view.cycle_packets
    # One error stream shared by the trials in order, as run_workload does.
    errors = LinkErrorModel(theta=workloads.PAPER_THETA, scope="index",
                            seed=state["error_seed"])
    for i, trial in enumerate(state["err_window"]):
        start = int(trial.tune_in_fraction * cycle) % cycle
        truth = {o.oid for o in answer(dataset, trial.query)}
        session = ClientSession(view, config, start_packet=start, error_model=errors)
        lossy = {o.oid for o in execute_query(index, trial.query, session).objects}
        clean = {o.oid for o in execute_query(
            index, trial.query, ClientSession(view, config, start_packet=start)).objects}
        if lossy != truth or clean != truth:
            print(f"  trial {i} at packet {start}: with {session.lost_reads} lost index reads"
                  f" missing {sorted(truth - lossy)}; lossless missing {sorted(truth - clean)}")


CASES = {
    "scope_all": scope_all,
    "replicated_drop": replicated_drop,
    "roadmap_example": roadmap_example,
    "flat_drop": flat_drop,
    "index_errors": index_errors,
}


def main(argv) -> int:
    names = argv or list(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        print(f"unknown case(s) {unknown}; choose from {list(CASES)}", file=sys.stderr)
        return 2
    for name in names:
        print(name)
        CASES[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
