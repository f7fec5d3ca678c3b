"""The benchmark's workloads: generated inputs, set-up, timed phase, legs.

Every workload is a batch of independent simulated clients.  ``setup``
draws the inputs from the workload seed and builds the indexes (the build
cache is cleared by the caller first, so builds are cold); ``run`` makes
the timed calls into the program's public entry points and returns one
:class:`Leg` per checked call.  The program sees only generated inputs.

A *leg* carries its accounting: how many answers it produced, how many the
program's oracle check (``verify=True``, against
:mod:`repro.queries.ground_truth`) found right and wrong, how many searches
hit the kNN planner's safety cap, and which engine ran it.  Wrong or
capped answers are counted as failed operations, never raised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.api import experiment, registry
from repro.broadcast.config import SystemConfig
from repro.broadcast.schedule import BroadcastSchedule
from repro.mobility import trajectory
from repro.queries import ground_truth
from repro.queries import workload as qwork
from repro.queries.types import KnnQuery, WindowQuery
from repro.sim import fleet
from repro.sim import runner
from repro.spatial import datasets
from repro.spatial.geometry import Point

#: Engines a leg may report.  Kernel legs must stay on the numpy kernels (a
#: fall-back to the reference path is a silent decline).  The decline leg
#: runs on the reference path today; a later kernel that closes the decline
#: may take it.
KERNEL = ("numpy",)
ANY_ENGINE = ("numpy", "reference")
SCALAR = ("scalar",)

INDEXES = ("dsi", "rtree", "hci")


@dataclass
class Leg:
    """One checked call into the program and its accounting."""

    name: str
    backend: str
    accepted_backends: Tuple[str, ...]
    clients: int
    executions: int
    answers: int           # answers produced: trials, clients or journey hops
    correct: int           # answers the oracle check accepted
    incorrect: int         # answers the oracle check rejected
    capped: int            # searches cut short by the kNN planner's safety cap
    capped_correct: int    # of those, answers the oracle check accepted
    latency_mean: float    # mean access latency per answer, bytes
    tuning_mean: float     # mean tuning time per answer, bytes

    @property
    def failed(self) -> int:
        return self.incorrect + self.capped_correct

    def fingerprint(self) -> Tuple[Any, ...]:
        return (
            self.name, self.backend, self.clients, self.executions, self.answers,
            self.correct, self.incorrect, self.capped, self.capped_correct,
            repr(self.latency_mean), repr(self.tuning_mean),
        )


@dataclass
class Outcome:
    legs: List[Leg]
    #: Seconds spent in ``BroadcastSchedule.optimized`` (timed from here).
    optimize_s: float = 0.0


def _seeds(seed: int, n: int) -> List[int]:
    """``n`` independent sub-seeds of the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _stratified_trials(n: int, seed: int, make_query) -> List[qwork.Trial]:
    """``n`` trials whose query points and tune-in fractions form a Latin
    hypercube over the unit square and the cycle: one point per ``1/n``
    stripe of each axis.  Each trial is still uniform on its own, but the
    batch cannot bunch up -- and planner cost follows position closely
    (R-tree kNN time correlates 0.93 with the query's y at 10,000
    objects), so an i.i.d. batch would make the run's cost swing with
    the seed."""
    rng = np.random.default_rng(seed)
    x, y, frac = ((rng.permutation(n) + rng.random(n)) / n for _ in range(3))
    return [
        qwork.Trial(query=make_query(Point(float(px), float(py))), tune_in_fraction=float(f))
        for px, py, f in zip(x, y, frac)
    ]


def window_workload(n: int, ratio: float, seed: int) -> qwork.Workload:
    """Stratified window queries of side ``ratio`` (see
    :func:`_stratified_trials`)."""
    trials = _stratified_trials(n, seed, lambda p: WindowQuery.centered(p, ratio))
    return qwork.Workload(name=f"window-r{ratio}", trials=trials, seed=seed)


def knn_workload(n: int, k: int, seed: int) -> qwork.Workload:
    """Stratified ``k``-nearest-neighbour queries (see
    :func:`_stratified_trials`)."""
    trials = _stratified_trials(n, seed, lambda p: KnnQuery(point=p, k=k))
    return qwork.Workload(name=f"knn-k{k}", trials=trials, seed=seed)


def _fleet_leg(name: str, result: Any, accepted: Tuple[str, ...], steps: int = 1) -> Leg:
    """A leg from a (mobile) fleet result: population-weighted accounting.

    A capped execution may stand for several clients, but the result only
    says how many executions were capped; each is counted as one failed
    answer.  The kernels decline cap-bound lanes, so kernel legs report 0.
    """
    answers = result.n_clients * steps
    capped = int(result.capped_executions)
    return Leg(
        name=name,
        backend=result.backend,
        accepted_backends=accepted,
        clients=result.n_clients,
        executions=result.n_executions,
        answers=answers,
        correct=result.result.correct_trials,
        incorrect=result.result.incorrect_trials,
        capped=capped,
        capped_correct=min(capped, result.result.correct_trials),
        latency_mean=result.exact_mean("latency") / steps,
        tuning_mean=result.exact_mean("tuning") / steps,
    )


# ---------------------------------------------------------------------------
# paper_scalar: the paper's figure path (scalar planners, per-trial sessions)
# ---------------------------------------------------------------------------

PAPER_OBJECTS = 10_000      # the paper's UNIFORM dataset size
PAPER_QUERIES = 30          # windows and kNN queries per index
PAPER_ERROR_QUERIES = 10    # windows and kNN queries per index, lossy leg
PAPER_THETA = 0.1           # Table 1 link-error ratio of the lossy leg


def paper_scalar_setup(seed: int) -> Dict[str, Any]:
    s_data, s_win, s_knn, s_ewin, s_eknn, s_err = _seeds(seed, 6)
    dataset = datasets.uniform_dataset(PAPER_OBJECTS, seed=s_data)
    config = SystemConfig()
    built = {kind: registry.build_index(kind, dataset, config, use_cache=True) for kind in INDEXES}
    return {
        "dataset": dataset,
        "config": config,
        "built": built,
        "window": window_workload(PAPER_QUERIES, 0.1, s_win),
        "knn": knn_workload(PAPER_QUERIES, 10, s_knn),
        "err_window": window_workload(PAPER_ERROR_QUERIES, 0.1, s_ewin),
        "err_knn": knn_workload(PAPER_ERROR_QUERIES, 10, s_eknn),
        "error_seed": s_err % (1 << 31),
    }


class _CapTap:
    """Records trials whose search was capped (``iterations_capped``).

    ``run_workload`` keeps only the oracle verdict, not the planner's cap
    flag, so the figure path's per-trial dispatch is tapped for it.  The
    tap is installed in the untraced run as well: it reads one attribute
    per trial.
    """

    def __init__(self) -> None:
        #: (index, query, answer objects) per capped trial.
        self.capped: List[Tuple[Any, Any, Any]] = []

    def __enter__(self):
        original = runner.execute_query
        capped = self.capped

        def tapped(index, query, session, *args, **kwargs):
            outcome = original(index, query, session, *args, **kwargs)
            if getattr(outcome, "iterations_capped", False):
                capped.append((index, query, list(outcome.objects)))
            return outcome

        self._original = original
        runner.execute_query = tapped
        return self

    def __exit__(self, *exc) -> None:
        runner.execute_query = self._original


def paper_scalar_run(state: Dict[str, Any], tracer: Any) -> Outcome:
    dataset, config = state["dataset"], state["config"]
    with _CapTap() as tap:
        with tracer.span("leg.lossless"):
            lossless = (
                experiment.Experiment(dataset)
                .config(config)
                .indexes(*INDEXES)
                .workload(state["window"], label="window")
                .workload(state["knn"], label="knn")
                .verify(True)
                .run(processes=1)
            )
        with tracer.span("leg.lossy"):
            lossy = (
                experiment.Experiment(dataset)
                .config(config)
                .indexes(*INDEXES)
                .workload(state["err_window"], label="window")
                .workload(state["err_knn"], label="knn")
                .errors(theta=PAPER_THETA, scope="index", seed=state["error_seed"])
                .verify(True)
                .run(processes=1)
            )
    # Capped answers are re-checked against the oracle (only they are, and
    # none were seen at this size): a capped search that still answered
    # right counts as failed, a wrong one is already counted by the run.
    capped: Dict[Tuple[int, int], List[int]] = {}
    for index, query, objects in tap.capped:
        entry = capped.setdefault((id(index), id(query)), [0, 0])
        entry[0] += 1
        entry[1] += int(ground_truth.matches(dataset, query, objects))
    legs = []
    for prefix, run, workloads in (
        ("lossless", lossless, {"window": state["window"], "knn": state["knn"]}),
        ("lossy", lossy, {"window": state["err_window"], "knn": state["err_knn"]}),
    ):
        for record in run.points[0].records:
            result = record.result
            trials = workloads[record.workload].trials
            index_id = id(state["built"][record.spec.kind])
            caps = [capped.get((index_id, id(t.query)), [0, 0]) for t in trials]
            legs.append(Leg(
                name=f"{prefix}.{record.workload}.{record.spec.kind}",
                backend="scalar",
                accepted_backends=SCALAR,
                clients=len(trials),
                executions=len(trials),
                answers=len(trials),
                correct=result.correct_trials,
                incorrect=result.incorrect_trials,
                capped=sum(c[0] for c in caps),
                capped_correct=sum(c[1] for c in caps),
                latency_mean=result.mean_latency_bytes,
                tuning_mean=result.mean_tuning_bytes,
            ))
    return Outcome(legs=legs)


# ---------------------------------------------------------------------------
# fleet_population: population fleets on flat schedules
# ---------------------------------------------------------------------------

FLEET_OBJECTS = 1_000
FLEET_QUERIES = 20
FLEET_CLIENTS = 100_000
FLEET_THETA_INDEX = 0.1
FLEET_THETA_ALL = 0.05
FLEET_ALL_PHASES = 64


def fleet_population_setup(seed: int) -> Dict[str, Any]:
    s_data, s_win, s_knn, s_fleet, s_err = _seeds(seed, 5)
    dataset = datasets.uniform_dataset(FLEET_OBJECTS, seed=s_data)
    configs = {n: SystemConfig(n_channels=n) for n in (1, 4)}
    # Channel topology slices the air layout after the build, so the 4-channel
    # config shares the 1-channel builds.
    built = {
        (kind, n): registry.build_index(kind, dataset, configs[n], use_cache=True)
        for kind in INDEXES
        for n in (1, 4)
    }
    return {
        "dataset": dataset,
        "configs": configs,
        "built": built,
        "window": window_workload(FLEET_QUERIES, 0.1, s_win),
        "knn": knn_workload(FLEET_QUERIES, 10, s_knn),
        "fleet_seed": s_fleet % (1 << 31),
        "error_seed": s_err % (1 << 31),
    }


def fleet_population_run(state: Dict[str, Any], tracer: Any) -> Outcome:
    dataset, configs, built = state["dataset"], state["configs"], state["built"]
    seed, err_seed = state["fleet_seed"], state["error_seed"]
    legs = []

    def leg(name: str, accepted: Tuple[str, ...], kind: str, n_ch: int, workload, **kw) -> None:
        with tracer.span("leg." + name):
            result = fleet.run_fleet(
                built[kind, n_ch], dataset, configs[n_ch], workload, FLEET_CLIENTS,
                seed=seed, verify=True, **kw,
            )
        legs.append(_fleet_leg(name, result, accepted))

    for n_ch in (1, 4):
        for kind in INDEXES:
            leg(f"window.{kind}.{n_ch}ch", KERNEL, kind, n_ch, state["window"])
    leg("knn.dsi.4ch", KERNEL, "dsi", 4, state["knn"])
    leg("window.dsi.1ch.index_errors", KERNEL, "dsi", 1, state["window"],
        error_theta=FLEET_THETA_INDEX, error_scope="index", error_seed=err_seed)
    leg("window.dsi.1ch.all_errors", ANY_ENGINE, "dsi", 1, state["window"],
        error_theta=FLEET_THETA_ALL, error_scope="all", error_seed=err_seed,
        max_phases=FLEET_ALL_PHASES)
    return Outcome(legs=legs)


# ---------------------------------------------------------------------------
# hotspot_adaptive: demand-aware schedules, replicated and warm lanes
# ---------------------------------------------------------------------------

HOT_OBJECTS = 400
HOT_QUERIES = 64
HOT_CLIENTS = 100_000
HOT_CHANNELS = 4
HOT_WINDOW_JOURNEYS = 64
HOT_KNN_JOURNEYS = 64
HOT_STEPS = 5
HOT_JOURNEY_PHASES = 32


def hotspot_adaptive_setup(seed: int) -> Dict[str, Any]:
    s_data, s_hot, s_win_j, s_knn_j, s_fleet = _seeds(seed, 5)
    dataset = datasets.uniform_dataset(HOT_OBJECTS, seed=s_data)
    config = SystemConfig(n_channels=HOT_CHANNELS)
    built = {kind: registry.build_index(kind, dataset, config, use_cache=True) for kind in INDEXES}
    return {
        "dataset": dataset,
        "config": config,
        "built": built,
        "hot": qwork.skewed_workload(HOT_QUERIES, zipf_s=1.1, seed=s_hot),
        "window_journeys": trajectory.trajectory_workload(
            HOT_WINDOW_JOURNEYS, HOT_STEPS, query="window", seed=s_win_j
        ),
        "knn_journeys": trajectory.trajectory_workload(
            HOT_KNN_JOURNEYS, HOT_STEPS, query="knn", seed=s_knn_j
        ),
        "fleet_seed": s_fleet % (1 << 31),
    }


def hotspot_adaptive_run(state: Dict[str, Any], tracer: Any) -> Outcome:
    dataset, config, built = state["dataset"], state["config"], state["built"]
    hot, seed = state["hot"], state["fleet_seed"]
    legs = []
    optimize_s = 0.0
    schedules = {}
    for kind in INDEXES:
        index = built[kind]
        with tracer.span("leg.optimize." + kind):
            demand = hot.bucket_demand(index, dataset)
            t0 = time.perf_counter()
            schedules[kind] = BroadcastSchedule.optimized(
                index.program, demand, channels=HOT_CHANNELS
            )
            optimize_s += time.perf_counter() - t0
        with tracer.span("leg.replicated." + kind):
            result = fleet.run_fleet(
                index, dataset, config, hot, HOT_CLIENTS, seed=seed, verify=True,
                schedule=schedules[kind],
            )
        legs.append(_fleet_leg(f"replicated.{kind}", result, KERNEL))
    for query in ("window", "knn"):
        journeys = state[query + "_journeys"]
        with tracer.span(f"leg.journeys.{query}"):
            result = fleet.run_mobile_fleet(
                built["dsi"], dataset, config, journeys, HOT_CLIENTS, seed=seed,
                verify=True, schedule=schedules["dsi"], max_phases=HOT_JOURNEY_PHASES,
            )
        legs.append(_fleet_leg(f"journeys.{query}.dsi", result, KERNEL, steps=HOT_STEPS))
    return Outcome(legs=legs, optimize_s=optimize_s)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Dict[str, Any]]
    run: Callable[[Dict[str, Any], Any], Outcome]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_scalar", paper_scalar_setup, paper_scalar_run),
        Workload("fleet_population", fleet_population_setup, fleet_population_run),
        Workload("hotspot_adaptive", hotspot_adaptive_setup, hotspot_adaptive_run),
    )
}
