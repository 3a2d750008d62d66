"""The benchmark's two workloads: inputs, one timed pass, output checks.

Every workload is a closed loop with one client: the next step is sent
only after the previous one returned.  A pass is split in two:

* :func:`prepare` builds everything the timed region needs — inputs
  generated from the pass seed, the platform and solver (or fleet), and
  a warm-up over a short prefix generated from a *different* seed on a
  throw-away solver — then runs ``gc.collect()``.  Its wall time is the
  pass's set-up time.
* ``run()`` times the pass step by step and then, outside the timed
  region, checks the outputs.

:func:`guard` computes the deterministic figures (simulated latency,
final RMSE) on a fixed input, untimed.

Input seeds: pass ``p`` of a run with seed ``s`` streams inputs made
from ``pass_seed(s, p)``; pass 0 is the named seed itself.  No input is
ever replayed within one process, so an input-keyed memo cannot get
hits a user streaming a dataset once would never get.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import RAISAM2
from repro.datasets import long_term_revisit_dataset, sphere_dataset
from repro.datasets.pose_graph import PoseGraphDataset
from repro.experiments.common import TARGET_SECONDS
from repro.hardware.registry import make_platform
from repro.metrics.ape import translation_errors
from repro.pipeline import BackendPipeline, PipelineStage, PricingStage
from repro.runtime import NodeCostModel
from repro.serving.bench import compare_snapshots, default_solver_factory, \
    run_isolated, snapshot_estimate
from repro.serving.fleet import FleetConfig, SessionFleet

#: Platform every solo workload budgets against and is priced on.
PLATFORM = "SuperNoVA2S"
#: Steps of the warm-up prefix (solo) / rounds of the warm-up fleet.
WARMUP_STEPS = 20
#: Fleet shape: sessions x steps of the long-term-revisit generator.
FLEET_SESSIONS = 16
FLEET_STEPS = 120
#: Sessions per pass re-run in isolation for the bit-identity check.
FLEET_CHECKED_SESSIONS = 2
#: The fleet guard's sessions: serve-bench's session seeds.
GUARD_FLEET_SEED = 1_000_003
GUARD_FLEET_SESSIONS = 2

_PASS_STRIDE = 7919          # distance between the seeds of two passes
_WARMUP_OFFSET = 3001        # warm-up seed offset (never a pass seed)


def pass_seed(seed: int, pass_index: int) -> int:
    """Input seed of timed pass ``pass_index`` of a run with ``seed``
    (reduced to the generators' non-negative 32-bit range)."""
    return (seed + _PASS_STRIDE * pass_index) % 2 ** 32


def warmup_seed(seed: int, pass_index: int) -> int:
    """Seed of the warm-up prefix that precedes that pass."""
    return pass_seed(seed, pass_index) + _WARMUP_OFFSET


@dataclass(frozen=True)
class SoloSpec:
    """One RA-ISAM2 stream, traced and priced every step (Fig. 10 path).

    ``target_seconds`` is the experiments' scaled deadline,
    ``TARGET_SECONDS * scale`` (what ``target_for`` gives at the
    default scale).  ``guard_seed`` is the generator's default seed,
    the input every committed experiment streams.
    """

    dataset: Callable[..., PoseGraphDataset]
    scale: float
    ordering: str
    guard_seed: int

    @property
    def target_seconds(self) -> float:
        return TARGET_SECONDS * self.scale


SOLO = {
    "sphere-chrono": SoloSpec(sphere_dataset, 0.09, "chronological", 7),
}
FLEET = ("fleet-revisit",)
WORKLOADS = tuple(SOLO) + FLEET


@dataclass
class PassResult:
    """What one timed pass measured and what its checks found."""

    workload: str
    seed: int
    setup_s: float
    wall_s: float = 0.0
    #: Host latency of every completed step (solo) or round (fleet).
    latencies_s: List[float] = field(default_factory=list)
    steps: int = 0                 # steps / session-steps completed
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    sim_ms_per_step: Optional[float] = None
    final_rmse_m: float = float("nan")
    reports: list = field(default_factory=list)
    rounds: int = 0
    fleet_aggregates: Dict[str, float] = field(default_factory=dict)


def rmse_against_truth(estimate, data: PoseGraphDataset) -> float:
    """Translation RMSE of an estimate against the dataset's truth."""
    keys = [k for k in estimate.keys() if k in data.ground_truth]
    errors = translation_errors(estimate, data.ground_truth, keys)
    return float(np.sqrt(np.mean(errors ** 2))) if errors.size \
        else float("nan")


# -- solo workloads ---------------------------------------------------------


class _StepClock(PipelineStage):
    """Last pipeline stage: stamps the end of every step.

    A step's host latency is the gap between consecutive stamps — the
    solver update, its op trace and its pricing — with the first step
    measured from the start of the pass.
    """

    def __init__(self, on_step: Optional[Callable[[int], None]] = None):
        self.start = 0.0
        self.stamps: List[float] = []
        self.run = None
        self._on_step = on_step

    def on_step(self, pipeline, ctx, report, run) -> None:
        self.stamps.append(time.perf_counter())
        self.run = run
        if self._on_step is not None:
            self._on_step(len(self.stamps))


def _solo_solver(spec: SoloSpec):
    soc = make_platform(PLATFORM)
    solver = RAISAM2(NodeCostModel(soc),
                     target_seconds=spec.target_seconds,
                     ordering=spec.ordering, workers=1)
    return solver, soc


class PreparedSolo:
    """Inputs, solver and platform of one solo pass, warmed up unless
    ``warm_seed`` is None."""

    def __init__(self, name: str, seed: int, warm_seed: Optional[int],
                 steps: Optional[int] = None):
        start = time.perf_counter()
        self.name = name
        self.spec = spec = SOLO[name]
        self.seed = seed
        if warm_seed is not None:
            warm = spec.dataset(scale=spec.scale, seed=warm_seed)
            warm_solver, warm_soc = _solo_solver(spec)
            BackendPipeline(warm_solver, stages=[PricingStage(warm_soc)],
                            collect_traces=True).run(
                warm.truncated(WARMUP_STEPS))
            del warm, warm_solver, warm_soc
        self.data = spec.dataset(scale=spec.scale, seed=seed)
        if steps is not None:
            self.data = self.data.truncated(steps)
        self.solver, self.soc = _solo_solver(spec)
        gc.collect()
        self.setup_s = time.perf_counter() - start

    def run(self, on_step: Optional[Callable[[int], None]] = None,
            ) -> PassResult:
        """Time one pass, then check it (checks are not timed)."""
        data = self.data
        result = PassResult(self.name, self.seed, self.setup_s,
                            attempted=data.num_steps)
        clock = _StepClock(on_step)
        pipeline = BackendPipeline(
            self.solver, stages=[PricingStage(self.soc), clock],
            collect_traces=True)
        clock.start = time.perf_counter()
        try:
            pipeline.run(data)
        except Exception as exc:  # a raising step fails the rest
            result.errors.append(f"step {len(clock.stamps)}: {exc!r}")
        result.wall_s = ((clock.stamps[-1] if clock.stamps
                          else time.perf_counter()) - clock.start)
        stamps = [clock.start] + clock.stamps
        result.latencies_s = [b - a for a, b in zip(stamps, stamps[1:])]
        run = clock.run
        reports = run.reports if run is not None else []
        latencies = run.latencies if run is not None else []
        result.reports = reports
        result.steps = len(clock.stamps)
        self._check(result, reports, latencies)
        return result

    def _check(self, result: PassResult, reports, latencies) -> None:
        bad = result.attempted - result.steps
        if len(reports) != result.steps or len(latencies) != result.steps:
            result.errors.append(
                f"{len(reports)} reports / {len(latencies)} latencies "
                f"for {result.steps} steps")
            bad += result.steps
        else:
            for report, lat in zip(reports, latencies):
                extras = report.extras
                ok = (math.isfinite(lat.total) and lat.total >= 0.0
                      and extras.get("plan_compiles")
                      == extras.get("plan_misses"))
                if not ok:
                    bad += 1
                    if len(result.errors) < 8:
                        result.errors.append(
                            f"step {report.step}: latency {lat.total!r}, "
                            f"compiles {extras.get('plan_compiles')} vs "
                            f"misses {extras.get('plan_misses')}")
        if latencies:
            result.sim_ms_per_step = 1e3 * float(
                np.mean([lat.total for lat in latencies]))
        result.final_rmse_m = rmse_against_truth(self.solver.estimate(),
                                                 self.data)
        if not math.isfinite(result.final_rmse_m):
            result.errors.append(f"final RMSE {result.final_rmse_m!r}")
            bad = max(bad, 1)
        result.failed = min(bad, result.attempted)


# -- fleet workload ---------------------------------------------------------


def fleet_sessions(base_seed: int, num_sessions: int = FLEET_SESSIONS,
                   num_steps: int = FLEET_STEPS) -> List[PoseGraphDataset]:
    """Per-session long-term-revisit datasets, session ``s`` seeded
    ``base_seed + s``, with serve-bench's revisit parameters."""
    laps = min(6, max(2, num_steps // 10))
    return [long_term_revisit_dataset(scale=num_steps / 300.0,
                                      seed=base_seed + s,
                                      laps=laps).truncated(num_steps)
            for s in range(num_sessions)]


def _fleet(num_sessions: int, factory) -> SessionFleet:
    fleet = SessionFleet(FleetConfig(workers=1, degrade=True,
                                     collect_traces=False))
    for sid in range(num_sessions):
        fleet.add_session(str(sid), factory())
    return fleet


def _round_inputs(datasets: List[PoseGraphDataset]) -> List[Dict]:
    rounds = max(data.num_steps for data in datasets)
    out = []
    for t in range(rounds):
        inputs = {}
        for sid, data in enumerate(datasets):
            if t < data.num_steps:
                step = data.steps[t]
                inputs[str(sid)] = ({step.key: step.guess}, step.factors)
        out.append(inputs)
    return out


class PreparedFleet:
    """Sessions and fleet of one fleet pass, warmed up on a small fleet
    of other sessions."""

    def __init__(self, name: str, seed: int, warm_seed: int,
                 pass_index: int, steps: Optional[int] = None):
        start = time.perf_counter()
        self.name = name
        self.pass_index = pass_index
        self.seed = seed
        self.factory = default_solver_factory(workers=1)
        warm = fleet_sessions(warm_seed, num_steps=WARMUP_STEPS)
        warm_fleet = _fleet(len(warm), self.factory)
        for inputs in _round_inputs(warm):
            warm_fleet.step(inputs)
        self.datasets = fleet_sessions(self.seed,
                                       num_steps=steps or FLEET_STEPS)
        self.rounds = _round_inputs(self.datasets)
        self.fleet = _fleet(len(self.datasets), self.factory)
        del warm, warm_fleet
        gc.collect()
        self.setup_s = time.perf_counter() - start

    def run(self, on_step: Optional[Callable[[int], None]] = None,
            ) -> PassResult:
        fleet = self.fleet
        result = PassResult(self.name, self.seed, self.setup_s,
                            attempted=sum(d.num_steps
                                          for d in self.datasets))
        perf = time.perf_counter
        begin = perf()
        try:
            for t, inputs in enumerate(self.rounds):
                if on_step is not None:
                    on_step(t)
                start = perf()
                fleet.step(inputs)
                result.latencies_s.append(perf() - start)
        except Exception as exc:
            result.errors.append(
                f"round {len(result.latencies_s)}: {exc!r}")
        result.wall_s = perf() - begin
        result.rounds = len(result.latencies_s)
        self._check(result)
        return result

    def _check(self, result: PassResult) -> None:
        fleet = self.fleet
        handles = [fleet.sessions[str(s)] for s in range(len(self.datasets))]
        result.steps = sum(h.steps_completed for h in handles)
        result.reports = [r for h in handles for r in h.reports]
        result.fleet_aggregates = fleet.aggregates()
        failed = result.attempted - result.steps
        for h in handles:
            if not h.alive:
                result.errors.append(f"session {h.session_id} died: "
                                     f"{h.error!r}")
        shed = [r for r in result.reports
                if r.extras.get("shed_relin_count", 0.0) > 0.0]
        if shed:
            result.errors.append(f"{len(shed)} session-steps shed "
                                 "relinearization")
            failed += len(shed)
        # Outside the timed region: a rotating subset of sessions must
        # be bit-identical (atol 0) to the same sessions run alone.
        checked = sorted({(self.pass_index + k * FLEET_SESSIONS
                           // FLEET_CHECKED_SESSIONS) % len(handles)
                          for k in range(FLEET_CHECKED_SESSIONS)})
        alive = [s for s in checked if handles[s].alive]
        isolated = run_isolated([self.datasets[s].steps for s in alive],
                                self.factory)
        for i, s in enumerate(alive):
            try:
                compare_snapshots(
                    {0: snapshot_estimate(handles[s].solver)},
                    {0: isolated.snapshots[i]})
            except AssertionError as exc:
                result.errors.append(f"session {s} differs from its "
                                     f"isolated run: {exc}")
                failed += handles[s].steps_completed
        rmses = [rmse_against_truth(h.solver.estimate(), data)
                 for h, data in zip(handles, self.datasets) if h.alive]
        result.final_rmse_m = float(np.mean(rmses)) if rmses \
            else float("nan")
        if not math.isfinite(result.final_rmse_m):
            result.errors.append(f"final RMSE {result.final_rmse_m!r}")
            failed = max(failed, 1)
        result.failed = min(failed, result.attempted)


def prepare(name: str, seed: int, pass_index: int,
            steps: Optional[int] = None):
    """Set up timed pass ``pass_index`` of workload ``name``; ``steps``
    cuts every stream to a prefix (tests)."""
    timed, warm = pass_seed(seed, pass_index), warmup_seed(seed, pass_index)
    if name in SOLO:
        return PreparedSolo(name, timed, warm, steps)
    if name in FLEET:
        return PreparedFleet(name, timed, warm, pass_index, steps)
    raise ValueError(f"unknown workload {name!r}; "
                     f"expected one of {', '.join(WORKLOADS)}")


# -- accuracy guard ---------------------------------------------------------


def guard(name: str, steps: Optional[int] = None) -> PassResult:
    """Deterministic figures on the workload's canonical input.

    The timed inputs change with ``--seed``, and so would a simulated
    latency or an RMSE taken from them (one Sphere trajectory's RMSE
    moves by 3x between seeds).  ``sim_ms_per_step`` and
    ``final_rmse_m`` are therefore taken from one fixed input — the
    experiments' own dataset seed for the solo workloads, serve-bench's
    session seeds for the fleet — so they repeat bit for bit and move
    only when the program's results change.  Runs untimed, after every
    timed pass, so it never warms a timed input.
    """
    if name in SOLO:
        return PreparedSolo(name, SOLO[name].guard_seed, None, steps).run()
    datasets = fleet_sessions(GUARD_FLEET_SEED, GUARD_FLEET_SESSIONS,
                              steps or FLEET_STEPS)
    result = PassResult(name, GUARD_FLEET_SEED, 0.0,
                        attempted=sum(d.num_steps for d in datasets))
    fleet = SessionFleet(FleetConfig(workers=1, degrade=False,
                                     collect_traces=True))
    factory = default_solver_factory(workers=1)
    for sid in range(len(datasets)):
        fleet.add_session(str(sid), factory())
    pricing = PricingStage(make_platform(PLATFORM))
    totals = []
    for inputs in _round_inputs(datasets):
        for report in fleet.step(inputs).values():
            totals.append(pricing.price(report).total)
    result.steps = len(totals)
    bad = [t for t in totals if not (math.isfinite(t) and t >= 0.0)]
    if bad:
        result.errors.append(f"guard latencies {bad[:4]!r}")
    result.sim_ms_per_step = 1e3 * float(np.mean(totals)) if totals \
        else None
    handles = [fleet.sessions[str(s)] for s in range(len(datasets))]
    result.final_rmse_m = float(np.mean([
        rmse_against_truth(h.solver.estimate(), data)
        for h, data in zip(handles, datasets)]))
    if not math.isfinite(result.final_rmse_m):
        result.errors.append(f"guard RMSE {result.final_rmse_m!r}")
    result.failed = min(result.attempted,
                        result.attempted - result.steps + len(bad)
                        + (0 if math.isfinite(result.final_rmse_m) else 1))
    return result
