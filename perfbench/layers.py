"""Outside-in layer tracing for the traced benchmark run.

:func:`instrumented` wraps the calls into each layer's public functions
for the duration of one pass and restores the originals afterwards; the
program itself is not edited.  Every wrapped call appends one span —
name, start, end, parent span, step id — to an in-memory list, written
out once at the end of the run as Chrome trace-event JSON (opens in
Perfetto).  A layer's self time is its spans' duration minus the time
covered by their direct children.

Work counts are taken from the step reports and op traces after the
pass, never from wrappers on hot recording paths: wrapping
``NodeTrace.record`` (hundreds of thousands of calls a pass) would cost
more than the work it counts.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.linalg.plan as plan_mod
import repro.serving.fleet as fleet_mod
import repro.solvers.isam2 as isam2_mod
from repro.core.ra_isam2 import RAISAM2
from repro.linalg.parallel import ParallelStepExecutor
from repro.pipeline import PricingStage
from repro.serving.fleet import SessionFleet
from repro.solvers.isam2 import PendingStep, PreparedRefactorize

#: (owner, attribute, layer, counter) for every wrapped call.  Module
#: functions are patched on the *importing* module, because callers
#: bind them by name at import time.  ``counter`` maps the call's
#: positional arguments to a work count added to the layer's tally.
PATCHES: Tuple[Tuple[object, str, str, Optional[Callable]], ...] = (
    (RAISAM2, "update", "update", None),
    (SessionFleet, "step", "round", None),
    (RAISAM2, "plan_selection", "selection", None),
    (SessionFleet, "_plan_relin", "selection", None),
    (isam2_mod, "linearize_many", "linearize", None),
    (fleet_mod, "linearize_many", "linearize", None),
    (fleet_mod, "linearize_fused", "linearize",
     lambda args: len(args[0])),
    (PendingStep, "prepare_solve", "symbolic", None),
    (PendingStep, "refactorize", "refactorize", None),
    (PreparedRefactorize, "__init__", "refactorize", None),
    (ParallelStepExecutor, "run_level", "refactorize", None),
    (PreparedRefactorize, "finish", "refactorize", None),
    (isam2_mod, "compile_node_plan", "plan.compile", None),
    (plan_mod, "factorize_front", "front", None),
    (PricingStage, "price", "pricing", None),
    (PendingStep, "finish", "backsolve", None),
)


class SpanRecorder:
    """In-memory span store; one recorder per traced pass."""

    def __init__(self):
        #: ``[name, start, end, parent_index, step]`` per span.
        self.spans: List[list] = []
        #: Calls and counted work per call site (``Owner.attr``).
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.step = 0
        self._stack: List[int] = []

    def set_step(self, step: int) -> None:
        """Tag the spans recorded from now on with ``step``."""
        self.step = step

    def wrap(self, name: str, site: str, fn: Callable,
             counter: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span per call; calls and work
        counts are tallied per call ``site``."""
        spans, stack, calls, work = (self.spans, self._stack, self.calls,
                                     self.work)
        perf = time.perf_counter
        recorder = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, recorder.step]
            stack.append(len(spans))
            spans.append(span)
            calls[site] += 1
            if counter is not None:
                work[site] += counter(args)
            span[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time: span durations minus direct children."""
        total: Dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return dict(total)

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete events)."""
        origin = min((span[1] for span in self.spans), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"name": name, "cat": "layer", "ph": "X", "pid": 1,
                 "tid": 1, "ts": 1e6 * (start - origin),
                 "dur": 1e6 * (end - start), "args": {"step": step}}
                for name, start, end, _, step in self.spans],
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every wrapper in :data:`PATCHES`; restore on exit."""
    saved = []
    try:
        for owner, attr, name, counter in PATCHES:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            site = f"{getattr(owner, '__name__', owner)}.{attr}"
            setattr(owner, attr,
                    recorder.wrap(name, site, original, counter))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(recorder: SpanRecorder, result) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (see the benchmark README).

    ``result`` is the pass's :class:`~workloads.PassResult`; "per step"
    means per session-step on the fleet.  ``tracing.overhead_ratio`` is
    filled in by the caller, which also times untraced passes.
    """
    steps = max(1, result.steps)
    self_s = recorder.self_seconds()

    def ms(layer: str) -> float:
        return 1e3 * self_s.get(layer, 0.0) / steps

    totals: Counter = Counter()
    for report in result.reports:
        for key in ("lin_batched_factors", "lin_fallback_factors",
                    "plan_hits", "plan_misses", "plan_compiles",
                    "backsub_nodes"):
            totals[key] += report.extras.get(key, 0.0)
        totals["visits"] += report.selection_visits
        totals["columns"] += report.affected_columns
        totals["nodes"] += report.refactored_nodes
        if report.trace is not None:
            for node_trace in [*report.trace.nodes.values(),
                               report.trace.loose]:
                totals["ops"] += node_trace.num_ops
                totals["flops"] += node_trace.flops
    factors = totals["lin_batched_factors"] + totals["lin_fallback_factors"]
    lookups = totals["plan_hits"] + totals["plan_misses"]
    calls, work = recorder.calls, recorder.work
    fused = "repro.serving.fleet.linearize_fused"
    aggregates = result.fleet_aggregates
    return {
        "step.ms_per_step": 1e3 * result.wall_s / steps,
        "selection.ms_per_step": ms("selection"),
        "selection.visits_per_step": totals["visits"] / steps,
        "linearize.ms_per_step": ms("linearize"),
        "linearize.factors_per_step": factors / steps,
        "linearize.fallback_ratio": _ratio(
            totals["lin_fallback_factors"], factors),
        "symbolic.ms_per_step": ms("symbolic"),
        "symbolic.columns_per_step": totals["columns"] / steps,
        "refactorize.ms_per_step": ms("refactorize"),
        "refactorize.nodes_per_step": totals["nodes"] / steps,
        "plan.hit_ratio": _ratio(totals["plan_hits"], lookups),
        "plan.compile_ms_per_step": ms("plan.compile"),
        "plan.compiles_per_step": totals["plan_compiles"] / steps,
        "front.ms_per_step": ms("front"),
        "front.calls_per_step":
            calls["repro.linalg.plan.factorize_front"] / steps,
        "trace.ops_per_step": totals["ops"] / steps,
        "trace.mflop_per_step": 1e-6 * totals["flops"] / steps,
        "pricing.ms_per_step": ms("pricing"),
        "backsolve.ms_per_step": ms("backsolve"),
        "backsolve.nodes_per_step": totals["backsub_nodes"] / steps,
        "fleet.fused_sessions_per_call": _ratio(work[fused], calls[fused]),
        "fleet.level_dispatches_per_round": _ratio(
            calls["ParallelStepExecutor.run_level"], result.rounds),
        "fleet.shed_relin_total": aggregates.get("shed_relin_total", 0.0),
        "fleet.plan_deep_compares": aggregates.get(
            "fleet_plan_deep_compares", 0.0),
    }
