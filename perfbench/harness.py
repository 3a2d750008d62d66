"""Pass loop, metric aggregation and the result line of the benchmark."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

import layers
import workloads

#: Metric units; the end-to-end set is printed with ``--trace 0``, the
#: per-layer set with ``--trace 1`` (BENCHMARK.json lists the same).
END_TO_END_UNITS = {
    "steps_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_ms_per_step": "sim_ms",
    "final_rmse_m": "m",
}
PER_LAYER_UNITS = {
    "step.ms_per_step": "ms",
    "selection.ms_per_step": "ms",
    "selection.visits_per_step": "count",
    "linearize.ms_per_step": "ms",
    "linearize.factors_per_step": "count",
    "linearize.fallback_ratio": "ratio",
    "symbolic.ms_per_step": "ms",
    "symbolic.columns_per_step": "count",
    "refactorize.ms_per_step": "ms",
    "refactorize.nodes_per_step": "count",
    "plan.hit_ratio": "ratio",
    "plan.compile_ms_per_step": "ms",
    "plan.compiles_per_step": "count",
    "front.ms_per_step": "ms",
    "front.calls_per_step": "count",
    "trace.ops_per_step": "count",
    "trace.mflop_per_step": "Mflop",
    "pricing.ms_per_step": "ms",
    "backsolve.ms_per_step": "ms",
    "backsolve.nodes_per_step": "count",
    "fleet.fused_sessions_per_call": "count",
    "fleet.level_dispatches_per_round": "count",
    "fleet.shed_relin_total": "count",
    "fleet.plan_deep_compares": "count",
    "tracing.overhead_ratio": "ratio",
}

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _blas_threads() -> List[Tuple[str, int]]:
    """(library, thread count) of every OpenBLAS loaded in the process."""
    found = []
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "openblas" in line.lower() and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found.append((os.path.basename(path), int(getter())))
                break
    return found


def environment() -> Dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned": {k: os.environ.get(k) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "PYTHONHASHSEED")},
    }


def end_to_end(passes, guard) -> Dict[str, float]:
    """Host timings over every timed pass of the run; deterministic
    figures from the guard run.

    Each pass streams a different input, so the figures average over
    inputs as well as over machine noise.  Throughput and the latency
    percentiles are taken over all passes pooled: every step counts
    once, whichever input it came from, and p90 has enough samples
    beyond it on every workload.  (The median of per-pass rates spread
    more between runs, because one input can take twice as long as
    another.)
    """
    latencies_ms = 1e3 * np.concatenate([r.latencies_s for r in passes])
    return {
        "steps_per_s": (sum(r.steps for r in passes)
                        / sum(r.wall_s for r in passes)),
        "step_p50_ms": float(np.percentile(latencies_ms, 50)),
        "step_p90_ms": float(np.percentile(latencies_ms, 90)),
        "setup_s": statistics.median(r.setup_s for r in passes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_ms_per_step": guard.sim_ms_per_step,
        "final_rmse_m": guard.final_rmse_m,
    }


def run_benchmark(workload: str, seed: int, seconds: float,
                  trace: bool) -> int:
    if workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    for key, value in env.items():
        print(f"env {key}: {value}")

    passes = []
    traced_walls: List[float] = []
    untraced_walls: List[float] = []
    recorder = first_traced = None
    begin = time.perf_counter()
    index = 0
    # A pass (set-up, timed region and checks) starts only if one of
    # average length still ends within --seconds, so a run measures for
    # about --seconds rather than running one long pass past it.
    # Traced runs alternate instrumented (even) and plain (odd) passes,
    # so the tracing overhead is measured in the same process.
    while (index == 0 or (trace and index < 2)
           or (time.perf_counter() - begin) * (index + 1) / index
           <= seconds):
        prepared = workloads.prepare(workload, seed, index)
        if trace and index % 2 == 0:
            pass_recorder = layers.SpanRecorder()
            with layers.instrumented(pass_recorder):
                result = prepared.run(pass_recorder.set_step)
            traced_walls.append(result.wall_s)
            if recorder is None:
                recorder, first_traced = pass_recorder, result
        else:
            result = prepared.run()
            untraced_walls.append(result.wall_s)
        del prepared
        if result is not first_traced:
            result.reports = []     # op traces are large; keep one pass
        passes.append(result)
        print(f"pass {index}: seed {result.seed}, {result.steps} steps, "
              f"wall {result.wall_s:.3f} s, setup {result.setup_s:.3f} s, "
              f"failed {result.failed}/{result.attempted}")
        for error in result.errors[:4]:
            print(f"  check failed: {error}")
        index += 1
    guard = workloads.guard(workload)
    print(f"guard: seed {guard.seed}, {guard.steps} steps, "
          f"failed {guard.failed}/{guard.attempted}")
    for error in guard.errors[:4]:
        print(f"  check failed: {error}")

    if trace:
        values = layers.layer_metrics(recorder, first_traced)
        values["tracing.overhead_ratio"] = (
            statistics.median(traced_walls)
            / statistics.median(untraced_walls))
        units = PER_LAYER_UNITS
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.trace.json")
        recorder.write(path)
        print(f"trace: {len(recorder.spans)} spans -> "
              f"{os.path.relpath(path)}")
    else:
        values = end_to_end(passes, guard)
        units = END_TO_END_UNITS
    runs = passes + [guard]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    correct = failed == 0 and not any(r.errors for r in runs)
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        if value is None or not np.isfinite(value):
            correct = False
            value = 0.0
        metrics[name] = {"value": float(value), "unit": unit}
        print(f"{workload:>14}  {name:<34} {value:>14.6g} {unit}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
