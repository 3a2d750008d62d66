"""Determinism and failure-mode tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload's short prefix is run twice, traced, with one seed: the
final estimates, the guard's deterministic figures and every count-type
per-layer metric must repeat exactly.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import layers
import workloads

PREFIX = 30
SEED = 5
HERE = os.path.dirname(os.path.abspath(__file__))

#: Per-layer metrics that count work rather than time it.
COUNT_METRICS = sorted(
    name for name in harness.PER_LAYER_UNITS
    if not name.endswith("ms_per_step")
    and name != "tracing.overhead_ratio")


def estimate_digest(solvers) -> str:
    """SHA-256 over every solver's final estimate, bit for bit."""
    digest = hashlib.sha256()
    for solver in solvers:
        estimate = solver.estimate()
        for key in sorted(estimate.keys()):
            digest.update(repr(key).encode())
            digest.update(np.ascontiguousarray(
                estimate[key].matrix()).tobytes())
    return digest.hexdigest()


def _traced_prefix(name: str):
    prepared = workloads.prepare(name, SEED, 0, steps=PREFIX)
    recorder = layers.SpanRecorder()
    with layers.instrumented(recorder):
        result = prepared.run(recorder.set_step)
    solvers = ([prepared.solver] if name in workloads.SOLO else
               [h.solver for h in prepared.fleet.sessions.values()])
    metrics = layers.layer_metrics(recorder, result)
    guard = workloads.guard(name, steps=PREFIX)
    return {
        "failed": (result.failed, guard.failed),
        "errors": result.errors + guard.errors,
        "digest": estimate_digest(solvers),
        "sim_ms_per_step": guard.sim_ms_per_step,
        "final_rmse_m": guard.final_rmse_m,
        "counts": {k: metrics[k] for k in COUNT_METRICS},
        "spans": len(recorder.spans),
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_prefix_repeats_exactly(name):
    first = _traced_prefix(name)
    second = _traced_prefix(name)
    assert first["failed"] == (0, 0), first["errors"]
    assert first["errors"] == []
    assert first["spans"] > 0
    assert first["sim_ms_per_step"] > 0.0
    for key in ("digest", "sim_ms_per_step", "final_rmse_m", "counts",
                "spans"):
        assert first[key] == second[key], key


def test_instrumentation_is_removed_after_the_pass():
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in layers.PATCHES]
    with layers.instrumented(layers.SpanRecorder()):
        pass
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr


def test_self_time_subtracts_children():
    recorder = layers.SpanRecorder()
    recorder.spans = [["outer", 0.0, 10.0, -1, 0],
                      ["inner", 2.0, 5.0, 0, 0],
                      ["inner", 6.0, 7.0, 0, 0]]
    assert recorder.self_seconds() == {"outer": 6.0, "inner": 4.0}


def _run(cwd, *extra):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--seed", "1", "--seconds", "1", "--trace", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(str(tmp_path), "--workload", "sphere-chrono")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_rejects_an_unknown_workload():
    proc = _run(os.path.dirname(HERE), "--workload", "no-such-workload")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
