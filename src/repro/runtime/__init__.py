"""SuperNoVA runtime: accelerator virtualization and scheduling.

Implements paper Section 4.3 as an event-driven simulation:

* :func:`simulate_tree` — Algorithm 2: a node queue over the elimination
  tree, LLC-capacity admission, inter-node parallelism across branches,
  intra-node parallelism near the root, and heterogeneous COMP/MEM
  overlap.
* :class:`NodeCostModel` — the per-supernode latency estimate the
  resource-aware algorithm budgets with (Section 4.3.3).
* :func:`execute_step` — full backend step latency: relinearization and
  symbolic on the host CPU, numeric on the simulated accelerators.
"""

from repro.runtime.scheduler import (
    LaneBlockMemo,
    RuntimeFeatures,
    SimResult,
    node_cycles,
    node_duration,
    sequential_cycles,
    simulate_tree,
)
from repro.runtime.cost_model import NodeCostModel
from repro.runtime.executor import StepLatency, execute_step

__all__ = [
    "LaneBlockMemo",
    "RuntimeFeatures",
    "SimResult",
    "node_cycles",
    "node_duration",
    "sequential_cycles",
    "simulate_tree",
    "NodeCostModel",
    "StepLatency",
    "execute_step",
]
