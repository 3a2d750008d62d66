"""The content-keyed op-block lane memo (``LaneBlockMemo``).

A :class:`PricingStage` owns one memo and serves every repeat of an op
block it already priced from it.  These tests pin that the memo changes
no latency bit on any platform or runtime-feature combination, that two
stages never share entries, that a trace mutated after pricing is
re-priced, that the audit mode catches a corrupted entry, and that
``NodeTrace.record`` stores the same bytes the block keys are made of.
"""

import copy
import itertools
from array import array
from dataclasses import astuple

import numpy as np
import pytest

from repro.core import RAISAM2
from repro.datasets import manhattan_dataset, sphere_dataset
from repro.hardware import supernova_soc
from repro.hardware.registry import make_platform, platform_names
from repro.linalg.trace import (
    DIMS_PAD,
    KIND_CODE,
    NodeTrace,
    OpKind,
    concat_node_traces,
)
from repro.pipeline import BackendPipeline, PricingStage
from repro.runtime import (
    LaneBlockMemo,
    NodeCostModel,
    RuntimeFeatures,
    execute_step,
    node_cycles,
    simulate_tree,
)
from repro.runtime.cost_model import synthesize_node_ops
from repro.runtime.scheduler import LANE_CACHE_STATS
from repro.solvers import ISAM2
from repro.validate import InvariantViolation, audited

PREFIX_STEPS = 60

FEATURES = [RuntimeFeatures(*flags)
            for flags in itertools.product((False, True), repeat=3)]


def _record_traces(solver, dataset):
    """Reports of a traced, unpriced run (cold per-trace lane memos)."""
    run = BackendPipeline(solver, collect_traces=True).run(
        dataset, max_steps=PREFIX_STEPS)
    return run.reports


@pytest.fixture(scope="module")
def prefixes():
    soc = make_platform("SuperNoVA2S")
    sphere = sphere_dataset(scale=0.09)
    manhattan = manhattan_dataset(scale=0.02)
    return {
        "Sphere": _record_traces(
            RAISAM2(NodeCostModel(soc), target_seconds=3e-3,
                    ordering="chronological", workers=1), sphere),
        "M3500": _record_traces(ISAM2(workers=1), manhattan),
    }


def fresh(reports):
    """Independent copies whose traces have never been priced."""
    return copy.deepcopy(reports)


def clone(trace: NodeTrace) -> NodeTrace:
    """A never-priced trace with ``trace``'s op block."""
    return concat_node_traces([trace])


class TestBitIdentity:
    @pytest.mark.parametrize("dataset", ["Sphere", "M3500"])
    @pytest.mark.parametrize("platform", platform_names())
    def test_stage_matches_memo_less_pricing(self, prefixes, dataset,
                                             platform):
        reports = prefixes[dataset]
        soc = make_platform(platform)
        for features in FEATURES:
            expected = [astuple(execute_step(r, soc, r.node_parents,
                                             features))
                        for r in fresh(reports)]
            stage = PricingStage(soc, features)
            actual = [astuple(stage.price(r)) for r in fresh(reports)]
            assert actual == expected, (platform, features)
            if soc.has_accelerators:
                # The comparison means something only if blocks repeat.
                assert stage.block_hits > 0, (platform, features)
                assert stage.block_misses == stage.block_entries
            else:
                # CPU/GPU platforms price the whole step sequentially.
                assert stage.block_hits == stage.block_misses == 0


class TestStageScope:
    def test_two_stages_never_share_entries(self, prefixes):
        reports = prefixes["Sphere"]
        soc = make_platform("SuperNoVA2S")
        first = PricingStage(soc)
        first_latencies = [astuple(first.price(r)) for r in fresh(reports)]
        assert first.block_entries > 0

        second = PricingStage(soc)
        assert (second.block_hits, second.block_misses,
                second.block_entries) == (0, 0, 0)
        second_latencies = [astuple(second.price(r))
                            for r in fresh(reports)]
        # Starting cold, the second stage walks exactly the first
        # stage's hit/miss sequence: none of its hits came from the
        # first stage's entries.
        assert (second.block_hits, second.block_misses,
                second.block_entries) == (first.block_hits,
                                          first.block_misses,
                                          first.block_entries)
        assert second_latencies == first_latencies

    def test_memo_hit_counts_as_per_trace_miss(self):
        soc = supernova_soc(2)
        memo = LaneBlockMemo()
        first = synthesize_node_ops(12, 8, 3)
        repeat = synthesize_node_ops(12, 8, 3)
        LANE_CACHE_STATS.reset()
        lanes = node_cycles(first, soc, memo=memo)
        assert node_cycles(repeat, soc, memo=memo) == lanes
        assert node_cycles(repeat, soc, memo=memo) == lanes
        # Two fresh traces miss their own memo; the repeat's second
        # call hits it and never reaches the block memo.
        assert (LANE_CACHE_STATS.misses, LANE_CACHE_STATS.hits) == (2, 1)
        assert (memo.misses, memo.hits, len(memo)) == (1, 1, 1)

    def test_features_and_platform_are_part_of_the_key(self):
        memo = LaneBlockMemo()
        trace = synthesize_node_ops(12, 8, 3)
        for soc in (supernova_soc(2), make_platform("Spatula2S")):
            for features in (RuntimeFeatures.all(),
                             RuntimeFeatures.none()):
                assert node_cycles(clone(trace), soc, features,
                                   memo=memo) == \
                    node_cycles(clone(trace), soc, features)
        assert (memo.misses, memo.hits, len(memo)) == (4, 0, 4)


class TestMutationAfterPricing:
    def _check_repriced(self, mutate):
        soc = supernova_soc(2)
        memo = LaneBlockMemo()
        trace = synthesize_node_ops(12, 8, 3)
        before = node_cycles(trace, soc, memo=memo)
        mutate(trace)
        after = node_cycles(trace, soc, memo=memo)
        assert after == node_cycles(clone(trace), soc)
        assert after != before
        assert (memo.misses, memo.hits, len(memo)) == (2, 0, 2)
        # A fresh trace with the mutated content now hits.
        assert node_cycles(clone(trace), soc, memo=memo) == after
        assert memo.hits == 1

    def test_record_reprices(self):
        self._check_repriced(
            lambda trace: trace.record(OpKind.GEMM, 16, 16, 16))

    def test_extend_from_reprices(self):
        other = synthesize_node_ops(6, 0, 1)
        self._check_repriced(lambda trace: trace.extend_from(other))


class TestAudit:
    def _priced_memo(self, soc):
        memo = LaneBlockMemo()
        simulate_tree({0: synthesize_node_ops(12, 8, 3)}, {0: None}, soc,
                      memo=memo)
        return memo

    def test_corrupted_entry_is_caught(self):
        soc = supernova_soc(2)
        memo = self._priced_memo(soc)
        (block, lanes), = memo.entries.items()
        memo.entries[block] = (lanes[0] * 1.5,) + lanes[1:]
        with audited():
            with pytest.raises(InvariantViolation) as excinfo:
                simulate_tree({0: synthesize_node_ops(12, 8, 3)},
                              {0: None}, soc, memo=memo)
        assert excinfo.value.invariant == "lane-memo-consistent"

    def test_intact_memo_passes_clean(self):
        soc = supernova_soc(2)
        memo = self._priced_memo(soc)
        with audited() as aud:
            result = simulate_tree({0: synthesize_node_ops(12, 8, 3)},
                                   {0: None}, soc, memo=memo)
        assert memo.hits == 1
        assert aud.checks > 0
        assert result.makespan_cycles == simulate_tree(
            {0: synthesize_node_ops(12, 8, 3)}, {0: None},
            soc).makespan_cycles


def _reference_columns(rows):
    """The columnar bytes ``record`` has always produced."""
    codes, dims = array("b"), array("q")
    for kind, *values in rows:
        codes.append(KIND_CODE[kind])
        row = [DIMS_PAD] * 3
        for i, value in enumerate(values):
            row[i] = int(value)
        dims.extend(row)
    return codes.tobytes(), dims.tobytes()


class TestRecord:
    ROWS = [(OpKind.GEMM, 6, 6, 3), (OpKind.SYRK, 9, 4),
            (OpKind.TRSM, 9, 4), (OpKind.POTRF, 4), (OpKind.TRSV, 4),
            (OpKind.GEMV, 9, 4), (OpKind.SCATTER_ADD, 6, 6),
            (OpKind.MEMSET, 1 << 20), (OpKind.MEMCPY, 96)]

    def test_stored_bytes_unchanged(self):
        trace = NodeTrace(node_id=0)
        for kind, *values in self.ROWS:
            trace.record(kind, *values)
        assert trace.content_key() == _reference_columns(self.ROWS)

    def test_numpy_integer_dims_accepted(self):
        plain, numpy_dims = NodeTrace(node_id=0), NodeTrace(node_id=1)
        for kind, *values in self.ROWS:
            plain.record(kind, *values)
            numpy_dims.record(kind, *(np.int64(v) for v in values[:1]),
                              *(np.int32(v) for v in values[1:]))
        assert numpy_dims.content_key() == plain.content_key()

    def test_too_many_dims_leaves_trace_unchanged(self):
        trace = NodeTrace(node_id=0)
        trace.record(OpKind.POTRF, 4)
        before = trace.content_key()
        with pytest.raises(IndexError):
            trace.record(OpKind.GEMM, 1, 2, 3, 4)
        assert trace.content_key() == before
        assert trace.num_ops == 1
