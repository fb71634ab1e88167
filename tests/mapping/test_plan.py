"""Tests for the compiled execution-plan layer (repro.mapping.plan).

The centrepiece is the randomized property test pinning the tentpole
guarantee: fused cluster execution is bit-identical to the per-head loop
across odd sequence lengths, non-power-of-two head counts, ragged
``valid_lengths`` and both functional engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ap.engine import (
    DEFAULT_ENGINE,
    UnknownEngineError,
    canonical_engine_name,
)
from repro.ap.processor2d import AssociativeProcessor2D
from repro.llm.config import LLAMA2_7B
from repro.mapping.cluster import ApCluster
from repro.mapping.deployment import ApDeployment
from repro.mapping.plan import (
    ExecutionPlan,
    WorkloadPass,
    plan_passes,
    width_class,
)
from repro.mapping.softmap import SoftmAPMapping
from repro.quant.precision import BEST_PRECISION
from repro.runtime.backend import BackendSpec, resolve_backend, resolve_model_backend
from repro.softmax.integer_softmax import IntegerSoftmax


class TestFusedParityProperty:
    """Fused execution == per-head loop, the tentpole's pinned invariant."""

    @settings(max_examples=20, deadline=None)
    @given(
        heads=st.integers(1, 3),          # includes the non-power-of-two 3
        batch=st.integers(1, 2),
        seq=st.integers(2, 9),            # includes odd lengths
        engine=st.sampled_from(["vectorized", "reference", "compiled"]),
        ragged=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_fused_cluster_matches_per_head_loop(
        self, heads, batch, seq, engine, ragged, seed
    ):
        rng = np.random.default_rng(seed)
        scores = rng.normal(0.0, 2.0, size=(batch, heads, seq))
        lengths = rng.integers(1, seq + 1, size=(batch, heads)) if ragged else None

        cluster = ApCluster(num_heads=heads, sequence_length=seq)
        fused = cluster.execute(scores, valid_lengths=lengths, backend=engine)

        # The per-head loop on the functional AP (per-operation engine
        # sweeps): the execution mode the fused pass replaced.  The compiled
        # engine is plan-only, so its loop baseline runs the packed-word
        # processor (itself pinned bit-identical to the reference sweep).
        loop_engine = engine if engine != "compiled" else "vectorized"
        plan = cluster.mapping.plan(sequence_length=seq)
        looped = np.empty_like(scores)
        for h in range(heads):
            looped[:, h, :] = plan.execute(
                scores[:, h, :],
                valid_lengths=None if lengths is None else lengths[:, h],
                engine=loop_engine,
            )
        assert np.array_equal(fused, looped)

    def test_fused_matches_software_pipeline(self, rng):
        scores = rng.normal(0.0, 2.0, size=(3, 5, 13))  # odd seq, odd heads
        cluster = ApCluster(num_heads=5, sequence_length=13)
        software = IntegerSoftmax(BEST_PRECISION, barrett_correction=False)(scores)
        assert np.array_equal(cluster.execute(scores), software)

    def test_engines_agree_on_the_fused_row_space(self, rng):
        scores = rng.normal(0.0, 2.0, size=(2, 3, 7))
        cluster = ApCluster(num_heads=3, sequence_length=7)
        compiled = cluster.execute(scores)
        assert np.array_equal(
            compiled, cluster.execute(scores, backend="vectorized")
        )
        assert np.array_equal(
            compiled, cluster.execute(scores, backend="reference")
        )


class TestCompilation:
    def test_plan_is_compiled_once_per_shape(self):
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=32)
        assert mapping.plan() is mapping.plan()
        assert mapping.plan(sequence_length=16) is mapping.plan(sequence_length=16)
        assert mapping.plan(sequence_length=16) is not mapping.plan()

    def test_cluster_shares_one_mapping_across_heads(self):
        """Heads are structurally identical: memory must not scale with the
        head count (the PR 2 cluster built one mapping per head)."""
        cluster = ApCluster(num_heads=7, sequence_length=16)
        assert all(
            cluster.head_mapping(h) is cluster.mapping for h in range(7)
        )
        with pytest.raises(IndexError):
            cluster.head_mapping(7)

    def test_lowered_program_has_resolved_fields_and_costs(self):
        plan = SoftmAPMapping(BEST_PRECISION, sequence_length=64).plan()
        field_names = {f.name for f in plan.fields}
        for op in plan.program:
            for operand in (op.dest, op.a, op.b, op.remainder):
                assert operand is None or operand in field_names
        assert len(plan.step_costs) == 16
        assert plan.cost().cycles == pytest.approx(
            sum(s.cost.cycles for s in plan.step_costs)
        )

    def test_plan_cost_is_the_mapping_cost(self):
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=128)
        assert mapping.cost() is mapping.plan().cost()

    def test_execute_rejects_mismatched_shapes(self):
        plan = ExecutionPlan(sequence_length=8)
        with pytest.raises(ValueError):
            plan.execute(np.zeros(8))  # 1-D
        with pytest.raises(ValueError):
            plan.execute(np.zeros((2, 9)))  # compiled for seq=8


class TestWidthClassSharing:
    """One lowered program per sum-width class, shared by every length."""

    def test_lengths_in_one_class_share_the_compiled_engine(self):
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=256)
        engines = {
            n: mapping.plan(sequence_length=n).compiled_engine
            for n in (64, 65, 97, 128, 129)
        }
        assert engines[65] is engines[97] is engines[128]
        assert engines[64] is not engines[65]  # 7 sum-index bits from 65
        assert engines[128] is not engines[129]  # 8 from 129
        assert len(mapping._programs) == 3

    def test_width_class_is_the_sum_index_width(self):
        ofb = BEST_PRECISION.result_column_bits
        assert width_class(1, ofb) == width_class(2, ofb) == (ofb, 1)
        assert width_class(64, ofb) == (ofb, 6)
        assert width_class(65, ofb) == width_class(128, ofb) == (ofb, 7)
        assert width_class(129, ofb) == (ofb, 8)
        # The output width is part of the class.
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=16)
        assert (
            mapping.plan(sequence_length=8, output_fraction_bits=10).compiled_engine
            is not mapping.plan(sequence_length=8).compiled_engine
        )

    @pytest.mark.parametrize(
        "engine, lengths",
        [("compiled", (65, 128, 97, 65, 100)), ("reference", (5, 8, 7, 5))],
    )
    def test_interleaved_lengths_match_standalone_plans(
        self, engine, lengths, rng
    ):
        """Lengths of one class take turns on the shared program (and its
        arena); each result equals a fresh standalone plan's, with ragged
        valid_lengths and an empty batch in the mix."""
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=128)
        for index, n in enumerate(lengths):
            batch = 3 if engine == "compiled" else 2
            scores = rng.normal(0.0, 2.0, size=(batch, n))
            valid = rng.integers(1, n + 1, size=batch) if index % 2 else None
            shared = mapping.plan(sequence_length=n).execute(
                scores, valid_lengths=valid, engine=engine
            )
            alone = ExecutionPlan(sequence_length=n).execute(
                scores, valid_lengths=valid, engine=engine
            )
            assert np.array_equal(shared, alone), n
            empty = mapping.plan(sequence_length=n).execute(
                np.zeros((0, n)), engine=engine
            )
            assert empty.shape == (0, n)
        assert len(mapping._programs) <= 2  # the 128 provisioned + one class

    def test_each_view_costs_like_a_standalone_plan(self):
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=128)
        for n in (65, 97, 128, 7):
            view = mapping.plan(sequence_length=n).cost()
            alone = ExecutionPlan(sequence_length=n).cost()
            assert view == alone, n
            assert view.rows == -(-n // 2)

    def test_mismatched_lowered_program_is_rejected(self):
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=128)
        lowered = mapping.plan(sequence_length=100).lowered
        assert ExecutionPlan(sequence_length=70, lowered=lowered).fields is (
            lowered.fields
        )
        with pytest.raises(ValueError, match="width class"):
            ExecutionPlan(sequence_length=64, lowered=lowered)
        with pytest.raises(ValueError, match="width class"):
            ExecutionPlan(
                sequence_length=100, output_fraction_bits=9, lowered=lowered
            )


class TestPlanner:
    def test_no_budget_is_one_fused_pass(self):
        assert plan_passes(12, 16) == [WorkloadPass(0, 12, 192)]

    def test_budget_tiles_whole_vectors(self):
        passes = plan_passes(10, 16, row_budget=50)  # 3 vectors / pass
        assert [p.vectors for p in passes] == [3, 3, 3, 1]
        assert [p.start for p in passes] == [0, 3, 6, 9]
        assert all(p.words == p.vectors * 16 for p in passes)

    def test_segment_must_fit_one_pass(self):
        with pytest.raises(ValueError, match="segment does not fit"):
            plan_passes(4, 100, row_budget=64)

    def test_tiled_cluster_execution_is_bit_identical(self, rng):
        scores = rng.normal(0.0, 2.0, size=(4, 3, 11))
        lengths = rng.integers(1, 12, size=4)
        single = ApCluster(num_heads=3, sequence_length=11)
        tiled = ApCluster(
            num_heads=3, sequence_length=11, pass_row_budget=2 * 11
        )
        assert len(tiled.workload_passes(12, 11)) == 6
        assert np.array_equal(
            tiled.execute(scores, valid_lengths=lengths),
            single.execute(scores, valid_lengths=lengths),
        )

    def test_budget_opens_sequences_beyond_the_provisioned_length(self, rng):
        """The fused row space spans the whole cluster, so an explicit pass
        budget admits sequences one per-head AP could not hold."""
        scores = rng.normal(0.0, 2.0, size=(1, 2, 24))
        capped = ApCluster(num_heads=2, sequence_length=16)
        with pytest.raises(ValueError, match="exceeds the provisioned"):
            capped.execute(scores)
        budgeted = ApCluster(
            num_heads=2, sequence_length=16, pass_row_budget=32
        )
        software = IntegerSoftmax(BEST_PRECISION, barrett_correction=False)(scores)
        assert np.array_equal(budgeted.execute(scores), software)
        assert budgeted.cost(sequence_length=24).latency_s > 0


class TestEngineValidation:
    def test_unknown_engine_suggests_closest(self):
        with pytest.raises(UnknownEngineError, match="did you mean 'vectorized'"):
            canonical_engine_name("vectorised")
        with pytest.raises(UnknownEngineError, match="did you mean 'reference'"):
            canonical_engine_name("refrence")
        with pytest.raises(UnknownEngineError, match="did you mean 'compiled'"):
            canonical_engine_name("complied")

    def test_validation_is_eager_at_every_construction_seam(self):
        with pytest.raises(UnknownEngineError):
            SoftmAPMapping(BEST_PRECISION, 16, backend="vectorised")
        with pytest.raises(UnknownEngineError):
            ApCluster(num_heads=2, sequence_length=16, backend="vectorised")
        with pytest.raises(UnknownEngineError):
            ExecutionPlan(sequence_length=16, engine="cuda")
        with pytest.raises(UnknownEngineError):
            BackendSpec(name="ap-batch", engine="refrence")
        with pytest.raises(UnknownEngineError):
            AssociativeProcessor2D(rows=2, columns=8, backend="packed")

    def test_compiled_is_selectable_at_every_construction_seam(self):
        assert SoftmAPMapping(BEST_PRECISION, 16, backend="compiled").backend == (
            "compiled"
        )
        assert ApCluster(
            num_heads=2, sequence_length=16, backend="compiled"
        ).backend == "compiled"
        assert ExecutionPlan(sequence_length=16, engine="compiled").engine == (
            "compiled"
        )
        assert BackendSpec(name="ap-batch", engine="compiled").engine == "compiled"

    def test_processor_seams_reject_the_plan_only_engine(self):
        """The compiled engine has no per-operation CAM-sweep mode: the
        processor constructors must refuse it with the same did-you-mean
        error family as a typo."""
        with pytest.raises(UnknownEngineError):
            AssociativeProcessor2D(rows=2, columns=8, backend="compiled")
        with pytest.raises(UnknownEngineError):
            canonical_engine_name("compiled", processor=True)

    def test_unknown_engine_is_a_value_error(self):
        """Callers catching the historical ValueError keep working."""
        assert issubclass(UnknownEngineError, ValueError)


def _forward_on_ap_engine(monkeypatch):
    """The engine IntegerSoftmax.forward_on_ap builds its mapping with."""
    engines = []
    original = SoftmAPMapping.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        engines.append(self.backend)

    monkeypatch.setattr(SoftmAPMapping, "__init__", spy)
    IntegerSoftmax(BEST_PRECISION).forward_on_ap(np.zeros((1, 4)))
    return engines[-1]


def _cluster_softmax_fn_engine(monkeypatch):
    """The engine of the cluster backend the LLM substrate resolves."""
    return resolve_model_backend("ap-cluster", 2, 8).engine


class TestDefaultEngine:
    """Every plan-executing seam takes its default from DEFAULT_ENGINE."""

    def test_the_default_is_the_compiled_engine(self):
        assert DEFAULT_ENGINE == "compiled"

    @pytest.mark.parametrize(
        "site",
        [
            lambda mp: ExecutionPlan(sequence_length=8).engine,
            lambda mp: ApCluster(num_heads=2, sequence_length=8).backend,
            lambda mp: resolve_backend("ap", sequence_length=8).engine,
            lambda mp: resolve_backend("ap-batch", sequence_length=8).engine,
            lambda mp: resolve_backend(
                "ap-cluster", num_heads=2, sequence_length=8
            ).engine,
            _forward_on_ap_engine,
            lambda mp: ApDeployment(
                LLAMA2_7B, max_sequence_length=8
            ).cluster().backend,
            _cluster_softmax_fn_engine,
        ],
        ids=[
            "ExecutionPlan",
            "ApCluster",
            "ap",
            "ap-batch",
            "ap-cluster",
            "forward_on_ap",
            "ApDeployment.cluster",
            "ap_cluster_softmax_fn",
        ],
    )
    def test_default_site_resolves_to_default_engine(self, site, monkeypatch):
        assert site(monkeypatch) == DEFAULT_ENGINE


class TestPlanTelemetry:
    def test_cluster_result_carries_plan_telemetry(self, rng):
        backend = resolve_backend("ap-cluster", num_heads=2, sequence_length=8)
        result = backend.run(rng.normal(0.0, 2.0, size=(2, 2, 8)))
        assert result.plan is not None
        assert result.plan.fused and result.plan.engine == DEFAULT_ENGINE
        assert result.plan.passes == 1
        assert result.plan.vectors == 4
        assert result.plan.segment_length == 8
        assert result.plan.words_per_pass == (32,)

    def test_ap_batch_result_carries_plan_telemetry(self, rng):
        backend = resolve_backend("ap-batch", sequence_length=8)
        result = backend.run(rng.normal(0.0, 2.0, size=(3, 8)))
        assert result.plan is not None
        assert result.plan.passes == 1 and result.plan.vectors == 3

    def test_fused_flag_reports_the_actual_execution_path(self, rng):
        """fused must be False when a processor engine interprets the
        program on the AP instead of the compiled fast path running."""
        cluster = ApCluster(num_heads=2, sequence_length=8)
        assert cluster.plan_telemetry(4, 8).fused
        assert not cluster.plan_telemetry(4, 8, engine="vectorized").fused
        assert not cluster.plan_telemetry(4, 8, engine="reference").fused
        backend = resolve_backend(
            "ap-batch", sequence_length=8, engine="reference"
        )
        result = backend.run(rng.normal(0.0, 2.0, size=(2, 8)))
        assert result.plan is not None and not result.plan.fused

    def test_tiled_runs_flow_through_the_cluster_schedule(self, rng):
        backend = resolve_backend(
            "ap-cluster",
            num_heads=2,
            sequence_length=8,
            options={"pass_row_budget": 16},
        )
        result = backend.run(rng.normal(0.0, 2.0, size=(3, 2, 8)))
        assert result.plan.passes == 3
        assert result.plan.words_per_pass == (16, 16, 16)
        schedule = backend.cluster.schedule(3, sequence_length=8)
        assert result.cost.latency_s == pytest.approx(schedule.latency_s)
        one_pass = backend.cluster.cost(sequence_length=8)
        # The pipeline overlaps load under compute, so three passes cost
        # less than three sequential passes but more than one.
        assert one_pass.latency_s < result.cost.latency_s
        assert result.cost.latency_s < 3 * one_pass.latency_s
        # Energy is workload-sized, not pass-sized: same vectors, same total.
        assert result.cost.energy_j == pytest.approx(one_pass.energy_j * 3)

    def test_one_dimensional_over_budget_vector_rejected_eagerly(self):
        """A 1-D vector that exceeds the pass budget must be rejected by
        the planner before any execution, like the fused 2-D/3-D paths."""
        backend = resolve_backend(
            "ap-cluster",
            num_heads=2,
            sequence_length=16,
            options={"pass_row_budget": 8},
        )
        with pytest.raises(ValueError, match="segment does not fit"):
            backend.run(np.zeros(16))
        assert backend.telemetry.calls == 0  # nothing executed or recorded

    def test_ap_result_carries_plan_telemetry(self, rng):
        """``ap`` runs the same fused pass as ``ap-batch`` (only its cost
        is serial), so its result describes that pass."""
        result = resolve_backend("ap", sequence_length=8).run(
            rng.normal(0.0, 2.0, size=(2, 8))
        )
        assert result.plan is not None
        assert result.plan.passes == 1 and result.plan.vectors == 2

    def test_compiled_telemetry_reports_arena_and_wall_clock(self, rng):
        backend = resolve_backend(
            "ap-cluster", num_heads=2, sequence_length=8, engine="compiled"
        )
        result = backend.run(rng.normal(0.0, 2.0, size=(2, 2, 8)))
        assert result.plan.fused and result.plan.engine == "compiled"
        assert result.plan.arena_slots > 0
        assert result.plan.arena_bytes > 0  # the executor's pool is live
        assert result.plan.wall_seconds > 0.0
        # The reference engine interprets on the AP: no arena, not fused.
        reference = resolve_backend(
            "ap-cluster", num_heads=2, sequence_length=8, engine="reference"
        ).run(rng.normal(0.0, 2.0, size=(2, 2, 8)))
        assert not reference.plan.fused
        assert reference.plan.arena_slots == 0
        assert reference.plan.arena_bytes == 0


class TestExecutionSubstrates:
    def test_per_op_engines_match_the_compiled_path(self, rng):
        plan = ExecutionPlan(sequence_length=12)
        scores = rng.normal(0.0, 2.0, size=(4, 12))
        lengths = np.array([1, 5, 12, 7])
        compiled = plan.execute(scores, valid_lengths=lengths)
        vectorized = plan.execute(
            scores, valid_lengths=lengths, engine="vectorized"
        )
        reference = plan.execute(
            scores, valid_lengths=lengths, engine="reference"
        )
        assert np.array_equal(compiled, vectorized)
        assert np.array_equal(compiled, reference)
