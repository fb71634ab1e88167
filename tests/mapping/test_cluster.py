"""Tests for the functional multi-AP cluster (ApCluster)."""

import numpy as np
import pytest

from repro.mapping.cluster import ApCluster
from repro.mapping.softmap import SoftmAPMapping
from repro.quant.precision import BEST_PRECISION, PrecisionConfig
from repro.softmax.integer_softmax import IntegerSoftmax


def software_pipeline(precision=BEST_PRECISION):
    """The software pipeline the AP dataflow matches bit for bit (raw
    Barrett quotient, exact block sum)."""
    return IntegerSoftmax(precision, barrett_correction=False)


class TestExecute:
    def test_bit_identical_to_software_pipeline(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(0, 2, (6, 4, 16))
        cluster = ApCluster(num_heads=4, sequence_length=16)
        assert np.array_equal(cluster.execute(scores), software_pipeline()(scores))

    def test_reference_backend_agrees_with_vectorized(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(0, 2, (2, 2, 8))
        cluster = ApCluster(num_heads=2, sequence_length=8)
        fast = cluster.execute(scores, backend="vectorized")
        slow = cluster.execute(scores, backend="reference")
        assert np.array_equal(fast, slow)

    def test_sharding_matches_per_head_mappings(self):
        """Head h's block must be exactly what head h's own mapping
        produces — the cluster only shards, it never mixes heads."""
        rng = np.random.default_rng(3)
        scores = rng.normal(0, 2, (3, 2, 12))
        cluster = ApCluster(num_heads=2, sequence_length=12)
        out = cluster.execute(scores)
        for head in range(2):
            direct = cluster.head_mapping(head).execute_functional_batch(
                scores[:, head, :]
            )
            assert np.array_equal(out[:, head, :], direct)

    def test_valid_lengths_shared_and_per_head(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(0, 2, (4, 3, 10))
        lengths = np.array([1, 5, 10, 7])
        cluster = ApCluster(num_heads=3, sequence_length=10)
        shared = cluster.execute(scores, valid_lengths=lengths)
        per_head = cluster.execute(
            scores, valid_lengths=np.repeat(lengths[:, None], 3, axis=1)
        )
        assert np.array_equal(shared, per_head)
        for b, length in enumerate(lengths):
            assert np.all(shared[b, :, length:] == 0.0)
            expected = software_pipeline()(scores[b, :, :length])
            assert np.array_equal(shared[b, :, :length], expected)

    def test_shape_and_capacity_validation(self):
        cluster = ApCluster(num_heads=2, sequence_length=8)
        with pytest.raises(ValueError):
            cluster.execute(np.zeros((4, 8)))  # not 3-D
        with pytest.raises(ValueError):
            cluster.execute(np.zeros((1, 3, 8)))  # wrong head count
        with pytest.raises(ValueError):
            cluster.execute(np.zeros((1, 2, 9)))  # beyond provisioned length
        with pytest.raises(ValueError):
            cluster.execute(np.zeros((2, 2, 8)), valid_lengths=np.zeros((3,)))

    def test_shorter_sequences_accepted(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(0, 2, (2, 2, 5))
        cluster = ApCluster(num_heads=2, sequence_length=64)
        assert np.array_equal(cluster.execute(scores), software_pipeline()(scores))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ApCluster(num_heads=0)
        with pytest.raises(ValueError):
            ApCluster(num_heads=2, backend="cuda")
        with pytest.raises(ValueError):
            ApCluster(num_heads=2, division="newton")
        with pytest.raises(IndexError):
            ApCluster(num_heads=2, sequence_length=8).head_mapping(2)


class TestSoftmaxFnAdapter:
    """The cluster's own backend (``as_backend().run``) on the LLM layout."""

    def test_head_major_stacking_round_trip(self):
        rng = np.random.default_rng(6)
        heads, batch, seq = 3, 4, 9
        scores = rng.normal(0, 2, (batch, heads, seq))
        cluster = ApCluster(num_heads=heads, sequence_length=seq)
        stacked = scores.transpose(1, 0, 2).reshape(heads * batch, seq)
        out = cluster.as_backend().run(stacked).probabilities
        assert np.array_equal(
            out.reshape(heads, batch, seq).transpose(1, 0, 2),
            cluster.execute(scores),
        )

    def test_valid_lengths_forwarded(self):
        rng = np.random.default_rng(7)
        heads, t = 2, 6
        scores = rng.normal(0, 2, (heads * t, t))
        lengths = np.tile(np.arange(1, t + 1), heads)
        backend = ApCluster(num_heads=heads, sequence_length=t).as_backend()
        out = backend.run(scores, valid_lengths=lengths).probabilities
        software = software_pipeline()
        for row in range(heads * t):
            length = lengths[row]
            assert np.array_equal(out[row, :length], software(scores[row, :length]))
            assert np.all(out[row, length:] == 0.0)

    def test_one_dimensional_convenience(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(0, 2, 11)
        backend = ApCluster(num_heads=4, sequence_length=11).as_backend()
        assert np.array_equal(
            backend.run(scores).probabilities, software_pipeline()(scores)
        )

    def test_one_dimensional_path_honours_capacity_and_lengths(self):
        rng = np.random.default_rng(9)
        backend = ApCluster(num_heads=4, sequence_length=8).as_backend()
        with pytest.raises(ValueError):
            backend.run(np.zeros(9))  # beyond the provisioned length
        scores = rng.normal(0, 2, 8)
        out = backend.run(scores, valid_lengths=np.array([3])).probabilities
        assert np.all(out[3:] == 0.0)
        assert np.array_equal(out[:3], software_pipeline()(scores[:3]))
        with pytest.raises(ValueError):
            backend.run(scores, valid_lengths=np.array([3, 4]))

    def test_rejects_row_counts_not_divisible_by_heads(self):
        backend = ApCluster(num_heads=3, sequence_length=8).as_backend()
        with pytest.raises(ValueError, match="multiple of the cluster head"):
            backend.run(np.zeros((4, 8)))
        with pytest.raises(ValueError, match="4 heads, cluster has 3"):
            backend.run(np.zeros((2, 4, 8)))


    def test_run_layouts_and_run_rows_agree(self):
        """``run`` on head-major rows, ``run`` on the ``(batch, heads,
        seq)`` tensor and ``run_rows`` on the same rows: one answer."""
        rng = np.random.default_rng(10)
        heads, batch, seq = 3, 4, 9
        scores = rng.normal(0, 2, (batch, heads, seq))
        lengths = rng.integers(1, seq + 1, (batch, heads))
        stacked = scores.transpose(1, 0, 2).reshape(heads * batch, seq)
        stacked_lengths = lengths.T.reshape(-1)
        backend = ApCluster(num_heads=heads, sequence_length=seq).as_backend()
        rows = backend.run(stacked, valid_lengths=stacked_lengths).probabilities
        tensor = backend.run(scores, valid_lengths=lengths).probabilities
        served = backend.run_rows(stacked, valid_lengths=stacked_lengths)
        assert np.array_equal(
            tensor, rows.reshape(heads, batch, seq).transpose(1, 0, 2)
        )
        assert np.array_equal(served.probabilities, rows)

    @pytest.mark.parametrize("budget", [None, 16])
    def test_run_cost_follows_the_cluster_cost(self, budget):
        """``run`` charges the cluster cost of one pass: latency of the
        pass (or the pipelined makespan of a tiled workload), energy x the
        vectors per head, the cluster's area and cycles x passes."""
        rng = np.random.default_rng(11)
        heads, batch, seq = 2, 3, 8
        cluster = ApCluster(num_heads=heads, sequence_length=seq,
                            pass_row_budget=budget)
        result = cluster.as_backend().run(rng.normal(0, 2, (batch, heads, seq)))
        passes = result.plan.passes
        assert passes == (1 if budget is None else 3)
        cost = cluster.cost(sequence_length=seq, batch=1)
        latency = (
            cluster.schedule(passes, sequence_length=seq).latency_s
            if passes > 1 else cost.latency_s
        )
        assert result.cost.latency_s == latency
        assert result.cost.energy_j == cost.energy_j * batch
        assert result.cost.area_mm2 == cost.area_mm2
        assert result.cycles == cost.cycles * passes
        # A 1-D vector runs on head 0 alone: one per-head pass.
        single = cluster.as_backend().run(rng.normal(0, 2, seq))
        assert (single.cost.energy_j, single.cost.area_mm2, single.cycles) == (
            cost.per_head.energy_j, cost.per_head.area_mm2, cost.per_head.cycles
        )


class TestCostAndSchedule:
    def test_concurrency_accounting(self):
        cluster = ApCluster(num_heads=8, sequence_length=256)
        per_head = SoftmAPMapping(BEST_PRECISION, 256, backend="vectorized").cost()
        cost = cluster.cost()
        assert cost.latency_s == pytest.approx(per_head.latency_s)  # max over heads
        assert cost.cycles == pytest.approx(per_head.cycles)
        assert cost.energy_j == pytest.approx(8 * per_head.energy_j)  # sum
        assert cost.area_mm2 == pytest.approx(8 * per_head.area_mm2)

    def test_batch_scales_energy_not_latency(self):
        cluster = ApCluster(num_heads=4, sequence_length=128)
        one = cluster.cost(batch=1)
        many = cluster.cost(batch=16)
        assert many.energy_j == pytest.approx(16 * one.energy_j)
        assert many.latency_s == one.latency_s
        assert many.cycles == one.cycles

    def test_runtime_sequence_length(self):
        cluster = ApCluster(num_heads=4, sequence_length=1024)
        short = cluster.cost(sequence_length=128)
        full = cluster.cost()
        assert short.energy_j < full.energy_j
        with pytest.raises(ValueError):
            cluster.cost(sequence_length=2048)

    def test_schedule_pipelines_load_under_compute(self):
        cluster = ApCluster(num_heads=4, sequence_length=256)
        single = cluster.schedule(1)
        assert single.latency_s == pytest.approx(
            single.load_latency_s + single.compute_latency_s
        )
        assert single.latency_s == pytest.approx(cluster.cost().latency_s)
        many = cluster.schedule(8)
        assert many.latency_s < many.sequential_latency_s
        assert many.pipeline_speedup > 1.0
        assert many.energy_j == pytest.approx(8 * single.energy_j)
        # Makespan formula: load + compute + (n-1) * max(load, compute).
        expected = (
            many.load_latency_s
            + many.compute_latency_s
            + 7 * max(many.load_latency_s, many.compute_latency_s)
        )
        assert many.latency_s == pytest.approx(expected)

    def test_schedule_load_excludes_the_sum_broadcast(self):
        """Step 15 (broadcast of the sum) is a Write but depends on the same
        batch's reduction, so it must be charged as compute, not as
        preloadable operand loading."""
        from repro.mapping.dataflow import StepKind

        cluster = ApCluster(num_heads=2, sequence_length=256)
        per_head = cluster.cost().per_head
        preloadable = sum(
            s.cost.latency_s
            for s in per_head.steps
            if s.step.kind is StepKind.WRITE and s.step.elementwise
        )
        all_writes = sum(
            s.cost.latency_s
            for s in per_head.steps
            if s.step.kind is StepKind.WRITE
        )
        schedule = cluster.schedule(1)
        assert schedule.load_latency_s == pytest.approx(preloadable)
        assert schedule.load_latency_s < all_writes

    def test_schedule_validation(self):
        cluster = ApCluster(num_heads=2, sequence_length=64)
        with pytest.raises(ValueError):
            cluster.schedule(0)
        with pytest.raises(ValueError):
            cluster.cost(batch=0)
