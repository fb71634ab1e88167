"""Tests for the SoftmAP mapping: analytical cost and functional execution."""

import numpy as np
import pytest

from repro.mapping.softmap import SoftmAPMapping
from repro.quant.precision import BEST_PRECISION, PrecisionConfig
from repro.softmax.integer_softmax import IntegerSoftmax
from repro.softmax.reference import softmax


class TestCostModel:
    def test_sixteen_step_costs(self):
        cost = SoftmAPMapping(BEST_PRECISION, sequence_length=2048).cost()
        assert len(cost.steps) == 16
        assert cost.cycles == pytest.approx(sum(s.cost.cycles for s in cost.steps))
        assert cost.latency_s > 0
        assert cost.energy_j > 0

    def test_rows_follow_words_per_row(self):
        assert SoftmAPMapping(BEST_PRECISION, 2048, words_per_row=2).rows == 1024
        assert SoftmAPMapping(BEST_PRECISION, 2048, words_per_row=1).rows == 2048

    @pytest.mark.parametrize("seq,expected", [(1, 1), (3, 2), (7, 4), (2049, 1025)])
    def test_odd_sequence_lengths_round_rows_up(self, seq, expected):
        """Regression: floor division silently dropped the last packed word
        of an odd-length sequence; ceil division provisions it a row."""
        assert SoftmAPMapping(BEST_PRECISION, seq, words_per_row=2).rows == expected

    def test_odd_sequence_length_costs_like_the_next_even_one(self):
        odd = SoftmAPMapping(BEST_PRECISION, 1023).cost()
        even = SoftmAPMapping(BEST_PRECISION, 1024).cost()
        assert odd.rows == even.rows
        assert odd.energy_j == pytest.approx(even.energy_j)

    def test_packing_two_words_doubles_elementwise_work(self):
        one = SoftmAPMapping(BEST_PRECISION, 1024, words_per_row=1).cost()
        two = SoftmAPMapping(BEST_PRECISION, 1024, words_per_row=2).cost()
        assert two.cycles > one.cycles

    def test_latency_nearly_flat_in_sequence_length(self):
        short = SoftmAPMapping(BEST_PRECISION, 128).cost()
        long = SoftmAPMapping(BEST_PRECISION, 4096).cost()
        # Only the reduction's log term grows with the sequence length.
        assert long.cycles < 1.1 * short.cycles

    def test_energy_grows_with_sequence_length(self):
        short = SoftmAPMapping(BEST_PRECISION, 128).cost()
        long = SoftmAPMapping(BEST_PRECISION, 4096).cost()
        assert long.energy_j > 10 * short.energy_j

    def test_higher_precision_costs_more_cycles(self):
        low = SoftmAPMapping(PrecisionConfig(4, 0, 16), 1024).cost()
        high = SoftmAPMapping(PrecisionConfig(8, 0, 16), 1024).cost()
        assert high.cycles > low.cycles

    def test_reciprocal_division_is_cheaper(self):
        restoring = SoftmAPMapping(BEST_PRECISION, 1024, division="restoring").cost()
        reciprocal = SoftmAPMapping(BEST_PRECISION, 1024, division="reciprocal").cost()
        assert reciprocal.cycles < restoring.cycles

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SoftmAPMapping(BEST_PRECISION, 128, words_per_row=3)
        with pytest.raises(ValueError):
            SoftmAPMapping(BEST_PRECISION, 128, division="newton")

    def test_general_multiplication_reduces_to_table_ii(self):
        mapping = SoftmAPMapping(BEST_PRECISION, 128)
        assert mapping.multiplication_cycles_general(6, 6) == \
            mapping.cost_model.multiplication_cycles(6)


class TestPlanCache:
    def test_length_sweep_stays_bounded(self):
        """Regression: an incremental decode sweeps sequence lengths 1..T;
        the plan cache must evict instead of retaining one compiled plan
        per distinct length forever."""
        mapping = SoftmAPMapping(
            BEST_PRECISION, sequence_length=48, plan_cache_size=8
        )
        for length in range(2, 49):
            mapping.plan(sequence_length=length)
        assert len(mapping._plans) <= 8
        # Lowered programs are kept per sum-width class, not per length:
        # 2..48 spans the 1- to 6-bit classes.
        assert len(mapping._programs) == 6
        # The provisioned shape is pinned: still cached, still the object
        # the construction-time attributes were read from.
        provisioned = mapping.plan()
        assert provisioned.rows == mapping.rows
        assert len(mapping._plans) <= 8

    def test_recently_used_plans_survive(self):
        mapping = SoftmAPMapping(
            BEST_PRECISION, sequence_length=32, plan_cache_size=4
        )
        hot = mapping.plan(sequence_length=8)
        for length in range(9, 20):
            mapping.plan(sequence_length=8)  # keep the hot shape recent
            mapping.plan(sequence_length=length)
        assert mapping.plan(sequence_length=8) is hot

    def test_eviction_recompiles_transparently(self):
        """An evicted length's view is rebuilt, over its width class's
        still-cached lowered program: nothing is compiled again."""
        mapping = SoftmAPMapping(
            BEST_PRECISION, sequence_length=16, plan_cache_size=2
        )
        first = mapping.plan(sequence_length=4)
        engine = first.compiled_engine
        for length in range(5, 10):
            mapping.plan(sequence_length=length)  # evicts length 4
        recompiled = mapping.plan(sequence_length=4)
        assert recompiled is not first
        assert recompiled.rows == first.rows
        assert recompiled.program is first.program
        assert recompiled.compiled_engine is engine
        assert recompiled.cost() == first.cost()

    def test_repeated_plan_calls_cache(self):
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=16)
        assert mapping.plan(sequence_length=7) is mapping.plan(sequence_length=7)

    def test_plan_cache_size_validated(self):
        with pytest.raises(ValueError, match="plan_cache_size"):
            SoftmAPMapping(BEST_PRECISION, 16, plan_cache_size=0)


class TestFunctionalExecution:
    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_bit_exact_against_software_pipeline(self, m):
        rng = np.random.default_rng(m)
        precision = PrecisionConfig(m, 0, 20)
        scores = rng.normal(0, 2, 24)
        mapping = SoftmAPMapping(precision, sequence_length=24)
        hardware = mapping.execute_functional(scores)
        software = IntegerSoftmax(precision, barrett_correction=False)(scores)
        assert np.allclose(hardware, software, atol=1e-12)

    def test_close_to_fp_softmax(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(0, 1.5, 32)
        mapping = SoftmAPMapping(PrecisionConfig(8, 0, 20), sequence_length=32)
        hardware = mapping.execute_functional(scores)
        assert np.max(np.abs(hardware - softmax(scores))) < 0.03

    def test_requires_one_dimensional_input(self):
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=8)
        with pytest.raises(ValueError):
            mapping.execute_functional(np.zeros((2, 4)))

    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    def test_odd_length_batch_matches_software(self, backend):
        """Regression companion to the row-capacity fix: an odd sequence
        length must process *every* element (the seed dropped none in the
        functional path, but the fixed row sizing is exercised here)."""
        rng = np.random.default_rng(5)
        scores = rng.normal(0, 2, (3, 13))
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=13)
        hardware = mapping.execute_functional_batch(scores, backend=backend)
        software = IntegerSoftmax(BEST_PRECISION, barrett_correction=False)(scores)
        assert np.array_equal(hardware, software)

    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    def test_valid_lengths_bit_exact_against_unpadded_runs(self, backend):
        """Each masked vector must equal an unpadded run of its own prefix
        bit for bit, with zeros at every padding position."""
        rng = np.random.default_rng(9)
        scores = rng.normal(0, 2, (5, 12))
        lengths = np.array([1, 4, 7, 12, 9])
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=12)
        out = mapping.execute_functional_batch(
            scores, backend=backend, valid_lengths=lengths
        )
        for b, length in enumerate(lengths):
            prefix = mapping.execute_functional(scores[b, :length])
            assert np.array_equal(out[b, :length], prefix)
            assert np.all(out[b, length:] == 0.0)

    def test_valid_lengths_validation(self):
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=8)
        scores = np.zeros((2, 8))
        with pytest.raises(ValueError):
            mapping.execute_functional_batch(scores, valid_lengths=np.array([1]))
        with pytest.raises(ValueError):
            mapping.execute_functional_batch(scores, valid_lengths=np.array([0, 8]))
        with pytest.raises(ValueError):
            mapping.execute_functional_batch(scores, valid_lengths=np.array([1, 9]))

    @pytest.mark.parametrize("m", [4, 6, 8])
    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    def test_saturated_shift_field_matches_software(self, m, backend):
        """Extreme logits whose Barrett quotient saturates the variable-shift
        field (the ``max_shift_bits`` clamp of step 13) must still match the
        software pipeline bit for bit on both backends."""
        precision = PrecisionConfig(m, 0, 20)
        # A full-scale spread: one dominant logit and the rest far below the
        # clipping threshold, so their z saturates at 2**M - 1 and the
        # Barrett quotient reaches its maximum.
        scores = np.array([0.0, -1e30, -100.0, -50.0, -7.0, -6.99, -3.5, 0.0])
        mapping = SoftmAPMapping(precision, sequence_length=scores.size)
        quantized = mapping.quantizer.quantize(scores, stabilise=True)
        assert int(np.max(-quantized.values)) == 2 ** m - 1, "z must saturate"
        hardware = mapping.execute_functional(scores, backend=backend)
        software = IntegerSoftmax(precision, barrett_correction=False)(scores)
        assert np.array_equal(hardware, software)
