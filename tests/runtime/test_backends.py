"""Tests for the unified softmax-backend API (repro.runtime.backend)."""

import gc
import importlib
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.ap.engine import ENGINE_NAMES
from repro.gpu.softmax_model import GpuSoftmaxModel
from repro.gpu.spec import A100, RTX3090
from repro.llm.perplexity import evaluate_perplexity
from repro.mapping.cluster import ApCluster
from repro.mapping.plan import ExecutionPlan
from repro.mapping.softmap import SoftmAPMapping
from repro.quant.precision import BEST_PRECISION, PrecisionConfig
from repro.runtime.backend import (
    BACKEND_NAMES,
    BackendCost,
    BackendSpec,
    SoftmaxBackend,
    UnknownBackendError,
    canonical_backend_name,
    resolve_backend,
)
from repro.softmax.integer_softmax import IntegerSoftmax
from repro.softmax.reference import softmax
from repro.utils.validation import InvalidScoresError, check_finite_scores


@pytest.fixture
def scores(rng):
    return rng.normal(0.0, 2.0, size=(6, 16))


@pytest.fixture
def lengths():
    return np.array([1, 5, 16, 3, 2, 8])


class TestResolution:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_every_name_resolves(self, name):
        backend = resolve_backend(name, num_heads=2, sequence_length=16)
        assert isinstance(backend, SoftmaxBackend)
        assert backend.spec.name == name

    def test_legacy_aliases_are_unknown_backends(self):
        """Only canonical names resolve; the old aliases are typos now."""
        for name in ("fp", "fp32", "software", "software-batched", "gpu"):
            with pytest.raises(UnknownBackendError):
                canonical_backend_name(name)
            with pytest.raises(UnknownBackendError):
                BackendSpec(name=name)

    def test_unknown_name_suggests_closest(self):
        with pytest.raises(UnknownBackendError, match="did you mean 'ap-cluster'"):
            resolve_backend("ap-clstr")
        with pytest.raises(UnknownBackendError, match="did you mean 'integer'"):
            canonical_backend_name("intger")

    def test_spec_round_trip_and_overrides(self):
        spec = BackendSpec(name="integer", precision=PrecisionConfig(8, 0, 16))
        backend = resolve_backend(spec)
        assert backend.spec is spec
        overridden = resolve_backend(spec, precision=PrecisionConfig(4, 0, 16))
        assert overridden.spec.precision.input_bits == 4

    def test_instances_pass_through(self):
        backend = resolve_backend("float")
        assert resolve_backend(backend) is backend
        with pytest.raises(ValueError):
            resolve_backend(backend, sequence_length=32)

    def test_third_party_protocol_backends_pass_through(self, scores):
        """Anything satisfying the SoftmaxBackend protocol must resolve —
        the protocol is the stated extension point for new backends."""
        from repro.runtime.backend import BackendTelemetry, SoftmaxResult

        class ConstantBackend:
            def __init__(self):
                self.spec = BackendSpec(name="float")
                self.telemetry = BackendTelemetry()

            def run(self, scores, valid_lengths=None):
                return SoftmaxResult(probabilities=np.asarray(scores) * 0.0)

        backend = ConstantBackend()
        assert resolve_backend(backend) is backend

    def test_bad_engine_and_cluster_without_heads(self):
        with pytest.raises(ValueError):
            resolve_backend("ap-batch", engine="cuda")
        with pytest.raises(ValueError, match="num_heads"):
            resolve_backend("ap-cluster", sequence_length=16)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_dropped_backend_is_freed_by_reference_counting(self, name):
        """A backend must hold no reference cycle: a model rebuilt per
        request would otherwise keep every old cluster and its arenas
        alive until the cycle collector happens to run."""
        gc.disable()
        try:
            backend = resolve_backend(name, num_heads=2, sequence_length=8)
            backend.run(np.zeros((2, 8)))
            ref = weakref.ref(backend)
            del backend
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_empty_batch_returns_an_empty_result(self, name):
        backend = resolve_backend(name, num_heads=2, sequence_length=16)
        full = backend.run(np.zeros((2, 16))).cost
        for run in (backend.run, backend.run_rows):
            result = run(np.zeros((0, 16)))
            assert result.probabilities.shape == (0, 16)
            if name == "gpu-analytical":
                # No rows, no kernel: nothing is costed.
                assert result.cost == BackendCost(0.0, 0.0)
            elif name.startswith("ap"):
                # No planner pass: no time, energy or cycles, but the
                # call still occupies the silicon.
                assert result.plan.passes == 0
                assert result.cost == BackendCost(0.0, 0.0, full.area_mm2)
                assert result.cycles == 0.0
                assert all(
                    isinstance(value, float)
                    for value in (result.cycles, result.cost.latency_s,
                                  result.cost.energy_j)
                )

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_fractional_valid_lengths_are_rejected(self, name, scores):
        """A cast would truncate [2.7, ...] to [2, ...] and return a
        plausible answer for lengths nobody asked for."""
        backend = resolve_backend(name, num_heads=2, sequence_length=16)
        lengths = np.array([2.7, 3.2, 16.0, 1.0, 5.5, 8.0])
        for run in (backend.run, backend.run_rows):
            with pytest.raises(ValueError, match="must be integers"):
                run(scores, valid_lengths=lengths)
        # Integer-valued lengths in any integer dtype still work.
        for dtype in (np.int32, np.int64, np.uint8):
            backend.run(scores, valid_lengths=np.ceil(lengths).astype(dtype))


class TestInputDomain:
    """One policy on every backend: a NaN or an infinity inside a row's
    valid prefix is an ``InvalidScoresError``, never a plausible answer
    (uniform or one-hot rows) or a NaN row."""

    NON_FINITE = {
        "nan": lambda row: np.where(np.arange(row.size) == 3, np.nan, row),
        "+inf": lambda row: np.where(np.arange(row.size) == 3, np.inf, row),
        "all -inf": lambda row: np.full_like(row, -np.inf),
    }

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    @pytest.mark.parametrize("case", NON_FINITE)
    def test_non_finite_scores_are_rejected(self, name, case, scores):
        backend = resolve_backend(name, num_heads=2, sequence_length=16)
        bad = scores.copy()
        bad[1] = self.NON_FINITE[case](bad[1])
        for run in (backend.run, backend.run_rows):
            with pytest.raises(InvalidScoresError, match="row 1"):
                run(bad)
        assert backend.telemetry.calls == 0

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_non_finite_padding_is_never_read(self, name, scores, lengths):
        backend = resolve_backend(name, num_heads=2, sequence_length=16)
        padded = np.where(
            np.arange(16)[None, :] < lengths[:, None], scores, -np.inf
        )
        expected = backend.run(scores, valid_lengths=lengths).probabilities
        for run in (backend.run, backend.run_rows):
            out = run(padded, valid_lengths=lengths).probabilities
            assert np.array_equal(out, expected)


    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_are_rejected_below_the_backend_seam(
        self, engine, bad
    ):
        """``ExecutionPlan.execute`` (every engine) and
        ``IntegerSoftmax.forward`` hold the backends' policy.  Before, the
        compiled engine returned a uniform row for a NaN, the per-op
        engines raised an untyped word-range ``ValueError`` and the
        integer pipeline a Barrett one."""
        plan = ExecutionPlan(sequence_length=4, engine=engine)
        scores = np.array([[0.3, -1.0, 0.5, 2.0], [1.0, bad, 0.5, 2.0]])
        with pytest.raises(InvalidScoresError, match="row 1"):
            plan.execute(scores)
        with pytest.raises(InvalidScoresError, match="row 1"):
            IntegerSoftmax().forward(scores)
        # Non-finite padding beyond valid_lengths is never read.
        lengths = np.array([4, 1])
        finite = np.where(np.isfinite(scores), scores, 0.0)
        assert np.array_equal(
            plan.execute(scores, valid_lengths=lengths),
            plan.execute(finite, valid_lengths=lengths),
        )
        assert np.array_equal(
            IntegerSoftmax().forward(scores, valid_lengths=lengths).probabilities,
            IntegerSoftmax().forward(finite, valid_lengths=lengths).probabilities,
        )


class TestFiniteCheckRunsOnce:
    """Each backend call checks its scores for non-finite values exactly
    once: at the backend seam for ``float``/``gpu-analytical``, below it
    (``ExecutionPlan._prepare``, ``IntegerSoftmax.forward``) otherwise."""

    MODULES = (
        "repro.runtime.backend",
        "repro.mapping.plan",
        "repro.softmax.integer_softmax",
    )

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_one_check_per_call(self, name, scores, lengths, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return check_finite_scores(*args, **kwargs)

        for module in self.MODULES:
            monkeypatch.setattr(
                importlib.import_module(module), "check_finite_scores", counted
            )
        backend = resolve_backend(name, num_heads=2, sequence_length=16)
        for run in (backend.run, backend.run_rows):
            for valid_lengths in (None, lengths):
                calls.clear()
                run(scores, valid_lengths=valid_lengths)
                assert len(calls) == 1

    def test_nan_in_the_last_tiled_pass_is_rejected(self, rng):
        backend = resolve_backend(
            "ap-cluster",
            num_heads=2,
            sequence_length=8,
            options={"pass_row_budget": 16},
        )
        scores = rng.normal(0.0, 2.0, size=(6, 8))
        scores[5, 4] = np.nan  # rows 4..5 form the third and last pass
        for run in (backend.run, backend.run_rows):
            with pytest.raises(InvalidScoresError):
                run(scores)
        assert backend.telemetry.calls == 0
        assert backend.run(scores[:4]).plan.passes == 2


class TestProbabilityParity:
    """Every backend family must agree bit for bit with its legacy path."""

    def test_float_matches_reference_softmax(self, scores):
        result = resolve_backend("float").run(scores)
        assert np.array_equal(result.probabilities, softmax(scores))
        assert result.cost is None and result.cycles is None

    def test_integer_matches_software_pipeline(self, scores):
        backend = resolve_backend("integer", precision=BEST_PRECISION)
        expected = IntegerSoftmax(BEST_PRECISION)(scores)
        assert np.array_equal(backend.run(scores).probabilities, expected)
        vector = scores[0, :9]
        assert np.array_equal(
            backend.run(vector).probabilities, IntegerSoftmax(BEST_PRECISION)(vector)
        )

    def test_integer_masked_matches_per_row_prefixes(self, scores, lengths):
        backend = resolve_backend("integer")
        out = backend.run(scores, valid_lengths=lengths).probabilities
        software = IntegerSoftmax(BEST_PRECISION)
        for i, length in enumerate(lengths):
            assert np.array_equal(out[i, :length], software(scores[i, :length]))
            assert np.all(out[i, length:] == 0.0)

    def test_ap_batch_matches_mapping_and_raw_barrett(self, scores):
        backend = resolve_backend("ap-batch", sequence_length=16)
        out = backend.run(scores).probabilities
        mapping = SoftmAPMapping(
            BEST_PRECISION, sequence_length=16, backend="vectorized"
        )
        assert np.array_equal(out, mapping.execute_functional_batch(scores))
        raw = IntegerSoftmax(BEST_PRECISION, barrett_correction=False)(scores)
        assert np.array_equal(out, raw)

    def test_ap_row_matches_ap_batch(self, scores, lengths):
        row = resolve_backend("ap", sequence_length=16)
        batch = resolve_backend("ap-batch", sequence_length=16)
        assert np.array_equal(
            row.run(scores).probabilities, batch.run(scores).probabilities
        )
        assert np.array_equal(
            row.run(scores, valid_lengths=lengths).probabilities,
            batch.run(scores, valid_lengths=lengths).probabilities,
        )
        # ``ap-batch`` is the cluster with one head: same bits, cost,
        # cycles and plan (bar the measured wall clock).
        cluster = resolve_backend("ap-cluster", num_heads=1, sequence_length=16)
        for valid_lengths in (None, lengths):
            for seam in ("run", "run_rows"):
                one = getattr(batch, seam)(scores, valid_lengths=valid_lengths)
                two = getattr(cluster, seam)(scores, valid_lengths=valid_lengths)
                assert np.array_equal(one.probabilities, two.probabilities)
                assert one.cost == two.cost and one.cycles == two.cycles
                assert replace(one.plan, wall_seconds=0.0) == replace(
                    two.plan, wall_seconds=0.0
                )

    @pytest.mark.parametrize("name", ["ap", "ap-batch"])
    def test_one_ap_flattens_leading_axes(self, name, rng, lengths):
        """On one AP every leading axis is a row: ``(2, 3, 8)`` is the
        ``(6, 8)`` call, bits and cost."""
        tensor = rng.normal(0.0, 2.0, size=(2, 3, 8))
        backend = resolve_backend(name, num_heads=2, sequence_length=8)
        flat_lengths = np.minimum(lengths, 8)
        for valid_lengths in (None, flat_lengths):
            nested = backend.run(tensor, valid_lengths=valid_lengths)
            flat = backend.run(tensor.reshape(6, 8), valid_lengths=valid_lengths)
            assert nested.probabilities.shape == (2, 3, 8)
            assert np.array_equal(
                nested.probabilities.reshape(6, 8), flat.probabilities
            )
            assert nested.cost == flat.cost and nested.cycles == flat.cycles

    def test_ap_cluster_matches_legacy_adapter(self, rng):
        """A resolved 'ap-cluster' backend equals the cluster's own
        as_backend() wrapper on the head-major layout."""
        heads, batch, seq = 3, 4, 12
        tensor = rng.normal(0.0, 2.0, size=(batch, heads, seq))
        head_major = tensor.transpose(1, 0, 2).reshape(heads * batch, seq)
        cluster = ApCluster(num_heads=heads, sequence_length=seq)
        legacy = cluster.as_backend().run(head_major).probabilities
        backend = resolve_backend("ap-cluster", num_heads=heads, sequence_length=seq)
        assert np.array_equal(backend.run(head_major).probabilities, legacy)
        # The 3-D entry point agrees with the cluster's native execute().
        assert np.array_equal(
            backend.run(tensor).probabilities, cluster.execute(tensor)
        )

    def test_gpu_analytical_probabilities_are_float(self, scores):
        backend = resolve_backend("gpu-analytical", num_heads=2)
        result = backend.run(scores)
        assert np.array_equal(result.probabilities, softmax(scores))

    def test_one_dimensional_vectors(self, rng):
        vector = rng.normal(0.0, 2.0, size=11)
        raw = IntegerSoftmax(BEST_PRECISION, barrett_correction=False)(vector)
        for name in ("ap", "ap-batch"):
            out = resolve_backend(name, sequence_length=11).run(vector)
            assert out.probabilities.shape == vector.shape
            assert np.array_equal(out.probabilities, raw)
        cluster = resolve_backend("ap-cluster", num_heads=2, sequence_length=11)
        assert np.array_equal(cluster.run(vector).probabilities, raw)


class TestCostTelemetry:
    def test_ap_costs_attached(self, scores):
        backend = resolve_backend("ap-batch", sequence_length=16)
        result = backend.run(scores)
        assert result.cost is not None and result.cycles > 0
        assert result.cost.latency_s > 0 and result.cost.energy_j > 0
        assert result.cost.edp == pytest.approx(
            result.cost.latency_s * result.cost.energy_j
        )

    def test_ap_batch_energy_scales_with_rows_not_cycles(self, scores):
        backend = resolve_backend("ap-batch", sequence_length=16)
        one = backend.run(scores[:1])
        six = backend.run(scores)
        assert six.cycles == one.cycles
        assert six.cost.energy_j == pytest.approx(6 * one.cost.energy_j)

    def test_ap_cost_is_the_serial_sum_of_per_length_passes(
        self, scores, lengths
    ):
        """``ap`` is charged as one pass per row at its valid length, run
        one after another: the row-order sum of a fresh mapping's cost at
        each length, exactly."""
        backend = resolve_backend("ap", sequence_length=16)
        for valid_lengths in (lengths, None):
            per_row = [16] * 6 if valid_lengths is None else valid_lengths
            latency = energy = cycles = 0.0
            for length in per_row:
                cost = SoftmAPMapping(sequence_length=int(length)).cost()
                latency += cost.latency_s
                energy += cost.energy_j
                cycles += cost.cycles
            for run in (backend.run, backend.run_rows):
                result = run(scores, valid_lengths=valid_lengths)
                assert result.cost.latency_s == latency
                assert result.cost.energy_j == energy
                assert result.cycles == cycles
                assert result.cost.area_mm2 == (
                    SoftmAPMapping(sequence_length=16).cost().area_mm2
                )

    def test_cluster_cost_uses_concurrency_accounting(self, rng):
        heads, batch, seq = 4, 2, 16
        tensor = rng.normal(0.0, 2.0, size=(batch, heads, seq))
        backend = resolve_backend("ap-cluster", num_heads=heads, sequence_length=seq)
        result = backend.run(tensor)
        expected = backend.cluster.cost(sequence_length=seq, batch=batch)
        assert result.cost.latency_s == pytest.approx(expected.latency_s)
        assert result.cost.energy_j == pytest.approx(expected.energy_j)

    def test_cluster_one_dimensional_charges_one_head_only(self, rng):
        """A 1-D vector executes on head 0 alone; its cost must be one
        per-head pass, independent of the cluster width."""
        vector = rng.normal(0.0, 2.0, size=16)
        wide = resolve_backend("ap-cluster", num_heads=4, sequence_length=16)
        narrow = resolve_backend("ap-cluster", num_heads=1, sequence_length=16)
        wide_result = wide.run(vector)
        narrow_result = narrow.run(vector)
        assert wide_result.cost.energy_j == pytest.approx(
            narrow_result.cost.energy_j
        )
        assert wide_result.cost.area_mm2 == pytest.approx(
            narrow_result.cost.area_mm2
        )
        assert wide_result.cycles == narrow_result.cycles

    def test_gpu_cost_matches_kernel_model(self, scores):
        backend = resolve_backend(
            "gpu-analytical", num_heads=2, options={"gpu": "RTX3090"}
        )
        result = backend.run(scores)
        kernel = GpuSoftmaxModel(RTX3090).decode_cost(3, 2, 16)
        assert result.cost.latency_s == pytest.approx(kernel.latency_s)
        assert result.cost.energy_j == pytest.approx(kernel.energy_j)

    def test_gpu_cost_exact_for_indivisible_row_counts(self, rng):
        """Rows not divisible by num_heads must still be costed exactly
        (no flooring): a (6, seq) tensor moves 6 rows, not 4."""
        backend = resolve_backend("gpu-analytical", num_heads=4)
        six = backend.run(rng.normal(0.0, 2.0, size=(6, 16)))
        kernel = GpuSoftmaxModel(A100).decode_cost(6, 1, 16)
        assert six.cost.energy_j == pytest.approx(kernel.energy_j)
        four = backend.run(rng.normal(0.0, 2.0, size=(4, 16)))
        assert six.cost.energy_j > four.cost.energy_j

    def test_telemetry_accumulates_and_resets(self, scores):
        backend = resolve_backend("ap-batch", sequence_length=16)
        backend.run(scores)
        backend.run(scores)
        assert backend.telemetry.calls == 2
        assert backend.telemetry.rows == 12
        assert backend.telemetry.energy_j > 0
        backend.telemetry.reset()
        assert backend.telemetry.calls == 0 and backend.telemetry.energy_j == 0.0

    def test_cluster_shim_exposes_runtime_telemetry(self, rng):
        backend = ApCluster(num_heads=2, sequence_length=8).as_backend()
        backend.run(rng.normal(0.0, 2.0, size=(4, 8)))
        telemetry = backend.telemetry
        assert telemetry.calls == 1 and telemetry.energy_j > 0


class TestLegacyShims:
    """Batched backend calls against their one-row-at-a-time equivalents."""

    def test_integer_softmax_fn_batched_matches_unbatched(self, scores):
        config = PrecisionConfig(6, 0, 16)
        backend = resolve_backend("integer", precision=config)
        rows = np.stack([backend.run(row).probabilities for row in scores])
        assert np.array_equal(backend.run(scores).probabilities, rows)

    def test_ap_cluster_softmax_fn_matches_backend(self, rng):
        heads, t = 2, 6
        scores = rng.normal(0.0, 2.0, size=(heads * t, t))
        config = PrecisionConfig(6, 0, 16)
        cluster = ApCluster(num_heads=heads, precision=config, sequence_length=t)
        backend = resolve_backend(
            "ap-cluster", num_heads=heads, precision=config, sequence_length=t
        )
        assert np.array_equal(
            cluster.as_backend().run(scores).probabilities,
            backend.run(scores).probabilities,
        )


class TestModelIntegration:
    @pytest.fixture(scope="class")
    def trained(self):
        from repro.experiments.table3_4_perplexity import train_reference_model

        return train_reference_model(training_steps=40)

    def test_forward_backend_matches_softmax_fn(self, trained):
        """A spec and an already-resolved backend give the same logits."""
        model, corpus = trained
        tokens = corpus.validation_tokens[:24]
        config = PrecisionConfig(8, 0, 16)
        via_resolved = model.forward(
            tokens,
            backend=resolve_backend(
                "integer",
                precision=config,
                num_heads=model.config.num_heads,
                sequence_length=model.config.max_context,
            ),
        ).numpy()
        via_backend = model.forward(
            tokens, backend=BackendSpec(name="integer", precision=config)
        ).numpy()
        assert np.array_equal(via_resolved, via_backend)

    def test_perplexity_ap_cluster_backend_parity_pinned(self, trained):
        """Acceptance pin: the 'ap-cluster' backend reached by name must be
        bit-identical (identical perplexity float) to the software pipeline
        with the raw Barrett quotient, and to an explicitly built cluster's
        own backend, for one perplexity point."""
        model, corpus = trained
        tokens = corpus.validation_tokens[:97]
        config = PrecisionConfig(8, 0, 16)
        legacy = evaluate_perplexity(
            model,
            tokens,
            segment_length=48,
            backend=ApCluster(
                num_heads=model.config.num_heads,
                precision=config,
                sequence_length=model.config.max_context,
            ).as_backend(),
        )
        software = evaluate_perplexity(
            model,
            tokens,
            segment_length=48,
            backend=BackendSpec(
                "integer",
                precision=config,
                options={"barrett_correction": False},
            ),
        )
        unified = evaluate_perplexity(
            model,
            tokens,
            segment_length=48,
            backend=BackendSpec(name="ap-cluster", precision=config),
        )
        assert unified == legacy == software  # exact float equality

    def test_perplexity_sweep_rejects_precision_ignoring_backends(self):
        """The Tables III/IV sweep varies PrecisionConfig per row; backends
        that ignore it (float, gpu-analytical) would silently report the FP
        baseline everywhere and must be rejected before training starts."""
        from repro.experiments.table3_4_perplexity import run_perplexity_sweep

        for name in ("float", "gpu-analytical"):
            with pytest.raises(ValueError, match="ignores the per-point"):
                run_perplexity_sweep(softmax_backend=name)
        with pytest.raises(UnknownBackendError):
            run_perplexity_sweep(softmax_backend="software")
