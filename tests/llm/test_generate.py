"""Parity suite for KV-cache autoregressive decoding.

The contract under test: ``model.generate`` with ``use_cache=True``
(incremental per-layer KV-cache decode) emits **identical token ids** to
``use_cache=False`` (naive re-prefill of the growing sequence every step)
— for greedy and seeded temperature/top-k sampling, ragged prompt
batches, every sweep-legal backend, every functional AP engine and the
seed's per-prefix-length integer baseline.  Stronger still, every decode
step's next-token logits of a ragged batch equal, bit for bit, those of
decoding each prompt alone, and a ragged ``ap-cluster`` decode makes
exactly one softmax call per layer and prompt-length group with the
cluster's cost.  Plus unit coverage of the
:class:`~repro.llm.generate.KVCache` growth and the argument validation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ap.compiled import CompiledEngine
from repro.ap.engine import ENGINE_NAMES
from repro.llm.config import LlamaConfig
from repro.llm.dataset import make_corpus
from repro.llm.generate import KVCache, _sample_next_tokens
from repro.llm.model import TinyLlamaModel
from repro.llm.trainer import Trainer
from repro.mapping.plan import ExecutionPlan, width_class
from repro.quant.precision import PrecisionConfig
from repro.runtime.backend import BackendSpec, resolve_backend
from repro.experiments.table3_4_perplexity import (
    PRECISION_SWEEP_BACKENDS,
    _SeedGroupedIntegerBackend,
)

PRECISION = PrecisionConfig(6, 0, 16)


@pytest.fixture(scope="module")
def trained():
    corpus = make_corpus(paragraphs=40, seed=2, max_vocab=64)
    config = LlamaConfig("tiny-gen", 2, 2, 2, 32, 64,
                         corpus.tokenizer.vocab_size, 48)
    model = TinyLlamaModel(config, seed=0)
    Trainer(model, corpus.train_tokens, segment_length=32,
            learning_rate=3e-3, seed=0).train(30)
    return model, corpus


def _resolved_backend(model, name, engine=None):
    return resolve_backend(
        name,
        precision=PRECISION,
        num_heads=model.config.num_heads,
        sequence_length=model.config.max_context,
        engine=engine,
    )


def _prompts(model, corpus, batch, width):
    rows = [
        corpus.validation_tokens[row * width : (row + 1) * width]
        for row in range(batch)
    ]
    return np.stack(rows)


class TestGreedyParity:
    def test_uniform_batch_matches_reprefill(self, trained):
        model, corpus = trained
        prompts = _prompts(model, corpus, 4, 10)
        cached = model.generate(prompts, 12, use_cache=True)
        baseline = model.generate(prompts, 12, use_cache=False)
        assert cached.shape == (4, 12)
        assert cached.dtype == np.int64
        assert np.array_equal(cached, baseline)

    def test_ragged_batch_matches_reprefill(self, trained):
        model, corpus = trained
        prompts = _prompts(model, corpus, 4, 12)
        lengths = np.array([3, 12, 7, 12])
        cached = model.generate(prompts, 10, valid_lengths=lengths,
                                use_cache=True)
        baseline = model.generate(prompts, 10, valid_lengths=lengths,
                                  use_cache=False)
        assert np.array_equal(cached, baseline)

    def test_single_prompt_squeezes(self, trained):
        model, corpus = trained
        prompt = corpus.validation_tokens[:8]
        generated = model.generate(prompt, 6)
        assert generated.shape == (6,)
        batched = model.generate(prompt[None, :], 6)
        assert np.array_equal(generated, batched[0])

    def test_greedy_continues_the_prefill_argmax(self, trained):
        """The first generated token is the argmax of the prompt's
        last-position logits — generate agrees with infer on step one."""
        model, corpus = trained
        prompts = _prompts(model, corpus, 3, 9)
        logits = model.infer(prompts)
        first = np.argmax(logits[:, -1], axis=-1)
        generated = model.generate(prompts, 1)
        assert np.array_equal(generated[:, 0], first)

    def test_prompt_length_one(self, trained):
        model, corpus = trained
        prompts = _prompts(model, corpus, 3, 1)
        assert np.array_equal(
            model.generate(prompts, 5, use_cache=True),
            model.generate(prompts, 5, use_cache=False),
        )


class TestDecodeLowering:
    def test_decode_compiles_once_per_width_class(self, monkeypatch):
        """Regression: decode used to lower and compile one plan per
        generated length.  A ragged 64-token decode on ap-cluster builds at
        most one compiled engine per sum-width class, and repeating it
        builds none."""
        config = LlamaConfig("tiny-decode", 1, 2, 2, 16, 32, 32, 128)
        model = TinyLlamaModel(config, seed=0)
        prompts = np.random.default_rng(0).integers(0, 32, size=(2, 30))
        lengths = np.array([21, 30])
        backend = resolve_backend(
            "ap-cluster", num_heads=2, sequence_length=config.max_context
        )
        compiles = []
        classes = set()
        engine_init = CompiledEngine.__init__
        plan_execute = ExecutionPlan.execute

        def counting_init(self, lowered):
            compiles.append(lowered.width_class)
            engine_init(self, lowered)

        def recording_execute(self, scores, *args, **kwargs):
            classes.add(
                width_class(np.shape(scores)[1], self.output_fraction_bits)
            )
            return plan_execute(self, scores, *args, **kwargs)

        monkeypatch.setattr(CompiledEngine, "__init__", counting_init)
        monkeypatch.setattr(ExecutionPlan, "execute", recording_execute)
        first = model.generate(prompts, 64, valid_lengths=lengths,
                               backend=backend)
        assert len(classes) >= 2  # the sweep crosses a class boundary
        assert len(compiles) <= len(classes)
        assert len(set(compiles)) == len(compiles)
        compiles.clear()
        second = model.generate(prompts, 64, valid_lengths=lengths,
                                backend=backend)
        assert compiles == []
        assert np.array_equal(first, second)


class TestBackendParity:
    @pytest.mark.parametrize("backend", PRECISION_SWEEP_BACKENDS)
    def test_sweep_backends_match_reprefill(self, trained, backend):
        model, corpus = trained
        prompts = _prompts(model, corpus, 2, 8)
        resolved = _resolved_backend(model, backend)
        cached = model.generate(prompts, 6, backend=resolved, use_cache=True)
        baseline = model.generate(prompts, 6, backend=resolved, use_cache=False)
        assert np.array_equal(cached, baseline)

    @pytest.mark.parametrize("backend", PRECISION_SWEEP_BACKENDS)
    def test_sweep_backends_ragged_match_reprefill(self, trained, backend):
        model, corpus = trained
        prompts = _prompts(model, corpus, 3, 9)
        lengths = np.array([4, 9, 6])
        resolved = _resolved_backend(model, backend)
        cached = model.generate(prompts, 4, valid_lengths=lengths,
                                backend=resolved, use_cache=True)
        baseline = model.generate(prompts, 4, valid_lengths=lengths,
                                  backend=resolved, use_cache=False)
        assert np.array_equal(cached, baseline)

    @pytest.mark.parametrize("engine", ["vectorized", "reference", "compiled"])
    def test_cluster_engines_match_reprefill(self, trained, engine):
        model, corpus = trained
        prompts = _prompts(model, corpus, 2, 6)
        resolved = _resolved_backend(model, "ap-cluster", engine=engine)
        cached = model.generate(prompts, 3, backend=resolved, use_cache=True)
        baseline = model.generate(prompts, 3, backend=resolved, use_cache=False)
        assert np.array_equal(cached, baseline)

    def test_rowwise_legacy_callable_matches_reprefill(self, trained):
        """The seed's per-prefix-length integer grouping decodes the same
        tokens cached and re-prefilled, and the same as the masked
        single-call integer backend."""
        model, corpus = trained
        grouped = _SeedGroupedIntegerBackend(PRECISION)
        prompts = _prompts(model, corpus, 2, 7)
        cached = model.generate(prompts, 4, backend=grouped, use_cache=True)
        baseline = model.generate(prompts, 4, backend=grouped, use_cache=False)
        assert np.array_equal(cached, baseline)
        masked = model.generate(
            prompts, 4, backend=_resolved_backend(model, "integer")
        )
        assert np.array_equal(cached, masked)

    def test_backend_selector_matches_resolved_fn(self, trained):
        model, corpus = trained
        prompts = _prompts(model, corpus, 2, 8)
        via_backend = model.generate(
            prompts,
            5,
            backend=resolve_backend(
                "integer",
                precision=PRECISION,
                num_heads=model.config.num_heads,
                sequence_length=model.config.max_context,
            ),
        )
        via_fn = model.generate(
            prompts, 5, backend=BackendSpec("integer", precision=PRECISION)
        )
        assert np.array_equal(via_backend, via_fn)


def _decode_logits(monkeypatch, model, prompts, new_tokens, replay=None,
                   **kwargs):
    """Generate, returning the tokens and every step's ``(B, vocab)``
    next-token logits.  ``replay`` forces the sampled tokens (one column
    per step) instead of drawing them."""
    steps = []

    def recording(logits, temperature, top_k, rng):
        steps.append(np.array(logits))
        if replay is not None:
            return replay[:, len(steps) - 1]
        return _sample_next_tokens(logits, temperature, top_k, rng)

    monkeypatch.setattr("repro.llm.generate._sample_next_tokens", recording)
    tokens = model.generate(prompts, new_tokens, **kwargs)
    return tokens, steps


#: A ragged batch of three distinct prompt lengths, one of them shared.
RAGGED_LENGTHS = np.array([9, 4, 6, 4])


class TestLogitParity:
    """A row's logits depend only on its own prompt: the row-batched step
    must not drift by one ulp from decoding that prompt alone (B=1)."""

    @pytest.mark.parametrize(
        "name,engine",
        [(None, None), ("integer", None)]
        + [("ap-cluster", engine) for engine in ENGINE_NAMES],
    )
    def test_ragged_step_logits_match_single_prompt_decodes(
        self, trained, monkeypatch, name, engine
    ):
        model, corpus = trained
        prompts = _prompts(model, corpus, 4, 9)
        backend = None if name is None else _resolved_backend(model, name, engine)
        tokens, logits = _decode_logits(
            monkeypatch, model, prompts, 4, valid_lengths=RAGGED_LENGTHS,
            backend=backend,
        )
        for row, length in enumerate(RAGGED_LENGTHS):
            alone, alone_logits = _decode_logits(
                monkeypatch, model, prompts[row : row + 1, :length], 4,
                backend=backend,
            )
            assert np.array_equal(alone[0], tokens[row])
            assert len(alone_logits) == len(logits) == 4
            for batched, single in zip(logits, alone_logits):
                assert np.array_equal(batched[row], single[0])

    @pytest.mark.parametrize("name", [None, "ap-cluster"])
    def test_seeded_sampling_reproduces_per_row_logits(
        self, trained, monkeypatch, name
    ):
        model, corpus = trained
        prompts = _prompts(model, corpus, 4, 9)
        backend = None if name is None else _resolved_backend(model, name)
        sampling = dict(valid_lengths=RAGGED_LENGTHS, backend=backend,
                        temperature=0.8, top_k=5, seed=7)
        tokens, logits = _decode_logits(monkeypatch, model, prompts, 5, **sampling)
        again, again_logits = _decode_logits(
            monkeypatch, model, prompts, 5, **sampling
        )
        assert np.array_equal(tokens, again)
        assert all(np.array_equal(a, b) for a, b in zip(logits, again_logits))
        # Fed the tokens the batch sampled, each prompt alone sees the
        # same logits at every step.
        for row, length in enumerate(RAGGED_LENGTHS):
            _, alone_logits = _decode_logits(
                monkeypatch, model, prompts[row : row + 1, :length], 5,
                replay=tokens[row : row + 1], backend=backend,
            )
            for batched, single in zip(logits, alone_logits):
                assert np.array_equal(batched[row], single[0])


class TestCostAccounting:
    def test_ragged_decode_calls_once_per_layer_and_group(self, trained):
        """Prefill and every decode step make one ``ap-cluster`` call per
        layer and prompt-length group, decode rows go in full-width
        (``valid_lengths=None``), and the telemetry is exactly the sum of
        the cluster's per-call cost."""
        model, corpus = trained
        prompts = _prompts(model, corpus, 4, 9)
        backend = _resolved_backend(model, "ap-cluster")
        calls = []
        run = backend.run

        def recording_run(scores, valid_lengths=None):
            calls.append((scores.shape, valid_lengths is None))
            return run(scores, valid_lengths=valid_lengths)

        backend.run = recording_run
        new_tokens = 5
        model.generate(prompts, new_tokens, valid_lengths=RAGGED_LENGTHS,
                       backend=backend)

        heads, layers = model.config.num_heads, model.config.num_layers
        groups = {4: 2, 6: 1, 9: 1}  # prompt length -> rows
        expected = [
            ((heads * rows * length, length), False)
            for length, rows in groups.items()
            for _ in range(layers)
        ]
        for step in range(1, new_tokens):
            for _ in range(layers):
                expected += [
                    ((heads * rows, length + step), True)
                    for length, rows in groups.items()
                ]
        assert calls == expected

        latency = energy = cycles = 0.0
        for (rows, seq), _ in calls:
            cost = backend.cluster.cost(sequence_length=seq, batch=1)
            latency += cost.latency_s
            energy += cost.energy_j * (rows // heads)
            cycles += cost.cycles
        telemetry = backend.telemetry
        assert telemetry.calls == len(expected)
        assert telemetry.rows == sum(rows for (rows, _), _ in calls)
        assert (telemetry.cycles, telemetry.latency_s, telemetry.energy_j) == (
            cycles, latency, energy
        )


class TestSampling:
    def test_seeded_sampling_matches_reprefill(self, trained):
        model, corpus = trained
        prompts = _prompts(model, corpus, 4, 8)
        cached = model.generate(prompts, 8, temperature=0.8, top_k=5,
                                seed=7, use_cache=True)
        baseline = model.generate(prompts, 8, temperature=0.8, top_k=5,
                                  seed=7, use_cache=False)
        assert np.array_equal(cached, baseline)

    def test_same_seed_reproduces(self, trained):
        model, corpus = trained
        prompts = _prompts(model, corpus, 2, 8)
        first = model.generate(prompts, 8, temperature=1.0, seed=3)
        second = model.generate(prompts, 8, temperature=1.0, seed=3)
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self, trained):
        model, corpus = trained
        prompts = _prompts(model, corpus, 4, 8)
        first = model.generate(prompts, 10, temperature=1.5, seed=3)
        second = model.generate(prompts, 10, temperature=1.5, seed=4)
        assert not np.array_equal(first, second)

    def test_top_k_one_is_greedy(self, trained):
        model, corpus = trained
        prompts = _prompts(model, corpus, 3, 8)
        greedy = model.generate(prompts, 6, temperature=0.0)
        top1 = model.generate(prompts, 6, temperature=0.7, top_k=1, seed=11)
        assert np.array_equal(greedy, top1)

    def test_top_k_restricts_candidates(self, rng):
        logits = np.array([[0.0, 5.0, 1.0, 4.0, -2.0]])
        for seed in range(20):
            sampler = np.random.default_rng(seed)
            token = _sample_next_tokens(logits, 1.0, 2, sampler)
            assert token[0] in (1, 3)  # only the two top-k candidates

    def test_greedy_draws_nothing_from_the_rng(self, trained):
        """temperature=0 must not consume RNG draws, so greedy results are
        seed-independent."""
        model, corpus = trained
        prompts = _prompts(model, corpus, 2, 8)
        assert np.array_equal(
            model.generate(prompts, 5, seed=0),
            model.generate(prompts, 5, seed=123),
        )


class TestKVCache:
    def test_growth_preserves_contents(self, rng):
        cache = KVCache(num_layers=2, batch=3, num_heads=2, head_dim=4,
                        capacity=4)
        keys = rng.normal(size=(3, 2, 4, 4))
        values = rng.normal(size=(3, 2, 4, 4))
        cache.write(0, slice(None), 0, keys, values)
        cache.ensure_capacity(5)
        assert cache.capacity == 8  # at least doubles
        assert np.array_equal(cache.keys(0, slice(None), 4), keys)
        assert np.array_equal(cache.values(0, slice(None), 4), values)
        # The other layer grew too and stays zero.
        assert np.all(cache.keys(1, slice(None), 8) == 0.0)

    def test_ensure_capacity_noop_when_large_enough(self):
        cache = KVCache(num_layers=1, batch=1, num_heads=1, head_dim=2,
                        capacity=8)
        before = cache.keys(0, slice(None), 8)
        cache.ensure_capacity(8)
        assert cache.capacity == 8
        assert cache.keys(0, slice(None), 8) is not None
        assert before.base is not None  # still a view of the same storage

    def test_write_beyond_capacity_rejected(self, rng):
        cache = KVCache(num_layers=1, batch=1, num_heads=1, head_dim=2,
                        capacity=4)
        block = rng.normal(size=(1, 1, 2, 2))
        with pytest.raises(ValueError, match="ensure_capacity"):
            cache.write(0, slice(None), 3, block, block)

    def test_row_subset_writes(self, rng):
        cache = KVCache(num_layers=1, batch=4, num_heads=1, head_dim=2,
                        capacity=4)
        rows = np.array([1, 3])
        block = rng.normal(size=(2, 1, 3, 2))
        cache.write(0, rows, 0, block, block)
        assert np.array_equal(cache.keys(0, rows, 3), block)
        assert np.all(cache.keys(0, np.array([0, 2]), 3) == 0.0)


class TestValidation:
    def test_prompt_shape(self, trained):
        model, _ = trained
        with pytest.raises(ValueError, match="prompt batch"):
            model.generate(np.zeros((2, 2, 2), dtype=np.int64), 2)
        with pytest.raises(ValueError, match="at least one token"):
            model.generate(np.zeros((2, 0), dtype=np.int64), 2)

    def test_max_new_tokens_positive(self, trained):
        model, _ = trained
        with pytest.raises(ValueError, match="max_new_tokens"):
            model.generate(np.arange(4), 0)

    def test_temperature_non_negative(self, trained):
        model, _ = trained
        with pytest.raises(ValueError, match="temperature"):
            model.generate(np.arange(4), 2, temperature=-0.5)

    def test_top_k_positive(self, trained):
        model, _ = trained
        with pytest.raises(ValueError, match="top_k"):
            model.generate(np.arange(4), 2, temperature=1.0, top_k=0)

    def test_context_budget_enforced(self, trained):
        model, _ = trained
        width = model.config.max_context - 2
        with pytest.raises(ValueError, match="max context"):
            model.generate(np.zeros(width, dtype=np.int64), 3)

    def test_valid_lengths_strict(self, trained):
        model, _ = trained
        prompts = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="must be 1-D"):
            model.generate(prompts, 2, valid_lengths=np.array([[4], [4]]))
        with pytest.raises(ValueError, match="1..seq"):
            model.generate(prompts, 2, valid_lengths=np.array([0, 4]))


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    batch=st.integers(1, 3),
    width=st.integers(1, 12),
    new_tokens=st.integers(1, 6),
    data=st.data(),
)
def test_hypothesis_ragged_greedy_parity(
    generate_hypothesis_model, seed, batch, width, new_tokens, data
):
    """Property: for any ragged prompt batch, KV-cache decode and the
    re-prefill baseline generate identical tokens (greedy, float path)."""
    model = generate_hypothesis_model
    lengths = np.array(
        [data.draw(st.integers(1, width)) for _ in range(batch)], dtype=np.int64
    )
    lengths[0] = width  # at least one full row pins the batch width
    rng = np.random.default_rng(seed)
    prompts = rng.integers(0, model.config.vocab_size, size=(batch, width))
    cached = model.generate(prompts, new_tokens, valid_lengths=lengths,
                            use_cache=True)
    baseline = model.generate(prompts, new_tokens, valid_lengths=lengths,
                              use_cache=False)
    assert np.array_equal(cached, baseline)


@pytest.fixture(scope="module")
def generate_hypothesis_model():
    corpus = make_corpus(paragraphs=20, seed=5, max_vocab=48)
    config = LlamaConfig("tiny-gen-hyp", 1, 2, 2, 16, 32,
                         corpus.tokenizer.vocab_size, 24)
    model = TinyLlamaModel(config, seed=1)
    Trainer(model, corpus.train_tokens, segment_length=16,
            learning_rate=3e-3, seed=1).train(10)
    return model
