"""Parity suite for the graph-free batched inference path.

The contract under test: ``model.infer`` (stacked-head attention, batched
segments, one head-major softmax call per layer) is **bit-identical** — the
same float64 values, not approximately equal — to the seed autograd
``model.forward`` loop, for every sweep-legal backend, both functional AP
engines, ragged segment batches, and through ``evaluate_perplexity`` on
both inference paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.config import LlamaConfig
from repro.llm.dataset import make_corpus
from repro.llm.model import TinyLlamaModel
from repro.llm.perplexity import INFERENCE_PATHS, evaluate_perplexity
from repro.llm.trainer import Trainer
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
    config = LlamaConfig("tiny-infer", 2, 2, 2, 32, 64,
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


class TestInferForwardParity:
    @pytest.mark.parametrize("length", [1, 2, 7, 31, 48])
    def test_float_path_bit_identical(self, trained, length):
        model, corpus = trained
        tokens = corpus.validation_tokens[:length]
        assert np.array_equal(
            model.forward(tokens).numpy(), model.infer(tokens)
        )

    def test_batch_rows_match_individual_forwards(self, trained, rng):
        model, corpus = trained
        vocab = model.config.vocab_size
        batch = rng.integers(0, vocab, size=(5, 21))
        logits = model.infer(batch)
        assert logits.shape == (5, 21, vocab)
        for row in range(batch.shape[0]):
            assert np.array_equal(logits[row], model.forward(batch[row]).numpy())

    def test_ragged_padding_bit_identical(self, trained, rng):
        """Valid rows of a padded ragged batch equal the unpadded forwards."""
        model, corpus = trained
        vocab = model.config.vocab_size
        lengths = np.array([19, 5, 12, 1])
        batch = rng.integers(0, vocab, size=(4, 19))
        logits = model.infer(batch, valid_lengths=lengths)
        for row, length in enumerate(lengths):
            assert np.array_equal(
                logits[row, :length], model.forward(batch[row, :length]).numpy()
            )

    @pytest.mark.parametrize("backend", PRECISION_SWEEP_BACKENDS)
    def test_sweep_backends_bit_identical(self, trained, backend):
        model, corpus = trained
        tokens = corpus.validation_tokens[:14]
        resolved = _resolved_backend(model, backend)
        via_forward = model.forward(tokens, backend=resolved).numpy()
        assert np.array_equal(via_forward, model.infer(tokens, backend=resolved))

    @pytest.mark.parametrize("engine", ["vectorized", "reference", "compiled"])
    def test_cluster_engines_bit_identical(self, trained, engine):
        """Every functional AP engine agrees between forward and infer."""
        model, corpus = trained
        tokens = corpus.validation_tokens[:6]
        resolved = _resolved_backend(model, "ap-cluster", engine=engine)
        assert np.array_equal(
            model.forward(tokens, backend=resolved).numpy(),
            model.infer(tokens, backend=resolved),
        )

    def test_rowwise_legacy_callable_bit_identical(self, trained):
        """The batched integer backend under ``infer`` equals the seed's
        per-prefix-length integer grouping (one ``IntegerSoftmax`` call per
        causal prefix length) under the per-segment autograd forward."""
        model, corpus = trained
        tokens = corpus.validation_tokens[:11]
        assert np.array_equal(
            model.forward(
                tokens, backend=_SeedGroupedIntegerBackend(PRECISION)
            ).numpy(),
            model.infer(tokens, backend=_resolved_backend(model, "integer")),
        )

    def test_backend_selector_matches_softmax_fn(self, trained):
        """A name, a spec and a resolved backend select the same softmax."""
        model, corpus = trained
        tokens = corpus.validation_tokens[:10]
        via_fn = model.infer(
            tokens, backend=BackendSpec("integer", precision=PRECISION)
        )
        via_backend = model.infer(tokens, backend="integer")
        # Different BEST_PRECISION default vs PRECISION: resolve explicitly.
        via_spec = model.infer(
            tokens,
            backend=resolve_backend(
                "integer",
                precision=PRECISION,
                num_heads=model.config.num_heads,
                sequence_length=model.config.max_context,
            ),
        )
        assert np.array_equal(via_fn, via_spec)
        assert via_backend.shape == via_fn.shape

    def test_input_validation(self, trained):
        model, _ = trained
        with pytest.raises(ValueError, match="token batch"):
            model.infer(np.zeros((2, 2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="max context"):
            model.infer(np.zeros(model.config.max_context + 1, dtype=np.int64))
        with pytest.raises(ValueError, match="one entry per row"):
            model.infer(np.zeros((2, 4), dtype=np.int64), valid_lengths=[4])
        with pytest.raises(ValueError, match="1..seq"):
            model.infer(np.zeros((2, 4), dtype=np.int64), valid_lengths=[4, 5])
        with pytest.raises(ValueError, match="1..seq"):
            model.infer(np.zeros((2, 4), dtype=np.int64), valid_lengths=[0, 4])

    def test_valid_lengths_shape_checked_strictly(self, trained):
        """Regression: (B, 1) and (1, B) arrays used to flatten silently
        through reshape(-1); the shape is now validated before flattening."""
        model, _ = trained
        tokens = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="must be 1-D"):
            model.infer(tokens, valid_lengths=np.array([[4], [4]]))
        with pytest.raises(ValueError, match="must be 1-D"):
            model.infer(tokens, valid_lengths=np.array([[4, 4]]))
        with pytest.raises(ValueError, match="must be integers"):
            model.infer(tokens, valid_lengths=np.array([4.0, 4.0]))
        # The happy path still accepts plain Python lists.
        logits = model.infer(tokens, valid_lengths=[4, 2])
        assert logits.shape == (2, 4, model.config.vocab_size)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    batch=st.integers(1, 3),
    width=st.integers(1, 24),
    data=st.data(),
)
def test_hypothesis_ragged_batches_match_forward(
    trained_hypothesis_model, seed, batch, width, data
):
    """Property: any ragged (B, T) batch is row-wise bit-identical to the
    seed forward on each unpadded segment (float path)."""
    model = trained_hypothesis_model
    lengths = np.array(
        [data.draw(st.integers(1, width)) for _ in range(batch)], dtype=np.int64
    )
    lengths[0] = width  # at least one full row pins the batch width
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, model.config.vocab_size, size=(batch, width))
    logits = model.infer(tokens, valid_lengths=lengths)
    for row, length in enumerate(lengths):
        assert np.array_equal(
            logits[row, :length], model.forward(tokens[row, :length]).numpy()
        )


@pytest.fixture(scope="module")
def trained_hypothesis_model():
    corpus = make_corpus(paragraphs=20, seed=5, max_vocab=48)
    config = LlamaConfig("tiny-hyp", 1, 2, 2, 16, 32,
                         corpus.tokenizer.vocab_size, 24)
    model = TinyLlamaModel(config, seed=1)
    Trainer(model, corpus.train_tokens, segment_length=16,
            learning_rate=3e-3, seed=1).train(10)
    return model


class TestEvaluatePerplexityParity:
    @pytest.mark.parametrize("segment_length", [9, 16, 32])
    def test_float_paths_identical(self, trained, segment_length):
        model, corpus = trained
        tokens = corpus.validation_tokens[:80]
        loop = evaluate_perplexity(
            model, tokens, segment_length, inference_path="loop"
        )
        batched = evaluate_perplexity(
            model, tokens, segment_length, inference_path="batched"
        )
        assert batched == loop  # exact float equality

    @pytest.mark.parametrize("backend", PRECISION_SWEEP_BACKENDS)
    def test_sweep_backends_paths_identical(self, trained, backend):
        model, corpus = trained
        tokens = corpus.validation_tokens[:50]
        loop = evaluate_perplexity(
            model, tokens, 16, backend=_resolved_backend(model, backend),
            inference_path="loop",
        )
        batched = evaluate_perplexity(
            model, tokens, 16, backend=_resolved_backend(model, backend),
            inference_path="batched",
        )
        assert batched == loop

    @pytest.mark.parametrize("max_batch", [1, 2, 3, None])
    def test_max_batch_invariant(self, trained, max_batch):
        model, corpus = trained
        tokens = corpus.validation_tokens[:70]
        reference = evaluate_perplexity(model, tokens, 16, inference_path="loop")
        assert (
            evaluate_perplexity(model, tokens, 16, max_batch=max_batch)
            == reference
        )

    def test_seed_grouped_integer_fn_matches_masked_backend(self, trained):
        """The seed's per-distinct-length integer grouping (the llm-speed
        baseline) stays bit-identical to the masked single-call backend."""
        model, corpus = trained
        tokens = corpus.validation_tokens[:50]
        masked = evaluate_perplexity(
            model, tokens, 16, backend=_resolved_backend(model, "integer")
        )
        grouped = evaluate_perplexity(
            model, tokens, 16, backend=_SeedGroupedIntegerBackend(PRECISION)
        )
        assert masked == grouped

    def test_inference_path_validated(self, trained):
        model, corpus = trained
        assert set(INFERENCE_PATHS) == {"batched", "loop"}
        with pytest.raises(ValueError, match="inference_path"):
            evaluate_perplexity(
                model, corpus.validation_tokens[:20], 8,
                inference_path="batchd",
            )
        with pytest.raises(ValueError, match="max_batch"):
            evaluate_perplexity(
                model, corpus.validation_tokens[:20], 8, max_batch=0
            )


class TestInferenceCaches:
    def test_causal_mask_cached_and_read_only(self, trained):
        model, _ = trained
        mask = model.causal_mask(13)
        assert model.causal_mask(13) is mask
        assert not mask.flags.writeable
        assert model.position_ids(13) is model.position_ids(13)

    def test_stacked_weights_cached_until_update(self, trained):
        model, corpus = trained
        stacks = model.stacked_attention_weights(0)
        assert model.stacked_attention_weights(0) is stacks
        # An optimiser-style assignment bumps the Parameter version and
        # invalidates the stack.
        parameter = model.layers[0]["wq"][0]
        parameter.data = parameter.data - 0.0  # no-op value, new assignment
        rebuilt = model.stacked_attention_weights(0)
        assert rebuilt is not stacks
        assert np.array_equal(rebuilt.wq, stacks.wq)

    def test_training_invalidates_stacks_and_infer_follows(self, trained):
        model, corpus = trained
        before = model.infer(corpus.validation_tokens[:12])
        trainer = Trainer(model, corpus.train_tokens, segment_length=16,
                          learning_rate=3e-3, seed=3)
        trainer.train(1)
        after = model.infer(corpus.validation_tokens[:12])
        assert not np.array_equal(before, after)
        # And infer still agrees with forward on the updated weights.
        assert np.array_equal(
            after, model.forward(corpus.validation_tokens[:12]).numpy()
        )

    def test_manual_surgery_needs_explicit_invalidation(self, trained):
        model, corpus = trained
        tokens = corpus.validation_tokens[:10]
        model.infer(tokens)  # populate the cache
        parameter = model.layers[0]["wq"][0]
        original = parameter.data.copy()
        try:
            parameter.data[:] = parameter.data + 0.5  # slice write: no bump
            model.invalidate_inference_cache()
            assert np.array_equal(
                model.infer(tokens), model.forward(tokens).numpy()
            )
        finally:
            parameter.data = original

    def test_state_dict_round_trip(self, trained):
        model, corpus = trained
        tokens = corpus.validation_tokens[:15]
        clone = TinyLlamaModel(model.config, seed=99)
        assert not np.array_equal(model.infer(tokens), clone.infer(tokens))
        clone.load_state_dict(model.state_dict())
        assert np.array_equal(model.infer(tokens), clone.infer(tokens))
        with pytest.raises(ValueError, match="shape"):
            bad = model.state_dict()
            bad["final_norm"] = np.ones(3)
            clone.load_state_dict(bad)

