"""Tests for the LLM substrate: configs, tokenizer, corpus, model, trainer,
perplexity."""

import numpy as np
import pytest

from repro.llm.config import LLAMA2_13B, LLAMA2_70B, LLAMA2_7B, LlamaConfig, TINY_LLAMA
from repro.llm.dataset import make_corpus
from repro.llm.model import TinyLlamaModel
from repro.experiments.table3_4_perplexity import _SeedGroupedIntegerBackend
from repro.llm.perplexity import evaluate_perplexity
from repro.llm.tokenizer import WordTokenizer
from repro.llm.trainer import Trainer
from repro.quant.precision import PrecisionConfig
from repro.runtime.backend import BackendSpec, resolve_backend


def _raw_integer(config):
    """The software pipeline with the raw Barrett quotient — the AP's
    arithmetic, so its probabilities equal ``ap-cluster``'s bit for bit."""
    return BackendSpec(
        "integer", precision=config, options={"barrett_correction": False}
    )


class TestLlamaConfigs:
    def test_parameter_counts_close_to_nominal(self):
        assert abs(LLAMA2_7B.parameter_count - 6.7e9) / 6.7e9 < 0.05
        assert abs(LLAMA2_13B.parameter_count - 13.0e9) / 13.0e9 < 0.05
        assert abs(LLAMA2_70B.parameter_count - 69e9) / 69e9 < 0.05

    def test_head_dim(self):
        assert LLAMA2_7B.head_dim == 128
        assert LLAMA2_70B.head_dim == 128

    def test_gqa_only_for_70b(self):
        assert LLAMA2_7B.num_kv_heads == LLAMA2_7B.num_heads
        assert LLAMA2_70B.num_kv_heads == 8

    def test_softmax_work_counters(self):
        assert LLAMA2_7B.attention_score_elements(128, 2) == 2 * 32 * 32 * 128 * 128
        assert LLAMA2_7B.softmax_vectors_per_layer(128, 2) == 2 * 32 * 128
        assert LLAMA2_7B.flops_per_token(1024) > 2 * LLAMA2_7B.parameter_count

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LlamaConfig("bad", 1, 3, 3, 64, 128, 100, 64)  # 64 % 3 != 0


class TestTokenizerAndCorpus:
    def test_tokenizer_roundtrip_known_words(self):
        tokenizer = WordTokenizer(["alpha beta beta gamma"], max_vocab=16)
        ids = tokenizer.encode("beta gamma", add_eos=False)
        assert tokenizer.decode(ids) == "beta gamma"

    def test_unknown_words_map_to_unk(self):
        tokenizer = WordTokenizer(["alpha"], max_vocab=8)
        ids = tokenizer.encode("omega", add_eos=False)
        assert ids[0] == tokenizer.unk_id

    def test_eos_appended(self):
        tokenizer = WordTokenizer(["a b"], max_vocab=8)
        assert tokenizer.encode("a")[-1] == tokenizer.eos_id

    def test_decode_rejects_out_of_range(self):
        tokenizer = WordTokenizer(["a"], max_vocab=8)
        with pytest.raises(ValueError):
            tokenizer.decode([999])

    def test_corpus_is_deterministic(self):
        a = make_corpus(paragraphs=10, seed=3)
        b = make_corpus(paragraphs=10, seed=3)
        assert np.array_equal(a.train_tokens, b.train_tokens)
        assert a.validation_text == b.validation_text

    def test_corpus_split_sizes(self):
        corpus = make_corpus(paragraphs=20, validation_fraction=0.25, seed=0)
        assert corpus.train_tokens.size > corpus.validation_tokens.size > 0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            make_corpus(paragraphs=5, validation_fraction=1.5)


@pytest.fixture(scope="module")
def trained_model():
    corpus = make_corpus(paragraphs=60, seed=1, max_vocab=96)
    config = LlamaConfig("tiny-test", 2, 2, 2, 32, 64,
                         corpus.tokenizer.vocab_size, 64)
    model = TinyLlamaModel(config, seed=0)
    trainer = Trainer(model, corpus.train_tokens, segment_length=48,
                      learning_rate=3e-3, seed=0)
    result = trainer.train(60)
    return model, corpus, result


class TestModelAndTraining:
    def test_forward_shape(self):
        model = TinyLlamaModel(TINY_LLAMA, seed=0)
        logits = model.forward(np.arange(10) % TINY_LLAMA.vocab_size)
        assert logits.shape == (10, TINY_LLAMA.vocab_size)

    def test_forward_rejects_long_sequences(self):
        model = TinyLlamaModel(TINY_LLAMA, seed=0)
        with pytest.raises(ValueError):
            model.forward(np.zeros(TINY_LLAMA.max_context + 1, dtype=np.int64))

    def test_causality(self):
        """Changing a future token must not change earlier logits."""
        model = TinyLlamaModel(TINY_LLAMA, seed=0)
        tokens = np.arange(12) % TINY_LLAMA.vocab_size
        logits_a = model.forward(tokens).numpy()
        tokens_b = tokens.copy()
        tokens_b[-1] = (tokens_b[-1] + 1) % TINY_LLAMA.vocab_size
        logits_b = model.forward(tokens_b).numpy()
        assert np.allclose(logits_a[:-1], logits_b[:-1])

    def test_training_reduces_loss(self, trained_model):
        _, _, result = trained_model
        early = np.mean(result.losses[:10])
        late = np.mean(result.losses[-10:])
        assert late < early

    def test_replacement_softmax_identity_matches_fp(self, trained_model):
        model, corpus, _ = trained_model
        tokens = corpus.validation_tokens[:40]
        fp = evaluate_perplexity(model, tokens, segment_length=32)
        replaced = evaluate_perplexity(
            model, tokens, segment_length=32, backend="float"
        )
        assert replaced == pytest.approx(fp, rel=1e-9)

    def test_integer_softmax_perplexity_close_but_not_better(self, trained_model):
        model, corpus, _ = trained_model
        tokens = corpus.validation_tokens[:40]
        fp = evaluate_perplexity(model, tokens, segment_length=32)
        m8 = evaluate_perplexity(
            model, tokens, segment_length=32,
            backend=BackendSpec("integer", precision=PrecisionConfig(8, 0, 16)),
        )
        assert m8 >= fp - 1e-6
        assert m8 < 2.0 * fp

    def test_m4_worse_than_m8(self, trained_model):
        model, corpus, _ = trained_model
        tokens = corpus.validation_tokens[:40]
        m8 = evaluate_perplexity(
            model, tokens, segment_length=32,
            backend=BackendSpec("integer", precision=PrecisionConfig(8, 0, 16)),
        )
        m4 = evaluate_perplexity(
            model, tokens, segment_length=32,
            backend=BackendSpec("integer", precision=PrecisionConfig(4, 0, 16)),
        )
        assert m4 >= m8

    def test_batched_softmax_fn_matches_row_by_row_bit_exactly(self, trained_model):
        """One masked integer call per layer must reproduce the seed's
        per-prefix-length grouping bit for bit (same integer pipeline, same
        causal prefixes — only the batching differs)."""
        model, corpus, _ = trained_model
        tokens = corpus.validation_tokens[:30]
        config = PrecisionConfig(6, 0, 16)
        grouped = model.forward(
            tokens, backend=_SeedGroupedIntegerBackend(config)
        ).numpy()
        batched = model.forward(
            tokens, backend=BackendSpec("integer", precision=config)
        ).numpy()
        assert np.array_equal(grouped, batched)

    def test_batched_software_fn_1d_contract_matches_cluster_adapter(self):
        """The software and cluster backends must honour valid_lengths on
        the 1-D convenience path identically (zeros beyond the prefix)."""
        rng = np.random.default_rng(11)
        scores = rng.normal(0, 2, 8)
        config = PrecisionConfig(6, 0, 16)
        software = resolve_backend(_raw_integer(config))
        ap_backed = resolve_backend(
            "ap-cluster", num_heads=2, precision=config, sequence_length=8
        )
        lengths = np.array([3])
        assert np.array_equal(
            software.run(scores, valid_lengths=lengths).probabilities,
            ap_backed.run(scores, valid_lengths=lengths).probabilities,
        )
        with pytest.raises(ValueError):
            software.run(scores, valid_lengths=np.array([3, 4]))

    def test_ap_cluster_forward_matches_software_bit_exactly(self, trained_model):
        """End-to-end AP-backed attention: logits with the softmax executed
        on the functional multi-AP cluster must equal the pure-software
        integer pipeline (raw Barrett quotient) bit for bit."""
        model, corpus, _ = trained_model
        tokens = corpus.validation_tokens[:30]
        config = PrecisionConfig(6, 0, 16)
        software = model.forward(tokens, backend=_raw_integer(config)).numpy()
        ap_backed = model.forward(
            tokens,
            backend=BackendSpec(
                "ap-cluster", precision=config, sequence_length=tokens.size
            ),
        ).numpy()
        assert np.array_equal(software, ap_backed)

    def test_ap_cluster_perplexity_matches_software(self, trained_model):
        model, corpus, _ = trained_model
        tokens = corpus.validation_tokens[:40]
        config = PrecisionConfig(6, 0, 16)
        software = evaluate_perplexity(
            model, tokens, segment_length=32, backend=_raw_integer(config)
        )
        ap_backed = evaluate_perplexity(
            model, tokens, segment_length=32,
            backend=BackendSpec(
                "ap-cluster", precision=config, sequence_length=32
            ),
        )
        assert ap_backed == software

    def test_trainer_validates_segment_length(self, trained_model):
        model, corpus, _ = trained_model
        with pytest.raises(ValueError):
            Trainer(model, corpus.train_tokens[:4], segment_length=64)

    def test_perplexity_needs_tokens(self, trained_model):
        model, _, _ = trained_model
        with pytest.raises(ValueError):
            evaluate_perplexity(model, np.array([1]))
