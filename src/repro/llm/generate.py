"""Autoregressive decoding with a per-layer KV cache.

Everything else in :mod:`repro.llm` is prefill-shaped — the perplexity
protocol evaluates full segments in one pass — but the deployment scenario
the paper's hardware targets is token-by-token generation.  This module
provides that path on top of the graph-free inference substrate
(:mod:`repro.llm.infer`):

**Prefill reuses the inference forward.**  The prompt runs through the
very same :func:`~repro.llm.infer._forward_batch` the perplexity path
uses, with a ``kv_sink`` collecting each layer's key/value projections, so
the cache is seeded with the exact arrays the prefill logits were computed
from.  Ragged prompt batches ride along via the existing ``valid_lengths``
grouping: rows are grouped by prompt length and each group prefills at its
natural width.  The groups stay fixed for the whole generation — every row
appends exactly one token per step — so the decode loop re-uses them.

**Incremental decode.**  Each step embeds one token per row and attends
against the cached keys/values: per layer one ``(g, h, 1, hd)`` query
against a ``(g, h, t, hd)`` cache, using the same cached
:class:`~repro.llm.model.StackedAttentionWeights` stacks (invalidated via
the ``Parameter`` version counters) as the prefill.  The
:class:`KVCache` grows geometrically, so a long generation performs
``O(log T)`` reallocations, not one per token.

**Replacement softmax across a length sweep.**  With a replacement softmax
backend each decode step dispatches one head-major ``(h * g, t)`` row
space — every row a full-width query over the ``t``-entry cache — through
:func:`~repro.llm.model.causal_batched_softmax` with explicit
``valid_lengths``.  The sequence length ``t`` advances by one per step,
which is exactly the 1..T shape sweep the bounded
:meth:`~repro.mapping.softmap.SoftmAPMapping.plan` LRU cache exists for.

**The baseline, and parity.**  ``use_cache=False`` re-prefills the whole
growing sequence every step through :func:`~repro.llm.infer.infer` and
reads the last valid position's logits — the naive quadratic baseline.
Both paths draw from the same seeded RNG stream (one draw vector per
step), and the generated tokens are pinned identical across the two paths
for every sweep backend by ``tests/llm/test_generate.py``; the decode
benchmark pins the cached path's tokens/sec against this baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple, Union

import numpy as np

from repro.llm.infer import _feed_forward, _forward_batch, infer
from repro.llm.model import causal_batched_softmax
from repro.nn.functional import rms_norm_forward, softmax_forward
from repro.utils.validation import check_positive_int, check_valid_lengths

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.llm.model import TinyLlamaModel
    from repro.runtime.backend import SoftmaxBackend

__all__ = ["KVCache", "generate"]

#: Row selector of one prompt-length group: ``slice(None)`` when a single
#: group covers the whole batch (keeps cache reads as views), an index
#: array otherwise.
Rows = Union[slice, np.ndarray]


class KVCache:
    """Per-layer key/value cache for incremental decoding.

    One pair of ``(batch, num_heads, capacity, head_dim)`` float64 arrays
    per decoder layer, plus the per-row valid lengths.  The capacity grows
    geometrically (at least doubling per reallocation), so appending one
    position per step over a ``T``-token generation copies ``O(T)`` total
    amortised, not ``O(T^2)``.
    """

    def __init__(
        self,
        num_layers: int,
        batch: int,
        num_heads: int,
        head_dim: int,
        capacity: int,
    ) -> None:
        self.batch = batch
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.capacity = check_positive_int(capacity, "capacity")
        #: Per-row number of valid cached positions (maintained by the
        #: decode loop).
        self.lengths = np.zeros(batch, dtype=np.int64)
        shape = (batch, num_heads, self.capacity, head_dim)
        self._keys: List[np.ndarray] = [np.zeros(shape) for _ in range(num_layers)]
        self._values: List[np.ndarray] = [np.zeros(shape) for _ in range(num_layers)]

    @property
    def num_layers(self) -> int:
        return len(self._keys)

    def ensure_capacity(self, capacity: int) -> None:
        """Grow every layer's arrays to hold ``capacity`` positions.

        Growth at least doubles the current capacity, preserving all cached
        contents; a no-op when the cache is already large enough.
        """
        if capacity <= self.capacity:
            return
        new_capacity = max(capacity, 2 * self.capacity)
        for arrays in (self._keys, self._values):
            for index, old in enumerate(arrays):
                grown = np.zeros(
                    (self.batch, self.num_heads, new_capacity, self.head_dim)
                )
                grown[:, :, : self.capacity] = old
                arrays[index] = grown
        self.capacity = new_capacity

    def write(
        self,
        layer: int,
        rows: Rows,
        start: int,
        keys: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Store ``(g, h, n, hd)`` key/value blocks at positions
        ``start..start+n`` of the selected rows (``n = 1`` per decode step,
        ``n = prompt length`` at prefill)."""
        n = keys.shape[2]
        if start + n > self.capacity:
            raise ValueError(
                f"write of {n} positions at {start} exceeds capacity "
                f"{self.capacity}; call ensure_capacity first"
            )
        self._keys[layer][rows, :, start : start + n] = keys
        self._values[layer][rows, :, start : start + n] = values

    def keys(self, layer: int, rows: Rows, length: int) -> np.ndarray:
        """The selected rows' first ``length`` cached key positions,
        shape ``(g, h, length, hd)``."""
        return self._keys[layer][rows, :, :length]

    def values(self, layer: int, rows: Rows, length: int) -> np.ndarray:
        """The selected rows' first ``length`` cached value positions,
        shape ``(g, h, length, hd)``."""
        return self._values[layer][rows, :, :length]


def generate(
    model: "TinyLlamaModel",
    prompts: np.ndarray,
    max_new_tokens: int,
    valid_lengths: Optional[np.ndarray] = None,
    backend: Optional[object] = None,
    temperature: float = 0.0,
    top_k: Optional[int] = None,
    seed: int = 0,
    use_cache: bool = True,
) -> np.ndarray:
    """Generate tokens autoregressively from a batch of prompts.

    Parameters
    ----------
    model:
        The model to decode with.
    prompts:
        Integer token ids of shape ``(B, P)`` — one row per prompt — or a
        single ``(P,)`` prompt.
    max_new_tokens:
        Number of tokens to generate per prompt (``>= 1``).
    valid_lengths:
        Optional per-prompt token counts (1-D, shape ``(B,)``, entries in
        ``1..P``) for ragged prompt batches: row ``b``'s tokens at
        positions ``>= valid_lengths[b]`` are ignored and generation
        continues from position ``valid_lengths[b]``.
    backend:
        Optional replacement attention softmax (name / spec / resolved
        backend, as for :func:`~repro.llm.infer.infer`); ``None`` keeps
        the floating-point softmax.
    temperature:
        ``0.0`` (default) decodes greedily (argmax).  A positive value
        samples from ``softmax(logits / temperature)``.
    top_k:
        With a positive ``temperature``, restrict sampling to the ``k``
        highest-scoring tokens (ties at the cutoff are kept).  Ignored
        when decoding greedily.
    seed:
        Seed of the sampling RNG.  The RNG draws one vector per step for
        the whole batch, so the cached and baseline paths consume an
        identical stream.
    use_cache:
        ``True`` (default) decodes incrementally through the
        :class:`KVCache`; ``False`` re-prefills the whole sequence every
        step (the naive baseline).  Both paths generate identical tokens.

    Returns
    -------
    numpy.ndarray
        Generated int64 token ids of shape ``(B, max_new_tokens)``
        (``(max_new_tokens,)`` for a 1-D prompt).
    """
    backend = model._resolve_backend(backend)
    prompts = np.asarray(prompts, dtype=np.int64)
    squeeze = prompts.ndim == 1
    if squeeze:
        prompts = prompts[None, :]
    if prompts.ndim != 2:
        raise ValueError("generate expects a (B, P) prompt batch or a 1-D prompt")
    batch, width = prompts.shape
    if batch < 1 or width < 1:
        raise ValueError("generate needs at least one token per prompt")
    max_new_tokens = check_positive_int(max_new_tokens, "max_new_tokens")
    if temperature < 0.0:
        raise ValueError(f"temperature must be non-negative, got {temperature}")
    if top_k is not None:
        top_k = check_positive_int(top_k, "top_k")
    if valid_lengths is not None and np.ndim(valid_lengths) != 1:
        raise ValueError("valid_lengths must be 1-D, one entry per segment")
    lengths = check_valid_lengths(valid_lengths, batch, width)
    if lengths is None:
        lengths = np.full(batch, width, dtype=np.int64)
    total = int(lengths.max()) + max_new_tokens
    if total > model.config.max_context:
        raise ValueError(
            f"longest prompt ({int(lengths.max())}) + max_new_tokens "
            f"({max_new_tokens}) exceeds max context {model.config.max_context}"
        )

    rng = np.random.default_rng(seed)
    if use_cache:
        generated = _generate_cached(
            model, prompts, lengths, max_new_tokens, backend, temperature,
            top_k, rng,
        )
    else:
        generated = _generate_reprefill(
            model, prompts, lengths, max_new_tokens, backend, temperature,
            top_k, rng,
        )
    return generated[0] if squeeze else generated


# --------------------------------------------------------------------------- #
# Cached incremental decoding                                                  #
# --------------------------------------------------------------------------- #
def _prompt_groups(lengths: np.ndarray) -> List[Tuple[int, Rows]]:
    """Rows grouped by prompt length (the ``valid_lengths`` idiom of
    :func:`~repro.llm.infer.infer`).  Every row appends one token per
    step, so the groups stay fixed for the whole generation; a uniform
    batch keeps ``slice(None)`` so cache reads stay views."""
    unique = np.unique(lengths)
    if unique.size == 1:
        return [(int(unique[0]), slice(None))]
    return [(int(length), np.flatnonzero(lengths == length)) for length in unique]


def _generate_cached(
    model: "TinyLlamaModel",
    prompts: np.ndarray,
    lengths: np.ndarray,
    max_new_tokens: int,
    backend: Optional["SoftmaxBackend"],
    temperature: float,
    top_k: Optional[int],
    rng: np.random.Generator,
) -> np.ndarray:
    batch = prompts.shape[0]
    config = model.config
    groups = _prompt_groups(lengths)
    cache = KVCache(
        num_layers=config.num_layers,
        batch=batch,
        num_heads=config.num_heads,
        head_dim=config.head_dim,
        capacity=int(lengths.max()),
    )
    generated = np.empty((batch, max_new_tokens), dtype=np.int64)
    logits_last = np.empty((batch, config.vocab_size))

    # Prefill: the standard batched forward per natural-width group, with
    # the kv_sink seeding the cache from the very arrays the prefill logits
    # were computed from.
    for length, rows in groups:
        sink: List[Tuple[np.ndarray, np.ndarray]] = []
        block_logits = _forward_batch(
            model, prompts[rows, :length], backend, kv_sink=sink
        )
        logits_last[rows] = block_logits[:, -1]
        for layer_index, (k, v) in enumerate(sink):
            cache.write(layer_index, rows, 0, k, v)
    cache.lengths[:] = lengths
    generated[:, 0] = _sample_next_tokens(logits_last, temperature, top_k, rng)

    for step in range(1, max_new_tokens):
        cache.ensure_capacity(int(cache.lengths.max()) + 1)
        for length, rows in groups:
            position = length + step - 1  # 0-indexed position of the fed token
            logits_last[rows] = _decode_step(
                model, cache, rows, generated[rows, step - 1], position, backend
            )
        cache.lengths += 1
        generated[:, step] = _sample_next_tokens(logits_last, temperature, top_k, rng)
    return generated


def _decode_step(
    model: "TinyLlamaModel",
    cache: KVCache,
    rows: Rows,
    tokens: np.ndarray,
    position: int,
    backend: Optional["SoftmaxBackend"],
) -> np.ndarray:
    """One incremental decoder pass: feed one token per selected row at
    ``position`` and return the next-token logits, shape ``(g, vocab)``."""
    scale_factor = 1.0 / np.sqrt(model.config.head_dim)
    x = (
        model.token_embedding.data[tokens]
        + model.position_embedding.data[position]
    )[:, None, :]  # (g, 1, d)
    for index, layer in enumerate(model.layers):
        x = x + _decode_attention(
            model, cache, index, rows, x, position, scale_factor, backend
        )
        x = x + _feed_forward(x, layer)
    x = rms_norm_forward(x, model.final_norm.data)
    return np.matmul(x, model.output_head.data)[:, 0]


def _decode_attention(
    model: "TinyLlamaModel",
    cache: KVCache,
    layer_index: int,
    rows: Rows,
    x: np.ndarray,
    position: int,
    scale_factor: float,
    backend: Optional["SoftmaxBackend"],
) -> np.ndarray:
    """Single-query attention against the cache: ``(g, h, 1, hd)`` queries
    over ``(g, h, t, hd)`` cached keys/values, ``t = position + 1``."""
    layer = model.layers[layer_index]
    stacks = model.stacked_attention_weights(layer_index)
    normed = rms_norm_forward(x, layer["attn_norm"].data)
    hidden = normed[:, None]  # (g, 1, 1, d) broadcast against (h, d, hd)
    q = np.matmul(hidden, stacks.wq)  # (g, h, 1, hd)
    k = np.matmul(hidden, stacks.wk)
    v = np.matmul(hidden, stacks.wv)
    # The new position's keys/values enter the cache before scoring: the
    # query attends to itself, exactly like the prefill's causal diagonal.
    cache.write(layer_index, rows, position, k, v)
    t = position + 1
    keys = cache.keys(layer_index, rows, t)
    values = cache.values(layer_index, rows, t)
    scores = np.matmul(q, keys.transpose(0, 1, 3, 2)) * scale_factor  # (g, h, 1, t)

    if backend is None:
        probabilities = softmax_forward(scores)
    else:
        probabilities = _decode_batched_softmax(scores, backend)

    context = np.matmul(probabilities, values)  # (g, h, 1, hd)
    projected = np.matmul(context, stacks.wo)  # (g, h, 1, d)
    output = projected[:, 0]
    for head in range(1, model.config.num_heads):
        output = output + projected[:, head]
    return output


def _decode_batched_softmax(
    scores: np.ndarray, backend: "SoftmaxBackend"
) -> np.ndarray:
    """One head-major softmax call per decode step.

    The ``(g, h, 1, t)`` step scores flatten to ``(h * g, t)`` — head-major
    per :func:`~repro.llm.model.causal_batched_softmax`, the layout
    authority — with every row a full-width query over the ``t``-entry
    cache, i.e. explicit ``valid_lengths`` of ``t`` instead of the tiled
    causal prefix lengths of a prefill block.
    """
    g, h, t = scores.shape[0], scores.shape[1], scores.shape[3]
    stacked = scores[:, :, 0].transpose(1, 0, 2).reshape(h * g, t)
    probabilities = causal_batched_softmax(
        stacked, backend, valid_lengths=np.full(h * g, t, dtype=np.int64)
    )
    return probabilities.reshape(h, g, t).transpose(1, 0, 2)[:, :, None]


# --------------------------------------------------------------------------- #
# Re-prefill baseline                                                          #
# --------------------------------------------------------------------------- #
def _generate_reprefill(
    model: "TinyLlamaModel",
    prompts: np.ndarray,
    lengths: np.ndarray,
    max_new_tokens: int,
    backend: Optional["SoftmaxBackend"],
    temperature: float,
    top_k: Optional[int],
    rng: np.random.Generator,
) -> np.ndarray:
    """The naive baseline: re-run the full prefill on the growing sequence
    every step and read the last valid position's logits.  Quadratic in
    generated tokens; exists as the benchmark/parity reference."""
    batch = prompts.shape[0]
    ragged = lengths.min() != lengths.max()
    buffer = np.zeros((batch, int(lengths.max()) + max_new_tokens), dtype=np.int64)
    for row in range(batch):
        buffer[row, : lengths[row]] = prompts[row, : lengths[row]]
    current = lengths.copy()
    row_index = np.arange(batch)
    generated = np.empty((batch, max_new_tokens), dtype=np.int64)
    for step in range(max_new_tokens):
        width = int(current.max())
        logits = infer(
            model,
            buffer[:, :width],
            valid_lengths=current if ragged else None,
            backend=backend,
        )
        logits_last = logits[row_index, current - 1]
        tokens = _sample_next_tokens(logits_last, temperature, top_k, rng)
        generated[:, step] = tokens
        buffer[row_index, current] = tokens
        current += 1
    return generated


# --------------------------------------------------------------------------- #
# Sampling                                                                     #
# --------------------------------------------------------------------------- #
def _sample_next_tokens(
    logits: np.ndarray,
    temperature: float,
    top_k: Optional[int],
    rng: np.random.Generator,
) -> np.ndarray:
    """Next token per row of a ``(B, vocab)`` logit matrix.

    ``temperature == 0`` is greedy argmax and draws nothing from the RNG;
    otherwise one uniform draw per row inverts the CDF of
    ``softmax(logits / temperature)``, optionally restricted to the
    ``top_k`` highest-scoring tokens (ties at the cutoff are kept, so
    ``top_k`` may admit more than ``k`` candidates on exact ties).
    """
    if temperature == 0.0:
        return np.argmax(logits, axis=-1).astype(np.int64)
    vocab = logits.shape[-1]
    scaled = logits / temperature
    if top_k is not None and top_k < vocab:
        cutoff = np.partition(scaled, vocab - top_k, axis=-1)[:, vocab - top_k]
        scaled = np.where(scaled >= cutoff[:, None], scaled, -np.inf)
    probabilities = softmax_forward(scaled)
    draws = rng.random(logits.shape[0])
    tokens = np.empty(logits.shape[0], dtype=np.int64)
    for row in range(logits.shape[0]):
        cdf = np.cumsum(probabilities[row])
        tokens[row] = min(
            int(np.searchsorted(cdf, draws[row], side="right")), vocab - 1
        )
    return tokens
