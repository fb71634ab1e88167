"""Perplexity evaluation with a pluggable attention softmax.

The paper's protocol (Section IV): concatenate the validation set, split it
into non-overlapping segments of the model's context width, feed each
segment to the model, and report the exponentiated average next-token
negative log-likelihood.  :func:`evaluate_perplexity` follows that protocol
on the synthetic corpus.

Since the fast inference path (:mod:`repro.llm.infer`) landed, the
evaluation runs **batched** by default: every non-overlapping segment is
evaluated in one (or a few, when ``max_batch`` caps the batch) graph-free
``model.infer`` calls instead of a per-segment Python loop over the
autograd forward.  Each decoder layer then issues a single head-major
``(h*B*T, T)`` replacement-softmax call covering all segments — row
``h*(B*T) + b*T + i`` is query row ``i`` of segment ``b`` of head ``h``;
see :func:`~repro.llm.model.causal_batched_softmax`, the layout authority
— which is the row space the fused AP-cluster plan shards in one pass.
The result is
bit-identical to the seed per-segment loop — kept reachable via
``inference_path="loop"`` and pinned by ``tests/llm/test_infer.py``.

The replacement attention softmax is selected through the unified runtime
API: pass ``backend=`` a name ("integer", "ap-cluster", ...), a
:class:`~repro.runtime.backend.BackendSpec`, or a resolved
:class:`~repro.runtime.backend.SoftmaxBackend` — the model's head count and
context width are filled in automatically; ``None`` keeps the
floating-point softmax.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.llm.model import TinyLlamaModel
from repro.nn.autograd import no_grad
from repro.nn.functional import log_softmax_forward
from repro.runtime.backend import BackendSpec, SoftmaxBackend
from repro.utils.validation import check_in_choices, check_positive_int

__all__ = [
    "evaluate_perplexity",
    "INFERENCE_PATHS",
]

#: Anything :func:`evaluate_perplexity`'s ``backend`` argument accepts.
BackendLike = Union[str, BackendSpec, SoftmaxBackend]

#: Execution paths of :func:`evaluate_perplexity`: ``"batched"`` — the
#: graph-free ``model.infer`` fast path (default); ``"loop"`` — the seed
#: per-segment autograd-forward loop, kept as the parity baseline.
INFERENCE_PATHS: Tuple[str, ...] = ("batched", "loop")


def _evaluation_segments(
    tokens: np.ndarray, segment_length: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The paper-protocol ``(inputs, targets)`` pairs, in stream order."""
    segments: List[Tuple[np.ndarray, np.ndarray]] = []
    for start in range(0, tokens.shape[0] - 1, segment_length):
        segment = tokens[start : start + segment_length + 1]
        if segment.shape[0] < 2:
            break
        segments.append((segment[:-1], segment[1:]))
    return segments


def _batched_log_likelihood(
    model: TinyLlamaModel,
    segments: List[Tuple[np.ndarray, np.ndarray]],
    backend: Optional[SoftmaxBackend],
    max_batch: Optional[int],
) -> Tuple[float, int]:
    """Total log-likelihood over ``segments`` via the batched infer path.

    Segments are batched together (``max_batch`` per ``model.infer`` call;
    a ragged tail rides along via ``valid_lengths``, which ``infer``
    evaluates at its natural width) and the per-segment sums are then
    accumulated in stream order, so the floating-point accumulation — and
    therefore the perplexity — is bit-identical to the seed loop.
    """
    total_log_likelihood = 0.0
    total_predictions = 0
    step = max_batch or len(segments)
    for chunk_start in range(0, len(segments), step):
        chunk = segments[chunk_start : chunk_start + step]
        lengths = np.array([inputs.shape[0] for inputs, _ in chunk], dtype=np.int64)
        width = int(lengths.max())
        batch_tokens = np.zeros((len(chunk), width), dtype=np.int64)
        for row, (inputs, _) in enumerate(chunk):
            batch_tokens[row, : inputs.shape[0]] = inputs
        ragged = bool(np.any(lengths < width))
        logits = model.infer(
            batch_tokens,
            valid_lengths=lengths if ragged else None,
            backend=backend,
        )
        log_probs = log_softmax_forward(logits)
        for row, (inputs, targets) in enumerate(chunk):
            t = targets.shape[0]
            total_log_likelihood += float(
                np.sum(log_probs[row, np.arange(t), targets])
            )
            total_predictions += int(t)
    return total_log_likelihood, total_predictions


def evaluate_perplexity(
    model: TinyLlamaModel,
    tokens: np.ndarray,
    segment_length: Optional[int] = None,
    backend: Optional[BackendLike] = None,
    inference_path: str = "batched",
    max_batch: Optional[int] = None,
) -> float:
    """Perplexity of ``model`` on ``tokens`` following the paper's protocol.

    Parameters
    ----------
    model:
        The (trained) language model.
    tokens:
        Validation token ids (1-D).
    segment_length:
        Width of the non-overlapping evaluation segments; defaults to the
        model's full context (the paper uses the models' 2048-token context).
    backend:
        Optional replacement attention softmax as a runtime backend — a
        name ("float", "integer", "ap", "ap-batch", "ap-cluster",
        "gpu-analytical"), a :class:`~repro.runtime.backend.BackendSpec`,
        or a resolved backend instance; ``None`` keeps the floating-point
        softmax.  Pass a resolved instance to read its accumulated
        cost telemetry afterwards.  The AP-family backends (``ap``,
        ``ap-batch`` — a one-head cluster — and ``ap-cluster``) are one
        cluster backend executing through the compiled-plan layer — every
        layer's attention softmax is one fused wide pass, and each
        ``SoftmaxResult`` carries its
        :class:`~repro.mapping.plan.PlanTelemetry`; ``ap`` differs only in
        charging one serial pass per score vector.
    inference_path:
        ``"batched"`` (default) evaluates all segments through the
        graph-free :meth:`~repro.llm.model.TinyLlamaModel.infer` fast path
        — one forward call per ``max_batch`` segments, one replacement-
        softmax call per layer per batch; ``"loop"`` is the seed
        per-segment autograd-forward loop.  The two are bit-identical
        (same floats, not approximately) for every backend; note a
        resolved backend's telemetry counts fewer, wider ``run()`` calls
        on the batched path (plus the causal rows of any padded ragged
        tail).
    max_batch:
        Optional cap on the segments per batched forward call (``None``
        evaluates all segments in one call).  Ignored by the loop path.
    """
    # Cheap argument checks first: a typo'd path must not pay for backend
    # construction (an ap-cluster spec builds one AP per head).
    check_in_choices(inference_path, INFERENCE_PATHS, "inference_path")
    if max_batch is not None:
        check_positive_int(max_batch, "max_batch")
    backend = model._resolve_backend(backend)
    tokens = np.asarray(tokens, dtype=np.int64)
    if segment_length is None:
        segment_length = model.config.max_context
    check_positive_int(segment_length, "segment_length")
    segment_length = min(segment_length, model.config.max_context)
    if tokens.shape[0] < 2:
        raise ValueError("need at least two tokens to evaluate perplexity")

    segments = _evaluation_segments(tokens, segment_length)
    total_log_likelihood = 0.0
    total_predictions = 0
    with no_grad():
        if inference_path == "batched":
            total_log_likelihood, total_predictions = _batched_log_likelihood(
                model, segments, backend, max_batch
            )
        else:
            for inputs, targets in segments:
                logits = model.forward(inputs, backend=backend).numpy()
                log_probs = log_softmax_forward(logits)
                total_log_likelihood += float(
                    np.sum(log_probs[np.arange(targets.shape[0]), targets])
                )
                total_predictions += int(targets.shape[0])
    if total_predictions == 0:
        raise ValueError("no predictions were made; check the token stream length")
    return float(np.exp(-total_log_likelihood / total_predictions))
