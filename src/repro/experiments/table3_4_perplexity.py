"""Tables III & IV — precision sensitivity of the integer-only softmax.

The paper measures WikiText-2 perplexity of Llama2-7b/13b when the attention
softmax is replaced by the integer-only approximation, sweeping the input
precision ``M``, the ``vcorr`` width and the sum headroom ``N``.  The
reproduction substitutes the tiny trained numpy model and synthetic corpus
(DESIGN.md §4) and reports two complementary views:

* :func:`run_perplexity_sweep` — end-to-end perplexity of the substitute
  model for every precision configuration (the direct analogue of
  Tables III/IV, at reduced scale);
* :func:`run_softmax_fidelity_sweep` — distribution-level degradation (KL
  divergence to the FP softmax and the total probability-mass error) on
  attention-score rows of the paper's 2048-token length, which exposes the
  ``N`` saturation effect at the scale the paper studies.

Since PR 2 the perplexity sweep can execute the attention softmax *on the
functional AP cluster* (``softmax_backend="ap-cluster"``), and since the
compiled-plan layer landed that path runs **fused**: every layer's
head-major score matrix executes as one wide compiled-plan pass through
:class:`~repro.mapping.cluster.ApCluster` instead of a per-head Python
loop.  :func:`run_ap_cluster_equivalence` verifies that the fused path is
bit-identical to the pure-software integer pipeline, to the PR 2 per-head
loop and to the pre-cluster row-by-row replacement path, and pins its
speedup over both loops.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.ap.engine import canonical_engine_name
from repro.llm.config import LlamaConfig
from repro.llm.dataset import SyntheticCorpus, make_corpus
from repro.llm.model import TinyLlamaModel
from repro.llm.perplexity import INFERENCE_PATHS, evaluate_perplexity
from repro.llm.trainer import Trainer
from repro.mapping.cluster import ApCluster
from repro.quant.precision import BEST_PRECISION, PrecisionConfig
from repro.reliability import faults
from repro.reliability.faults import FaultInjector
from repro.runtime.backend import (
    BackendSpec,
    IntegerBackend,
    SoftmaxBackend,
    SoftmaxResult,
    canonical_backend_name,
    resolve_backend,
)
from repro.runtime.registry import Experiment, register
from repro.softmax.integer_softmax import IntegerSoftmax
from repro.softmax.metrics import kl_divergence
from repro.softmax.reference import softmax
from repro.utils.tables import TextTable
from repro.utils.validation import check_in_choices, check_positive_int

__all__ = [
    "PerplexityPoint",
    "FidelityPoint",
    "ClusterEquivalenceReport",
    "InferenceSpeedReport",
    "PerplexityExperiment",
    "FidelityExperiment",
    "ClusterParityExperiment",
    "InferenceSpeedExperiment",
    "train_reference_model",
    "run_perplexity_sweep",
    "run_softmax_fidelity_sweep",
    "run_ap_cluster_equivalence",
    "run_inference_speed",
    "render_perplexity_table",
    "render_fidelity_table",
    "render_cluster_equivalence",
    "render_inference_speed",
    "PERPLEXITY_M_VALUES",
    "PERPLEXITY_N_VALUES",
    "PRECISION_SWEEP_BACKENDS",
]

#: Canonical backends the precision sweep accepts.  ``float`` and
#: ``gpu-analytical`` ignore the per-point :class:`PrecisionConfig`, so a
#: sweep over them would silently report the FP baseline on every row —
#: reject them eagerly instead.
PRECISION_SWEEP_BACKENDS: Tuple[str, ...] = ("integer", "ap", "ap-batch", "ap-cluster")

PERPLEXITY_M_VALUES: Tuple[int, ...] = (4, 6, 8)
PERPLEXITY_N_VALUES: Tuple[int, ...] = (8, 12, 16, 20)


@dataclass(frozen=True)
class PerplexityPoint:
    """Perplexity of one precision configuration (Tables III/IV analogue).

    ``seconds`` is the wall-clock time of the point's perplexity
    evaluation (training excluded) — the sweep's per-config telemetry,
    carried through ``to_dict()`` so the timing trajectory is part of the
    JSON artifact.
    """

    precision: Optional[PrecisionConfig]  # None = FP baseline
    perplexity: float
    seconds: float = 0.0

    @property
    def label(self) -> str:
        return "FP softmax" if self.precision is None else self.precision.label()


@dataclass(frozen=True)
class FidelityPoint:
    """Distribution-level softmax degradation for one configuration."""

    precision: PrecisionConfig
    kl_to_fp: float
    mass_error: float
    saturated_fraction: float


def train_reference_model(
    seed: int = 0,
    paragraphs: int = 150,
    training_steps: int = 400,
    hidden_size: int = 64,
    context: int = 96,
) -> Tuple[TinyLlamaModel, SyntheticCorpus]:
    """Train the substitute model used by the perplexity sweep."""
    corpus = make_corpus(paragraphs=paragraphs, seed=seed, max_vocab=96)
    config = LlamaConfig(
        name="TinyLlama-ppl",
        num_layers=2,
        num_heads=4,
        num_kv_heads=4,
        hidden_size=hidden_size,
        intermediate_size=2 * hidden_size,
        vocab_size=corpus.tokenizer.vocab_size,
        max_context=context,
    )
    model = TinyLlamaModel(config, seed=seed)
    trainer = Trainer(model, corpus.train_tokens, segment_length=context - 16,
                      learning_rate=3e-3, seed=seed)
    trainer.train(training_steps)
    return model, corpus


def _sweep_backend(
    config: PrecisionConfig,
    softmax_backend: str,
    num_heads: int,
    segment_length: int,
    engine: Optional[str] = None,
) -> SoftmaxBackend:
    """The attention-softmax backend for one sweep configuration.

    Resolution goes through the unified runtime API, so any registered
    backend name works here and a typo fails eagerly with a "did you
    mean" suggestion.  ``engine`` selects the functional AP engine for the
    AP-family backends (``"compiled"``, ``"vectorized"`` or ``"reference"``);
    the pure-software backends ignore it.
    """
    return resolve_backend(
        softmax_backend,
        precision=config,
        num_heads=num_heads,
        sequence_length=segment_length,
        engine=engine,
    )


def _sweep_point(
    model: TinyLlamaModel,
    tokens: np.ndarray,
    segment: int,
    precision: PrecisionConfig,
    softmax_backend: str,
    inference_path: str,
    max_batch: Optional[int],
    engine: Optional[str] = None,
) -> PerplexityPoint:
    """Evaluate one precision configuration, with wall-clock telemetry."""
    backend = _sweep_backend(
        precision, softmax_backend, model.config.num_heads, segment, engine
    )
    start = time.perf_counter()
    perplexity = evaluate_perplexity(
        model, tokens, segment, backend=backend,
        inference_path=inference_path, max_batch=max_batch,
    )
    return PerplexityPoint(
        precision=precision,
        perplexity=perplexity,
        seconds=time.perf_counter() - start,
    )


#: Per-process sweep context, installed by :func:`_init_sweep_worker`.
_WORKER_CONTEXT: Optional[Dict[str, Any]] = None


def _init_sweep_worker(payload: Dict[str, Any]) -> None:
    """Pool initialiser: rebuild the trained model once per worker process.

    The trained weights travel as a :meth:`TinyLlamaModel.state_dict`
    snapshot serialised **once per worker** (initializer arguments, not
    per-task pickling; no per-worker retraining); every subsequent task in
    the process reuses the rebuilt model.
    """
    global _WORKER_CONTEXT
    model = TinyLlamaModel(payload["config"], seed=0)
    model.load_state_dict(payload["state"])
    # The executor keeps the initargs payload alive for the worker's whole
    # lifetime; drop the serialised snapshot from it so the weights are not
    # held twice (the rebuilt model is the only copy that matters).
    payload.pop("state")
    injector = payload.get("fault_injector")
    if injector is not None:
        # Each worker replays the spec schedule from a fresh state (the
        # injector resets on unpickling), so a seeded crash spec kills a
        # deterministic task regardless of worker/task placement.
        injector.activate()
    _WORKER_CONTEXT = dict(payload, model=model)


def _sweep_point_worker(precision: PrecisionConfig) -> PerplexityPoint:
    """One sweep configuration in a worker process (see the initialiser)."""
    context = _WORKER_CONTEXT
    if context is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("sweep worker used without _init_sweep_worker")
    # Reliability seam, qualified by the task's own label so a fault spec
    # targets a configuration, not whichever process picked it up.
    faults.fire(f"sweep:task:{precision.label()}")
    return _sweep_point(
        context["model"],
        context["tokens"],
        context["segment"],
        precision,
        context["softmax_backend"],
        context["inference_path"],
        context["max_batch"],
        context.get("engine"),
    )


def _run_sweep_pool(
    configurations: List[PrecisionConfig],
    payload: Dict[str, Any],
    workers: int,
) -> List[PerplexityPoint]:
    """Fan the sweep across a process pool, surviving dead workers.

    A worker crash (``BrokenProcessPool``) poisons every future on its
    pool; the affected configurations are resubmitted **once** on a fresh
    pool with fault injection stripped, slotting the recomputed points
    back into their original positions — same deterministic order, same
    floats as a serial sweep.  Any other per-task exception propagates
    unchanged, as does a crash of the retry pool itself.
    """
    results: List[Optional[PerplexityPoint]] = [None] * len(configurations)
    broken: List[int] = []
    with ProcessPoolExecutor(
        max_workers=min(workers, len(configurations)),
        initializer=_init_sweep_worker,
        initargs=(payload,),
    ) as pool:
        futures = [
            pool.submit(_sweep_point_worker, config)
            for config in configurations
        ]
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                broken.append(index)
    if broken:
        retry_payload = {
            key: value
            for key, value in payload.items()
            if key != "fault_injector"
        }
        retry_payload["fault_injector"] = None
        with ProcessPoolExecutor(
            max_workers=min(workers, len(broken)),
            initializer=_init_sweep_worker,
            initargs=(retry_payload,),
        ) as pool:
            futures_by_index = {
                index: pool.submit(_sweep_point_worker, configurations[index])
                for index in broken
            }
            for index, future in futures_by_index.items():
                results[index] = future.result()
    return [point for point in results if point is not None]


def run_perplexity_sweep(
    model: Optional[TinyLlamaModel] = None,
    corpus: Optional[SyntheticCorpus] = None,
    m_values: Iterable[int] = (6, 8),
    n_values: Iterable[int] = PERPLEXITY_N_VALUES,
    vcorr_deltas: Iterable[int] = (0,),
    include_m4: bool = True,
    training_steps: int = 400,
    seed: int = 0,
    softmax_backend: str = "integer",
    inference_path: str = "batched",
    max_batch: Optional[int] = None,
    workers: Optional[int] = None,
    engine: Optional[str] = None,
    fault_injector: Optional[FaultInjector] = None,
) -> List[PerplexityPoint]:
    """End-to-end perplexity for the precision grid (plus the FP baseline).

    ``softmax_backend`` selects how the replacement attention softmax is
    executed — any :data:`PRECISION_SWEEP_BACKENDS` entry; with
    ``"ap-cluster"`` the whole evaluation runs AP-backed end to end.  Note
    the software backends apply the Barrett correction step by default
    while the AP dataflow uses the raw quotient, so the two families can
    differ in the last fixed-point digit of individual probabilities.

    ``inference_path`` selects the evaluation path per point (``"batched"``
    — the graph-free ``model.infer`` fast path, default — or ``"loop"``,
    the seed per-segment baseline; both produce bit-identical
    perplexities).  ``workers`` fans the independent ``(Δ, M, N)``
    configurations across a ``concurrent.futures`` process pool: the
    trained weights are serialised once (``state_dict``) and shipped to
    each worker, so the points — including the per-point ``seconds``
    telemetry — come back in the same deterministic order as the serial
    sweep, with identical floats.  ``None``/``1`` runs serially.
    ``engine`` selects the functional AP engine for the AP-family backends
    (``reference``/``vectorized``/``compiled``;
    results are pinned bit-identical across all of them).

    The pool is resilient to dying workers: a ``BrokenProcessPool`` (a
    worker crashed — OOM-killed, segfaulted, or chaos-injected via
    ``fault_injector``, which ships to each worker's initializer) makes
    the sweep resubmit exactly the affected configurations **once** on a
    fresh, fault-free pool, preserving the deterministic result order and
    identical floats; a second failure propagates.
    """
    # Validate eagerly (single authority, with a did-you-mean for typos)
    # before spending time training the reference model; only backends that
    # actually consume the swept PrecisionConfig make a meaningful table.
    canonical = canonical_backend_name(softmax_backend)
    if canonical not in PRECISION_SWEEP_BACKENDS:
        raise ValueError(
            f"softmax_backend {softmax_backend!r} ignores the per-point "
            f"precision configuration, so the sweep would report the FP "
            f"baseline on every row; choose one of "
            f"{', '.join(PRECISION_SWEEP_BACKENDS)}"
        )
    check_in_choices(inference_path, INFERENCE_PATHS, "inference_path")
    if engine is not None:
        # Same eager-failure policy as the backend name: an engine typo
        # must not survive until the first attention row of the sweep.
        engine = canonical_engine_name(engine)
    if workers is not None:
        check_positive_int(workers, "workers")
    if model is None or corpus is None:
        model, corpus = train_reference_model(seed=seed, training_steps=training_steps)
    segment = model.config.max_context - 16
    tokens = corpus.validation_tokens
    start = time.perf_counter()
    fp_perplexity = evaluate_perplexity(
        model, tokens, segment, inference_path=inference_path, max_batch=max_batch
    )
    points = [
        PerplexityPoint(
            precision=None,
            perplexity=fp_perplexity,
            seconds=time.perf_counter() - start,
        )
    ]
    configurations: List[PrecisionConfig] = []
    for delta in vcorr_deltas:
        for m in m_values:
            for n in n_values:
                configurations.append(PrecisionConfig(m, delta, n))
    if include_m4:
        configurations.append(PrecisionConfig(4, 0, 16))
    if workers is not None and workers > 1 and len(configurations) > 1:
        payload = {
            "config": model.config,
            "state": model.state_dict(),
            "tokens": tokens,
            "segment": segment,
            "softmax_backend": softmax_backend,
            "inference_path": inference_path,
            "max_batch": max_batch,
            "engine": engine,
            "fault_injector": fault_injector,
        }
        points.extend(_run_sweep_pool(configurations, payload, workers))
    else:
        for config in configurations:
            points.append(
                _sweep_point(
                    model, tokens, segment, config, softmax_backend,
                    inference_path, max_batch, engine,
                )
            )
    return points


@dataclass(frozen=True)
class ClusterEquivalenceReport:
    """Bit-exactness and speed of the fused AP cluster path.

    ``bit_identical`` holds only if the fused cluster probabilities (the
    default ``"compiled"`` engine) equal the pure-software integer pipeline
    (raw Barrett quotient, i.e. ``barrett_correction=False``), the
    per-head loop (one per-operation AP-engine execution per head) *and*
    the pre-cluster row-by-row replacement path (one per-vector AP
    execution).  ``fused_speedup`` is per-head-loop seconds over fused
    seconds — the pinned win of the compiled-plan layer; ``speedup`` is
    row-by-row seconds over fused seconds (the historical pin).
    """

    batch: int
    heads: int
    sequence_length: int
    bit_identical: bool
    cluster_seconds: float
    per_head_loop_seconds: float
    row_by_row_seconds: float

    @property
    def speedup(self) -> float:
        return self.row_by_row_seconds / self.cluster_seconds

    @property
    def fused_speedup(self) -> float:
        return self.per_head_loop_seconds / self.cluster_seconds


def run_ap_cluster_equivalence(
    heads: int = 4,
    sequence_length: int = 64,
    batch: int = 32,
    precision: PrecisionConfig = BEST_PRECISION,
    seed: int = 0,
    fast_iterations: int = 3,
) -> ClusterEquivalenceReport:
    """Compare the fused cluster path against its ancestors.

    A ``(batch, heads, seq)`` attention-score tensor is evaluated four
    ways: on the :class:`~repro.mapping.cluster.ApCluster` (one fused
    compiled-plan pass over the head-major row space on the default
    ``"compiled"`` engine), by the per-head loop (one per-operation
    AP-engine execution per head — the plan interpreted on the functional
    AP with ``engine="vectorized"``, how the cluster executed before the
    plan layer), by the pre-cluster row-by-row replacement path (one
    per-vector AP execution per ``(batch, head)`` pair), and by the
    pure-software integer pipeline.  All four must be bit-identical; the
    timings pin the fused path's speedups.

    The fused leg finishes in microseconds at the default shape, so it is
    warmed once and timed over ``fast_iterations`` repeats (average
    reported) — the slow loop legs stay single-shot.
    """
    check_positive_int(fast_iterations, "fast_iterations")
    rng = np.random.default_rng(seed)
    scores = rng.normal(0.0, 2.0, size=(batch, heads, sequence_length))

    cluster = ApCluster(
        num_heads=heads, precision=precision, sequence_length=sequence_length
    )
    cluster.execute(scores)  # warm-up: plan + arena pool
    start = time.perf_counter()
    for _ in range(fast_iterations):
        cluster_probabilities = cluster.execute(scores)
    cluster_seconds = (time.perf_counter() - start) / fast_iterations

    # PR 2 baseline: the per-head Python loop, each head's (batch, seq)
    # block issued as per-operation engine sweeps over its own CAM.
    plan = cluster.mapping.plan(sequence_length=sequence_length)
    loop_probabilities = np.empty_like(scores)
    start = time.perf_counter()
    for h in range(heads):
        loop_probabilities[:, h, :] = plan.execute(
            scores[:, h, :], engine="vectorized"
        )
    loop_seconds = time.perf_counter() - start

    # PR 1 baseline: one per-vector AP execution per score row.
    row_probabilities = np.empty_like(scores)
    start = time.perf_counter()
    for b in range(batch):
        for h in range(heads):
            row_probabilities[b, h] = plan.execute(
                scores[b, h][None, :], engine="vectorized"
            )[0]
    row_seconds = time.perf_counter() - start

    software = IntegerSoftmax(precision, barrett_correction=False)(scores)
    bit_identical = (
        np.array_equal(cluster_probabilities, software)
        and np.array_equal(cluster_probabilities, loop_probabilities)
        and np.array_equal(cluster_probabilities, row_probabilities)
    )
    return ClusterEquivalenceReport(
        batch=batch,
        heads=heads,
        sequence_length=sequence_length,
        bit_identical=bool(bit_identical),
        cluster_seconds=cluster_seconds,
        per_head_loop_seconds=loop_seconds,
        row_by_row_seconds=row_seconds,
    )


@dataclass(frozen=True)
class InferenceSpeedReport:
    """Speed and bit-exactness of the batched inference path vs the seed.

    The same trained model and precision grid are evaluated twice on the
    same machine: through the graph-free batched ``model.infer`` path (this
    PR's fast path, ``max_batch`` segments per forward call), and through
    the **seed implementation** — the per-segment autograd-forward loop
    with, for the ``integer`` backend, the seed's per-distinct-causal-length
    grouping loop (the implementation that
    ``IntegerSoftmax.forward(valid_lengths=...)`` replaced).
    ``bit_identical`` holds only if every configuration's perplexity is the
    *same float* on both paths; ``speedup`` is seed seconds over batched
    seconds — the pinned end-to-end win of the inference path.
    """

    backend: str
    configurations: int
    segments: int
    segment_length: int
    max_batch: Optional[int]
    batched_seconds: float
    loop_seconds: float
    bit_identical: bool

    @property
    def speedup(self) -> float:
        return self.loop_seconds / self.batched_seconds


class _SeedGroupedIntegerBackend(IntegerBackend):
    """The seed's batched integer attention softmax, kept as a baseline.

    One :class:`~repro.softmax.integer_softmax.IntegerSoftmax` call per
    distinct causal prefix length — for a causal ``(rows, seq)`` score
    matrix that is ``seq`` pipeline invocations per attention call.  This
    is exactly how ``IntegerBackend`` executed before the masked
    ``valid_lengths`` core landed; :func:`run_inference_speed` times it
    (under the seed per-segment forward loop) as the "before" side of the
    sweep speedup, and the parity suite pins that it remains bit-identical
    to the masked single call.
    """

    def __init__(self, precision: PrecisionConfig) -> None:
        super().__init__(BackendSpec("integer", precision=precision))

    def _run(self, scores, lengths):
        rows = self._rows_view(scores)
        if lengths is None:
            probabilities = self.integer_softmax(rows)
        else:
            probabilities = np.zeros_like(rows)
            for length in np.unique(lengths):
                selected = lengths == length
                probabilities[selected, :length] = self.integer_softmax(
                    rows[selected, :length]
                )
        return SoftmaxResult(
            probabilities=probabilities.reshape(scores.shape),
            backend=self.spec.name,
        )


def run_inference_speed(
    model: Optional[TinyLlamaModel] = None,
    corpus: Optional[SyntheticCorpus] = None,
    m_values: Iterable[int] = (6, 8),
    n_values: Iterable[int] = (8, 16),
    vcorr_deltas: Iterable[int] = (0,),
    include_m4: bool = False,
    training_steps: int = 200,
    seed: int = 0,
    softmax_backend: str = "integer",
    max_batch: Optional[int] = 4,
    engine: Optional[str] = None,
) -> InferenceSpeedReport:
    """Time the perplexity sweep against the seed path (single worker).

    Training happens once, up front, outside both timed runs — the report
    compares pure evaluation time of the identical precision grid (plus
    the FP baseline point) on identical weights, which is the fair
    same-machine comparison ``benchmarks/test_llm_speed.py`` pins.  The
    baseline side runs ``inference_path="loop"`` with the seed's integer
    grouping (see :class:`_SeedGroupedIntegerBackend`); for non-integer
    backends the loop baseline uses the backend unchanged.
    """
    canonical = canonical_backend_name(softmax_backend)
    if canonical not in PRECISION_SWEEP_BACKENDS:
        raise ValueError(
            f"softmax_backend {softmax_backend!r} ignores the precision "
            f"grid; choose one of {', '.join(PRECISION_SWEEP_BACKENDS)}"
        )
    if engine is not None:
        engine = canonical_engine_name(engine)
    if model is None or corpus is None:
        model, corpus = train_reference_model(seed=seed, training_steps=training_steps)
    segment = model.config.max_context - 16
    tokens = corpus.validation_tokens
    configurations: List[PrecisionConfig] = []
    for delta in vcorr_deltas:
        for m in m_values:
            for n in n_values:
                configurations.append(PrecisionConfig(m, delta, n))
    if include_m4:
        configurations.append(PrecisionConfig(4, 0, 16))

    heads = model.config.num_heads

    def batched_backend(
        config: Optional[PrecisionConfig],
    ) -> Optional[SoftmaxBackend]:
        if config is None:
            return None
        return _sweep_backend(config, softmax_backend, heads, segment, engine)

    def seed_backend(config: Optional[PrecisionConfig]) -> Optional[SoftmaxBackend]:
        if config is None:
            return None
        if canonical == "integer":
            return _SeedGroupedIntegerBackend(config)
        return _sweep_backend(config, softmax_backend, heads, segment, engine)

    grid: List[Optional[PrecisionConfig]] = [None] + configurations
    batched_seconds = loop_seconds = 0.0
    bit_identical = True
    for config in grid:
        # Build both backends outside the timed windows: the report is
        # pure evaluation time, not backend construction (an ap-cluster
        # spec builds one AP per head plus its compiled plan).
        fast_backend = batched_backend(config)
        slow_backend = seed_backend(config)
        start = time.perf_counter()
        fast = evaluate_perplexity(
            model, tokens, segment, backend=fast_backend,
            inference_path="batched", max_batch=max_batch,
        )
        batched_seconds += time.perf_counter() - start
        start = time.perf_counter()
        slow = evaluate_perplexity(
            model, tokens, segment, backend=slow_backend,
            inference_path="loop",
        )
        loop_seconds += time.perf_counter() - start
        bit_identical = bit_identical and fast == slow
    segments = len(range(0, tokens.shape[0] - 1, segment))
    return InferenceSpeedReport(
        backend=canonical,
        configurations=len(grid),
        segments=segments,
        segment_length=segment,
        max_batch=max_batch,
        batched_seconds=batched_seconds,
        loop_seconds=loop_seconds,
        bit_identical=bool(bit_identical),
    )


def _attention_like_scores(
    rows: int, sequence_length: int, seed: int
) -> np.ndarray:
    """Synthetic attention-score rows: a mixture of flat rows (early-layer
    behaviour) and peaked rows (late-layer behaviour)."""
    rng = np.random.default_rng(seed)
    flat = rng.normal(0.0, 0.5, size=(rows // 2, sequence_length))
    peaked = rng.normal(0.0, 2.0, size=(rows - rows // 2, sequence_length))
    return np.concatenate([flat, peaked], axis=0)


def run_softmax_fidelity_sweep(
    sequence_length: int = 2048,
    rows: int = 64,
    m_values: Iterable[int] = PERPLEXITY_M_VALUES,
    n_values: Iterable[int] = PERPLEXITY_N_VALUES,
    vcorr_deltas: Iterable[int] = (0, 1, 2),
    seed: int = 0,
) -> List[FidelityPoint]:
    """Distribution-level degradation sweep at the paper's row length."""
    scores = _attention_like_scores(rows, sequence_length, seed)
    reference = softmax(scores)
    points: List[FidelityPoint] = []
    for delta in vcorr_deltas:
        for m in m_values:
            for n in n_values:
                config = PrecisionConfig(m, delta, n)
                result = IntegerSoftmax(config).forward(scores)
                mass_error = float(
                    np.mean(np.abs(result.probabilities.sum(axis=-1) - 1.0))
                )
                points.append(
                    FidelityPoint(
                        precision=config,
                        kl_to_fp=kl_divergence(reference, result.probabilities),
                        mass_error=mass_error,
                        saturated_fraction=result.saturated_fraction,
                    )
                )
    return points


def render_perplexity_table(points: List[PerplexityPoint]) -> str:
    """Render the perplexity sweep (Tables III/IV analogue)."""
    table = TextTable(
        ["configuration", "perplexity", "seconds"],
        title="Tables III/IV — perplexity of the substitute model per precision",
        float_digits=4,
    )
    for point in points:
        table.add_row([point.label, point.perplexity, point.seconds])
    return table.render()


def render_fidelity_table(points: List[FidelityPoint]) -> str:
    """Render the softmax-fidelity sweep."""
    table = TextTable(
        ["configuration", "KL(FP || int)", "probability-mass error", "saturated rows"],
        title="Tables III/IV companion — softmax fidelity at sequence length 2048",
        float_digits=4,
    )
    for point in points:
        table.add_row(
            [
                point.precision.label(),
                point.kl_to_fp,
                point.mass_error,
                point.saturated_fraction,
            ]
        )
    return table.render()


def render_cluster_equivalence(report: ClusterEquivalenceReport) -> str:
    """Render the AP-cluster parity report."""
    verdict = "bit-identical" if report.bit_identical else "DIVERGED"
    return (
        f"AP cluster parity ({report.batch} batch x {report.heads} heads "
        f"x {report.sequence_length} seq): {verdict} to the software "
        f"pipeline; fused {report.cluster_seconds:.3f}s vs per-head loop "
        f"{report.per_head_loop_seconds:.3f}s -> {report.fused_speedup:.1f}x "
        f"(row-by-row {report.row_by_row_seconds:.3f}s -> "
        f"{report.speedup:.1f}x)"
    )


def render_inference_speed(report: InferenceSpeedReport) -> str:
    """Render the batched-inference speed report."""
    verdict = "bit-identical" if report.bit_identical else "DIVERGED"
    return (
        f"LLM inference speed ({report.configurations} configs x "
        f"{report.segments} segments x {report.segment_length} tokens, "
        f"backend {report.backend}): batched {report.batched_seconds:.3f}s "
        f"(max_batch={report.max_batch}) vs seed per-segment loop "
        f"{report.loop_seconds:.3f}s -> {report.speedup:.1f}x, "
        f"perplexities {verdict}"
    )


def _tuple_config(kwargs: dict, *keys: str) -> dict:
    for key in keys:
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    return kwargs


@register("table3_4")
class PerplexityExperiment(Experiment):
    """Registry wrapper: the Tables III/IV perplexity sweep.

    ``--backend`` selects the attention-softmax execution path (any
    runtime backend name, e.g. ``integer`` or ``ap-cluster``).
    """

    title = "Tables III/IV"
    description = "perplexity of the substitute model per precision config"
    row_type = PerplexityPoint
    backend_config_key = "softmax_backend"
    supports_workers = True
    fast_config = {
        "m_values": (8,),
        "n_values": (16,),
        "include_m4": False,
        "training_steps": 40,
    }

    def run(self, config=None):
        kwargs = _tuple_config(
            self._config_kwargs(config), "m_values", "n_values", "vcorr_deltas"
        )
        return run_perplexity_sweep(**kwargs)

    def render(self, result):
        return render_perplexity_table(result)


@register("fidelity")
class FidelityExperiment(Experiment):
    """Registry wrapper: the Tables III/IV fidelity companion sweep."""

    title = "Tables III/IV"
    description = "softmax fidelity (KL, mass error, saturation) at length 2048"
    row_type = FidelityPoint
    fast_config = {
        "sequence_length": 512,
        "rows": 8,
        "m_values": (6,),
        "n_values": (8, 16),
        "vcorr_deltas": (0,),
    }

    def run(self, config=None):
        kwargs = _tuple_config(
            self._config_kwargs(config), "m_values", "n_values", "vcorr_deltas"
        )
        return run_softmax_fidelity_sweep(**kwargs)

    def render(self, result):
        return render_fidelity_table(result)


@register("cluster-parity")
class ClusterParityExperiment(Experiment):
    """Registry wrapper: AP-cluster bit-exactness + speedup report."""

    title = "Cluster"
    description = "AP-cluster parity vs software and row-by-row paths"
    row_type = ClusterEquivalenceReport
    scalar_result = True
    fast_config = {"heads": 2, "sequence_length": 32, "batch": 4}

    def run(self, config=None):
        return run_ap_cluster_equivalence(**self._config_kwargs(config))

    def render(self, result):
        return render_cluster_equivalence(result)


@register("llm-speed")
class InferenceSpeedExperiment(Experiment):
    """Registry wrapper: batched-vs-loop inference speed + parity report.

    ``--backend`` selects the replacement attention softmax both timed
    paths execute (any precision-consuming runtime backend name).
    """

    title = "Inference"
    description = "batched inference path speedup vs the per-segment loop"
    row_type = InferenceSpeedReport
    scalar_result = True
    backend_config_key = "softmax_backend"
    fast_config = {
        "m_values": (8,),
        "n_values": (16,),
        "training_steps": 40,
    }

    def run(self, config=None):
        kwargs = _tuple_config(
            self._config_kwargs(config), "m_values", "n_values", "vcorr_deltas"
        )
        return run_inference_speed(**kwargs)

    def render(self, result):
        return render_inference_speed(result)
