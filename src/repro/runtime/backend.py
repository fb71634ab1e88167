"""The unified softmax-execution API: one protocol, many backends.

:func:`resolve_backend` is the single factory from a backend name (or a
:class:`BackendSpec`) to a named, uniformly shaped softmax execution path.
The LLM substrate's ``backend=`` argument, the Tables III/IV harness's
``softmax_backend`` and the serving layer all resolve through it:

=================  =========================================================
name               execution path
=================  =========================================================
``float``          numerically stable floating-point softmax (the accuracy
                   baseline; no hardware cost attached)
``integer``        the pure-software integer-only pipeline of Algorithm 1
                   (:class:`~repro.softmax.integer_softmax.IntegerSoftmax`)
``ap``             row-by-row functional AP execution — one
                   :meth:`~repro.mapping.softmap.SoftmAPMapping.execute_functional`
                   call per score vector (the pre-cluster replacement path)
``ap-batch``       one batched
                   :meth:`~repro.mapping.softmap.SoftmAPMapping.execute_functional_batch`
                   call for a whole ``(rows, seq)`` tensor on one AP
``ap-cluster``     the functional multi-AP cluster — one per-head AP, every
                   probability produced by CAM compare/write semantics
``gpu-analytical`` floating-point probabilities costed with the analytical
                   GPU kernel model (:mod:`repro.gpu`)
=================  =========================================================

Every backend implements the :class:`SoftmaxBackend` protocol:
``run(scores, valid_lengths) -> SoftmaxResult`` returns probabilities
*together with* the analytical cost and cycle count of the pass; the LLM
substrate calls it once per layer on a head-major ``(rows, seq)`` matrix
(see :func:`repro.llm.model.causal_batched_softmax`).  Backend names are
validated eagerly in :func:`resolve_backend`, which raises
:class:`UnknownBackendError` with a "did you mean" suggestion for
near-misses — the single place backend-name strings are checked.
"""

from __future__ import annotations

import difflib
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.ap.engine import DEFAULT_ENGINE, canonical_engine_name
from repro.gpu.softmax_model import GpuSoftmaxModel, KernelCost
from repro.gpu.spec import GPUS, GpuSpec
from repro.mapping.cluster import ApCluster
from repro.mapping.plan import PlanTelemetry
from repro.mapping.softmap import MappingCost, SoftmAPMapping
from repro.quant.precision import BEST_PRECISION, PrecisionConfig
from repro.softmax.integer_softmax import IntegerSoftmax
from repro.softmax.reference import softmax as float_softmax
from repro.utils.validation import (
    check_finite_scores,
    check_in_choices,
    check_valid_lengths,
)

from typing import Protocol, runtime_checkable

__all__ = [
    "BACKEND_NAMES",
    "BackendCost",
    "BackendSpec",
    "BackendTelemetry",
    "PlanTelemetry",
    "SoftmaxBackend",
    "SoftmaxResult",
    "UnknownBackendError",
    "backend_descriptions",
    "canonical_backend_name",
    "resolve_backend",
    "resolve_model_backend",
    "rows_runner",
]

#: Canonical backend names, in presentation order.
BACKEND_NAMES: Tuple[str, ...] = (
    "float",
    "integer",
    "ap",
    "ap-batch",
    "ap-cluster",
    "gpu-analytical",
)

_DESCRIPTIONS: Dict[str, str] = {
    "float": "floating-point reference softmax (accuracy baseline, no cost model)",
    "integer": "pure-software integer-only pipeline (Algorithm 1 in numpy)",
    "ap": "row-by-row functional AP execution (one pass per score vector)",
    "ap-batch": "batched functional AP execution (whole tensor on one AP)",
    "ap-cluster": "functional multi-AP cluster (one per-head AP, CAM semantics)",
    "gpu-analytical": "float softmax costed with the analytical GPU kernel model",
}


class UnknownBackendError(ValueError):
    """An unknown backend name, with a "did you mean" suggestion attached."""

    def __init__(self, name: str) -> None:
        close = difflib.get_close_matches(name, BACKEND_NAMES, n=1, cutoff=0.5)
        hint = f" — did you mean {close[0]!r}?" if close else ""
        super().__init__(
            f"unknown softmax backend {name!r}{hint} "
            f"(valid backends: {', '.join(BACKEND_NAMES)})"
        )
        self.name = name
        self.suggestion = close[0] if close else None


def canonical_backend_name(name: str) -> str:
    """Validate a backend name eagerly.

    This is the single place backend-name strings are checked; every other
    module resolves through here so a typo fails fast with a helpful
    suggestion instead of deep inside a sweep.
    """
    if not isinstance(name, str):
        raise TypeError(f"backend name must be a str, got {type(name).__name__}")
    if name not in BACKEND_NAMES:
        raise UnknownBackendError(name)
    return name


def backend_descriptions() -> Dict[str, str]:
    """Canonical name -> one-line description (for ``repro backends``)."""
    return dict(_DESCRIPTIONS)


# --------------------------------------------------------------------------- #
# Uniform result / spec / telemetry shapes                                     #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BackendCost:
    """Normalised cost attached to one backend pass.

    AP-family backends report the analytical Table II / technology-model
    cost of the pass; ``gpu-analytical`` reports the kernel model's cost;
    the pure-software backends report no cost (``SoftmaxResult.cost`` is
    ``None`` for them).
    """

    latency_s: float
    energy_j: float
    area_mm2: Optional[float] = None

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds."""
        return self.latency_s * self.energy_j


@dataclass(frozen=True)
class SoftmaxResult:
    """Probabilities plus cost telemetry of one backend pass.

    Attributes
    ----------
    probabilities:
        Softmax probabilities, same shape as the input scores.
    cost:
        Analytical latency/energy of the pass (``None`` for the pure
        software backends, which model no hardware).
    cycles:
        Compare/write (or kernel) cycle count of the pass, when the backend
        has a cycle notion (``None`` otherwise).
    backend:
        Canonical name of the backend that produced the result.
    plan:
        Plan-level execution telemetry
        (:class:`~repro.mapping.plan.PlanTelemetry`) for backends that run
        compiled plans: whether the pass executed fused, on which engine,
        and how the planner tiled the workload.  ``None`` for backends
        without a plan layer.
    """

    probabilities: np.ndarray
    cost: Optional[BackendCost] = None
    cycles: Optional[float] = None
    backend: str = ""
    plan: Optional[PlanTelemetry] = None


@dataclass(frozen=True)
class BackendSpec:
    """Declarative description of a backend instance.

    ``resolve_backend`` accepts a spec (or builds one from a name plus
    keyword overrides) and returns the matching :class:`SoftmaxBackend`.

    Attributes
    ----------
    name:
        Canonical backend name (see :data:`BACKEND_NAMES`).
    precision:
        Mixed-precision configuration for the integer/AP paths
        (``None`` -> the paper's best combination).
    sequence_length:
        Maximum sequence length the AP paths are provisioned for
        (``None`` -> 2048, the paper's context).
    num_heads:
        Attention-head count (required by ``ap-cluster``, which shards
        head-major score matrices across one AP per head).
    engine:
        Functional AP engine — one of
        :data:`~repro.ap.engine.ENGINE_NAMES`:
        ``"compiled"`` (buffer-planned scratch-arena executor, the fast
        path), ``"vectorized"`` (per-op packed-word AP, bit-identical) or
        ``"reference"`` (bit-serial ground truth, bit-identical); ``None``
        -> :data:`~repro.ap.engine.DEFAULT_ENGINE` on every AP backend.
    options:
        Extra keyword arguments forwarded to the underlying implementation
        (e.g. ``barrett_correction`` / ``sum_overflow`` for ``integer``,
        ``gpu`` / ``heads`` for ``gpu-analytical``).
    """

    name: str
    precision: Optional[PrecisionConfig] = None
    sequence_length: Optional[int] = None
    num_heads: Optional[int] = None
    engine: Optional[str] = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", canonical_backend_name(self.name))
        if self.engine is not None:
            # Eager, with a "did you mean" suggestion — an engine typo fails
            # at spec construction, not deep inside an execution pass.
            canonical_engine_name(self.engine)


@dataclass
class BackendTelemetry:
    """Accumulated cost telemetry across every ``run()`` of one backend.

    The LLM substrate keeps only the probabilities of each ``run()``; the
    telemetry keeps the cost side of each pass addressable afterwards
    instead of losing it (e.g. the total AP energy of a whole perplexity
    evaluation).
    """

    calls: int = 0
    rows: int = 0
    cycles: float = 0.0
    latency_s: float = 0.0
    energy_j: float = 0.0

    def record(self, result: SoftmaxResult) -> None:
        self.calls += 1
        self.rows += int(np.prod(result.probabilities.shape[:-1], dtype=np.int64))
        if result.cycles is not None:
            self.cycles += float(result.cycles)
        if result.cost is not None:
            self.latency_s += result.cost.latency_s
            self.energy_j += result.cost.energy_j

    def reset(self) -> None:
        self.calls = 0
        self.rows = 0
        self.cycles = 0.0
        self.latency_s = 0.0
        self.energy_j = 0.0


@runtime_checkable
class SoftmaxBackend(Protocol):
    """Structural protocol every softmax execution backend satisfies.

    Backends *may* additionally provide ``run_rows(rows, valid_lengths)``
    — execution of an arbitrary ``(rows, seq)`` row space with no
    head-major layout constraint, the seam the serving layer's coalesced
    admission batches go through (``ap-cluster`` overrides it to feed the
    row space straight through the cluster's planner).  It is not part of
    the required protocol: third-party backends that only implement
    ``run`` still resolve, and the serving layer falls back to ``run``.
    """

    spec: BackendSpec
    telemetry: BackendTelemetry

    def run(
        self, scores: np.ndarray, valid_lengths: Optional[np.ndarray] = None
    ) -> SoftmaxResult:
        """Execute softmax over the last axis, returning probs + cost."""
        ...


def rows_runner(
    backend: "SoftmaxBackend",
) -> Callable[..., SoftmaxResult]:
    """The backend's ``(rows, seq)`` entry point: ``run_rows`` when the
    backend provides the seam, else plain ``run`` (sufficient for any
    backend without layout constraints, e.g. third-party protocol
    implementations)."""
    return getattr(backend, "run_rows", backend.run)


class _BackendBase:
    """Shared scaffolding: input normalisation and telemetry."""

    def __init__(self, spec: BackendSpec) -> None:
        self.spec = spec
        self.telemetry = BackendTelemetry()

    # -- protocol ------------------------------------------------------- #
    def run(
        self, scores: np.ndarray, valid_lengths: Optional[np.ndarray] = None
    ) -> SoftmaxResult:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim == 0:
            raise ValueError("scores must have at least one dimension")
        rows = int(np.prod(scores.shape[:-1], dtype=np.int64))
        lengths = check_valid_lengths(valid_lengths, rows, scores.shape[-1])
        check_finite_scores(scores, lengths)
        result = self._run(scores, lengths)
        self.telemetry.record(result)
        return result

    def run_rows(
        self, rows: np.ndarray, valid_lengths: Optional[np.ndarray] = None
    ) -> SoftmaxResult:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2:
            raise ValueError("run_rows expects a (rows, seq) score matrix")
        return self.run(rows, valid_lengths=valid_lengths)

    # -- helpers -------------------------------------------------------- #
    @staticmethod
    def _rows_view(scores: np.ndarray) -> np.ndarray:
        """Flatten leading axes so every backend core sees (rows, seq)."""
        if scores.ndim == 1:
            return scores[None, :]
        return scores.reshape(-1, scores.shape[-1])

    def _run(
        self, scores: np.ndarray, lengths: Optional[np.ndarray]
    ) -> SoftmaxResult:  # pragma: no cover - abstract
        raise NotImplementedError


def _masked_float_softmax(
    rows: np.ndarray, lengths: Optional[np.ndarray]
) -> np.ndarray:
    """Reference softmax over each row's valid prefix, zeros beyond it."""
    if lengths is None:
        return float_softmax(rows)
    mask = np.arange(rows.shape[1])[None, :] < lengths[:, None]
    probabilities = float_softmax(np.where(mask, rows, -np.inf))
    return np.where(mask, probabilities, 0.0)


# --------------------------------------------------------------------------- #
# Concrete backends                                                            #
# --------------------------------------------------------------------------- #
class FloatBackend(_BackendBase):
    """``float`` — the numerically stable FP softmax (accuracy baseline)."""

    def _run(self, scores, lengths):
        rows = self._rows_view(scores)
        probabilities = _masked_float_softmax(rows, lengths).reshape(scores.shape)
        return SoftmaxResult(probabilities=probabilities, backend=self.spec.name)


class IntegerBackend(_BackendBase):
    """``integer`` — the pure-software Algorithm 1 pipeline.

    Ragged rows are evaluated in **one** masked
    :class:`~repro.softmax.integer_softmax.IntegerSoftmax` call
    (``valid_lengths`` support in the integer core), which is bit-identical
    to applying the pipeline per causal prefix — for a causal ``(rows,
    seq)`` score matrix this replaces ``seq`` per-distinct-length pipeline
    invocations with a single vectorized pass.
    """

    def __init__(self, spec: BackendSpec) -> None:
        super().__init__(spec)
        self.integer_softmax = IntegerSoftmax(
            precision=spec.precision or BEST_PRECISION, **dict(spec.options)
        )

    def _run(self, scores, lengths):
        rows = self._rows_view(scores)
        probabilities = self.integer_softmax.forward(
            rows, valid_lengths=lengths
        ).probabilities
        return SoftmaxResult(
            probabilities=probabilities.reshape(scores.shape),
            backend=self.spec.name,
        )


class _ApBackendBase(_BackendBase):
    """Shared mapping construction + per-length analytical cost cache."""

    def __init__(self, spec: BackendSpec) -> None:
        super().__init__(spec)
        self.precision = spec.precision or BEST_PRECISION
        self.engine = spec.engine or DEFAULT_ENGINE
        self.provisioned_length = spec.sequence_length or 2048
        self._mapping_options = dict(spec.options)
        self._mapping = self._make_mapping(self.provisioned_length)
        self._cost_cache: Dict[int, MappingCost] = {}

    def _make_mapping(self, sequence_length: int) -> SoftmAPMapping:
        return SoftmAPMapping(
            precision=self.precision,
            sequence_length=sequence_length,
            backend=self.engine,
            **self._mapping_options,
        )

    def _pass_cost(self, sequence_length: int) -> MappingCost:
        if sequence_length not in self._cost_cache:
            mapping = (
                self._mapping
                if sequence_length == self.provisioned_length
                else self._make_mapping(sequence_length)
            )
            self._cost_cache[sequence_length] = mapping.cost()
        return self._cost_cache[sequence_length]

    def _check_provisioned(self, sequence_length: int) -> None:
        if sequence_length > self.provisioned_length:
            raise ValueError(
                f"sequence length {sequence_length} exceeds the provisioned "
                f"maximum {self.provisioned_length}"
            )


class ApRowBackend(_ApBackendBase):
    """``ap`` — one functional AP pass per score vector.

    This is the pre-cluster replacement path: each row's causally-valid
    prefix is executed in its own
    :meth:`~repro.mapping.softmap.SoftmAPMapping.execute_functional` call.
    Latency/energy/cycles are the *sum* of the per-row passes (the rows run
    sequentially on one AP).
    """

    def _run(self, scores, lengths):
        rows = self._rows_view(scores)
        self._check_provisioned(rows.shape[1])
        probabilities = np.zeros_like(rows)
        latency = energy = cycles = 0.0
        for i in range(rows.shape[0]):
            length = int(lengths[i]) if lengths is not None else rows.shape[1]
            probabilities[i, :length] = self._mapping.execute_functional(
                rows[i, :length]
            )
            cost = self._pass_cost(length)
            latency += cost.latency_s
            energy += cost.energy_j
            cycles += cost.cycles
        return SoftmaxResult(
            probabilities=probabilities.reshape(scores.shape),
            cost=BackendCost(
                latency_s=latency,
                energy_j=energy,
                area_mm2=self._pass_cost(rows.shape[1]).area_mm2,
            ),
            cycles=cycles,
            backend=self.spec.name,
        )


class ApBatchBackend(_ApBackendBase):
    """``ap-batch`` — the whole ``(rows, seq)`` tensor stacked in one AP.

    One compiled-plan execution
    (:meth:`~repro.mapping.plan.ExecutionPlan.execute`, reached through
    :meth:`~repro.mapping.softmap.SoftmAPMapping.execute_functional_batch`)
    runs every vector word-parallel in a single fused pass: the cycle
    count is that of a single pass while energy scales with the number of
    stacked vectors (more active rows) — the same accounting the cluster
    uses.  The result carries the plan telemetry of the pass.
    """

    def _run(self, scores, lengths):
        rows = self._rows_view(scores)
        self._check_provisioned(rows.shape[1])
        start = time.perf_counter()
        probabilities = self._mapping.execute_functional_batch(
            rows, valid_lengths=lengths
        )
        wall = time.perf_counter() - start
        cost = self._pass_cost(rows.shape[1])
        plan = self._mapping.plan(sequence_length=rows.shape[1])
        fused = plan.fused(self.engine)
        return SoftmaxResult(
            probabilities=probabilities.reshape(scores.shape),
            cost=BackendCost(
                latency_s=cost.latency_s,
                energy_j=cost.energy_j * rows.shape[0],
                area_mm2=cost.area_mm2,
            ),
            cycles=cost.cycles,
            backend=self.spec.name,
            plan=PlanTelemetry(
                fused=fused,
                engine=self.engine,
                passes=1,
                vectors=rows.shape[0],
                segment_length=rows.shape[1],
                words_per_pass=(rows.shape[0] * rows.shape[1],),
                arena_slots=plan.buffers.num_slots if fused else 0,
                arena_bytes=plan.arena_bytes(self.engine),
                wall_seconds=wall,
            ),
        )


class ApClusterBackend(_BackendBase):
    """``ap-cluster`` — the functional multi-AP cluster (one AP per head).

    ``run`` accepts a head-major ``(heads * batch, seq)`` matrix (the LLM
    substrate's layout: row ``h * batch + b`` holds batch row ``b`` of
    head ``h``), a ``(batch, heads, seq)`` tensor or a 1-D vector
    (executed on head 0).  Each is laid out as head-major rows in one step
    and executed by :meth:`~repro.mapping.cluster.ApCluster.execute_rows`,
    the seam ``run_rows`` uses too; the head-major matrix goes in as is.
    Cost follows the cluster's concurrency accounting: latency = max over
    the concurrent heads, energy = sum.
    """

    def __init__(self, spec: BackendSpec) -> None:
        if spec.num_heads is None:
            raise ValueError(
                "the 'ap-cluster' backend needs num_heads "
                "(one per-head AP is built per attention head); pass "
                "resolve_backend('ap-cluster', num_heads=...)"
            )
        super().__init__(spec)
        self.engine = spec.engine or DEFAULT_ENGINE
        self.cluster = ApCluster(
            num_heads=spec.num_heads,
            precision=spec.precision or BEST_PRECISION,
            sequence_length=spec.sequence_length or 2048,
            backend=self.engine,
            **dict(spec.options),
        )
        self._cost_cache: Dict[int, Any] = {}

    @classmethod
    def from_cluster(
        cls, cluster: ApCluster, engine: Optional[str] = None
    ) -> "ApClusterBackend":
        """Wrap an already-built :class:`~repro.mapping.cluster.ApCluster`
        (used by the cluster's own ``as_backend()``)."""
        backend = cls.__new__(cls)
        _BackendBase.__init__(
            backend,
            BackendSpec(
                name="ap-cluster",
                precision=cluster.precision,
                sequence_length=cluster.sequence_length,
                num_heads=cluster.num_heads,
                engine=engine or cluster.backend,
            ),
        )
        backend.engine = backend.spec.engine
        backend.cluster = cluster
        backend._cost_cache = {}
        return backend

    def _cluster_cost(self, sequence_length: int):
        """Per-length :class:`~repro.mapping.cluster.ClusterCost` at batch 1,
        cached — the model calls run() once per layer with the same length,
        and a decode sweep evicts that length's plan view from the mapping's
        LRU, whose rebuilt view would derive the Table II step costs
        again."""
        if sequence_length not in self._cost_cache:
            self._cost_cache[sequence_length] = self.cluster.cost(
                sequence_length=sequence_length, batch=1
            )
        return self._cost_cache[sequence_length]

    def run_rows(
        self, rows: np.ndarray, valid_lengths: Optional[np.ndarray] = None
    ) -> SoftmaxResult:
        """Execute an arbitrary ``(rows, seq)`` row space on the cluster.

        Unlike :meth:`run`, the row count is **not** required to be a
        multiple of the head count: a coalesced serving batch stacks rows
        from many requests, and every row is simply a segment of the
        cluster's fused row space
        (:meth:`~repro.mapping.cluster.ApCluster.execute_rows`), tiled by
        the planner against the ``pass_row_budget``.  Cost accounting:
        each row activates one AP's share of CAM switching (energy scales
        with the row count), latency is the two-stage pipeline makespan of
        the planner's pass list, and cycles accumulate per pass.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2:
            raise ValueError("run_rows expects a (rows, seq) score matrix")
        lengths = check_valid_lengths(valid_lengths, *rows.shape)
        check_finite_scores(rows, lengths)
        start = time.perf_counter()
        probabilities = self.cluster.execute_rows(
            rows, valid_lengths=lengths, backend=self.engine
        )
        wall = time.perf_counter() - start
        sequence_length = rows.shape[1]
        telemetry = self.cluster.plan_telemetry(
            rows.shape[0],
            sequence_length,
            self.engine,
            wall_seconds=wall,
        )
        per_head = self._cluster_cost(sequence_length).per_head
        if telemetry.passes > 1:
            latency = self.cluster.schedule(
                telemetry.passes, sequence_length=sequence_length
            ).latency_s
        else:
            latency = per_head.latency_s
        result = SoftmaxResult(
            probabilities=probabilities,
            cost=BackendCost(
                latency_s=latency,
                energy_j=per_head.energy_j * rows.shape[0],
                area_mm2=per_head.area_mm2 * self.cluster.num_heads,
            ),
            cycles=per_head.cycles * telemetry.passes,
            backend=self.spec.name,
            plan=telemetry,
        )
        self.telemetry.record(result)
        return result

    def _run(self, scores, lengths):
        heads = self.cluster.num_heads
        batch = 1
        if scores.ndim == 1:
            rows = scores[None, :]
        elif scores.ndim == 2:
            if scores.shape[0] % heads != 0:
                raise ValueError(
                    f"rows ({scores.shape[0]}) must be a multiple of the "
                    f"cluster head count ({heads}); stack the score "
                    f"matrices head-major"
                )
            rows, batch = scores, scores.shape[0] // heads
        elif scores.ndim == 3:
            if scores.shape[1] != heads:
                raise ValueError(
                    f"score tensor has {scores.shape[1]} heads, cluster has "
                    f"{heads}"
                )
            # The one layout step: (batch, heads, seq) to head-major rows.
            batch = scores.shape[0]
            rows = scores.transpose(1, 0, 2).reshape(heads * batch, scores.shape[2])
            if lengths is not None:
                lengths = lengths.reshape(batch, heads).T.reshape(-1)
        else:
            raise ValueError(
                "ap-cluster accepts a 1-D vector, a head-major (rows, seq) "
                "matrix or a (batch, heads, seq) tensor"
            )
        start = time.perf_counter()
        probabilities = self.cluster.execute_rows(
            rows, valid_lengths=lengths, backend=self.engine
        )
        wall = time.perf_counter() - start
        sequence_length = rows.shape[1]
        cluster_cost = self._cluster_cost(sequence_length)
        telemetry = self.cluster.plan_telemetry(
            rows.shape[0], sequence_length, self.engine, wall_seconds=wall
        )
        if telemetry.passes > 1:
            # A tiled workload flows through the two-stage load/compute
            # pipeline: the makespan of the pass list is the latency.
            latency = self.cluster.schedule(
                telemetry.passes, sequence_length=sequence_length
            ).latency_s
            cycles = cluster_cost.cycles * telemetry.passes
        else:
            latency, cycles = cluster_cost.latency_s, cluster_cost.cycles
        if scores.ndim == 1:
            # Only head 0's AP executes a 1-D vector: charge one per-head
            # pass, not the whole cluster's energy/area.
            per_head = cluster_cost.per_head
            energy, area = per_head.energy_j, per_head.area_mm2
            probabilities = probabilities[0]
        else:
            # Stacking `batch` vectors per head scales the active rows
            # (energy) but not the cycle count — see ApCluster.cost.
            energy, area = cluster_cost.energy_j * batch, cluster_cost.area_mm2
        if scores.ndim == 3:
            probabilities = probabilities.reshape(
                heads, batch, sequence_length
            ).transpose(1, 0, 2)
        return SoftmaxResult(
            probabilities=probabilities,
            cost=BackendCost(latency_s=latency, energy_j=energy, area_mm2=area),
            cycles=cycles,
            backend=self.spec.name,
            plan=telemetry,
        )


class GpuAnalyticalBackend(_BackendBase):
    """``gpu-analytical`` — FP probabilities costed by the GPU kernel model.

    The probabilities are the exact floating-point softmax (a GPU computes
    FP softmax); the attached cost is the analytical memory-bound kernel
    model's latency/energy for the decode-shaped score tensor, so the GPU
    baseline flows through the same ``SoftmaxResult`` seam as the AP paths.
    Options: ``gpu`` (name in :data:`repro.gpu.spec.GPUS` or a
    :class:`~repro.gpu.spec.GpuSpec`, default A100) plus any
    :class:`~repro.gpu.softmax_model.GpuSoftmaxModel` kwargs.
    """

    def __init__(self, spec: BackendSpec) -> None:
        super().__init__(spec)
        options = dict(spec.options)
        gpu = options.pop("gpu", "A100")
        if isinstance(gpu, str):
            check_in_choices(gpu, tuple(GPUS), "gpu")
            gpu = GPUS[gpu]
        if not isinstance(gpu, GpuSpec):
            raise TypeError("gpu option must be a GPU name or a GpuSpec")
        self.model = GpuSoftmaxModel(gpu, **options)

    def _run(self, scores, lengths):
        rows = self._rows_view(scores)
        probabilities = _masked_float_softmax(rows, lengths).reshape(scores.shape)
        if rows.shape[0] == 0:
            # No rows, no kernel launch: nothing to cost.
            return SoftmaxResult(
                probabilities=probabilities,
                cost=BackendCost(latency_s=0.0, energy_j=0.0),
                backend=self.spec.name,
            )
        # The kernel cost depends on batch * heads (total score rows); keep
        # that product exact even when the row count is not a multiple of
        # the head count (fall back to heads = 1 rather than rounding).
        heads = self.spec.num_heads or 1
        if heads < 1 or rows.shape[0] % heads != 0:
            heads = 1
        kernel: KernelCost = self.model.decode_cost(
            rows.shape[0] // heads, heads, rows.shape[1]
        )
        return SoftmaxResult(
            probabilities=probabilities,
            cost=BackendCost(latency_s=kernel.latency_s, energy_j=kernel.energy_j),
            cycles=None,
            backend=self.spec.name,
        )


_FACTORIES: Dict[str, Callable[[BackendSpec], _BackendBase]] = {
    "float": FloatBackend,
    "integer": IntegerBackend,
    "ap": ApRowBackend,
    "ap-batch": ApBatchBackend,
    "ap-cluster": ApClusterBackend,
    "gpu-analytical": GpuAnalyticalBackend,
}


def resolve_backend(
    spec_or_name: Union[str, BackendSpec, SoftmaxBackend],
    **overrides: Any,
) -> SoftmaxBackend:
    """The single front door from a backend name/spec to a backend instance.

    Parameters
    ----------
    spec_or_name:
        A canonical backend name (see :data:`BACKEND_NAMES`), a
        :class:`BackendSpec`, or an already constructed backend (returned
        as-is, overrides rejected).
    overrides:
        :class:`BackendSpec` fields (``precision``, ``sequence_length``,
        ``num_heads``, ``engine``, ``options``) overriding the spec.

    Raises
    ------
    UnknownBackendError
        For an unknown name, with a "did you mean" suggestion.
    """
    if isinstance(spec_or_name, str):
        spec = BackendSpec(name=spec_or_name, **overrides)
    elif isinstance(spec_or_name, BackendSpec):
        spec = replace(spec_or_name, **overrides) if overrides else spec_or_name
    elif isinstance(spec_or_name, SoftmaxBackend):
        # Anything satisfying the protocol passes through — including
        # third-party backends, the module's stated extension point.
        if overrides:
            raise ValueError(
                "cannot apply spec overrides to an already-built backend; "
                "pass a name or BackendSpec instead"
            )
        return spec_or_name
    else:
        raise TypeError(
            "resolve_backend takes a backend name, a BackendSpec or a "
            f"backend instance, got {type(spec_or_name).__name__}"
        )
    return _FACTORIES[spec.name](spec)


def resolve_model_backend(
    spec_or_name: Union[str, BackendSpec, SoftmaxBackend],
    num_heads: int,
    sequence_length: int,
) -> SoftmaxBackend:
    """Resolve a backend with a model's shape filled in as defaults.

    The LLM substrate knows its head count and context width; a bare name
    (``"ap-cluster"``) or a spec that leaves those fields ``None`` gets
    them from the model, while explicit spec values and already-built
    backends pass through untouched.
    """
    if isinstance(spec_or_name, str):
        return resolve_backend(
            spec_or_name, num_heads=num_heads, sequence_length=sequence_length
        )
    if isinstance(spec_or_name, BackendSpec):
        overrides: Dict[str, Any] = {}
        if spec_or_name.num_heads is None:
            overrides["num_heads"] = num_heads
        if spec_or_name.sequence_length is None:
            overrides["sequence_length"] = sequence_length
        return resolve_backend(spec_or_name, **overrides)
    return resolve_backend(spec_or_name)
