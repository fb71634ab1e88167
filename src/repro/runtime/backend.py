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
``ap``             the one-head cluster's fused pass, charged as if each
                   score vector ran alone, one after another, on one AP
                   (the pre-cluster replacement path's cost)
``ap-batch``       a one-head cluster: a whole ``(rows, seq)`` tensor
                   stacked in one AP and executed in one fused pass
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
from repro.mapping.cluster import ApCluster, ClusterCost
from repro.mapping.plan import PlanTelemetry
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
    "ap": "one-head cluster, costed serially (one pass per score vector)",
    "ap-batch": "one-head cluster (whole tensor in one fused pass on one AP)",
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
        head-major score matrices across one AP per head; ``ap`` and
        ``ap-batch`` run on one AP and ignore it).
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
    admission batches go through (the AP backends override it to feed the
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
        result = self._run(scores, lengths)
        self.telemetry.record(result)
        return result

    def run_rows(
        self, rows: np.ndarray, valid_lengths: Optional[np.ndarray] = None
    ) -> SoftmaxResult:
        return self.run(_row_matrix(rows), valid_lengths=valid_lengths)

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


def _row_matrix(rows: np.ndarray) -> np.ndarray:
    """A ``run_rows`` argument as a float ``(rows, seq)`` matrix."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2:
        raise ValueError("run_rows expects a (rows, seq) score matrix")
    return rows


def _masked_float_softmax(
    rows: np.ndarray, lengths: Optional[np.ndarray]
) -> np.ndarray:
    """Reference softmax over each row's valid prefix, zeros beyond it
    (a non-finite score inside a prefix is an ``InvalidScoresError``)."""
    check_finite_scores(rows, lengths)
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


class ApClusterBackend(_BackendBase):
    """``ap-cluster``, ``ap-batch`` and ``ap`` — the functional AP cluster.

    ``ap-cluster`` builds one AP per attention head (``spec.num_heads``,
    required); ``ap-batch`` and ``ap`` build a one-head cluster and ignore
    ``spec.num_heads``.  ``cluster=`` wraps an already-built
    :class:`~repro.mapping.cluster.ApCluster` instead of building one
    (``ApCluster.as_backend()`` and the serving layer's fallback engines
    share a cluster this way).

    ``run`` accepts a head-major ``(heads * batch, seq)`` matrix (the LLM
    substrate's layout: row ``h * batch + b`` holds batch row ``b`` of
    head ``h``), a ``(batch, heads, seq)`` tensor or a 1-D vector
    (executed on head 0); on a one-head cluster any leading axes are rows.
    Each is laid out as head-major rows in one step and executed by
    :meth:`~repro.mapping.cluster.ApCluster.execute_rows`, the seam
    ``run_rows`` uses too; the head-major matrix goes in as is.  Cost
    follows the cluster's concurrency accounting: latency = max over the
    concurrent heads, energy = sum.  ``ap`` runs the same fused pass but
    is charged as if its rows ran one after another on one AP: the
    row-order sum of one pass per row at that row's valid length.
    """

    def __init__(
        self, spec: BackendSpec, cluster: Optional[ApCluster] = None
    ) -> None:
        super().__init__(spec)
        if cluster is None:
            if spec.name == "ap-cluster" and spec.num_heads is None:
                raise ValueError(
                    "the 'ap-cluster' backend needs num_heads "
                    "(one per-head AP is built per attention head); pass "
                    "resolve_backend('ap-cluster', num_heads=...)"
                )
            cluster = ApCluster(
                num_heads=spec.num_heads if spec.name == "ap-cluster" else 1,
                precision=spec.precision or BEST_PRECISION,
                sequence_length=spec.sequence_length or 2048,
                backend=spec.engine or DEFAULT_ENGINE,
                **dict(spec.options),
            )
        self.cluster = cluster
        self.engine = spec.engine or cluster.backend
        self._cost_cache: Dict[int, ClusterCost] = {}
        # The accounting is fixed by the backend name, so it is chosen once
        # here.  A plain function, not a bound method: storing one on the
        # instance would make a reference cycle that outlives the backend.
        cls = type(self)
        self._charge = cls._serial_charge if spec.name == "ap" else cls._pass_charge

    def _cluster_cost(self, sequence_length: int) -> ClusterCost:
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
        rows = _row_matrix(rows)
        lengths = check_valid_lengths(valid_lengths, *rows.shape)
        result = self._execute(rows, lengths, (len(rows),), self.cluster.num_heads)
        self.telemetry.record(result)
        return result

    def _run(self, scores, lengths):
        heads = self.cluster.num_heads
        if heads == 1 or scores.ndim == 1:
            # One AP at work (a 1-D vector runs on head 0 alone): any
            # leading axes are rows, charged as one AP's pass.
            rows = scores.reshape(-1, scores.shape[-1])
            result = self._execute(rows, lengths, (1, len(rows)), 1)
            if scores.ndim == 2:
                return result
            return replace(
                result, probabilities=result.probabilities.reshape(scores.shape)
            )
        if scores.ndim == 2:
            if scores.shape[0] % heads != 0:
                raise ValueError(
                    f"rows ({scores.shape[0]}) must be a multiple of the "
                    f"cluster head count ({heads}); stack the score "
                    f"matrices head-major"
                )
            factors = (heads, scores.shape[0] // heads)
            return self._execute(scores, lengths, factors, heads)
        if scores.ndim != 3:
            raise ValueError(
                "ap-cluster accepts a 1-D vector, a head-major (rows, seq) "
                "matrix or a (batch, heads, seq) tensor"
            )
        if scores.shape[1] != heads:
            raise ValueError(
                f"score tensor has {scores.shape[1]} heads, cluster has "
                f"{heads}"
            )
        # The one layout step: (batch, heads, seq) to head-major rows.
        batch, _, sequence_length = scores.shape
        rows = scores.transpose(1, 0, 2).reshape(heads * batch, sequence_length)
        if lengths is not None:
            lengths = lengths.reshape(batch, heads).T.reshape(-1)
        result = self._execute(rows, lengths, (heads, batch), heads)
        probabilities = result.probabilities.reshape(heads, batch, sequence_length)
        return replace(result, probabilities=probabilities.transpose(1, 0, 2))

    def _execute(self, rows, lengths, energy_factors, heads) -> SoftmaxResult:
        """Execute head-major ``rows`` and cost the call on ``heads`` APs'
        silicon; ``energy_factors`` scale the per-head pass energy in order,
        so each seam keeps its own rounding."""
        start = time.perf_counter()
        probabilities = self.cluster.execute_rows(
            rows, valid_lengths=lengths, backend=self.engine
        )
        wall = time.perf_counter() - start
        plan = self.cluster.plan_telemetry(
            rows.shape[0], rows.shape[1], self.engine, wall_seconds=wall
        )
        latency, energy, cycles = self._charge(self, plan, lengths, energy_factors)
        area = self._cluster_cost(rows.shape[1]).per_head.area_mm2 * heads
        return SoftmaxResult(
            probabilities=probabilities,
            cost=BackendCost(latency_s=latency, energy_j=energy, area_mm2=area),
            cycles=cycles,
            backend=self.spec.name,
            plan=plan,
        )

    def _pass_charge(self, plan, lengths, energy_factors) -> Tuple[float, ...]:
        """Latency, energy and cycles of the planner's passes."""
        if plan.passes == 0:
            return 0.0, 0.0, 0.0
        per_head = self._cluster_cost(plan.segment_length).per_head
        latency = per_head.latency_s
        if plan.passes > 1:
            # A tiled workload flows through the two-stage load/compute
            # pipeline: the makespan of the pass list is the latency.
            latency = self.cluster.schedule(
                plan.passes, sequence_length=plan.segment_length
            ).latency_s
        energy = per_head.energy_j
        for factor in energy_factors:
            energy *= factor
        return latency, energy, per_head.cycles * plan.passes

    def _serial_charge(self, plan, lengths, energy_factors) -> Tuple[float, ...]:
        """``ap``: one pass per row at its valid length, summed in row order."""
        if lengths is None:
            lengths = np.full(plan.vectors, plan.segment_length)
        latency = energy = cycles = 0.0
        for length in lengths.tolist():
            cost = self._cluster_cost(length).per_head
            latency += cost.latency_s
            energy += cost.energy_j
            cycles += cost.cycles
        return latency, energy, cycles


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
    "ap": ApClusterBackend,
    "ap-batch": ApClusterBackend,
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
