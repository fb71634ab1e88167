"""The unified runtime API — the single front door to the reproduction.

Two seams live here:

* **Backends** (:mod:`repro.runtime.backend`) — the
  :class:`SoftmaxBackend` protocol, the declarative :class:`BackendSpec`,
  and :func:`resolve_backend`, which maps any of the named execution paths
  (``float``, ``integer``, ``ap``, ``ap-batch``, ``ap-cluster``,
  ``gpu-analytical``) to a uniform ``run(scores) -> SoftmaxResult``
  object carrying probabilities *and* cost/cycle telemetry.
* **Experiments** (:mod:`repro.runtime.registry`) — the
  :class:`Experiment` contract (``run`` / ``render`` / JSON
  ``to_dict``/``from_dict``) and the ``@register`` registry every
  table/figure module of :mod:`repro.experiments` plugs into; consumed by
  the ``python -m repro`` CLI (:mod:`repro.runtime.cli`).
"""

from repro.runtime.backend import (
    BACKEND_NAMES,
    BackendCost,
    BackendSpec,
    BackendTelemetry,
    PlanTelemetry,
    SoftmaxBackend,
    SoftmaxResult,
    UnknownBackendError,
    backend_descriptions,
    canonical_backend_name,
    resolve_backend,
)
from repro.runtime.registry import (
    Experiment,
    UnknownExperimentError,
    experiment_names,
    get_experiment,
    iter_experiments,
    register,
)

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
    "Experiment",
    "UnknownExperimentError",
    "experiment_names",
    "get_experiment",
    "iter_experiments",
    "register",
]
