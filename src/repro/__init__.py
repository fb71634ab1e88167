"""SoftmAP reproduction library.

A from-scratch Python reproduction of *SoftmAP: Software-Hardware Co-Design
for Integer-Only Softmax on Associative Processors* (DATE 2025), including:

* the integer-only softmax approximation (:mod:`repro.softmax`,
  :mod:`repro.quant`);
* a functional and analytical Associative Processor simulator
  (:mod:`repro.ap`) with two interchangeable per-operation engines — the
  bit-serial ``"reference"`` ground truth and the bit-identical, much
  faster ``"vectorized"`` packed-word engine
  (:class:`~repro.ap.engine.BitPlaneEngine`); batched ``(batch, seq)``
  softmax tensors map onto the AP in one call via
  :meth:`~repro.mapping.softmap.SoftmAPMapping.execute_functional_batch`
  or :meth:`~repro.softmax.integer_softmax.IntegerSoftmax.forward_on_ap`;
* the SoftmAP dataflow mapping and hardware characterization
  (:mod:`repro.mapping`), executed through compiled plans
  (:mod:`repro.mapping.plan`): the dataflow is lowered once per sum-width
  class, shared by every sequence length of the class, and
  whole ``(batch, heads, seq)`` workloads run as fused wide passes on the
  default ``"compiled"`` engine (:class:`~repro.ap.compiled.CompiledEngine`),
  bit-identical to both per-operation engines;
* analytical GPU baselines for A100 / RTX3090 (:mod:`repro.gpu`);
* a numpy LLM substrate used for the perplexity sensitivity study
  (:mod:`repro.nn`, :mod:`repro.llm`);
* an experiment harness regenerating every table and figure of the paper
  (:mod:`repro.experiments`);
* the unified runtime API (:mod:`repro.runtime`) — the
  :class:`~repro.runtime.backend.SoftmaxBackend` protocol behind
  :func:`~repro.runtime.backend.resolve_backend`, the experiment registry,
  and the ``python -m repro`` command-line interface.
"""

__version__ = "1.1.0"

from repro.quant import PrecisionConfig, BEST_PRECISION
from repro.softmax import IntegerSoftmax, integer_softmax, softmax

__all__ = [
    "__version__",
    "PrecisionConfig",
    "BEST_PRECISION",
    "IntegerSoftmax",
    "integer_softmax",
    "softmax",
    "BackendSpec",
    "SoftmaxResult",
    "get_experiment",
    "resolve_backend",
]

#: Runtime-API names re-exported lazily (PEP 562): ``import repro`` must
#: stay light — pulling :mod:`repro.runtime` eagerly would drag the whole
#: ap/mapping/gpu stack into every consumer of the base substrate.
_RUNTIME_EXPORTS = frozenset(
    {"BackendSpec", "SoftmaxResult", "get_experiment", "resolve_backend"}
)


def __getattr__(name):
    if name in _RUNTIME_EXPORTS:
        from repro import runtime

        return getattr(runtime, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _RUNTIME_EXPORTS)
