"""SoftmAP: mapping the integer-only softmax dataflow onto the AP.

This package is the co-design half of the paper:

* :mod:`repro.mapping.dataflow` — the 16-step dataflow of Fig. 5 with the
  per-step operand widths of Fig. 4 / Table I;
* :mod:`repro.mapping.softmap` — :class:`SoftmAPMapping`, which (a) executes
  the dataflow on the functional 2D AP simulator to validate correctness and
  (b) costs it with the Table II analytical model;
* :mod:`repro.mapping.deployment` — the per-head deployment used for the
  hardware characterization (one AP per attention head, Llama2 7b/13b/70b
  area figures, per-invocation energy/latency);
* :mod:`repro.mapping.plan` — the compiled-execution layer:
  :class:`ExecutionPlan` lowers the dataflow once (resolved fields, lowered
  program, per-step cost) and executes whole workloads as fused, head-major
  row spaces; :func:`plan_passes` tiles oversized workloads into passes;
* :mod:`repro.mapping.cluster` — :class:`ApCluster`, the *functional*
  multi-head deployment: one shared plan executing a ``(batch, heads, seq)``
  score tensor as fused wide passes with concurrency-aware cost
  aggregation and a pipelined multi-batch/pass schedule.
"""

from repro.mapping.dataflow import DataflowStep, StepKind, softmax_dataflow
from repro.mapping.plan import (
    ExecutionPlan,
    PlanField,
    PlanOp,
    PlanTelemetry,
    WorkloadPass,
    plan_passes,
)
from repro.mapping.softmap import SoftmAPMapping, MappingCost, StepCost
from repro.mapping.deployment import ApDeployment, DeploymentSummary
from repro.mapping.cluster import ApCluster, ClusterCost, ClusterSchedule

__all__ = [
    "DataflowStep",
    "StepKind",
    "softmax_dataflow",
    "ExecutionPlan",
    "PlanField",
    "PlanOp",
    "PlanTelemetry",
    "WorkloadPass",
    "plan_passes",
    "SoftmAPMapping",
    "MappingCost",
    "StepCost",
    "ApDeployment",
    "DeploymentSummary",
    "ApCluster",
    "ClusterCost",
    "ClusterSchedule",
]
