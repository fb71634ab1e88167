"""Compiled execution plans: lower the SoftmAP dataflow once, run it wide.

Until this module existed the hot path re-interpreted the Fig. 5 dataflow on
every call: :meth:`~repro.mapping.softmap.SoftmAPMapping.execute_functional_batch`
re-derived field widths, re-allocated AP fields and re-dispatched the same
sixteen steps through Python for every head of every layer of every pass.
The plan layer splits that into the classic *lower once / execute many*
pipeline:

``compile`` (once per width class)
    :class:`LoweredProgram` resolves everything that depends on neither the
    score values nor the sequence length — quantizer constants, every field
    width and column, the lowered instruction sequence (:class:`PlanOp`),
    the buffer plan and the compiled engine.  The Fig. 5 dataflow is the
    same sixteen steps for every length; only the sum field widens with
    ``log2 N``, so every length of one :func:`width_class` shares one
    program.  :class:`ExecutionPlan` is the cheap per-length view over it:
    the sequence length, its row count, input validation, and the
    analytical Table II cost of each dataflow step (:class:`StepCost`),
    derived on first use.

``execute`` (per score tensor)
    The lowered program runs over the whole workload as **one fused,
    head-major row space**: every softmax vector is a contiguous
    ``segment_length``-row block, heads/batches are just more segments, and
    the segmented reduce/broadcast keeps each vector summing only its own
    block.  Two substrates execute the same program:

    * ``engine="compiled"`` (:data:`~repro.ap.engine.DEFAULT_ENGINE`) — the
      one fast path: the plan's :class:`~repro.ap.compiled.CompiledEngine`
      runs the program as in-place closures over a pooled ``uint64``
      scratch arena, each field one packed word per row for the *whole*
      program, so no per-step scatter/gather through the CAM bit matrix
      remains.  Bit-identical to the AP and orders of magnitude faster.
    * ``engine="vectorized"`` / ``engine="reference"`` — the program is
      interpreted on the functional AP, one CAM operation at a time, by the
      packed-word :class:`~repro.ap.engine.BitPlaneEngine` or the
      bit-serial sweep (the paper-faithful ground truth).  This per-op mode
      is also the baseline of the fused-vs-per-head-loop benchmark.

``plan_passes`` (tiling)
    The planner owns workload tiling: when ``vectors × segment_length``
    words exceed a pass budget the workload is split into
    :class:`WorkloadPass` chunks, which the cluster feeds through its
    two-stage :class:`~repro.mapping.cluster.ClusterSchedule` pipeline —
    opening long-sequence and many-vector workloads a one-AP-per-head
    wiring cannot express.

Every fused execution is bit-identical to the per-head loop (pinned by
``tests/mapping/test_plan.py`` and the cluster parity experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ap.compiled import CompiledEngine
from repro.ap.cost import ApCostModel, OperationCost
from repro.ap.engine import (
    DEFAULT_ENGINE,
    MAX_FIELD_BITS,
    PROCESSOR_ENGINE_NAMES,
    canonical_engine_name,
)
from repro.ap.processor2d import AssociativeProcessor2D
from repro.ap.tech import TECH_16NM, TechnologyParameters
from repro.mapping.dataflow import (
    DataflowStep,
    StepKind,
    max_shift_amount,
    softmax_dataflow,
)
from repro.quant.precision import BEST_PRECISION, PrecisionConfig
from repro.quant.quantizer import ClippedSoftmaxInputQuantizer
from repro.reliability import faults
from repro.softmax.polynomial import IExpPolynomial
from repro.utils.bitwidth import bits_for_unsigned
from repro.utils.validation import (
    check_finite_scores,
    check_non_negative_int,
    check_positive_int,
    check_valid_lengths,
)

__all__ = [
    "BufferPlan",
    "ExecutionPlan",
    "LoweredProgram",
    "MappingCost",
    "PlanField",
    "PlanOp",
    "PlanTelemetry",
    "StepCost",
    "WorkloadPass",
    "multiplication_cycles_general",
    "plan_buffers",
    "plan_passes",
    "width_class",
]

# --------------------------------------------------------------------------- #
# Analytical cost records (moved here from repro.mapping.softmap: the plan
# is now the single owner of per-step cost derivation)                         #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class StepCost:
    """Cost of one dataflow step."""

    step: DataflowStep
    cost: OperationCost


@dataclass(frozen=True)
class MappingCost:
    """Aggregate cost of one softmax pass on one AP."""

    steps: List[StepCost]
    total: OperationCost
    rows: int
    columns: int
    area_mm2: float

    @property
    def cycles(self) -> float:
        """Total compare/write cycles of the pass."""
        return self.total.cycles

    @property
    def latency_s(self) -> float:
        """Latency of the pass in seconds."""
        return self.total.latency_s

    @property
    def energy_j(self) -> float:
        """Energy of the pass in joules."""
        return self.total.energy_j


def multiplication_cycles_general(width: int, multiplier_bits: int) -> int:
    """Table II multiplication generalised to unequal operand widths:
    ``2*width`` operand cycles, ``8*width*multiplier`` shift-add cycles and
    ``2*width`` result handling (reduces to ``2M + 8M^2 + 2M`` when both
    operands are ``M`` bits wide)."""
    check_positive_int(width, "width")
    check_positive_int(multiplier_bits, "multiplier_bits")
    return 2 * width + 8 * width * multiplier_bits + 2 * width


def _analytic_step_cost(
    step: DataflowStep,
    model: ApCostModel,
    words_per_row: int,
    division: str,
    precision: PrecisionConfig,
) -> OperationCost:
    """Translate one dataflow step into Table II / technology-model cost."""
    if step.kind is StepKind.WRITE:
        return model.write(step.width)
    if step.kind is StepKind.SUBTRACT:
        return model.subtraction(step.width)
    if step.kind is StepKind.ADD:
        return model.addition(step.width)
    if step.kind is StepKind.COPY:
        return model.copy(step.width)
    if step.kind is StepKind.MULTIPLY:
        multiplier = step.aux_width if step.aux_width else step.width
        cycles = multiplication_cycles_general(step.width, multiplier)
        return model.cost_from_cycles(f"mul[{step.width}x{multiplier}b]", cycles)
    if step.kind is StepKind.SHIFT:
        addition = model.addition(step.width)
        shift = model.variable_shift(step.width, step.aux_width)
        combined = addition + shift
        return OperationCost(
            name=f"add+shift[{step.width}b]",
            cycles=combined.cycles,
            latency_s=combined.latency_s,
            energy_j=combined.energy_j,
        )
    if step.kind is StepKind.REDUCTION:
        return model.reduction(
            step.width, words=step.aux_width, words_per_row=words_per_row
        )
    if step.kind is StepKind.DIVIDE:
        vapprox = precision.vapprox_bits
        fraction = max(0, step.width - vapprox)
        if division == "restoring":
            return model.division(
                dividend_bits=vapprox,
                divisor_bits=step.aux_width,
                fraction_bits=fraction,
            )
        # Reciprocal mode: the controller computes 1/sum once (off the CAM
        # critical path) and the AP multiplies vapprox by the reciprocal in
        # ``result_column_bits`` fixed-point precision.
        cycles = multiplication_cycles_general(vapprox, step.width)
        return model.cost_from_cycles(f"recip-mul[{vapprox}x{step.width}b]", cycles)
    raise ValueError(f"unknown step kind {step.kind!r}")


# --------------------------------------------------------------------------- #
# Lowered program representation                                               #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlanField:
    """One resolved AP field of the lowered program."""

    name: str
    bits: int


@dataclass(frozen=True)
class PlanOp:
    """One lowered instruction.

    ``op`` names the executor primitive; operands are field names resolved
    against the plan's layout.  ``step`` records the Fig. 5 dataflow step
    the instruction realises (for reporting).

    ========================  ==================================================
    opcode                    semantics
    ========================  ==================================================
    ``write_input``           load the quantized ``z`` words into ``dest``
    ``write_const``           broadcast ``value`` to every row of ``dest``
    ``multiply``              ``dest <- a * b`` truncated to the field width
    ``copy``                  ``dest <- a >> shift`` (zero-extend / truncate)
    ``subtract``              in-place ``a <- a - b`` modulo the field width
    ``add``                   in-place ``b <- b + a`` modulo the field width
    ``shift_right``           barrel shift ``dest <- a >> b`` over ``stages``
    ``mask_padding``          zero ``dest`` in the padding rows (if any)
    ``reduce_broadcast``      per-``segment`` sum of ``a`` into ``dest``,
                              broadcast to every row of the segment
    ``divide``                ``dest <- (a << fraction_bits) / b`` (restoring)
    ========================  ==================================================
    """

    op: str
    dest: Optional[str] = None
    a: Optional[str] = None
    b: Optional[str] = None
    value: int = 0
    shift: int = 0
    stages: int = 0
    fraction_bits: int = 0
    remainder: Optional[str] = None
    step: int = 0


# --------------------------------------------------------------------------- #
# Buffer liveness: fields -> scratch-arena slots                               #
# --------------------------------------------------------------------------- #
def _op_reads(op: PlanOp) -> Tuple[str, ...]:
    """Field names one lowered instruction reads."""
    if op.op in ("multiply", "shift_right", "subtract", "add", "divide"):
        return tuple(name for name in (op.a, op.b) if name is not None)
    if op.op in ("copy", "reduce_broadcast"):
        return (op.a,) if op.a is not None else ()
    if op.op == "mask_padding":
        # Reads and rewrites its destination in place.
        return (op.dest,) if op.dest is not None else ()
    return ()


def _op_writes(op: PlanOp) -> Tuple[str, ...]:
    """Field names one lowered instruction writes."""
    if op.op == "subtract":
        return (op.a,)
    if op.op == "add":
        return (op.b,)
    if op.op == "divide":
        return tuple(name for name in (op.dest, op.remainder) if name is not None)
    return (op.dest,) if op.dest is not None else ()


@dataclass(frozen=True)
class BufferPlan:
    """The lowering layer's buffer-liveness result: fields -> arena slots.

    Computed once per lowered program from its :class:`PlanOp` list:
    every *vector* field (one word per AP row) gets a first/last-use
    interval and a slot in a preallocated scratch arena, assigned by linear
    scan so fields with disjoint live ranges share storage.  The peak slot
    count — ``num_slots``, the arena height a compiled executor has to
    allocate — is what :class:`PlanTelemetry` reports as ``arena_slots``.

    Three field classes never consume a slot:

    * ``scalar_fields`` — fields whose only writes are ``write_const`` and
      that are never mutated row-wise (``mu``/``vln2``/``vc``): their value
      is one compile-time constant, folded into the consuming instructions.
    * ``dead_fields`` — fields written but never read and not the program
      result (the division ``rem`` scratch): a word-level executor never
      materialises them (the bit-serial AP needs the physical columns, a
      numpy ``floor_divide`` does not).
    * fields absent from the program entirely.

    Slot assignment is conservative: a destination never shares a slot with
    an operand of the same instruction (a freed interval becomes reusable
    only *after* the instruction that last reads it), so in-place execution
    against the arena can never read a half-overwritten operand.
    """

    slots: Dict[str, int]
    num_slots: int
    scalar_fields: Tuple[str, ...]
    dead_fields: Tuple[str, ...]
    first_use: Dict[str, int]
    last_use: Dict[str, int]


def plan_buffers(
    program: Tuple[PlanOp, ...],
    fields: Tuple[PlanField, ...],
    result: str = "out",
) -> BufferPlan:
    """Run the buffer-liveness pass over one lowered program.

    ``result`` names the field whose final value is the program output; it
    is kept live through the end of the program regardless of its last
    textual read.
    """
    field_names = {field.name for field in fields}
    writes_by_field: Dict[str, List[str]] = {}
    read_fields: set = set()
    for op in program:
        for name in _op_writes(op):
            writes_by_field.setdefault(name, []).append(op.op)
        read_fields.update(_op_reads(op))

    scalar_fields = tuple(
        name
        for name in (field.name for field in fields)
        if writes_by_field.get(name) and
        all(write == "write_const" for write in writes_by_field[name])
    )
    scalar_set = set(scalar_fields)
    dead_fields = tuple(
        name
        for name in (field.name for field in fields)
        if name in writes_by_field
        and name not in read_fields
        and name != result
        and name not in scalar_set
    )
    dead_set = set(dead_fields)

    first_use: Dict[str, int] = {}
    last_use: Dict[str, int] = {}
    for index, op in enumerate(program):
        for name in (*_op_reads(op), *_op_writes(op)):
            if name in scalar_set or name in dead_set:
                continue
            if name not in field_names:
                raise ValueError(f"op {index} references unknown field {name!r}")
            first_use.setdefault(name, index)
            last_use[name] = index
    if result in last_use:
        # The result is read by whoever executes the plan, after the
        # program's final instruction.
        last_use[result] = len(program)

    # Linear scan over the op list: release a field's slot only after the
    # instruction that last touches it, so a same-instruction destination
    # can never alias a live operand.
    slots: Dict[str, int] = {}
    free: List[int] = []
    num_slots = 0
    expiring: Dict[int, List[str]] = {}
    for name, end in last_use.items():
        expiring.setdefault(end, []).append(name)
    starting: Dict[int, List[str]] = {}
    for name, start in first_use.items():
        starting.setdefault(start, []).append(name)
    for index in range(len(program) + 1):
        for name in starting.get(index, ()):
            if free:
                slots[name] = free.pop()
            else:
                slots[name] = num_slots
                num_slots += 1
        for name in expiring.get(index, ()):
            free.append(slots[name])
    return BufferPlan(
        slots=slots,
        num_slots=num_slots,
        scalar_fields=scalar_fields,
        dead_fields=dead_fields,
        first_use=first_use,
        last_use=last_use,
    )


# --------------------------------------------------------------------------- #
# Workload tiling                                                              #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkloadPass:
    """One planner-produced chunk of a fused workload.

    ``start``/``vectors`` index softmax vectors (segments) of the head-major
    row space; ``words`` is the number of AP words the pass occupies
    (``vectors * segment_length``).
    """

    start: int
    vectors: int
    words: int


@dataclass(frozen=True)
class PlanTelemetry:
    """Plan-level execution telemetry attached to a ``SoftmaxResult``.

    Records how the runtime actually executed a pass: whether the fused
    compiled path ran, on which engine, how the planner tiled the
    workload, and the scratch-arena footprint and wall-clock of the
    execution.

    ``arena_slots`` is the buffer-liveness pass's peak slot count (the
    height of the scratch arena the compiled engine allocates);
    ``arena_bytes`` the bytes the executing engine has actually allocated
    for arenas (0 for engines that do not use one); ``wall_seconds`` the
    measured wall-clock of the execution that produced this telemetry (0.0
    where the caller did not time it).

    The record also describes cluster-wide utilization: ``row_budget`` is
    the ``pass_row_budget`` the planner tiled against (0 when unbudgeted —
    one pass holds the whole workload), and :attr:`words_total` /
    :attr:`occupancy` derive the rows-used-vs-budget report from it.
    Serving-side facts (how many requests shared a tick, retries, backoff)
    live on :class:`~repro.serve.server.ServeResponse`, not here.
    """

    fused: bool
    engine: str
    passes: int
    vectors: int
    segment_length: int
    words_per_pass: Tuple[int, ...]
    arena_slots: int = 0
    arena_bytes: int = 0
    wall_seconds: float = 0.0
    row_budget: int = 0

    @property
    def words_total(self) -> int:
        """AP words occupied across every planner pass of the execution."""
        return sum(self.words_per_pass)

    @property
    def occupancy(self) -> float:
        """Fraction of the provisioned pass rows the workload actually used.

        ``words_total / (passes * row_budget)`` under a ``pass_row_budget``;
        1.0 when unbudgeted (a single fused pass is exactly as wide as its
        workload, so the row space has no idle provisioned rows).
        """
        if self.row_budget <= 0 or self.passes == 0:
            return 1.0
        return self.words_total / (self.passes * self.row_budget)


def plan_passes(
    vectors: int, segment_length: int, row_budget: Optional[int] = None
) -> List[WorkloadPass]:
    """Tile ``vectors`` softmax vectors of ``segment_length`` words each.

    With no ``row_budget`` the whole workload is one fused pass.  With a
    budget, as many whole vectors as fit the budget are packed per pass
    (a vector's segmented reduction cannot straddle passes, so one segment
    must fit: ``segment_length <= row_budget``).  An empty workload has
    no passes.
    """
    check_non_negative_int(vectors, "vectors")
    check_positive_int(segment_length, "segment_length")
    if vectors == 0:
        return []
    if row_budget is None:
        return [WorkloadPass(0, vectors, vectors * segment_length)]
    check_positive_int(row_budget, "row_budget")
    if segment_length > row_budget:
        raise ValueError(
            f"one {segment_length}-word segment does not fit the "
            f"{row_budget}-word pass budget (a softmax vector cannot be "
            f"split across passes)"
        )
    per_pass = row_budget // segment_length
    passes: List[WorkloadPass] = []
    for start in range(0, vectors, per_pass):
        count = min(per_pass, vectors - start)
        passes.append(WorkloadPass(start, count, count * segment_length))
    return passes


# --------------------------------------------------------------------------- #
# The lowered program (one per width class) and the per-length plan view       #
# --------------------------------------------------------------------------- #
def width_class(sequence_length: int, output_fraction_bits: int) -> Tuple[int, int]:
    """The key of the lowered program a sequence length runs.

    The Fig. 5 dataflow is the same sixteen steps for every sequence length;
    only the reduction field widens, by ``bits_for_unsigned(N - 1)``
    (Table I/II's ``log2 N`` sum bits).  Lengths that agree on that width
    and on the output fraction share one :class:`LoweredProgram`.
    """
    return output_fraction_bits, bits_for_unsigned(sequence_length - 1)


class LoweredProgram:
    """The length-independent half of a plan, lowered once per width class.

    Holds everything that does not depend on the segment length: quantizer
    constants, the resolved field layout, the lowered instruction sequence
    (:class:`PlanOp`), the buffer-liveness result and the
    :class:`~repro.ap.compiled.CompiledEngine` with its arena pool.  Every
    :class:`ExecutionPlan` whose sequence length falls in the program's
    :func:`width_class` can run it; the segment length is bound at run time.
    """

    def __init__(
        self,
        precision: PrecisionConfig,
        clip_threshold: Optional[float],
        output_fraction_bits: int,
        index_bits: int,
    ) -> None:
        self.precision = precision
        self.clip_threshold = clip_threshold
        self.width_class = (output_fraction_bits, index_bits)
        self.quantizer = ClippedSoftmaxInputQuantizer(
            bits=precision.input_bits, clip_threshold=clip_threshold
        )
        self.polynomial = IExpPolynomial(
            input_bits=precision.input_bits, barrett_correction=False
        )
        self.constants = constants = self.polynomial.constants(self.quantizer.scale)

        m = precision.input_bits
        shift_bits = max(
            1, bits_for_unsigned(max_shift_amount(precision, constants.vln2))
        )
        mu_bits = max(1, bits_for_unsigned(constants.mu))
        product_bits = m + mu_bits
        q_bits = max(1, product_bits - 2 * m) + 1
        vb_bits = max(1, bits_for_unsigned(constants.vb))
        vc_bits = max(1, bits_for_unsigned(constants.vc))
        poly_bits = 2 * (vb_bits + 1) + max(vc_bits - 2 * vb_bits, 0) + 2
        vapprox_bits = poly_bits
        sum_bits = vapprox_bits + index_bits
        out_bits = vapprox_bits + output_fraction_bits
        vln2_bits = max(4, bits_for_unsigned(constants.vln2))
        stages = min(shift_bits, q_bits)

        self.columns_needed = (
            m                      # z
            + m                    # max / vln2 scratch
            + mu_bits              # mu
            + product_bits         # z * mu
            + q_bits * 2 + 4       # q and q * vln2
            + 2 * (vb_bits + 1)    # vb - r and its copy
            + poly_bits            # polynomial
            + vc_bits
            + vapprox_bits
            + sum_bits * 2
            + out_bits
            + sum_bits + 2         # division remainder
            + 8
        )
        self.fields: Tuple[PlanField, ...] = (
            PlanField("z", m),
            PlanField("mu", mu_bits),
            PlanField("z_mu", product_bits),
            PlanField("vln2", vln2_bits),
            PlanField("q", q_bits),
            PlanField("q_vln2", q_bits + vln2_bits),
            PlanField("r", m),
            PlanField("w", vb_bits + 1),
            PlanField("w_copy", vb_bits + 1),
            PlanField("w_sq", poly_bits),
            PlanField("vc", vc_bits),
            PlanField("vapprox", vapprox_bits),
            PlanField("sum", sum_bits),
            PlanField("out", out_bits),
            PlanField("rem", sum_bits + 1),
        )
        self.bits: Dict[str, int] = {f.name: f.bits for f in self.fields}
        self.program: Tuple[PlanOp, ...] = (
            # Step 1: write v (as z = max(v) - v); step 2 is folded into z
            # because the functional mapping tracks the magnitude.
            PlanOp("write_input", dest="z", step=1),
            # Steps 3-4: Barrett quotient q = (z * mu) >> 2M.
            PlanOp("write_const", dest="mu", value=constants.mu, step=3),
            PlanOp("multiply", a="z", b="mu", dest="z_mu", step=4),
            PlanOp("write_const", dest="vln2", value=constants.vln2, step=5),
            PlanOp("copy", a="z_mu", dest="q", shift=2 * m, step=4),
            # Step 6: q * vln2.
            PlanOp("multiply", a="q", b="vln2", dest="q_vln2", step=6),
            # Step 7: r = z - q*vln2 = z mod vln2 (so vcorr = -r).
            PlanOp("copy", a="z", dest="r", step=7),
            PlanOp("subtract", a="r", b="q_vln2", step=7),
            # Steps 8-9: w = vb - r (= vcorr + vb).
            PlanOp("write_const", dest="w", value=constants.vb, step=8),
            PlanOp("subtract", a="w", b="r", step=9),
            # Steps 10-11: copy w, then square it (multiplicand and
            # multiplier predicate must live in different columns).
            PlanOp("copy", a="w", dest="w_copy", step=10),
            PlanOp("multiply", a="w_copy", b="w", dest="w_sq", step=11),
            # Steps 12-13: add vc, then shift right by q.
            PlanOp("write_const", dest="vc", value=constants.vc, step=12),
            PlanOp("add", a="vc", b="w_sq", step=13),
            PlanOp("shift_right", a="w_sq", b="q", dest="vapprox",
                   stages=stages, step=13),
            # Null padding words so they contribute nothing to the segmented
            # sum and divide to an all-zero output word.
            PlanOp("mask_padding", dest="vapprox"),
            # Steps 14-15: segmented reduction + broadcast of the sum.
            PlanOp("reduce_broadcast", a="vapprox", dest="sum", step=14),
            # Step 16: divide (fixed point with output_fraction_bits).
            PlanOp("divide", a="vapprox", b="sum", dest="out", remainder="rem",
                   fraction_bits=output_fraction_bits, step=16),
        )
        #: Whether every field fits the packed-word representation; when it
        #: does not (exotic custom widths), compiled execution falls back
        #: to the per-operation engine on the functional AP.
        self.packable = all(f.bits <= MAX_FIELD_BITS for f in self.fields)
        #: Buffer-liveness result: vector fields assigned to scratch-arena
        #: slots, scalar constants folded out, dead scratch dropped.
        self.buffers: BufferPlan = plan_buffers(self.program, self.fields)
        # Built on the first compiled execution.  A rare double
        # construction under concurrent passes just discards one instance.
        self._compiled: Optional[CompiledEngine] = None

    @property
    def compiled_engine(self) -> CompiledEngine:
        """The program's (cached) compiled executor and its arena pool."""
        if self._compiled is None:
            self._compiled = CompiledEngine(self)
        return self._compiled

    @property
    def arena_bytes(self) -> int:
        """Scratch-arena bytes the compiled executor holds (0 before the
        first compiled execution)."""
        return 0 if self._compiled is None else self._compiled.arena_bytes


class ExecutionPlan:
    """The SoftmAP dataflow for one (precision, sequence-length) shape.

    A plan is a cheap per-length view over a :class:`LoweredProgram`: it
    holds the sequence length, its AP row count and input validation, and
    derives the per-length Table II step costs on the first :meth:`cost`.
    The program itself — field layout, lowered instructions, compiled
    engine and arena pool — is shared by every length of its
    :func:`width_class`.  :class:`~repro.mapping.softmap.SoftmAPMapping`
    owns that sharing: it passes each plan its class's program through
    ``lowered``.  A standalone plan (``lowered=None``) lowers a private
    program of its own.

    Parameters mirror :class:`~repro.mapping.softmap.SoftmAPMapping` (which
    caches plans per runtime shape); ``output_fraction_bits`` defaults to
    the ``2M + 12`` result-column width.
    """

    def __init__(
        self,
        precision: PrecisionConfig = BEST_PRECISION,
        sequence_length: int = 2048,
        words_per_row: int = 2,
        columns: int = 64,
        tech: TechnologyParameters = TECH_16NM,
        division: str = "restoring",
        clip_threshold: Optional[float] = None,
        engine: str = DEFAULT_ENGINE,
        output_fraction_bits: Optional[int] = None,
        *,
        lowered: Optional[LoweredProgram] = None,
    ) -> None:
        self.precision = precision
        self.sequence_length = check_positive_int(sequence_length, "sequence_length")
        self.words_per_row = check_positive_int(words_per_row, "words_per_row")
        self.cost_columns = check_positive_int(columns, "columns")
        self.tech = tech
        self.division = division
        self.engine = canonical_engine_name(engine)
        if output_fraction_bits is None:
            output_fraction_bits = precision.result_column_bits
        self.output_fraction_bits = check_positive_int(
            output_fraction_bits, "output_fraction_bits"
        )
        key = width_class(self.sequence_length, self.output_fraction_bits)
        if lowered is None:
            lowered = LoweredProgram(precision, clip_threshold, *key)
        elif (
            lowered.width_class != key
            or lowered.precision != precision
            or lowered.clip_threshold != clip_threshold
        ):
            raise ValueError(
                f"lowered program of width class {lowered.width_class} cannot "
                f"run sequence length {self.sequence_length} (class {key})"
            )
        self.lowered = lowered
        self.quantizer = lowered.quantizer
        self.polynomial = lowered.polynomial
        self.constants = lowered.constants
        self.fields = lowered.fields
        self.program = lowered.program
        self.buffers = lowered.buffers
        self.columns_needed = lowered.columns_needed
        self.packable = lowered.packable
        # Ceil division: an odd sequence length still occupies a final,
        # partly filled row (floor division would silently drop its word).
        self.rows = -(-self.sequence_length // self.words_per_row)
        self._cost: Optional[MappingCost] = None

    # ------------------------------------------------------------------ #
    # Per-length analytical view: the 16 costed dataflow steps, derived   #
    # on first use                                                         #
    # ------------------------------------------------------------------ #
    @cached_property
    def cost_model(self) -> ApCostModel:
        """The technology cost model of this length's per-head AP."""
        return ApCostModel(rows=self.rows, columns=self.cost_columns, tech=self.tech)

    @cached_property
    def dataflow_steps(self) -> Tuple[DataflowStep, ...]:
        """The sixteen Fig. 5 dataflow steps at this sequence length."""
        return tuple(
            softmax_dataflow(
                self.precision, self.sequence_length, vln2=self.constants.vln2
            )
        )

    @cached_property
    def step_costs(self) -> Tuple[StepCost, ...]:
        """Table II / technology cost of every dataflow step."""
        step_costs: List[StepCost] = []
        for step in self.dataflow_steps:
            cost = _analytic_step_cost(
                step, self.cost_model, self.words_per_row, self.division,
                self.precision,
            )
            if step.elementwise and self.words_per_row > 1:
                cost = cost.scaled(self.words_per_row, name=cost.name)
            step_costs.append(StepCost(step=step, cost=cost))
        return tuple(step_costs)

    # ------------------------------------------------------------------ #
    # Analytical cost                                                      #
    # ------------------------------------------------------------------ #
    def cost(self) -> MappingCost:
        """The compiled Table II / technology cost of one pass."""
        if self._cost is None:
            total = OperationCost.zero("softmap")
            for step_cost in self.step_costs:
                total = total + step_cost.cost
            total = OperationCost(
                name="softmap-pass",
                cycles=total.cycles,
                latency_s=total.latency_s,
                energy_j=total.energy_j,
            )
            self._cost = MappingCost(
                steps=list(self.step_costs),
                total=total,
                rows=self.rows,
                columns=self.cost_columns,
                area_mm2=self.cost_model.area_mm2(),
            )
        return self._cost

    # ------------------------------------------------------------------ #
    # Execution                                                            #
    # ------------------------------------------------------------------ #
    def execute(
        self,
        scores: np.ndarray,
        valid_lengths: Optional[np.ndarray] = None,
        engine: Optional[str] = None,
    ) -> np.ndarray:
        """Run the plan over a ``(vectors, segment_length)`` score tensor.

        ``"compiled"`` runs the whole row space in one wide invocation of
        the plan's :attr:`compiled_engine`; the processor engines
        (``"vectorized"``, ``"reference"``) interpret the program on the
        functional AP.  Results are bit-identical across every engine and
        to the pre-plan per-head loop.
        """
        engine = canonical_engine_name(engine) if engine is not None else self.engine
        faults.fire(f"engine:{engine}")
        z, pad_mask = self._prepare(scores, valid_lengths)
        if self.fused(engine):
            out = self.compiled_engine.run(z, pad_mask)
        else:
            # The plan-only engine cannot serve per-operation CAM sweeps; a
            # non-packable layout falls back to the packed-word AP engine.
            if engine not in PROCESSOR_ENGINE_NAMES:
                engine = "vectorized"
            out = self._run_ap(z, pad_mask, engine)
        return out * (2.0 ** -self.output_fraction_bits)

    def fused(self, engine: Optional[str] = None) -> bool:
        """Whether ``engine`` runs this plan on the compiled fast path."""
        engine = canonical_engine_name(engine) if engine is not None else self.engine
        return engine not in PROCESSOR_ENGINE_NAMES and self.packable

    @property
    def compiled_engine(self) -> CompiledEngine:
        """The compiled executor of the plan's lowered program (shared by
        every length of its width class) and its scratch-arena pool."""
        return self.lowered.compiled_engine

    def arena_bytes(self, engine: Optional[str] = None) -> int:
        """Scratch-arena bytes ``engine``'s execution of this plan holds.

        0 for engines that interpret on the functional AP and before the
        first compiled execution of the plan's program.
        """
        return self.lowered.arena_bytes if self.fused(engine) else 0

    # ------------------------------------------------------------------ #
    # Internals                                                            #
    # ------------------------------------------------------------------ #
    def _prepare(
        self, scores: np.ndarray, valid_lengths: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Validate (a non-finite valid prefix is an
        :class:`~repro.utils.validation.InvalidScoresError`), causally mask
        and quantize one score tensor into the program input ``z``."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError("the plan executes a (batch, seq) score tensor")
        if scores.shape[1] != self.sequence_length:
            raise ValueError(
                f"plan compiled for sequence length {self.sequence_length}, "
                f"got {scores.shape[1]}"
            )
        pad_mask = None  # (batch, seq) boolean, True at padding positions
        lengths = check_valid_lengths(valid_lengths, *scores.shape)
        check_finite_scores(scores, lengths)
        if lengths is not None and np.any(lengths < scores.shape[1]):
            pad_mask = np.arange(scores.shape[1])[None, :] >= lengths[:, None]
            # Padding scores must not influence the per-vector maximum used
            # for stabilisation.
            scores = np.where(pad_mask, -np.inf, scores)
        quantized = self.quantizer.quantize(scores, stabilise=True)
        z = (-quantized.values).astype(np.int64)  # z = -vstable >= 0
        return z, pad_mask

    def _run_ap(
        self,
        z: np.ndarray,
        pad_mask: Optional[np.ndarray],
        engine: str,
    ) -> np.ndarray:
        """Interpret the program on one wide functional 2D AP."""
        batch, n = z.shape
        if batch == 0:  # an AP needs at least one row
            return np.zeros((0, n))
        ap = AssociativeProcessor2D(
            rows=batch * n, columns=self.columns_needed, backend=engine
        )
        fields = {
            spec.name: ap.allocate_field(spec.name, spec.bits)
            for spec in self.fields
        }
        for op in self.program:
            if op.op == "write_input":
                ap.write_field(fields[op.dest], z.ravel())
            elif op.op == "write_const":
                ap.write_constant(fields[op.dest], op.value)
            elif op.op == "multiply":
                ap.multiply(fields[op.a], fields[op.b], fields[op.dest])
            elif op.op == "copy":
                source = fields[op.a]
                if op.shift:
                    source = ap.shifted_view(source, op.shift)
                ap.copy(source, fields[op.dest])
            elif op.op == "subtract":
                ap.subtract(fields[op.a], fields[op.b])
            elif op.op == "add":
                ap.add(fields[op.a], fields[op.b])
            elif op.op == "shift_right":
                ap.shift_right_variable(
                    fields[op.a], fields[op.b], fields[op.dest],
                    max_shift_bits=op.stages,
                )
            elif op.op == "mask_padding":
                if pad_mask is not None:
                    ap.clear_rows(fields[op.dest], pad_mask.ravel())
            elif op.op == "reduce_broadcast":
                ap.reduce_and_broadcast_segments(
                    fields[op.a], fields[op.dest], n
                )
            elif op.op == "divide":
                ap.divide(
                    fields[op.a], fields[op.b], fields[op.dest],
                    fields[op.remainder], fraction_bits=op.fraction_bits,
                )
            else:  # pragma: no cover - lowering and executor move together
                raise ValueError(f"unknown plan opcode {op.op!r}")
        return ap.read_field(fields["out"]).astype(np.float64).reshape(batch, n)

