"""Functional bit-serial, word-parallel Associative Processor.

:class:`AssociativeProcessor` executes arithmetic the way the hardware does:
for every bit position it sweeps the compare/write passes of the operation's
LUT over the whole CAM, so all rows (words) are processed in parallel while
bits are processed serially.  The simulator therefore *computes* the correct
result (validated against numpy in the tests) while the underlying
:class:`~repro.ap.cam.CamArray` counts compare/write cycles.

The processor works on unsigned words; the SoftmAP mapping
(:mod:`repro.mapping.softmap`) arranges the dataflow so that every
intermediate value is non-negative (it tracks ``-vstable`` instead of
``vstable``), which keeps the hardware free of signed corner cases exactly
as a real bit-serial design would prefer.

Operations provided: constant/data writes, copy, logic (XOR/AND/OR/NOT),
in-place addition and subtraction, multiplication (shift-add, optionally
conditioned on a predicate column), constant and variable right shifts, and
restoring division — everything the 16-step dataflow of Fig. 5 needs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.ap.cam import CamArray, CamStats
from repro.ap.engine import (
    PROCESSOR_ENGINE_NAMES,
    BitPlaneEngine,
    canonical_engine_name,
)
from repro.ap.fields import Field, FieldAllocator
from repro.ap.lut import (
    ADD_LUT,
    AND_LUT,
    COPY_LUT,
    Lut,
    NOT_LUT,
    OR_LUT,
    SUB_LUT,
    XOR_LUT,
)
from repro.utils.validation import (
    check_non_negative_int,
    check_positive_int,
)

__all__ = ["AssociativeProcessor"]


class AssociativeProcessor:
    """A 1D (bit-serial, word-parallel) associative processor.

    Parameters
    ----------
    rows:
        Number of CAM rows (words processed in parallel).
    columns:
        Total number of bit columns available for fields.  Two extra
        service columns (a constant-zero column and a carry/borrow state
        column) are allocated automatically on top of this number.
    backend:
        ``"reference"`` (default) executes every operation as bit-serial
        compare/write LUT sweeps — the paper-faithful ground truth.
        ``"vectorized"`` executes the same instruction set through the
        packed-word :class:`~repro.ap.engine.BitPlaneEngine`, which computes
        bit-identical results (and identical compare/write cycle counts)
        orders of magnitude faster; operations the engine cannot express
        (e.g. aliased operand columns) transparently fall back to the
        reference sweep.
    """

    #: Name of the always-zero service column (used for zero extension).
    ZERO = "__zero__"
    #: Name of the carry/borrow service column.
    STATE = "__state__"
    #: Name of the flag service column (used by division).
    FLAG = "__flag__"

    #: Execution backends accepted by the constructor: the engines that can
    #: serve per-operation CAM sweeps.  The plan-only ``"compiled"`` engine
    #: is rejected here — it executes whole lowered programs, not
    #: individual instructions.
    BACKENDS = PROCESSOR_ENGINE_NAMES

    def __init__(self, rows: int, columns: int, backend: str = "reference") -> None:
        check_positive_int(rows, "rows")
        check_positive_int(columns, "columns")
        self.backend = canonical_engine_name(backend, processor=True)
        service_columns = 3
        self.cam = CamArray(rows, columns + service_columns)
        self.allocator = FieldAllocator(columns + service_columns)
        self._zero_column = self.allocator.allocate(self.ZERO, 1, signed=False).columns[0]
        self._state_column = self.allocator.allocate(self.STATE, 1, signed=False).columns[0]
        self._flag_column = self.allocator.allocate(self.FLAG, 1, signed=False).columns[0]
        self._engine = BitPlaneEngine(self) if self.backend == "vectorized" else None

    # ------------------------------------------------------------------ #
    # Introspection                                                        #
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> int:
        """Number of CAM rows."""
        return self.cam.rows

    @property
    def stats(self) -> CamStats:
        """Cycle counters of the underlying CAM."""
        return self.cam.stats

    def reset_stats(self) -> None:
        """Zero the cycle counters (the stored data is left untouched)."""
        self.cam.stats.reset()

    # ------------------------------------------------------------------ #
    # Field management and data movement                                   #
    # ------------------------------------------------------------------ #
    def allocate_field(self, name: str, bits: int, signed: bool = False) -> Field:
        """Allocate a named ``bits``-wide field."""
        return self.allocator.allocate(name, bits, signed=signed)

    def field(self, name: str) -> Field:
        """Look up an allocated field."""
        return self.allocator.get(name)

    def write_field(self, field: Field, values: np.ndarray) -> None:
        """Load one word per row into ``field``.

        The cost charged is one write cycle per bit column, matching the
        ``2M`` "write the operands" term of the Table II formulas.  Values
        must be non-negative and fit the field width.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.ndim == 0:
            values = np.full(self.rows, int(values), dtype=np.int64)
        if values.shape != (self.rows,):
            raise ValueError(
                f"expected {self.rows} values for field {field.name!r}, "
                f"got shape {values.shape}"
            )
        if np.any(values < 0):
            raise ValueError("the functional AP stores unsigned words only")
        if np.any(values >= (1 << field.bits)):
            raise OverflowError(
                f"values do not fit in {field.bits}-bit field {field.name!r}"
            )
        bits = self._int_to_bits(values, field.bits)
        self.cam.load_bits(field.columns, bits)
        # Charge one write cycle per column (word-parallel column write).
        self.cam.stats.write_cycles += field.bits
        self.cam.stats.written_bits += field.bits * self.rows
        self.cam.stats.row_writes += field.bits * self.rows

    def write_constant(self, field: Field, value: int) -> None:
        """Broadcast the same constant to every row of ``field``.

        Constants (``mu``, ``vb``, ``vc``, ``vln2``) are computed offline and
        written once; the cost is one write cycle per bit column.
        """
        check_non_negative_int(int(value), "value")
        self.write_field(field, np.full(self.rows, int(value), dtype=np.int64))

    def read_field(self, field: Field) -> np.ndarray:
        """Read the words stored in ``field`` (unsigned)."""
        bits = self.cam.read_bits(field.columns)
        return self._bits_to_int(bits)

    def read_field_signed(self, field: Field) -> np.ndarray:
        """Read ``field`` interpreting the MSB as a two's-complement sign."""
        unsigned = self.read_field(field)
        half = np.int64(1) << np.int64(field.bits - 1)
        full = np.int64(1) << np.int64(field.bits)
        return np.where(unsigned >= half, unsigned - full, unsigned)

    def clear_field(self, field: Field) -> None:
        """Zero every bit of ``field`` (one write cycle per column)."""
        all_rows = np.ones(self.rows, dtype=bool)
        for column in field.columns:
            self.cam.write({column: 0}, tag=all_rows)

    def clear_rows(self, field: Field, row_mask: np.ndarray) -> None:
        """Zero ``field`` in the selected rows only.

        The controller tags the rows once and issues one write cycle per bit
        column — the same tagged column write every LUT pass uses, so the
        operation is identical (data and cycle accounting) on both backends.
        The batched softmax mapping uses this to null the padding words of
        variable-length rows before the segmented reduction.
        """
        row_mask = np.asarray(row_mask, dtype=bool)
        if row_mask.shape != (self.rows,):
            raise ValueError(
                f"row_mask must have shape ({self.rows},), got {row_mask.shape}"
            )
        for column in field.columns:
            self.cam.write({column: 0}, tag=row_mask)

    # ------------------------------------------------------------------ #
    # LUT sweeps                                                           #
    # ------------------------------------------------------------------ #
    def _sweep_logic(
        self,
        lut: Lut,
        a: Field,
        r: Field,
        b: Optional[Field] = None,
        condition: Optional[Tuple[int, int]] = None,
        row_mask: Optional[np.ndarray] = None,
    ) -> None:
        """Sweep an out-of-place logic LUT bit-serially over the operands."""
        bits = r.bits
        for i in range(bits):
            roles = {"r": r.columns[i], "a": self._column_or_zero(a, i)}
            if b is not None:
                roles["b"] = self._column_or_zero(b, i)
            self._apply_passes(lut, roles, condition=condition, row_mask=row_mask)

    def _apply_passes(
        self,
        lut: Lut,
        role_columns: Dict[str, int],
        condition: Optional[Tuple[int, int]] = None,
        row_mask: Optional[np.ndarray] = None,
    ) -> None:
        """Apply every pass of ``lut`` with roles bound to physical columns."""
        for lut_pass in lut.passes:
            key = {role_columns[role]: bit for role, bit in lut_pass.search.items()}
            if condition is not None:
                key[condition[0]] = condition[1]
            tag = self.cam.compare(key, row_mask=row_mask)
            if not np.any(tag):
                # The write cycle is still issued by the hardware controller
                # (it does not know the tag is empty ahead of time).
                pass
            writes = {role_columns[role]: bit for role, bit in lut_pass.write.items()}
            self.cam.write(writes, tag=tag)

    def _column_or_zero(self, field: Field, position: int) -> int:
        """Column of bit ``position`` of ``field``; the constant-zero service
        column when ``position`` is beyond the field width (zero extension)."""
        if position < field.bits:
            return field.columns[position]
        return self._zero_column

    def _try_logic(
        self,
        lut: Lut,
        a: Field,
        r: Field,
        b: Optional[Field] = None,
        condition: Optional[Tuple[int, int]] = None,
        row_mask: Optional[np.ndarray] = None,
    ) -> bool:
        """Run a clear+sweep logic operation on the vectorized engine if the
        backend is selected and the operand layout is expressible."""
        if self._engine is None or not self._engine.supports_logic(
            lut, a, r, b, condition
        ):
            return False
        self._engine.logic(lut, a, r, b=b, condition=condition, row_mask=row_mask)
        return True

    # ------------------------------------------------------------------ #
    # Logic operations                                                     #
    # ------------------------------------------------------------------ #
    def xor(self, a: Field, b: Field, r: Field) -> None:
        """``r <- a XOR b`` (Fig. 3).  ``r`` is cleared first."""
        if self._try_logic(XOR_LUT, a, r, b=b):
            return
        self.clear_field(r)
        self._sweep_logic(XOR_LUT, a, r, b=b)

    def and_(self, a: Field, b: Field, r: Field) -> None:
        """``r <- a AND b``."""
        if self._try_logic(AND_LUT, a, r, b=b):
            return
        self.clear_field(r)
        self._sweep_logic(AND_LUT, a, r, b=b)

    def or_(self, a: Field, b: Field, r: Field) -> None:
        """``r <- a OR b``."""
        if self._try_logic(OR_LUT, a, r, b=b):
            return
        self.clear_field(r)
        self._sweep_logic(OR_LUT, a, r, b=b)

    def not_(self, a: Field, r: Field) -> None:
        """``r <- NOT a`` (bitwise complement over ``r``'s width)."""
        if self._try_logic(NOT_LUT, a, r):
            return
        self.clear_field(r)
        self._sweep_logic(NOT_LUT, a, r)

    def copy(
        self,
        src: Field,
        dst: Field,
        condition: Optional[Tuple[int, int]] = None,
        row_mask: Optional[np.ndarray] = None,
    ) -> None:
        """``dst <- src`` (zero-extended / truncated to ``dst``'s width)."""
        if self._try_logic(COPY_LUT, src, dst, condition=condition, row_mask=row_mask):
            return
        self.clear_field(dst)
        self._sweep_logic(COPY_LUT, src, dst, condition=condition, row_mask=row_mask)

    # ------------------------------------------------------------------ #
    # Arithmetic                                                           #
    # ------------------------------------------------------------------ #
    def add(
        self,
        a: Field,
        b: Field,
        condition: Optional[Tuple[int, int]] = None,
        row_mask: Optional[np.ndarray] = None,
        width: Optional[int] = None,
    ) -> None:
        """In-place addition ``b <- a + b`` (modulo ``2**b.bits``).

        ``a`` is zero-extended when narrower than ``b``.  When ``condition``
        is given as ``(column, bit)``, only rows whose predicate column holds
        that bit are updated (used for the conditional adds of shift-add
        multiplication and restoring division).
        """
        if width is not None and width > b.bits:
            raise ValueError("width cannot exceed the destination width")
        if (
            self._engine is not None
            and self._engine.supports_add(a, b, condition, width)
        ):
            self._engine.add(a, b, condition=condition, row_mask=row_mask, width=width)
            return
        self._clear_state()
        bits = width if width is not None else b.bits
        for i in range(bits):
            roles = {
                "a": self._column_or_zero(a, i),
                "b": b.columns[i],
                "cy": self._state_column,
            }
            self._apply_passes(ADD_LUT, roles, condition=condition, row_mask=row_mask)

    def subtract(
        self,
        a: Field,
        b: Field,
        condition: Optional[Tuple[int, int]] = None,
        row_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """In-place subtraction ``a <- a - b`` (modulo ``2**a.bits``).

        Returns the final borrow per row (True where the result wrapped,
        i.e. ``a < b``), which the caller can use as a comparison outcome —
        this is how restoring division decides whether to restore.
        """
        if (
            self._engine is not None
            and self._engine.supports_add(b, a, condition, None)
        ):
            return self._engine.subtract(a, b, condition=condition, row_mask=row_mask)
        self._clear_state()
        for i in range(a.bits):
            roles = {
                "a": a.columns[i],
                "b": self._column_or_zero(b, i),
                "bw": self._state_column,
            }
            self._apply_passes(SUB_LUT, roles, condition=condition, row_mask=row_mask)
        return self.cam.cells[:, self._state_column].copy()

    def multiply(
        self,
        a: Field,
        b: Field,
        r: Field,
        condition: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Shift-add multiplication ``r <- a * b``.

        ``r`` should be ``a.bits + b.bits`` wide; it is cleared first.  For
        every bit ``j`` of the multiplier ``b``, the multiplicand ``a`` is
        added into ``r`` at offset ``j`` — only in the rows where ``b_j = 1``
        (the predicate is folded into the compare key, which is the
        word-parallel way of doing a conditional add).
        """
        if condition is not None:
            raise NotImplementedError(
                "stacking an extra predicate on multiply is not supported"
            )
        if set(a.columns) & set(b.columns):
            raise ValueError(
                "multiplicand and multiplier must live in disjoint columns; "
                "copy one operand first (the dataflow's explicit Copy step), "
                "or use square() which does so"
            )
        if self._engine is not None and self._engine.supports_multiply(a, b, r):
            self._engine.multiply(a, b, r)
            return
        self.clear_field(r)
        for j in range(b.bits):
            predicate = (b.columns[j], 1)
            self._clear_state()
            for i in range(r.bits - j):
                roles = {
                    "a": self._column_or_zero(a, i),
                    "b": r.columns[i + j],
                    "cy": self._state_column,
                }
                self._apply_passes(ADD_LUT, roles, condition=predicate)

    def square(self, a: Field, scratch: Field, r: Field) -> None:
        """``r <- a * a`` via an explicit copy followed by multiplication.

        The copy into ``scratch`` mirrors steps 10-11 of the SoftmAP
        dataflow: the AP cannot use the same columns as both multiplicand
        and multiplier predicate, so the operand is duplicated first.
        """
        if scratch.bits < a.bits:
            raise ValueError("scratch field must be at least as wide as the operand")
        self.copy(a, scratch)
        self.multiply(scratch, a, r)

    # ------------------------------------------------------------------ #
    # Shifts                                                               #
    # ------------------------------------------------------------------ #
    def shifted_view(self, field: Field, right_shift: int, name: str = "") -> Field:
        """Logical right shift by a constant: a free re-labelling of columns
        ("shift operations are inherently supported by the bit-seriality of
        the AP")."""
        check_non_negative_int(right_shift, "right_shift")
        if right_shift >= field.bits:
            raise ValueError("constant shift discards every bit of the field")
        return field.slice(right_shift, field.bits, name=name or f"{field.name}>>{right_shift}")

    def shift_right_variable(
        self,
        src: Field,
        shift: Field,
        dst: Field,
        max_shift_bits: Optional[int] = None,
    ) -> None:
        """Variable (per-row) logical right shift: ``dst <- src >> shift``.

        Implemented as a barrel shifter: the result is first copied from the
        source, then for every bit ``k`` of the shift amount the rows whose
        shift bit is set have their word moved right by ``2**k`` columns
        (two passes per destination bit per stage).
        """
        stages = max_shift_bits if max_shift_bits is not None else shift.bits
        if stages > shift.bits:
            raise ValueError("max_shift_bits cannot exceed the shift field width")
        if self._engine is not None and self._engine.supports_shift(src, shift, dst):
            self._engine.shift_right_variable(src, shift, dst, stages)
            return
        self.copy(src, dst)
        for k in range(stages):
            offset = 1 << k
            predicate = (shift.columns[k], 1)
            # Move dst right by `offset` for predicated rows, LSB first so a
            # source column is read before it is overwritten.
            for i in range(dst.bits):
                src_position = i + offset
                source_column = (
                    dst.columns[src_position]
                    if src_position < dst.bits
                    else self._zero_column
                )
                roles = {"a": source_column, "r": dst.columns[i]}
                # Conditional copy needs both polarities because dst holds
                # stale data from the previous stage.
                self._apply_passes(
                    Lut(
                        name="cond-copy",
                        passes=(
                            # write 1 where the source bit is 1
                            COPY_LUT.passes[0],
                            # write 0 where the source bit is 0
                            _COPY_ZERO_PASS_LUT.passes[0],
                        ),
                    ),
                    roles,
                    condition=predicate,
                )

    # ------------------------------------------------------------------ #
    # Division                                                             #
    # ------------------------------------------------------------------ #
    def divide(
        self,
        dividend: Field,
        divisor: Field,
        quotient: Field,
        remainder: Field,
        fraction_bits: int = 0,
    ) -> None:
        """Restoring division ``quotient <- (dividend << fraction_bits) / divisor``.

        ``quotient`` must be ``dividend.bits + fraction_bits`` wide and
        ``remainder`` at least ``divisor.bits + 1`` wide.  The classic
        row-parallel restoring algorithm is used: for every output bit the
        partial remainder is shifted left, the next dividend bit brought
        down, the divisor subtracted, and the subtraction undone (restored)
        in the rows where it underflowed.
        """
        check_non_negative_int(fraction_bits, "fraction_bits")
        total_bits = dividend.bits + fraction_bits
        if quotient.bits < total_bits:
            raise ValueError(
                f"quotient needs at least {total_bits} bits, has {quotient.bits}"
            )
        if remainder.bits < divisor.bits + 1:
            raise ValueError(
                f"remainder needs at least {divisor.bits + 1} bits, has {remainder.bits}"
            )
        if self._engine is not None and self._engine.supports_divide(
            dividend, divisor, quotient, remainder, fraction_bits
        ):
            self._engine.divide(dividend, divisor, quotient, remainder, fraction_bits)
            return
        self.clear_field(quotient)
        self.clear_field(remainder)
        all_rows = np.ones(self.rows, dtype=bool)
        for j in reversed(range(total_bits)):
            # remainder <<= 1 (MSB first so no column is clobbered early).
            for i in reversed(range(1, remainder.bits)):
                roles = {"a": remainder.columns[i - 1], "r": remainder.columns[i]}
                self._apply_passes(_FULL_COPY_LUT, roles)
            # Bring down the next dividend bit (or a zero fraction bit).
            if j >= fraction_bits:
                source = dividend.columns[j - fraction_bits]
            else:
                source = self._zero_column
            self._apply_passes(
                _FULL_COPY_LUT, {"a": source, "r": remainder.columns[0]}
            )
            # remainder -= divisor; the returned borrow marks underflow.
            borrow = self.subtract(remainder, divisor)
            # Latch the borrow into the flag column (1 write cycle).
            self.cam.write({self._flag_column: 1}, tag=borrow)
            self.cam.write({self._flag_column: 0}, tag=~borrow)
            # Restore the rows that underflowed: remainder += divisor.
            self.add(divisor, remainder, condition=(self._flag_column, 1))
            # Quotient bit is 1 where no borrow occurred.
            tag = self.cam.compare({self._flag_column: 0})
            self.cam.write({quotient.columns[j]: 1}, tag=tag)

    # ------------------------------------------------------------------ #
    # Internals                                                            #
    # ------------------------------------------------------------------ #
    def _clear_state(self) -> None:
        """Clear the carry/borrow service column (one write cycle)."""
        self.cam.write(
            {self._state_column: 0}, tag=np.ones(self.rows, dtype=bool)
        )

    @staticmethod
    def _int_to_bits(values: np.ndarray, bits: int) -> np.ndarray:
        positions = np.arange(bits, dtype=np.int64)
        return ((values[:, None] >> positions[None, :]) & 1).astype(bool)

    @staticmethod
    def _bits_to_int(bits: np.ndarray) -> np.ndarray:
        positions = np.arange(bits.shape[1], dtype=np.int64)
        weights = (np.int64(1) << positions).astype(np.int64)
        return (bits.astype(np.int64) * weights[None, :]).sum(axis=1)


# LUT helpers used by the barrel shifter / division data movement: a "full"
# copy needs both polarities because the destination may hold stale data.
from repro.ap.lut import LutPass as _LutPass  # noqa: E402  (local alias)

_COPY_ZERO_PASS_LUT = Lut(
    name="copy-zero",
    passes=(_LutPass(search={"a": 0}, write={"r": 0}),),
)

_FULL_COPY_LUT = Lut(
    name="full-copy",
    passes=(
        _LutPass(search={"a": 1}, write={"r": 1}),
        _LutPass(search={"a": 0}, write={"r": 0}),
    ),
)
