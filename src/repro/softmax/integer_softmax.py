"""Integer-only softmax (Algorithm 1 of the SoftmAP paper).

The pipeline mirrors the paper's Algorithm 1 exactly:

1. quantize the (stabilised) input to ``M`` bits with a fixed scale ``S``
   derived from the clipping threshold;
2. range-reduce by ``vln2 = floor(ln2 / S)`` using Barrett reduction
   (multiplication + shift only) to obtain ``vcorr`` in ``(-vln2, 0]`` and a
   non-negative shift amount ``q``;
3. evaluate the second-order integer polynomial ``(vcorr + vb)**2 + vc`` and
   shift it right by ``q`` — this is ``vapprox``, an integer approximation
   of ``exp(vstable * S)`` with scale ``a * S**2``;
4. accumulate ``sum(vapprox)`` in a register with ``N`` bits of headroom
   above a full-scale exponential term — the paper states that
   ``N = log2(SequenceLength / 2)`` is sufficient to store the sum without
   truncation, i.e. the accumulator can hold ``2**N`` full-scale terms;
   when ``N`` is too small for the sequence length the accumulator
   saturates, which is the effect behind the ``N`` column of Tables III/IV
   (Table I's ``vapprox + N`` widths are the corresponding structural
   column widths used by the AP mapping);
5. normalise with an integer division producing a fixed-point result with
   ``output_fraction_bits`` fractional bits.

The class operates on floating-point logits (quantizing internally) or on
pre-quantized integers; both paths share the same integer core so tests can
cross-check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.quant.precision import PrecisionConfig, BEST_PRECISION
from repro.quant.quantizer import ClippedSoftmaxInputQuantizer, QuantizedTensor
from repro.softmax.polynomial import IExpConstants, IExpPolynomial
from repro.utils.bitwidth import saturate_signed, unsigned_max, wrap_unsigned
from repro.utils.validation import (
    check_finite_scores,
    check_in_choices,
    check_positive_int,
    check_valid_lengths,
)

__all__ = ["IntegerSoftmax", "IntegerSoftmaxResult", "integer_softmax"]


@dataclass(frozen=True)
class IntegerSoftmaxResult:
    """Full output of one integer softmax evaluation.

    Attributes
    ----------
    probabilities:
        Dequantized probabilities (``output_int * 2**-output_fraction_bits``).
    output_int:
        Fixed-point integer probabilities.
    output_fraction_bits:
        Number of fractional bits of ``output_int``.
    vapprox:
        Integer approximations of the exponentials (scale ``a * S**2``).
    vapprox_scale:
        The scale of ``vapprox`` (the paper's ``Ssm`` before flooring).
    sum_int:
        The accumulated (possibly saturated) sums along the softmax axis,
        with ``keepdims`` semantics.
    saturated_fraction:
        Fraction of softmax rows whose accumulator saturated — a direct
        diagnostic for the ``N`` sensitivity.
    constants:
        The offline integer constants used (``vln2``, ``mu``, ``vb``,
        ``vc``).
    quantized_input:
        The quantized (clipped, stabilised) input tensor.
    """

    probabilities: np.ndarray
    output_int: np.ndarray
    output_fraction_bits: int
    vapprox: np.ndarray
    vapprox_scale: float
    sum_int: np.ndarray
    saturated_fraction: float
    constants: IExpConstants
    quantized_input: QuantizedTensor


class IntegerSoftmax:
    """Integer-only softmax with a mixed-precision configuration.

    Parameters
    ----------
    precision:
        The :class:`~repro.quant.precision.PrecisionConfig` (``M``,
        ``vcorr`` width, ``N``).  Defaults to the paper's best combination
        (``M=6``, ``vcorr=M``, ``N=16``).
    clip_threshold:
        Clipping threshold ``TC``; defaults to the paper's per-``M`` choice.
    output_fraction_bits:
        Fractional bits of the normalised output.  The paper stores the
        final result in the ``2M + 12``-bit AP result column; the default
        follows that width.
    sum_overflow:
        ``"saturate"`` (default, matches a saturating hardware accumulator)
        or ``"wrap"`` (two's-complement wrap-around, provided for the
        ablation of overflow behaviour).
    barrett_correction:
        Whether the Barrett quotient applies the correction step.
    """

    def __init__(
        self,
        precision: PrecisionConfig = BEST_PRECISION,
        clip_threshold: Optional[float] = None,
        output_fraction_bits: Optional[int] = None,
        sum_overflow: str = "saturate",
        barrett_correction: bool = True,
    ) -> None:
        if not isinstance(precision, PrecisionConfig):
            raise TypeError("precision must be a PrecisionConfig")
        self.precision = precision
        self.quantizer = ClippedSoftmaxInputQuantizer(
            bits=precision.input_bits, clip_threshold=clip_threshold
        )
        self.polynomial = IExpPolynomial(
            input_bits=precision.input_bits,
            barrett_correction=barrett_correction,
        )
        if output_fraction_bits is None:
            output_fraction_bits = precision.result_column_bits
        self.output_fraction_bits = check_positive_int(
            output_fraction_bits, "output_fraction_bits"
        )
        self.sum_overflow = check_in_choices(
            sum_overflow, ("saturate", "wrap"), "sum_overflow"
        )
        self._constants = self.polynomial.constants(self.quantizer.scale)
        # Largest value a single approximated exponential can take (reached
        # at vstable = 0, i.e. vcorr = 0 and shift 0): (vb)**2 + vc.  The
        # sum accumulator provides `N` bits of headroom above this value,
        # matching the paper's "N = log2(SequenceLength/2) when the sum is
        # not truncated".
        self._max_summand = self._constants.vb ** 2 + self._constants.vc

    # ------------------------------------------------------------------ #
    # Public API                                                          #
    # ------------------------------------------------------------------ #
    @property
    def scale(self) -> float:
        """Input scaling factor ``S``."""
        return self.quantizer.scale

    @property
    def constants(self) -> IExpConstants:
        """The offline constants (``vln2``, ``mu``, ``vb``, ``vc``)."""
        return self._constants

    @property
    def max_summand(self) -> int:
        """Largest possible value of a single ``vapprox`` term."""
        return self._max_summand

    @property
    def sum_register_bits(self) -> int:
        """Width of the sum accumulator actually needed by the data:
        ``bits(max_summand) + N``.  Table I's ``sum`` row
        (``vapprox_bits + N``) is the conservative structural width of the
        corresponding AP column."""
        return max(1, int(self._max_summand).bit_length()) + self.precision.sum_extra_bits

    @property
    def sum_limit(self) -> int:
        """Saturation limit of the accumulator: ``2**N`` full-scale terms."""
        return (self._max_summand + 1) * (1 << self.precision.sum_extra_bits) - 1

    def __call__(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Return softmax probabilities of ``x`` along ``axis`` computed
        with the integer-only pipeline."""
        return self.forward(x, axis=axis).probabilities

    def forward(
        self,
        x: np.ndarray,
        axis: int = -1,
        valid_lengths: Optional[np.ndarray] = None,
    ) -> IntegerSoftmaxResult:
        """Run the full pipeline on floating-point logits ``x``.

        ``valid_lengths`` (one prefix length per softmax vector, shaped like
        the non-``axis`` dimensions or flattened) restricts every vector to
        its leading prefix — the causal-attention layout.  Masked positions
        return probability zero, and the valid prefix is **bit-identical**
        to running :meth:`forward` on the prefix alone: the padded entries
        are excluded from the stabilising max (set to ``-inf``, they clip to
        the threshold), their exponential terms are zeroed before the sum
        accumulator, and the fixed-point division never sees them.  One
        masked call therefore replaces a per-distinct-length loop — for a
        causal ``(rows, seq)`` score matrix that is ``seq`` pipeline
        invocations collapsed into one.  A NaN or an infinity inside a valid
        prefix raises :class:`~repro.utils.validation.InvalidScoresError`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 0:
            raise ValueError("softmax input must have at least one dimension")
        moved = np.moveaxis(x, axis, -1)
        vectors = moved.shape[:-1]
        lengths = check_valid_lengths(
            valid_lengths, int(np.prod(vectors)), moved.shape[-1]
        )
        check_finite_scores(moved, lengths)
        mask: Optional[np.ndarray] = None
        if lengths is not None:
            mask = np.arange(moved.shape[-1]) < lengths.reshape(vectors)[..., None]
            moved = np.where(mask, moved, -np.inf)
        quantized = self.quantizer.quantize(moved, stabilise=True)
        result = self._forward_int(quantized.values, mask=mask)
        probabilities = np.moveaxis(result["probabilities"], -1, axis)
        output_int = np.moveaxis(result["output_int"], -1, axis)
        vapprox = np.moveaxis(result["vapprox"], -1, axis)
        return IntegerSoftmaxResult(
            probabilities=probabilities,
            output_int=output_int,
            output_fraction_bits=self.output_fraction_bits,
            vapprox=vapprox,
            vapprox_scale=self._constants.output_scale,
            sum_int=result["sum_int"],
            saturated_fraction=result["saturated_fraction"],
            constants=self._constants,
            quantized_input=quantized,
        )

    def forward_quantized(self, vstable: np.ndarray) -> IntegerSoftmaxResult:
        """Run the pipeline on already-quantized stabilised inputs.

        ``vstable`` must be integer, non-positive, with the quantizer's
        scale; the softmax axis is the last axis.
        """
        vstable = np.asarray(vstable)
        if not np.issubdtype(vstable.dtype, np.integer):
            raise TypeError("forward_quantized expects integer inputs")
        if np.any(vstable > 0):
            raise ValueError("forward_quantized expects non-positive inputs")
        quantized = QuantizedTensor(
            values=vstable.astype(np.int64),
            scale=self.quantizer.scale,
            bits=self.precision.input_bits,
        )
        result = self._forward_int(quantized.values)
        return IntegerSoftmaxResult(
            probabilities=result["probabilities"],
            output_int=result["output_int"],
            output_fraction_bits=self.output_fraction_bits,
            vapprox=result["vapprox"],
            vapprox_scale=self._constants.output_scale,
            sum_int=result["sum_int"],
            saturated_fraction=result["saturated_fraction"],
            constants=self._constants,
            quantized_input=quantized,
        )

    def forward_on_ap(
        self,
        x: np.ndarray,
        axis: int = -1,
        backend: Optional[str] = None,
        valid_lengths: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate the softmax on the functional Associative Processor.

        The input tensor is flattened to a ``(batch, seq)`` stack of softmax
        vectors along ``axis`` and mapped onto one functional 2D AP in a
        single call via
        :meth:`~repro.mapping.softmap.SoftmAPMapping.execute_functional_batch`
        — every probability is produced by CAM compare/write semantics
        rather than host arithmetic.  ``backend`` defaults to
        :data:`~repro.ap.engine.DEFAULT_ENGINE` (``"compiled"``), fast
        enough for realistic batch/sequence sizes; ``"reference"`` runs the
        bit-serial ground truth (slow, for validation).

        Note the AP dataflow uses the raw (uncorrected) Barrett quotient and
        an exact block sum, so the result can differ in the last fixed-point
        digit from :meth:`forward` when Barrett correction or accumulator
        saturation engage.

        ``valid_lengths`` (one prefix length per flattened softmax vector)
        restricts every vector to its leading prefix, returning zeros at the
        masked positions — the causal-attention layout; see
        :meth:`~repro.mapping.softmap.SoftmAPMapping.execute_functional_batch`.
        """
        # Imported lazily: `import repro` must not pull in the AP stack.
        from repro.ap.engine import DEFAULT_ENGINE
        from repro.mapping.softmap import SoftmAPMapping

        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 0:
            raise ValueError("softmax input must have at least one dimension")
        moved = np.moveaxis(x, axis, -1)
        flat = moved.reshape(-1, moved.shape[-1])
        mapping = SoftmAPMapping(
            precision=self.precision,
            sequence_length=flat.shape[-1],
            clip_threshold=self.quantizer.clip_threshold,
            backend=DEFAULT_ENGINE if backend is None else backend,
        )
        probabilities = mapping.execute_functional_batch(
            flat,
            output_fraction_bits=self.output_fraction_bits,
            valid_lengths=valid_lengths,
        )
        return np.moveaxis(probabilities.reshape(moved.shape), -1, axis)

    # ------------------------------------------------------------------ #
    # Integer core                                                        #
    # ------------------------------------------------------------------ #
    def _forward_int(
        self, vstable: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> dict:
        constants = self._constants
        vapprox, vcorr, _ = self.polynomial.iexp_int(vstable, constants)
        vapprox = np.asarray(vapprox, dtype=np.int64)

        # vcorr and vapprox are stored in the widths Table I allocates; the
        # widths are conservative so this clamp is a no-op for in-range
        # inputs, but it keeps the simulator honest about the hardware.
        vcorr_sat = saturate_signed(np.asarray(vcorr), self.precision.vcorr_bits)
        if not np.array_equal(vcorr_sat, np.asarray(vcorr)):
            # Re-evaluate the polynomial with the saturated argument so the
            # effect of an undersized vcorr column (if it ever triggered)
            # propagates to the output.
            poly = self.polynomial.polynomial_int(vcorr_sat, constants)
            shift = np.asarray(self.polynomial.reducer(constants).quotient(-vstable))
            vapprox = np.asarray(poly, dtype=np.int64) >> shift
        vapprox = np.clip(vapprox, 0, unsigned_max(self.precision.vapprox_bits))
        if mask is not None:
            # Masked (padded) positions contribute nothing: their
            # exponential terms vanish before the accumulator, so each
            # row's partial-sum (and saturation) sequence is exactly that
            # of the unpadded prefix.
            vapprox = np.where(mask, vapprox, 0)

        sum_int, saturated_fraction = self._accumulate(vapprox)

        # Integer normalisation: fixed-point division with
        # ``output_fraction_bits`` fractional bits.
        safe_sum = np.maximum(sum_int, 1)
        numerator = vapprox.astype(np.int64) << np.int64(self.output_fraction_bits)
        output_int = numerator // safe_sum
        probabilities = output_int.astype(np.float64) * (
            2.0 ** -self.output_fraction_bits
        )
        return {
            "probabilities": probabilities,
            "output_int": output_int,
            "vapprox": vapprox,
            "sum_int": sum_int,
            "saturated_fraction": saturated_fraction,
        }

    def _accumulate(self, vapprox: np.ndarray):
        """Accumulate ``vapprox`` along the last axis in a register that can
        hold at most ``2**N`` full-scale terms, with the configured overflow
        behaviour."""
        sum_bits = self.sum_register_bits
        limit = self.sum_limit
        if self.sum_overflow == "saturate":
            # A saturating accumulator clamps every partial sum; for
            # non-negative summands this is equivalent to clamping the
            # cumulative sums, which keeps the computation vectorised.
            cumulative = np.cumsum(vapprox.astype(np.int64), axis=-1)
            clamped = np.minimum(cumulative, limit)
            sum_int = clamped[..., -1:]
            saturated = cumulative[..., -1:] > limit
        else:
            total = np.sum(vapprox.astype(np.int64), axis=-1, keepdims=True)
            sum_int = wrap_unsigned(total, sum_bits)
            saturated = total > limit
        saturated_fraction = float(np.mean(saturated)) if saturated.size else 0.0
        return sum_int.astype(np.int64), saturated_fraction


def integer_softmax(
    x: np.ndarray,
    precision: PrecisionConfig = BEST_PRECISION,
    axis: int = -1,
    **kwargs,
) -> np.ndarray:
    """Functional convenience wrapper around :class:`IntegerSoftmax`."""
    return IntegerSoftmax(precision=precision, **kwargs)(x, axis=axis)
