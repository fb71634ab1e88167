"""Quickstart: integer-only softmax vs floating-point softmax.

Runs Algorithm 1 of the SoftmAP paper on a random attention-score vector at
the paper's best precision (M=6, vcorr=M, N=16), compares it with the exact
softmax, prints the offline constants the hardware would be loaded with, and
finishes by executing a whole batch of score vectors through the unified
runtime API (``resolve_backend("ap-batch")``), where the functional AP
returns probabilities *and* the analytical cost of the pass in one
``SoftmaxResult``.

Usage::

    python examples/quickstart.py
"""

import time

import numpy as np

from repro.quant import BEST_PRECISION, PrecisionConfig
from repro.runtime import resolve_backend
from repro.softmax import IntegerSoftmax, kl_divergence, max_abs_error, softmax


def main() -> None:
    rng = np.random.default_rng(0)
    scores = rng.normal(0.0, 2.0, 32)

    integer = IntegerSoftmax(BEST_PRECISION)
    result = integer.forward(scores)
    reference = softmax(scores)

    constants = integer.constants
    print("Offline constants (computed once per scaling factor):")
    print(f"  scale S       = {constants.scale:.5f}")
    print(f"  vln2          = {constants.vln2}")
    print(f"  mu (Barrett)  = {constants.mu}")
    print(f"  vb, vc        = {constants.vb}, {constants.vc}")
    print()

    print("First 8 probabilities:")
    print("  integer :", np.array2string(result.probabilities[:8], precision=4))
    print("  fp      :", np.array2string(reference[:8], precision=4))
    print()
    print(f"max abs error  : {max_abs_error(result.probabilities, reference):.5f}")
    print(f"KL(fp || int)  : {kl_divergence(reference, result.probabilities):.6f}")
    print()

    print("Effect of the input precision M (same vector):")
    for m in (4, 6, 8):
        probabilities = IntegerSoftmax(PrecisionConfig(m, 0, 16))(scores)
        error = max_abs_error(probabilities, reference)
        print(f"  M = {m}: max abs error = {error:.5f}")
    print()

    # A whole (batch, seq) score tensor through the unified runtime API:
    # every probability below is bit-identical to CAM compare/write
    # semantics (the default compiled engine runs the lowered AP program),
    # and the SoftmaxResult carries the analytical cost of the pass
    # alongside the probabilities.
    batch = rng.normal(0.0, 2.0, (16, 64))
    backend = resolve_backend("ap-batch", sequence_length=64)
    start = time.perf_counter()
    result = backend.run(batch)
    elapsed = time.perf_counter() - start
    ap_error = max_abs_error(result.probabilities, softmax(batch))
    print('Batched execution via resolve_backend("ap-batch"):')
    print(f"  {batch.shape[0]} softmax vectors of {batch.shape[1]} scores "
          f"in {elapsed * 1e3:.1f} ms")
    print(f"  max abs error vs FP softmax: {ap_error:.5f}")
    print(f"  analytical pass cost: {result.cycles:.0f} cycles, "
          f"{result.cost.latency_s * 1e6:.2f} us, "
          f"{result.cost.energy_j * 1e9:.1f} nJ")


if __name__ == "__main__":
    main()
