"""The one ``valid_lengths`` contract, pinned at every public entry point.

Every seam that takes per-row prefix lengths validates them through
:func:`repro.utils.validation.check_valid_lengths`: fractional lengths are
rejected instead of truncated (``[2.7, 3.2]`` must never run as ``[2, 3]``),
the array holds exactly one entry per row, and each entry lies in
``1..seq``.  A violation is a ``ValueError`` wherever it enters.
"""

import numpy as np
import pytest

from repro.llm.config import LlamaConfig
from repro.llm.model import TinyLlamaModel, causal_batched_softmax
from repro.mapping.cluster import ApCluster
from repro.mapping.plan import ExecutionPlan
from repro.mapping.softmap import SoftmAPMapping
from repro.runtime.backend import resolve_backend
from repro.serve.batching import as_request_matrix
from repro.softmax.integer_softmax import IntegerSoftmax

SEQ = 4
ROWS = 2
SCORES = np.random.default_rng(0).normal(0.0, 2.0, size=(ROWS, SEQ))
TOKENS = np.arange(ROWS * SEQ, dtype=np.int64).reshape(ROWS, SEQ) % 16


def _model():
    return TinyLlamaModel(LlamaConfig("contract", 1, 2, 2, 16, 32, 16, 16), seed=0)


# Each entry point maps a ``(ROWS,)``-shaped lengths argument to one call.
# ApCluster.execute takes ``(batch,)`` lengths shared by every head.
ENTRY_POINTS = {
    "IntegerSoftmax.forward": lambda v: IntegerSoftmax().forward(
        SCORES, valid_lengths=v
    ),
    "ApCluster.execute": lambda v: ApCluster(
        num_heads=2, sequence_length=SEQ
    ).execute(np.stack([SCORES, SCORES], axis=1), valid_lengths=v),
    "ApCluster.execute_rows": lambda v: ApCluster(
        num_heads=2, sequence_length=SEQ
    ).execute_rows(SCORES, valid_lengths=v),
    "SoftmAPMapping.execute_functional_batch": lambda v: SoftmAPMapping(
        sequence_length=SEQ, backend="compiled"
    ).execute_functional_batch(SCORES, valid_lengths=v),
    "ExecutionPlan.execute": lambda v: ExecutionPlan(
        sequence_length=SEQ
    ).execute(SCORES, valid_lengths=v),
    "causal_batched_softmax": lambda v: causal_batched_softmax(
        SCORES, resolve_backend("float"), valid_lengths=v
    ),
    "backend.run": lambda v: resolve_backend(
        "ap-cluster", num_heads=2, sequence_length=SEQ
    ).run(SCORES, valid_lengths=v),
    "backend.run_rows": lambda v: resolve_backend(
        "ap-cluster", num_heads=2, sequence_length=SEQ
    ).run_rows(SCORES, valid_lengths=v),
    "as_request_matrix": lambda v: as_request_matrix(SCORES, valid_lengths=v),
    "infer": lambda v: _model().infer(TOKENS, valid_lengths=v),
    "generate": lambda v: _model().generate(TOKENS, 1, valid_lengths=v),
}

BAD_LENGTHS = {
    "fractional": np.array([2.7, 3.2]),
    "wrong-count": np.array([2, 3, 4]),
    "zero": np.array([0, 3]),
    "too-long": np.array([2, SEQ + 1]),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("case", BAD_LENGTHS)
def test_bad_valid_lengths_raise_value_error(entry, case):
    with pytest.raises(ValueError, match="valid_lengths must"):
        ENTRY_POINTS[entry](BAD_LENGTHS[case])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_integer_valid_lengths_run(entry):
    """The same call with well-formed lengths, in any integer dtype."""
    for dtype in (np.int64, np.uint8):
        ENTRY_POINTS[entry](np.array([2, 3], dtype=dtype))
