"""Small argument-validation helpers shared across the library.

These helpers exist to keep error messages uniform; every public constructor
in the library validates its arguments eagerly so that misconfiguration is
reported where it happens rather than deep inside a simulation loop.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, TypeVar

import numpy as np

T = TypeVar("T")

__all__ = [
    "check_positive_int",
    "check_non_negative_int",
    "check_in_choices",
    "check_probability",
    "check_positive",
    "check_finite_scores",
    "check_valid_lengths",
    "InvalidScoresError",
]


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is a strictly positive integer, else raise."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative_int(value: int, name: str) -> int:
    """Return ``value`` if it is a non-negative integer, else raise."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_positive(value: float, name: str) -> float:
    """Return ``value`` if it is a strictly positive number, else raise."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return float(value)


def check_in_choices(value: T, choices: Iterable[T], name: str) -> T:
    """Return ``value`` if it is one of ``choices``, else raise."""
    choices = tuple(choices)
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Return ``value`` if it lies in ``[0, 1]``, else raise."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return float(value)


class InvalidScoresError(ValueError):
    """A NaN or an infinity inside a row's valid prefix of a score matrix."""


def check_valid_lengths(
    valid_lengths: Any, rows: int, seq: int
) -> Optional[np.ndarray]:
    """Validate per-row prefix lengths; return them as a flat int64 array.

    The one contract of every ``valid_lengths`` argument in the library:
    ``None`` passes through, otherwise the array holds exactly ``rows``
    integer entries (read in row order, whatever its shape) and each lies
    in ``1..seq``.  A cast would truncate ``[2.7, 3.2]`` to ``[2, 3]`` and
    return a plausible answer for lengths the caller never asked for, so a
    non-integer dtype raises ``ValueError``; an empty sequence (whose
    default numpy dtype is float64) is accepted.
    """
    if valid_lengths is None:
        return None
    lengths = np.asarray(valid_lengths)
    if lengths.size and not np.issubdtype(lengths.dtype, np.integer):
        raise ValueError(
            f"valid_lengths must be integers, got dtype {lengths.dtype}"
        )
    if lengths.size != rows:
        raise ValueError(
            f"valid_lengths must hold one entry per row ({rows}), "
            f"got shape {lengths.shape}"
        )
    lengths = lengths.astype(np.int64, copy=False).reshape(rows)
    if rows and (lengths.min() < 1 or lengths.max() > seq):
        raise ValueError(
            f"valid_lengths must lie in 1..seq (seq={seq}) for every row, "
            f"got [{lengths.min()}, {lengths.max()}]"
        )
    return lengths


def check_finite_scores(
    scores: np.ndarray, lengths: Optional[np.ndarray]
) -> None:
    """Raise :class:`InvalidScoresError` for a non-finite score inside a
    row's valid prefix.

    ``scores`` is ``(..., seq)`` and ``lengths`` the flat per-row prefix
    lengths from :func:`check_valid_lengths` (``None``: every row is valid
    in full).  Padding beyond a row's prefix is never read, so it may hold
    anything.
    """
    finite = np.isfinite(scores)
    if finite.all():
        return
    finite = finite.reshape(-1, scores.shape[-1])
    if lengths is not None:
        finite |= np.arange(scores.shape[-1]) >= lengths[:, None]
    bad = np.flatnonzero(~finite.all(axis=1))
    if bad.size:
        raise InvalidScoresError(
            f"scores must be finite inside each row's valid prefix; "
            f"row {bad[0]} holds a NaN or an infinity"
        )
