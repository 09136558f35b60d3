"""Uniform argument validation with descriptive errors.

Centralizing validation keeps the public API's failure behaviour
consistent: wrong types raise :class:`TypeError`, out-of-range values
raise :class:`ValueError`, and every message names the offending
parameter.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_positive_int",
    "check_non_negative_int",
    "check_probability",
    "check_unit_interval",
    "check_dimension",
    "as_float_array",
    "check_distinct_torus_points",
]


def check_positive_int(value: object, name: str) -> int:
    """Validate that ``value`` is an integer ``>= 1`` and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_non_negative_int(value: object, name: str) -> int:
    """Validate that ``value`` is an integer ``>= 0`` and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_probability(value: object, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    try:
        v = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a real number, got {value!r}") from exc
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {v}")
    return v


def check_unit_interval(value: object, name: str) -> float:
    """Validate that ``value`` lies in the half-open interval [0, 1)."""
    try:
        v = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a real number, got {value!r}") from exc
    if not 0.0 <= v < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {v}")
    return v


def check_dimension(value: object, name: str = "dim") -> int:
    """Validate a spatial dimension (integer >= 1; we support constant k)."""
    d = check_positive_int(value, name)
    if d > 8:
        raise ValueError(
            f"{name}={d} is unsupported; the KD-tree substrate is intended "
            "for constant dimension (<= 8), matching the paper's remark"
        )
    return d


def as_float_array(values: object, name: str, ndim: int | None = None) -> np.ndarray:
    """Coerce to a float64 ndarray, validating finiteness and rank."""
    arr = np.asarray(values, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have ndim={ndim}, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def check_distinct_torus_points(pts: np.ndarray) -> None:
    """Raise ``ValueError`` when two rows of an ``(n, k)`` point array are equal.

    For points in ``[0, 1)^k`` two rows are at toroidal distance 0
    exactly when they are equal, so this is the torus duplicate rule.
    Exact and ``O(n log n)``: the rows are sorted with
    :func:`numpy.lexsort` and neighbours compared.
    """
    rows = pts[np.lexsort(pts.T[::-1])]
    if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
        raise ValueError("points must be distinct on the torus")
