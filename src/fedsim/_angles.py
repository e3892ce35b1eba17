"""Canonical angle wrapping, shared by the model and aggregation layers.

Wrapping is exact at any finite magnitude: np.fmod computes x - k*TAU
without rounding, and the one +-TAU correction that moves the result into
(-pi, pi] is exact too (both operands lie within a factor of two of each
other). So every output is the one float congruent to x modulo TAU in
(-pi, pi], and entries already in that interval come back bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

TAU = 2.0 * math.pi


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Map every angle to the unique congruent value in (-pi, pi]."""
    a = np.asarray(angles, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ParameterError("angles must be finite")
    r = np.fmod(a, TAU)
    r = np.where(r > np.pi, r - TAU, r)
    return np.where(r <= -np.pi, r + TAU, r)


def wrap_angle(x: float) -> float:
    """Scalar wrap_angles."""
    return float(wrap_angles(x))
