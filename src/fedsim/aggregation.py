"""Server-side parameter fusion.

Classical parameters are averaged within clusters weighted by sample
counts. Quantum angles are periodic, so they are averaged on the unit
circle (weighted vector sum, then atan2 back to an angle); the plain
weighted arithmetic mean exists only as the ablation/baseline path, where
angles that straddle the -pi/pi cut cancel catastrophically. The global
quantum update then treats the gap between the current parameters and the
aggregate as a pseudo-gradient for a server-side Adam step.

A round's uploads arrive as the one (n_clients, P) stack that local_train
returns, row i being client i, with one sample count per row. Every
reduction takes a column block of that stack (the classical block, or the
angle block as an (n_clients, L, Q) view) and reduces it with numpy's
summation; nothing is re-sorted or stacked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._angles import wrap_angle, wrap_angles
from .clustering import ClusterAssignment
from .errors import ParameterError, ProtocolError
from .model import AdamState, adam_step

__all__ = [
    "AggregationWeights",
    "wrap_angle",
    "wrap_angles",
    "cluster_weighted_average",
    "circular_mean",
    "aggregate_quantum",
    "arithmetic_mean_quantum",
    "fedadam_update",
]

DEGENERATE_RESULTANT = 1e-12


@dataclass
class AggregationWeights:
    """Client weights n_i / sum(n), non-negative and summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1 or len(self.weights) < 1:
            raise ParameterError("weights must be a non-empty vector")
        if np.any(self.weights < 0):
            raise ParameterError("weights must be non-negative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ParameterError("weights must sum to 1")

    @classmethod
    def from_counts(cls, counts) -> "AggregationWeights":
        c = np.asarray(counts, dtype=np.float64)
        total = c.sum()
        if total <= 0:
            raise ParameterError("total sample count must be positive")
        return cls(c / total)


def _client_counts(uploads: np.ndarray, counts) -> np.ndarray:
    """The sample counts as floats, after checking there is one per upload row."""
    counts = np.asarray(counts, dtype=np.float64)
    if len(uploads) == 0:
        raise ProtocolError("no client updates to aggregate")
    if counts.shape != (len(uploads),):
        raise ProtocolError(f"{counts.size} sample counts for {len(uploads)} client updates")
    return counts


def cluster_weighted_average(classical: np.ndarray, counts, assignment: ClusterAssignment) -> np.ndarray:
    """Sample-count weighted mean of the classical parameter rows within each cluster.

    Row i of the (n_clients, n_classical) block, counts[i] and position i
    of the assignment all describe client i. Row m of the returned
    (n_clusters, n_classical) array is cluster m's model.
    """
    counts = _client_counts(classical, counts)
    if len(classical) != len(assignment.labels):
        raise ProtocolError(
            f"assignment covers {len(assignment.labels)} clients but {len(classical)} updates arrived"
        )
    out = np.empty((assignment.n_clusters, classical.shape[1]))
    for cluster in range(assignment.n_clusters):
        members = np.flatnonzero(assignment.labels == cluster)
        weights = counts[members] / counts[members].sum()
        out[cluster] = (weights[:, None] * classical[members]).sum(axis=0)
    return out


def _resultant(angles: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sums of sines and cosines along the last axis.

    + 0.0 normalizes a possible -0.0 sum so atan2 lands on +pi, not -pi.
    """
    return (w * np.sin(angles)).sum(axis=-1) + 0.0, (w * np.cos(angles)).sum(axis=-1) + 0.0


def circular_mean(angles, weights: AggregationWeights) -> tuple[float, float]:
    """Weighted mean direction of a set of angles, plus the resultant length.

    Angles are placed on the unit circle, their weighted vector sum is
    taken, and atan2 maps the sum back to (-pi, pi]. The resultant length
    lies in [0, 1]; values near zero mean the directions cancel and the
    mean is ill-defined, which callers must handle.
    """
    a = np.asarray(angles, dtype=np.float64)
    w = weights.weights
    if a.shape != w.shape:
        raise ParameterError("angles and weights must have equal length")
    s, c = (float(x) for x in _resultant(a, w))
    return math.atan2(s, c), math.hypot(s, c)


def aggregate_quantum(angles: np.ndarray, counts, fallback: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Per-dimension circular mean of the clients' (n_clients, L, Q) angles, weighted by counts.

    Dimensions whose resultant length falls below DEGENERATE_RESULTANT keep
    the fallback (previous global) value; their flat indices are returned
    so the caller can record the degeneracy. The result has the fallback's
    shape.
    """
    weights = AggregationWeights.from_counts(_client_counts(angles, counts))
    # one row per angle dimension, so each row sum is that dimension's 1-D sum
    per_dimension = np.ascontiguousarray(angles.reshape(len(angles), -1).T)
    out = np.array(fallback, dtype=np.float64).reshape(-1)
    if len(out) != len(per_dimension):
        raise ParameterError("fallback angle count does not match the updates")
    sines, cosines = _resultant(per_dimension, weights.weights)
    degenerate: list[int] = []
    for j, (s, c) in enumerate(zip(sines.tolist(), cosines.tolist())):
        if math.hypot(s, c) < DEGENERATE_RESULTANT:
            degenerate.append(j)
        else:
            out[j] = math.atan2(s, c)
    return wrap_angles(out).reshape(np.shape(fallback)), degenerate


def arithmetic_mean_quantum(angles: np.ndarray, counts) -> np.ndarray:
    """Count-weighted arithmetic mean of the clients' (n_clients, L, Q) raw angles, wrapped afterwards.

    This ignores periodicity on purpose: it is the baseline aggregation and
    the ablation arm that demonstrates why the circular mean exists. The
    result is an (L, Q) array.
    """
    weights = AggregationWeights.from_counts(_client_counts(angles, counts))
    mean = (weights.weights[:, None] * angles.reshape(len(angles), -1)).sum(axis=0)
    return wrap_angles(mean).reshape(angles.shape[1:])


def fedadam_update(
    phi_t: np.ndarray,
    phi_bar: np.ndarray,
    state: AdamState,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eta: float = 0.001,
    eps: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """Server Adam step driven by the gap between current and aggregated angles.

    The pseudo-gradient is the geodesic difference g = wrap(phi_t -
    phi_bar) in (-pi, pi]: angles 0.02 rad apart across the -pi/pi cut
    give a gap of 0.02, not of 2pi - 0.02, so the step moves phi_t toward
    the aggregate. Gaps already inside (-pi, pi] pass through unchanged.
    g is fed to the same Adam step clients use. The result is wrapped back
    to (-pi, pi] and has phi_t's shape; the moments are flat vectors.
    """
    phi_t = np.asarray(phi_t, dtype=np.float64)
    if phi_t.shape != np.shape(phi_bar) or phi_t.size != len(state.m):
        raise ParameterError("parameter and state dimensions must match")
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ParameterError("beta1 and beta2 must lie in [0, 1)")
    if eta <= 0 or eps <= 0:
        raise ParameterError("eta and eps must be > 0")
    g = wrap_angles(phi_t - phi_bar).reshape(-1)
    stepped, next_state = adam_step(phi_t.reshape(-1), g, state, eta, beta1, beta2, eps)
    return wrap_angles(stepped).reshape(phi_t.shape), next_state
