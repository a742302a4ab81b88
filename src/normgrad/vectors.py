"""Vector validation, the Euclidean norm and the weighted-average accumulator.

Vectors are plain 1-D float64 numpy arrays. The accumulator requires points
of its own dimension and raises :class:`ContractViolation` otherwise.
Accumulation is plain left-to-right summation. Runs reach 2^17 steps (the
benchmark's long run); there the worst-case rounding error of a sum is
(n - 1) * 2^-53 ~ 1.5e-11 relative to the summed magnitudes, well under the
1e-9 relative slack of the bound checks, so compensated summation is not
used.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation

__all__ = [
    "as_vector",
    "l2_norm",
    "WeightedMeanAccumulator",
]


def as_vector(coords, *, name: str = "vector") -> np.ndarray:
    """Validate and convert to a 1-D float64 array with finite coordinates."""
    v = np.asarray(coords, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ContractViolation(f"{name} must be a 1-D sequence with d >= 1, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ContractViolation(f"{name} has nonfinite coordinates")
    return v


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm; exactly 0 only for the zero vector."""
    return math.sqrt(float(np.dot(v, v)))


class WeightedMeanAccumulator:
    """Streaming weighted mean: push (point, weight) pairs, then finalize.

    Holds weight_sum = sum of pushed weights and weighted_point_sum =
    sum of weight*point. finalize() is defined only after at least one push.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ContractViolation(f"dimension must be >= 1, got {dimension}")
        self.weight_sum = 0.0
        self.weighted_point_sum = np.zeros(dimension)

    def push(self, x: np.ndarray, w: float) -> None:
        """Accumulate point x with weight w > 0."""
        if not (w > 0.0) or not math.isfinite(w):
            raise ContractViolation(f"weight must be positive and finite, got {w}")
        if x.shape != self.weighted_point_sum.shape:
            raise ContractViolation(
                f"WeightedMeanAccumulator.push: dimension mismatch "
                f"{x.shape} vs {self.weighted_point_sum.shape}")
        self.weight_sum += w
        self.weighted_point_sum += w * x

    def finalize(self) -> np.ndarray:
        """Return the weighted mean of all pushed points."""
        if self.weight_sum <= 0.0:
            raise ContractViolation("finalize on an empty accumulator")
        return self.weighted_point_sum / self.weight_sum
