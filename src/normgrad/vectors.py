"""Vector validation, the Euclidean norm and the weighted-average accumulator.

Vectors are plain 1-D float64 numpy arrays. The accumulator takes blocks of
rows of its own dimension and raises :class:`ContractViolation` otherwise.
Accumulation is plain left-to-right summation, row after row, in the order
a streaming sum would use. Runs reach 2^17 steps (the benchmark's long
run); there the worst-case rounding error of a sum is (n - 1) * 2^-53 ~
1.5e-11 relative to the summed magnitudes, well under the 1e-9 relative
slack of the bound checks, so compensated summation is not used.
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


# Elements summed per chunk of a block push; bounds the push's temporaries.
_CHUNK_ELEMENTS = 1 << 13


class WeightedMeanAccumulator:
    """Weighted mean of blocks of rows: push (rows, weights) blocks, then finalize.

    Holds weight_sum = sum of pushed weights and weighted_point_sum =
    sum of weight*row, both summed left to right over the rows in push
    order, so a block push gives, bit for bit, the sums of pushing its rows
    one at a time. finalize() is defined only after a nonempty push.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ContractViolation(f"dimension must be >= 1, got {dimension}")
        self.weight_sum = 0.0
        self.weighted_point_sum = np.zeros(dimension)

    def push(self, rows, weights) -> None:
        """Accumulate the (n, d) rows with the n positive finite weights.

        The rows are summed in chunks of bounded size: the running sum is
        added into a chunk's first product and np.add.accumulate carries it
        down the chunk (np.sum would sum pairwise, not left to right)."""
        rows = np.asarray(rows, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        d = self.weighted_point_sum.size
        if rows.ndim != 2 or rows.shape[1] != d or weights.shape != rows.shape[:1]:
            raise ContractViolation(
                f"WeightedMeanAccumulator.push: rows {rows.shape} and weights "
                f"{weights.shape} do not match dimension {d}")
        if not np.all((weights > 0.0) & (weights < math.inf)):
            raise ContractViolation("weights must be positive and finite")
        chunk = max(1, _CHUNK_ELEMENTS // d)
        for lo in range(0, len(weights), chunk):
            w = weights[lo:lo + chunk]
            products = rows[lo:lo + chunk] * w[:, None]
            products[0] += self.weighted_point_sum
            self.weighted_point_sum = np.add.accumulate(products, axis=0, out=products)[-1].copy()
            self.weight_sum = float(np.add.accumulate(np.concatenate(([self.weight_sum], w)))[-1])

    def finalize(self) -> np.ndarray:
        """Return the weighted mean of all pushed rows."""
        if self.weight_sum <= 0.0:
            raise ContractViolation("finalize on an empty accumulator")
        return self.weighted_point_sum / self.weight_sum
