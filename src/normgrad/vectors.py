"""Vector validation, row-wise inner products, norms and libm calls, and the
weighted-average accumulator.

Vectors are plain 1-D float64 numpy arrays; a block of n vectors is an
(n, d) array. `dot`, `l2_norm`, `power` and `log` take either, and each
row of a block call equals the call on that row, bit for bit. The
accumulator takes blocks of rows of its own dimension and raises
:class:`ContractViolation` otherwise. Both `left_sum` and the
accumulator add left to right, in the order a streaming sum would use.
Runs reach 2^17 steps (the benchmark's long run); there the worst-case
rounding error of a sum is (n - 1) * 2^-53 ~ 1.5e-11 relative to the
summed magnitudes, well under the 1e-9 relative slack of the bound
checks, so compensated summation is not used.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ContractViolation

__all__ = [
    "as_vector",
    "dot",
    "l2_norm",
    "finite_at_least",
    "power",
    "log",
    "chunk_rows",
    "left_sum",
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


def dot(a: np.ndarray, b: np.ndarray):
    """Inner product over the last axis: a float for two (d,) vectors, an
    (n,) array for two (n, d) blocks. The one BLAS call of the package.

    A block row equals the vector call bit for bit: np.vecdot rows equal a
    per-row np.dot, while einsum and (a * b).sum do not. The vector call is
    ndarray.dot, which is np.dot without its module-level dispatch."""
    if a.ndim == 1:
        return float(a.dot(b))
    return np.vecdot(a, b)


# The smallest positive normal float: a dot below it has lost bits to underflow.
_NORMAL_MIN = sys.float_info.min


def l2_norm(v: np.ndarray):
    """Euclidean norm over the last axis: a float for a (d,) vector, an (n,)
    array for an (n, d) block, each block row equal to the vector call bit
    for bit. It is sqrt(dot(v, v)) where that dot is a normal finite float
    (np.sqrt equals math.sqrt); where the squares underflow or overflow it
    is _scaled_norm, for a vector and for each such block row alike. So the
    norm is 0 only for the zero vector and inf only past the largest float.
    numpy may warn of the overflow in the first dot; a caller that expects
    one silences it."""
    sq = dot(v, v)
    if v.ndim == 1:
        return math.sqrt(sq) if _NORMAL_MIN <= sq < math.inf else _scaled_norm(v)
    norms = np.sqrt(sq)
    if not finite_at_least(sq, _NORMAL_MIN):
        scaled = ~((sq >= _NORMAL_MIN) & (sq < math.inf))
        norms[scaled] = [_scaled_norm(row) for row in v[scaled]]
    return norms


# Up to this many values a Python pass over tolist() is faster than a numpy
# reduction, whose fixed cost is about 1 us a call.
_LIST_CHECK_MAX = 32


def finite_at_least(values: np.ndarray, floor: float) -> bool:
    """True when every value of a 1-D array of nonnegative floats (norms,
    squared norms) is at least floor and finite, the common case a block
    path takes without a per-row check. False for a value below floor, an
    inf or a NaN, and also for a sum of up to _LIST_CHECK_MAX values that
    passes the largest float; a caller then checks row by row."""
    if values.size > _LIST_CHECK_MAX:
        return bool(values.min() >= floor) and bool(values.max() < math.inf)
    listed = values.tolist()
    # a NaN or an inf makes the sum a NaN or an inf
    return min(listed, default=floor) >= floor and sum(listed) < math.inf


def _scaled_norm(v: np.ndarray) -> float:
    """m * ||v / m|| with m = max |v_i| (Anderson 2017, Algorithm 978: Safe
    Scaling in the Level 1 BLAS): the squares of v / m lie in [0, 1] and
    one is 1, so their dot is a normal float. 0 for the zero vector; m
    itself where m is inf or NaN."""
    m = float(np.abs(v).max())
    if m == 0.0 or not math.isfinite(m):
        return m
    u = v / m
    return m * math.sqrt(dot(u, u))


# Powers and logarithms go through libm (Python's float ** and math.log),
# element by element for an array. np.power and np.log use their own SIMD
# routines, which differ from libm in up to 5.3 % and 0.02 % of values on
# an AVX-512 host, so a block computed with them would not equal its
# one-point calls. A float in gives a float out, at the cost of one call.


def power(base, exponent: float):
    """base ** exponent by libm: a float for a Python float, else an array
    of base's shape. A result too large for a float is inf, as libm's pow
    gives it (Python's ** raises OverflowError there); every base here is
    a norm or a gap, so it is never negative."""
    if isinstance(base, float):
        try:
            return base ** exponent
        except OverflowError:
            return math.inf
    values = base.ravel().tolist()
    try:
        powers = [b ** exponent for b in values]
    except OverflowError:
        powers = [power(b, exponent) for b in values]
    return np.array(powers) if base.ndim == 1 else np.array(powers).reshape(base.shape)


def log(values):
    """Natural logarithm by libm: a float for a float, else an array of the
    same shape."""
    if isinstance(values, float):
        return math.log(values)
    return np.array([math.log(v) for v in values.ravel().tolist()]).reshape(values.shape)


# Elements per chunk of a block computation; bounds its temporaries.
_CHUNK_ELEMENTS = 1 << 13


def chunk_rows(width: int) -> int:
    """Rows per chunk of a block whose rows hold `width` elements each."""
    return max(1, _CHUNK_ELEMENTS // width)


def left_sum(values) -> float:
    """Floats added left to right from 0.0, as CPython 3.11's sum() adds them:
    from CPython 3.12 on sum() is compensated, and np.sum sums pairwise. A
    float64 array goes through np.add.accumulate, which adds in the same
    order without making a Python float per value."""
    if isinstance(values, np.ndarray):
        return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])
    total = 0.0
    for value in values:
        total += value
    return total


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
        chunk = chunk_rows(d)
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
