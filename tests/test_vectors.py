import math
import re
from pathlib import Path

import numpy as np
import pytest

from normgrad import ContractViolation, WeightedMeanAccumulator, as_vector, l2_norm
from normgrad.vectors import _CHUNK_ELEMENTS, dot, left_sum


def test_l2_norm_examples():
    assert l2_norm(np.array([3.0, 4.0])) == 5.0
    assert l2_norm(np.zeros(7)) == 0.0
    assert l2_norm(np.array([-2.0])) == 2.0


def test_as_vector_rejects_nonfinite_and_bad_shape():
    with pytest.raises(ContractViolation):
        as_vector([1.0, float("nan")])
    with pytest.raises(ContractViolation):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ContractViolation):
        as_vector([])


def _loop_sum(values):
    acc = 0.0
    for v in values:
        acc += v
    return acc


def test_left_sum_of_an_array_adds_left_to_right():
    # an array is added by np.add.accumulate: a Python float with the bits of
    # a loop from 0.0, where a compensated or a pairwise sum differs
    values = np.array([1.0, 1e-16, 1e-16, 1e-16])
    assert math.fsum(values.tolist()) != _loop_sum(values.tolist())
    total = left_sum(values)
    assert type(total) is float and total == _loop_sum(values.tolist())
    rng = np.random.default_rng(5)
    values = rng.standard_normal(20_000) * np.exp(rng.uniform(-20.0, 20.0, 20_000))
    expected = _loop_sum(values.tolist())
    assert float(np.sum(values)) != expected and math.fsum(values.tolist()) != expected
    assert left_sum(values) == expected == left_sum(values.tolist())
    for edge in ([], [-0.0], [-0.0, -0.0], [math.inf, 1.0]):
        assert repr(left_sum(np.array(edge))) == repr(_loop_sum(edge))


def test_weighted_mean_hand_example():
    acc = WeightedMeanAccumulator(1)
    acc.push(np.array([[1.0]]), np.array([1.0]))
    acc.push(np.array([[0.5]]), np.array([2.0]))
    # (1*1 + 2*0.5) / 3
    assert acc.finalize()[0] == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_weighted_mean_single_point_and_midpoint():
    acc = WeightedMeanAccumulator(2)
    x = np.array([4.0, -1.0])
    acc.push(x[None, :], np.array([3.0]))
    assert np.allclose(acc.finalize(), x, rtol=1e-15)

    acc = WeightedMeanAccumulator(2)
    acc.push(np.array([[0.0, 0.0], [2.0, -4.0]]), np.array([5.0, 5.0]))
    assert np.allclose(acc.finalize(), np.array([1.0, -2.0]), rtol=1e-15)


def test_weighted_mean_errors():
    with pytest.raises(ContractViolation):
        WeightedMeanAccumulator(0)
    acc = WeightedMeanAccumulator(2)
    with pytest.raises(ContractViolation):
        acc.finalize()
    rows = np.ones((3, 2))
    for bad in (0.0, -2.0, float("inf"), float("nan")):
        with pytest.raises(ContractViolation):
            acc.push(rows, np.array([1.0, bad, 1.0]))
    for bad_rows, weights in ((np.ones(2), np.ones(1)),       # a vector, not a block
                              (np.ones((3, 1)), np.ones(3)),  # wrong dimension
                              (rows, np.ones(2)),             # one weight short
                              (rows, np.ones((3, 1)))):       # weights not 1-D
        with pytest.raises(ContractViolation):
            acc.push(bad_rows, weights)
    assert acc.weight_sum == 0.0 and not acc.weighted_point_sum.any()


def test_block_push_equals_pushing_rows_one_at_a_time():
    rng = np.random.default_rng(3)
    for d, n in ((1, 20000), (3, 5000), (10, 2000), (256, 100)):
        assert n - n // 3 > _CHUNK_ELEMENTS // d  # the second block spans chunks
        # magnitudes spread over many orders, so any reordering of the sum shows
        rows = rng.standard_normal((n, d)) * np.exp(rng.uniform(-20.0, 20.0, (n, 1)))
        weights = np.exp(rng.uniform(-10.0, 10.0, n))
        block = WeightedMeanAccumulator(d)
        block.push(rows[:n // 3], weights[:n // 3])
        block.push(rows[n // 3:], weights[n // 3:])
        single = WeightedMeanAccumulator(d)
        point_sum, weight_sum = np.zeros(d), 0.0
        for x, w in zip(rows, weights):
            single.push(x[None, :], w[None])
            point_sum += w * x
            weight_sum += float(w)
        assert block.weight_sum == single.weight_sum == weight_sum
        assert np.array_equal(block.weighted_point_sum, single.weighted_point_sum)
        assert np.array_equal(block.weighted_point_sum, point_sum)
        assert np.array_equal(block.finalize(), single.finalize())


@pytest.mark.parametrize("d", [1, 3, 10, 256])
def test_dot_block_rows_equal_point_calls(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((200, d)) * np.exp(rng.uniform(-20.0, 20.0, (200, 1)))
    b = rng.standard_normal((200, d))
    points = [dot(x, y) for x, y in zip(a, b)]
    # a point gives a Python float, so no np.float64 repr reaches a CSV
    assert all(type(v) is float for v in points)
    block = dot(a, b)
    assert block.shape == (200,) and block.tobytes() == np.array(points).tobytes()


def test_only_vectors_names_blas():
    # every inner product goes through vectors.dot, so one function fixes its bits
    package = Path(__file__).resolve().parents[1] / "src" / "normgrad"
    modules = sorted(package.glob("*.py"))
    assert any(m.name == "vectors.py" for m in modules)
    blas = re.compile(r"\b(np|numpy)\.(dot|vecdot)\b")
    named = [m.name for m in modules if m.name != "vectors.py" and blas.search(m.read_text())]
    assert named == []


def test_norm_squared_matches_dot():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rng.standard_normal(int(rng.integers(1, 12)))
        assert l2_norm(v) ** 2 == pytest.approx(float(np.dot(v, v)), rel=1e-12, abs=1e-15)


def test_weighted_mean_in_convex_hull_and_two_pass_reference():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 30))
        pts = rng.standard_normal((n, d))
        wts = rng.uniform(0.1, 5.0, n)
        acc = WeightedMeanAccumulator(d)
        acc.push(pts, wts)
        mean = acc.finalize()
        lo = pts.min(axis=0) - 1e-12
        hi = pts.max(axis=0) + 1e-12
        assert np.all(mean >= lo) and np.all(mean <= hi)
        reference = (pts * wts[:, None]).sum(axis=0) / wts.sum()
        assert np.allclose(mean, reference, rtol=1e-12, atol=1e-12)
