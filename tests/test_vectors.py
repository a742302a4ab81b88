import numpy as np
import pytest

from normgrad import ContractViolation, WeightedMeanAccumulator, as_vector, l2_norm


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


def test_weighted_mean_hand_example():
    acc = WeightedMeanAccumulator(1)
    acc.push(np.array([1.0]), 1.0)
    acc.push(np.array([0.5]), 2.0)
    # (1*1 + 2*0.5) / 3
    assert acc.finalize()[0] == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_weighted_mean_single_point_and_midpoint():
    acc = WeightedMeanAccumulator(2)
    x = np.array([4.0, -1.0])
    acc.push(x, 3.0)
    assert np.allclose(acc.finalize(), x, rtol=1e-15)

    acc = WeightedMeanAccumulator(2)
    acc.push(np.array([0.0, 0.0]), 5.0)
    acc.push(np.array([2.0, -4.0]), 5.0)
    assert np.allclose(acc.finalize(), np.array([1.0, -2.0]), rtol=1e-15)


def test_weighted_mean_errors():
    acc = WeightedMeanAccumulator(1)
    with pytest.raises(ContractViolation):
        acc.finalize()
    with pytest.raises(ContractViolation):
        acc.push(np.array([1.0]), 0.0)
    with pytest.raises(ContractViolation):
        acc.push(np.array([1.0]), -2.0)
    with pytest.raises(ContractViolation):
        acc.push(np.array([1.0]), float("inf"))
    with pytest.raises(ContractViolation):
        acc.push(np.array([1.0, 2.0]), 1.0)


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
        for x, w in zip(pts, wts):
            acc.push(x, float(w))
        mean = acc.finalize()
        lo = pts.min(axis=0) - 1e-12
        hi = pts.max(axis=0) + 1e-12
        assert np.all(mean >= lo) and np.all(mean <= hi)
        reference = (pts * wts[:, None]).sum(axis=0) / wts.sum()
        assert np.allclose(mean, reference, rtol=1e-12, atol=1e-12)
