import math
from dataclasses import fields

import numpy as np
import pytest

from normgrad import (
    ContractViolation,
    LearnerConfig,
    make_learner,
    regret_bound,
)

UNIT_KINDS = ("ogd_const", "da_sqrt", "kt")


def unit_config(kind, start, **kw):
    return LearnerConfig(kind=kind, start=np.asarray(start, float), **kw)


# --- hand-simulated traces -------------------------------------------------


def test_ogd_const_trace():
    cfg = unit_config("ogd_const", [1.0], step_scale=1.0)
    learner = make_learner(cfg, 4)
    assert learner.next_point()[0] == 1.0
    learner.observe(np.array([1.0]))
    # 1 - (1/sqrt(4)) * 1
    assert learner.next_point()[0] == 0.5
    learner.observe(np.array([1.0]))
    assert learner.next_point()[0] == 0.0


def test_da_sqrt_trace():
    cfg = unit_config("da_sqrt", [1.0], step_scale=0.5)
    learner = make_learner(cfg, 2)
    assert learner.next_point()[0] == 1.0
    learner.observe(np.array([1.0]))
    assert learner.next_point()[0] == 0.5
    learner.observe(np.array([1.0]))
    # 1 - (0.5/sqrt(2)) * 2
    expected = 1.0 - (0.5 / math.sqrt(2.0)) * 2.0
    assert learner.next_point()[0] == pytest.approx(expected, abs=1e-15)


def test_kt_trace():
    cfg = unit_config("kt", [1.0], wealth_init=1.0)
    learner = make_learner(cfg, 2)
    assert learner.next_point()[0] == 1.0
    learner.observe(np.array([1.0]))        # w_1 = 0, wealth stays 1
    assert learner.next_point()[0] == 0.5   # 1 + (-1/2) * 1
    learner.observe(np.array([1.0]))        # w_2 = -1/2, wealth 3/2
    assert learner.next_point()[0] == pytest.approx(0.0, abs=1e-15)  # 1 - (2/3)*(3/2)


def test_adagrad_da_trace():
    cfg = LearnerConfig(kind="adagrad_da", start=np.array([1.0]),
                        step_scale=1.0, grad_bound_init=1.0)
    learner = make_learner(cfg, 2)
    assert learner.next_point()[0] == 1.0
    learner.observe(np.array([1.0]))
    x2 = 1.0 - 1.0 / math.sqrt(2.0)
    assert learner.next_point()[0] == pytest.approx(x2, abs=1e-15)
    learner.observe(np.array([x2]))
    x3 = 1.0 - (1.0 + x2) / math.sqrt(2.0 + x2 * x2)
    assert learner.next_point()[0] == pytest.approx(x3, abs=1e-15)
    assert learner.grad_sq_sum == pytest.approx(1.0 + x2 * x2, rel=1e-15)


# --- contracts ---------------------------------------------------------------


def test_adagrad_observe_takes_gradients_above_bound():
    # the bound G is not checked here: the driver reports the first step
    # above it (RunRecord.exceeded_index)
    cfg = LearnerConfig(kind="adagrad_da", start=np.zeros(2), grad_bound_init=1.0)
    learner = make_learner(cfg, 1)
    learner.observe(np.array([2.0, 0.0]))
    assert learner.grad_sq_sum == 4.0


def test_config_validation():
    with pytest.raises(ContractViolation):
        LearnerConfig(kind="da_sqrt", start=np.array([1.0]), step_scale=0.0)
    with pytest.raises(ContractViolation):
        LearnerConfig(kind="kt", start=np.array([1.0]), wealth_init=-1.0)
    with pytest.raises(ContractViolation):
        LearnerConfig(kind="mystery", start=np.array([1.0]))
    # the horizon belongs to the run: make_learner takes it, a config has none
    assert "horizon" not in {f.name for f in fields(LearnerConfig)}
    with pytest.raises(TypeError):
        LearnerConfig(kind="ogd_const", start=np.array([1.0]), horizon=4)


# --- regret bound formulas ---------------------------------------------------


def test_regret_bound_values():
    ogd = unit_config("ogd_const", [0.0], step_scale=1.0)
    assert regret_bound(ogd, 1.0, 100) == pytest.approx(10.0, rel=1e-15)

    da = unit_config("da_sqrt", [0.0], step_scale=0.7)
    assert regret_bound(da, 0.0, 49) == pytest.approx(0.7 * 7.0, rel=1e-15)

    kt = unit_config("kt", [0.0], wealth_init=1.0)
    assert regret_bound(kt, 0.0, 1000) == pytest.approx(1.0, rel=1e-15)

    ada = LearnerConfig(kind="adagrad_da", start=np.zeros(1),
                        step_scale=2.0, grad_bound_init=3.0)
    # (D^2/(2a) + a) * (G + sqrt(V)) with D=2, V=16
    assert regret_bound(ada, 2.0, 10, grad_sq_sum=16.0) == pytest.approx(
        (4.0 / 4.0 + 2.0) * (3.0 + 4.0), rel=1e-15)
    with pytest.raises(ContractViolation):
        regret_bound(ada, 2.0, 10)


def test_regret_bound_refuses_negative_distance_and_zero_horizon():
    da = unit_config("da_sqrt", [0.0])
    with pytest.raises(ContractViolation):
        regret_bound(da, -1.0, 10)
    with pytest.raises(ContractViolation):
        regret_bound(da, 1.0, 0)


def test_regret_bound_monotone_in_distance_and_horizon():
    da = unit_config("da_sqrt", [0.0])
    kt = unit_config("kt", [0.0])
    for cfg in (da, kt):
        prev = -1.0
        for d in (0.0, 0.5, 1.0, 2.0, 10.0):
            v = regret_bound(cfg, d, 64)
            assert v >= prev
            prev = v
        prev = -1.0
        for t in (1, 4, 64, 512):
            v = regret_bound(cfg, 3.0, t)
            assert v >= prev
            prev = v


# --- adversarial-stream properties -------------------------------------------


def _random_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _play_stream(learner, stream):
    points = []
    for q in stream:
        points.append(learner.next_point().copy())
        learner.observe(q)
    points.append(learner.next_point().copy())
    return points


def _measured_regret(points, stream, u):
    return sum(float(np.dot(q, x - u)) for q, x in zip(stream, points))


@pytest.mark.parametrize("kind", UNIT_KINDS)
def test_measured_regret_never_exceeds_bound(kind):
    rng = np.random.default_rng(42)
    for trial in range(100):
        d = int(rng.integers(1, 9))
        horizon = int(rng.integers(1, 513))
        start = rng.standard_normal(d)
        cfg = unit_config(kind, start)
        stream = [_random_unit(rng, d) for _ in range(horizon)]
        points = _play_stream(make_learner(cfg, horizon), stream)
        comparators = [start.copy(),
                       start + rng.uniform(0, 10) * _random_unit(rng, d)]
        for u in comparators:
            dist = float(np.linalg.norm(u - start))
            measured = _measured_regret(points, stream, u)
            assert measured <= regret_bound(cfg, dist, horizon) + 1e-6


def test_ogd_const_regret_identity_with_iterate_term():
    # constant-step telescoping is an identity:
    # R_T(u) = sqrt(T) (D^2 - ||x_{T+1} - u||^2) / (2 alpha) + alpha sqrt(T) / 2
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        horizon = int(rng.integers(1, 257))
        alpha = float(rng.uniform(0.2, 3.0))
        start = rng.standard_normal(d)
        cfg = unit_config("ogd_const", start, step_scale=alpha)
        stream = [_random_unit(rng, d) for _ in range(horizon)]
        points = _play_stream(make_learner(cfg, horizon), stream)
        u = start + rng.uniform(0, 5) * _random_unit(rng, d)
        dist_sq = float(np.dot(u - start, u - start))
        last_sq = float(np.dot(points[-1] - u, points[-1] - u))
        rhs = (math.sqrt(horizon) * (dist_sq - last_sq) / (2 * alpha)
               + alpha * math.sqrt(horizon) / 2)
        measured = _measured_regret(points, stream, u)
        assert measured == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_determinism_bitwise():
    rng = np.random.default_rng(3)
    stream = [_random_unit(rng, 4) for _ in range(64)]
    for kind in UNIT_KINDS:
        cfg1 = unit_config(kind, np.arange(4.0))
        cfg2 = unit_config(kind, np.arange(4.0))
        pts1 = _play_stream(make_learner(cfg1, 64), stream)
        pts2 = _play_stream(make_learner(cfg2, 64), stream)
        for a, b in zip(pts1, pts2):
            assert np.array_equal(a, b)


def test_kt_translation_invariance():
    rng = np.random.default_rng(5)
    stream = [_random_unit(rng, 3) for _ in range(100)]
    shift = np.array([10.0, -4.0, 2.5])
    start = rng.standard_normal(3)
    pts = _play_stream(make_learner(unit_config("kt", start), 100), stream)
    pts_shifted = _play_stream(make_learner(unit_config("kt", start + shift), 100), stream)
    for a, b in zip(pts, pts_shifted):
        assert np.allclose(a + shift, b, rtol=0, atol=1e-12)
    u = start + np.array([1.0, 2.0, 3.0])
    r = _measured_regret(pts, stream, u)
    r_shifted = _measured_regret(pts_shifted, stream, u + shift)
    assert r == pytest.approx(r_shifted, rel=1e-12, abs=1e-12)


def test_adagrad_regret_bound_on_bounded_streams():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        horizon = int(rng.integers(1, 257))
        g_bound = float(rng.uniform(0.5, 3.0))
        start = rng.standard_normal(d)
        cfg = LearnerConfig(kind="adagrad_da", start=start,
                            step_scale=float(rng.uniform(0.3, 2.0)),
                            grad_bound_init=g_bound)
        stream = [rng.uniform(0, g_bound) * _random_unit(rng, d) for _ in range(horizon)]
        points = _play_stream(make_learner(cfg, horizon), stream)
        u = start + rng.uniform(0, 8) * _random_unit(rng, d)
        v = sum(float(np.dot(q, q)) for q in stream)
        measured = _measured_regret(points, stream, u)
        bound = regret_bound(cfg, float(np.linalg.norm(u - start)), horizon, grad_sq_sum=v)
        assert measured <= bound + 1e-6


def test_config_record_round_trip_fields():
    cfg = unit_config("kt", [1.0, 2.0], wealth_init=0.5)
    rec = cfg.config_record()
    assert rec == {"kind": "kt", "start": [1.0, 2.0], "step_scale": 1.0,
                   "wealth_init": 0.5}
    ogd = unit_config("ogd_const", [0.0])
    assert ogd.config_record() == {"kind": "ogd_const", "start": [0.0], "step_scale": 1.0}


# --- block learners -----------------------------------------------------------


@pytest.mark.parametrize("kind", ["ogd_const", "da_sqrt", "kt", "adagrad_da"])
def test_a_stacked_block_steps_each_row_as_its_learner(kind):
    # three runs with their own starts and scales as the rows of one block:
    # every served row equals its point learner's point bit for bit, before
    # and after the middle run leaves the block
    from normgrad.learners import stack_learners

    rng = np.random.default_rng(11)
    configs = [LearnerConfig(kind, rng.standard_normal(4), step_scale=s, wealth_init=w,
                             grad_bound_init=g)
               for s, w, g in ((1.0, 1.0, 1.0), (0.3, 2.5, 4.0), (2.0, 0.7, 0.5))]
    alone = [make_learner(c, 64) for c in configs]
    block = stack_learners([make_learner(c, 64) for c in configs])
    live = [0, 1, 2]
    for t in range(40):
        points = block.next_point()
        assert [points[p].tobytes() for p in range(len(live))] == [
            alone[i].next_point().tobytes() for i in live], t
        q = rng.standard_normal((len(live), 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        block.observe(q)
        for p, i in enumerate(live):
            alone[i].observe(q[p].copy())
        if t == 20:
            block.keep(np.array([True, False, True]))
            live = [0, 2]
