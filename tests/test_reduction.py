import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from normgrad import (
    ContractViolation,
    Huber,
    LearnerConfig,
    NumericalFailure,
    PowerNorm,
    Quadratic,
    bound_report,
    closed_form_rate,
    hm_gm_am,
    regret_to_gap_bound,
    run_adagrad_warmup,
    run_normalized,
    start_at_distance,
    summarize,
)
from normgrad import learners
from normgrad.bench import canonical_problems, resolve_learner_config, run_cell, run_cells
from normgrad.learners import LEARNER_KINDS, UNIT_NORM_KINDS
from normgrad.problems import HolderSpec, Problem
from normgrad.reduction import DEFAULT_EPS_ZERO, EPS_ZERO_FLOOR, _drive
from normgrad.vectors import _CHUNK_ELEMENTS, chunk_rows, l2_norm


def ogd_cfg(start, alpha=1.0):
    return LearnerConfig(kind="ogd_const", start=np.asarray(start, float), step_scale=alpha)


# --- normalized driver -------------------------------------------------------


def test_run_normalized_ogd_quadratic_trace():
    p = Quadratic(1)
    run = run_normalized(ogd_cfg([1.0]), p, 4)
    assert [x[0] for x in run.iterates] == [1.0, 0.5]
    assert run.grad_norms.tolist() == [1.0, 0.5]
    assert run.suboptimalities.tolist() == [0.5, 0.125]
    assert run.terminated_early and run.stop_index == 3
    assert run.steps_taken == 2
    assert run.average_point[0] == 0.0
    assert run.average_suboptimality == 0.0


def test_run_normalized_kt_quadratic_trace():
    p = Quadratic(1)
    cfg = LearnerConfig(kind="kt", start=np.array([1.0]), wealth_init=1.0)
    run = run_normalized(cfg, p, 16)
    assert [x[0] for x in run.iterates][:2] == [1.0, 0.5]
    assert run.terminated_early and run.stop_index == 3
    assert abs(run.average_point[0]) <= 1e-15


def test_run_normalized_start_at_minimizer():
    p = Quadratic(3)
    cfg = LearnerConfig(kind="da_sqrt", start=np.zeros(3))
    run = run_normalized(cfg, p, 8)
    assert run.terminated_early and run.stop_index == 1
    assert run.steps_taken == 0
    assert np.array_equal(run.average_point, np.zeros(3))
    assert run.average_suboptimality == 0.0


def test_run_normalized_huge_horizon_stop_allocates_nothing():
    cfg = LearnerConfig(kind="kt", start=np.zeros(3))
    tracemalloc.start()
    try:
        run = run_normalized(cfg, Quadratic(3), 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.stop_index == 1 and len(run.iterates) == 0
    assert peak < 100_000


def test_summarize_past_recorded_steps_raises():
    p = Quadratic(2)
    cfg = LearnerConfig(kind="da_sqrt", start=np.array([3.0, 0.0]))
    run = run_normalized(cfg, p, 8)
    assert not run.terminated_early and run.steps_taken == 8
    for bad in (0, 9):
        with pytest.raises(ContractViolation, match="cannot summarize"):
            summarize(run, bad, p)
    assert summarize(run, 2, p).steps_taken == 2
    # a run that stopped early gives its stopped record at any later horizon
    stopped = run_normalized(LearnerConfig(kind="da_sqrt", start=np.zeros(2)), p, 8)
    assert summarize(stopped, 100, p).terminated_early


@pytest.mark.parametrize("kind", ["da_sqrt", "adagrad_da"])
def test_long_run_averages_equal_a_left_to_right_loop(kind):
    p = PowerNorm(0.5, 3)
    cfg = LearnerConfig(kind=kind, start=start_at_distance(p, 2.0, seed=4))
    steps = 5000
    assert steps > _CHUNK_ELEMENTS // 3  # the averages span several chunks
    if kind == "adagrad_da":
        run = run_adagrad_warmup(cfg, p, steps)
    else:
        run = run_normalized(cfg, p, steps)
    assert run.steps_taken == steps
    point_sum, gap_sum, weight_sum = np.zeros(3), 0.0, 0.0
    for x, gn, gap in zip(run.iterates, run.grad_norms, run.suboptimalities):
        w = 1.0 / gn if kind == "da_sqrt" else 1.0
        point_sum += w * x
        gap_sum += w * gap
        weight_sum += w
    assert (run.average_point == point_sum / weight_sum).all()
    assert run.mean_suboptimality == gap_sum / weight_sum


def _counting(problem):
    """A copy of problem whose class records the argument shape of every
    grad and gap call."""
    base = type(problem)

    class Counting(base):
        def grad(self, x):
            self.calls.append(("grad", x.shape))
            return base.grad(self, x)

        def gap(self, x):
            self.calls.append(("gap", x.shape))
            return base.gap(self, x)

    counted = object.__new__(Counting)
    counted.__dict__.update(problem.__dict__, calls=[])
    return counted


def _drive_counted(problem, kind, horizon, distance):
    counted = _counting(problem)
    cfg = resolve_learner_config(problem, {"kind": kind, "start_distance": distance}, 0)
    drive = run_adagrad_warmup if kind == "adagrad_da" else run_normalized
    return drive(cfg, counted, horizon), counted.calls


@pytest.mark.parametrize("kind", LEARNER_KINDS)
@pytest.mark.parametrize("dimension", [3, 10])
@pytest.mark.parametrize("family", range(5))
def test_gap_column_equals_one_point_gaps(family, dimension, kind):
    # the loop calls grad once per round; the gaps come after it, from the
    # recorded iterates in blocks of chunk_rows(d) rows, and equal the
    # one-point gaps bit for bit. The run is one row longer than a chunk.
    problem = canonical_problems(dimension)[family]
    chunk = chunk_rows(dimension)
    run, calls = _drive_counted(problem, kind, chunk + 1, 1.3)
    assert run.steps_taken == chunk + 1 and not run.terminated_early
    one_point = np.array([problem.gap(x) for x in run.iterates])
    assert run.suboptimalities.tobytes() == one_point.tobytes()
    assert [c for c in calls if c[0] == "grad"] == [("grad", (dimension,))] * (chunk + 1)
    # the loop's gaps take two blocks; summarize adds the averaged point's gap
    assert [c for c in calls if c[0] == "gap"] == [
        ("gap", (chunk, dimension)), ("gap", (1, dimension)), ("gap", (dimension,))]


@pytest.mark.parametrize("problem,kind,distance,stop", [
    # dual averaging at distance 1 with alpha 1 lands on x* at step 2
    (Quadratic(3), "da_sqrt", 1.0, 2),
    # and at distance 1.5 on step 17
    (Huber(10), "da_sqrt", 1.5, 17),
    # the start is x*: the run stops before any loss is fed
    (Quadratic(10), "kt", 0.0, 1),
], ids=["stop_at_step_2", "stop_at_step_17", "stop_at_step_1"])
def test_gap_column_of_an_early_stop(problem, kind, distance, stop):
    run, calls = _drive_counted(problem, kind, 64, distance)
    assert run.stop_index == stop and run.steps_taken == stop - 1
    one_point = np.array([problem.gap(x) for x in run.iterates])
    assert run.suboptimalities.tobytes() == one_point.tobytes()
    d = problem.dimension
    assert [c for c in calls if c[0] == "grad"] == [("grad", (d,))] * stop
    blocks = [("gap", (stop - 1, d))] if stop > 1 else []
    # the averaged point is the stop point, whose gap summarize takes once
    assert [c for c in calls if c[0] == "gap"] == blocks + [("gap", (d,))]


def test_unit_learners_are_fed_unit_losses(monkeypatch):
    # the learners do not check ||q|| = 1: the driver's normalization and
    # the eps_zero floor keep it. Each observe first records ||q||.
    norms = []
    for cls in (learners.OgdConstLearner, learners.DaSqrtLearner, learners.KTLearner):
        def observe(self, q, _observe=cls.observe):
            norms.append(float(np.linalg.norm(q)))
            _observe(self, q)
        monkeypatch.setattr(cls, "observe", observe)
    for kind in UNIT_NORM_KINDS:
        for dimension in (3, 10):
            for problem in canonical_problems(dimension):
                norms.clear()
                run, _ = _drive_counted(problem, kind, 256, 1.3)
                assert len(norms) == run.steps_taken > 0
                assert max(abs(n - 1.0) for n in norms) <= 1e-9
        # gradient norms just above the floor, with eps_zero at the floor
        p = Quadratic(10)
        scale = {"wealth_init" if kind == "kt" else "step_scale": 1e-3 * EPS_ZERO_FLOOR}
        cfg = LearnerConfig(kind=kind, start=start_at_distance(p, 1.5 * EPS_ZERO_FLOOR, 0),
                            **scale)
        norms.clear()
        run = run_normalized(cfg, p, 64, eps_zero=EPS_ZERO_FLOOR)
        assert len(norms) == run.steps_taken > 0
        assert max(abs(n - 1.0) for n in norms) <= 1e-9
        assert min(run.grad_norms) < 2.0 * EPS_ZERO_FLOOR
        # below the floor the squared norm is subnormal, and the scaled norm
        # still gives a loss of norm 1
        norms.clear()
        list(_drive([(LearnerConfig(kind=kind, start=start_at_distance(p, 1e-160, 0)),
                      p, (4,))], eps_zero=1e-300))
        assert norms and max(abs(n - 1.0) for n in norms) <= 1e-9


def test_run_normalized_weighted_average_matches_reference():
    p = PowerNorm(0.5, 4)
    cfg = LearnerConfig(kind="da_sqrt", start=start_at_distance(p, 2.0, seed=9))
    run = run_normalized(cfg, p, 200)
    assert not run.terminated_early
    weights = [1.0 / g for g in run.grad_norms]
    ref = sum(w * x for w, x in zip(weights, run.iterates)) / sum(weights)
    assert np.allclose(run.average_point, ref, rtol=1e-12)
    ref_mean = sum(w * s for w, s in zip(weights, run.suboptimalities)) / sum(weights)
    assert run.mean_suboptimality == pytest.approx(ref_mean, rel=1e-12)
    # every recorded norm is above the zero threshold
    assert min(run.grad_norms) > 1e-12


def test_run_normalized_rejects_adagrad():
    with pytest.raises(ContractViolation, match="adagrad"):
        run_normalized(LearnerConfig(kind="adagrad_da", start=np.zeros(2)),
                       Quadratic(2), 4)


def test_run_normalized_rejects_bad_args():
    p = Quadratic(2)
    cfg = LearnerConfig(kind="da_sqrt", start=np.zeros(2))
    with pytest.raises(ContractViolation):
        run_normalized(cfg, p, 0)
    for eps_zero in (0.0, 1e-300, math.inf, math.nan):
        with pytest.raises(ContractViolation, match="eps_zero"):
            run_normalized(cfg, p, 4, eps_zero=eps_zero)
    with pytest.raises(ContractViolation):
        run_normalized(LearnerConfig(kind="da_sqrt", start=np.zeros(3)), p, 4)


def test_nonfinite_gradient_reports_step():
    class Exploding(Quadratic):
        def grad(self, x):
            g = super().grad(x)
            if self._calls >= 1:
                g = g * np.nan
            self._calls += 1
            return g

    p = Exploding(1)
    p._calls = 0
    with pytest.raises(NumericalFailure, match="step 2"):
        run_normalized(ogd_cfg([2.0], 8), p, 8)


def test_gradient_norm_overflow_reports_step():
    # step 2 sits about 1e308 from x*: the squared norm of g overflows but
    # its norm does not, so the run goes on and records the gap that overflows
    p = PowerNorm(1.0, 3)
    cfg = LearnerConfig(kind="da_sqrt", start=start_at_distance(p, 1.0, seed=0),
                        step_scale=1e308)
    run = run_normalized(cfg, p, 4)
    assert run.steps_taken == 4 and run.grad_norms[1] == pytest.approx(1e308, rel=1e-12)
    assert run.suboptimalities[1] == math.inf and math.isnan(run.local_constants[1])
    # every coordinate of g is finite, but its norm is above the largest float
    cfg = LearnerConfig(kind="da_sqrt", start=np.full(3, 1.5e308))
    with pytest.raises(NumericalFailure, match="step 1"):
        run_normalized(cfg, p, 4)


# --- warm-up driver ----------------------------------------------------------


def test_adagrad_warmup_trace():
    p = Quadratic(1)
    cfg = LearnerConfig(kind="adagrad_da", start=np.array([1.0]),
                        step_scale=1.0, grad_bound_init=1.0)
    run = run_adagrad_warmup(cfg, p, 2)
    x2 = 1.0 - 1.0 / math.sqrt(2.0)
    assert run.iterates[0][0] == 1.0
    assert run.iterates[1][0] == pytest.approx(x2, abs=1e-15)
    assert run.steps_taken == 2 and not run.terminated_early
    assert run.average_point[0] == pytest.approx((1.0 + x2) / 2.0, rel=1e-15)
    assert not run.grad_bound_exceeded
    # uniform mean of gaps
    assert run.mean_suboptimality == pytest.approx(
        (0.5 + x2 * x2 / 2.0) / 2.0, rel=1e-14)


def test_adagrad_warmup_start_at_minimizer():
    p = Quadratic(2)
    cfg = LearnerConfig(kind="adagrad_da", start=np.zeros(2))
    run = run_adagrad_warmup(cfg, p, 5)
    assert all(np.array_equal(x, np.zeros(2)) for x in run.iterates)
    assert np.array_equal(run.average_point, np.zeros(2))


def test_adagrad_warmup_flags_exceeded_bound_and_completes():
    p = Quadratic(1)
    cfg = LearnerConfig(kind="adagrad_da", start=np.array([5.0]),
                        grad_bound_init=1.0)
    run = run_adagrad_warmup(cfg, p, 8)
    assert run.grad_bound_exceeded
    assert run.steps_taken == 8


def test_adagrad_warmup_rejects_unit_learners():
    with pytest.raises(ContractViolation):
        run_adagrad_warmup(LearnerConfig(kind="kt", start=np.zeros(1)), Quadratic(1), 4)


# --- means -------------------------------------------------------------------


def test_hm_gm_am_examples():
    hm, gm, am = hm_gm_am([1.0, 4.0])
    assert (hm, gm, am) == (pytest.approx(1.6, rel=1e-15),
                            pytest.approx(2.0, rel=1e-15),
                            pytest.approx(2.5, rel=1e-15))
    hm, gm, am = hm_gm_am([7.5, 7.5, 7.5])
    assert hm == pytest.approx(7.5, rel=1e-12)
    assert gm == pytest.approx(7.5, rel=1e-12)
    assert am == pytest.approx(7.5, rel=1e-12)
    hm, gm, am = hm_gm_am([1.0, 1e6])
    assert hm == pytest.approx(2.0 / (1.0 + 1e-6), rel=1e-12)
    assert gm == pytest.approx(1e3, rel=1e-12)
    assert am == pytest.approx(500000.5, rel=1e-15)
    assert hm < gm < am


def test_hm_gm_am_errors():
    with pytest.raises(ContractViolation):
        hm_gm_am([])
    with pytest.raises(ContractViolation):
        hm_gm_am([1.0, 0.0])
    with pytest.raises(ContractViolation):
        hm_gm_am([1.0, -3.0])


def test_hm_gm_am_ordering_random():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        n = int(rng.integers(1, 65))
        vals = np.exp(rng.uniform(-10, 10, n))
        hm, gm, am = hm_gm_am(vals)
        assert hm <= gm * (1 + 1e-12)
        assert gm <= am * (1 + 1e-12)


# --- bound compositions ------------------------------------------------------


def test_regret_to_gap_bound_examples():
    spec = HolderSpec(nu=1.0, l_nu=1.0)
    # alpha^nu (psi/T)^2 * gm = 2 * 0.01 * 1
    v_gm, v_am = regret_to_gap_bound(10.0, 100, spec, [1.0])
    assert v_gm == pytest.approx(0.02, rel=1e-15)
    assert v_am == pytest.approx(0.02, rel=1e-15)

    spec0 = HolderSpec(nu=0.0, l_nu=2.0)
    _, v0 = regret_to_gap_bound(10.0, 100, spec0, [0.5, 2.0])
    assert v0 == pytest.approx(0.1 * 1.25, rel=1e-15)

    gm_v, am_v = regret_to_gap_bound(10.0, 100, spec, [1.0, 4.0])
    assert gm_v / am_v == pytest.approx(0.8, rel=1e-12)


def test_regret_to_gap_bound_validation():
    spec = HolderSpec(nu=1.0, l_nu=1.0)
    with pytest.raises(ContractViolation):
        regret_to_gap_bound(-1.0, 10, spec, [1.0])
    with pytest.raises(ContractViolation):
        regret_to_gap_bound(1.0, 0, spec, [1.0])
    with pytest.raises(ContractViolation):
        regret_to_gap_bound(1.0, 10, spec, [])
    with pytest.raises(ContractViolation):
        regret_to_gap_bound(1.0, 2, spec, [1.0, 1.0, 1.0])


def test_closed_form_rate_examples():
    # ogd form at nu=1, L=1, D=1, alpha=1, T=100: 2 * ((1/20) * 2)^2 = 0.02
    p = Quadratic(1)
    cfg = ogd_cfg([1.0])
    assert closed_form_rate(p, cfg, 100) == pytest.approx(0.02, rel=1e-14)

    # nu=0 with G=1 and alpha=D: bound = D/sqrt(T)
    p0 = PowerNorm(0.0, 1)
    for d, t in ((2.0, 64), (0.5, 256)):
        cfg0 = ogd_cfg([d], alpha=d)
        assert closed_form_rate(p0, cfg0, t) == pytest.approx(
            d / math.sqrt(t), rel=1e-14)

    # quadrupling T at nu=1 divides the constant-step bound by 4
    b1 = closed_form_rate(p, ogd_cfg([1.0]), 100)
    b4 = closed_form_rate(p, ogd_cfg([1.0]), 400)
    assert b1 / b4 == pytest.approx(4.0, rel=1e-12)


def test_closed_form_rate_kt_and_da_forms():
    p = Quadratic(1)
    d, t, d0 = 3.0, 256, 1.0
    kt = LearnerConfig(kind="kt", start=np.array([d]), wealth_init=d0)
    expected = 2.0 * (d * math.sqrt(math.log(24 * t * t * d * d / (d0 * d0) + 1))
                      / math.sqrt(t) + d0 / t) ** 2
    assert closed_form_rate(p, kt, t) == pytest.approx(expected, rel=1e-14)

    da = LearnerConfig(kind="da_sqrt", start=np.array([d]), step_scale=0.5)
    expected = 2.0 * ((d * d / 1.0 + 0.5) / math.sqrt(t)) ** 2
    assert closed_form_rate(p, da, t) == pytest.approx(expected, rel=1e-14)


def test_closed_form_rate_adagrad_max_form():
    p = Quadratic(1)
    cfg = LearnerConfig(kind="adagrad_da", start=np.array([2.0]),
                        step_scale=1.0, grad_bound_init=2.0)
    c = 4.0 / 1.0 + 2.0
    for t in (4, 4096):
        expected = max(1.0 * 2.0 * (c / math.sqrt(t)) ** 2, 2.0 / t * c)
        assert closed_form_rate(p, cfg, t) == pytest.approx(expected, rel=1e-14)
    # at nu=1 both branches decay like 1/T: smooth wins iff 2c > G
    assert closed_form_rate(p, cfg, 4096) == pytest.approx(
        2.0 * (c / 64.0) ** 2, rel=1e-14)
    big_g = LearnerConfig(kind="adagrad_da", start=np.array([2.0]),
                          step_scale=1.0, grad_bound_init=20.0)
    assert closed_form_rate(p, big_g, 4096) == pytest.approx(
        20.0 / 4096 * c, rel=1e-14)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
def test_closed_form_rate_bits(nu):
    # D != 1, alpha != 1, d0 != 1 and T an odd power of 2, so that no factor
    # is exact; each expected value is written in closed_form_rate's order
    # of float operations, and must equal it bit for bit
    p = PowerNorm(nu, 3, minimizer=[0.25, -1.0, 0.5])
    start = p.minimizer + np.array([1.5, -0.75, 2.25])
    t, alpha, d0, g = 2048, 0.7, 0.3, 1.7
    d = l2_norm(start - p.minimizer)
    c = (p.spec.l_nu if nu > 0.0 else p.grad_norm_bound) * p.spec.alpha_pow_nu
    rt = math.sqrt(t)
    expected = {
        "ogd_const": c * ((d * d / alpha + alpha) / (2.0 * rt)) ** (1.0 + nu),
        "da_sqrt": c * ((d * d / (2.0 * alpha) + alpha) / rt) ** (1.0 + nu),
        "kt": c * (d * math.sqrt(math.log(24.0 * t * t * d * d / (d0 * d0) + 1.0)) / rt
                   + d0 / t) ** (1.0 + nu),
        "adagrad_da": max(c * ((d * d / alpha + 2.0 * alpha) / rt) ** (1.0 + nu),
                          g / t * (d * d / alpha + 2.0 * alpha)),
    }
    for kind, value in expected.items():
        cfg = LearnerConfig(kind=kind, start=start, step_scale=alpha, wealth_init=d0, grad_bound_init=g)
        got = closed_form_rate(p, cfg, t)
        assert type(got) is float and got == value, kind


def test_closed_form_rate_contract_errors():
    p = Quadratic(1)
    cfg = ogd_cfg([1.0])
    with pytest.raises(ContractViolation):
        closed_form_rate(p, cfg, 0)
    # a nu = 0 family without a gradient norm bound has no rate constant
    p0 = PowerNorm(0.0, 1)
    p0.grad_norm_bound = None
    with pytest.raises(ContractViolation):
        closed_form_rate(p0, cfg, 100)


# --- bound reports and the end-to-end chain ----------------------------------


def test_bound_report_early_stopped_run():
    p = Quadratic(1)
    cfg = ogd_cfg([1.0])
    run = run_normalized(cfg, p, 4)
    rep = bound_report(run, p, cfg)
    assert rep.measured == 0.0
    assert rep.bound_gm <= rep.bound_am
    assert rep.bound_gm >= 0.0 and rep.bound_closed_form >= 0.0
    assert run.local_constants == pytest.approx([1.0, 1.0])
    # the report composes the run's own column
    assert (rep.bound_gm, rep.bound_am) == regret_to_gap_bound(
        rep.psi_at_xstar, run.steps_taken, p.spec, run.local_constants)


def test_ogd_const_run_and_report_use_the_driven_horizon():
    # one config driven for two horizons: each run steps alpha/sqrt(T) for
    # its own T, and its report evaluates psi and the closed form at that T
    p = Quadratic(3)
    cfg = ogd_cfg(start_at_distance(p, 2.0, seed=0), alpha=0.7)
    g = p.grad(cfg.start)
    distance = l2_norm(cfg.start - p.minimizer)
    for horizon in (32, 64):
        run = run_normalized(cfg, p, horizon)
        assert run.steps_taken == run.horizon == horizon
        step = 0.7 / math.sqrt(horizon) * (g / l2_norm(g))
        assert np.array_equal(run.iterates[1], cfg.start - step)
        rep = bound_report(run, p, cfg)
        assert rep.psi_at_xstar == learners.regret_bound(cfg, distance, horizon)
        assert rep.bound_closed_form == closed_form_rate(p, cfg, horizon)


def test_bound_report_zero_steps():
    p = Quadratic(2)
    cfg = LearnerConfig(kind="kt", start=np.zeros(2))
    run = run_normalized(cfg, p, 8)
    rep = bound_report(run, p, cfg)
    assert rep.psi_at_xstar == 0.0
    assert rep.bound_gm == rep.bound_am == 0.0
    assert rep.measured == 0.0
    assert rep.bound_closed_form > 0.0


def test_bound_report_uses_gradient_norms_at_nu_zero():
    p = PowerNorm(0.0, 3)
    cfg = LearnerConfig(kind="da_sqrt", start=start_at_distance(p, 1.5, seed=3))
    run = run_normalized(cfg, p, 64)
    rep = bound_report(run, p, cfg)
    assert run.local_constants.tolist() == run.grad_norms.tolist()
    assert (rep.bound_gm, rep.bound_am) == regret_to_gap_bound(
        rep.psi_at_xstar, run.steps_taken, p.spec, run.local_constants.tolist())
    assert rep.measured <= rep.bound_gm * (1 + 1e-9) + 1e-9
    assert rep.bound_gm <= rep.bound_am * (1 + 1e-9)


def test_jensen_and_regret_chain_on_runs():
    problems = canonical_problems(6)
    for problem in problems:
        start = start_at_distance(problem, 2.0, seed=1)
        for kind in ("ogd_const", "da_sqrt", "kt"):
            cfg = LearnerConfig(kind=kind, start=start)
            run = run_normalized(cfg, problem, 128)
            rep = bound_report(run, problem, cfg)
            # gap of the average never beats the weighted mean of gaps
            assert run.average_suboptimality <= run.mean_suboptimality + 1e-9
            if run.steps_taken:
                weighted = sum(s / g for s, g in zip(run.suboptimalities, run.grad_norms))
                assert weighted <= rep.psi_at_xstar + 1e-6
            assert rep.measured <= rep.bound_gm + 1e-9 * (1 + rep.bound_gm)
            assert rep.bound_gm <= rep.bound_am + 1e-9 * (1 + rep.bound_am)
            assert rep.measured <= rep.bound_closed_form + 1e-9 * (1 + rep.bound_closed_form)
            if not run.terminated_early:
                assert rep.bound_am <= rep.bound_closed_form + 1e-9 * (1 + rep.bound_closed_form)


def test_huber_local_advantage_gm_strictly_below_am():
    p = Huber(10, delta=1.0)
    start = start_at_distance(p, 10.0, seed=0)
    cfg = LearnerConfig(kind="da_sqrt", start=start)
    run = run_normalized(cfg, p, 1024)
    rep = bound_report(run, p, cfg)
    assert rep.bound_gm < rep.bound_am
    assert rep.measured <= rep.bound_gm


def test_bounded_iterates_for_constant_step_runs():
    for problem in canonical_problems(8):
        start = start_at_distance(problem, 3.0, seed=2)
        d_sq = l2_norm(start - problem.minimizer) ** 2
        for horizon in (16, 128, 1024):
            cfg = LearnerConfig(kind="ogd_const", start=start, step_scale=1.0)
            run = run_normalized(cfg, problem, horizon)
            pts = list(run.iterates)
            if run.terminated_early:
                pts.append(run.average_point)
            worst = max(l2_norm(x - problem.minimizer) ** 2 for x in pts)
            assert worst <= d_sq + 1.0 + 1e-9


def test_early_stop_point_has_zero_gradient():
    p = Quadratic(1)
    run = run_normalized(ogd_cfg([1.0]), p, 4)
    assert run.terminated_early
    assert l2_norm(p.grad(run.average_point)) <= 1e-12


class _Scaled(Problem):
    """c f for a family f: eval, grad, the optimum and the constant c times
    the family's, at the same minimizer."""

    def __init__(self, base: Problem, c: float):
        super().__init__(base.dimension, base.minimizer)
        self.base, self.c = base, c
        self.spec = HolderSpec(base.spec.nu, c * base.spec.l_nu)
        self.optimum = c * base.optimum

    def eval(self, x):
        return self.c * self.base.eval(x)

    def grad(self, x):
        return self.c * self.base.grad(x)


@pytest.mark.parametrize("dimension", [3, 10])
@pytest.mark.parametrize("family", range(5), ids=[p.family for p in canonical_problems()])
def test_scaling_f_leaves_a_unit_norm_run_unchanged(family, dimension):
    # a unit-norm learner sees only g / ||g||, which scaling f by a power of
    # two leaves bit for bit; the stop threshold eps_zero scales with f
    base = canonical_problems(dimension)[family]
    for kind in UNIT_NORM_KINDS:
        for distance in (1.0, 1.3):
            for seed in range(3):
                record = {"kind": kind, "start_distance": distance}
                config = resolve_learner_config(base, record, seed)
                plain = run_normalized(config, base, 512)
                for c in (4.0, 2.0 ** -20, 2.0 ** 40):
                    scaled = run_normalized(config, _Scaled(base, c), 512, DEFAULT_EPS_ZERO * c)
                    case = (kind, distance, seed, c)
                    assert scaled.stop_index == plain.stop_index, case
                    assert scaled.iterates.tobytes() == plain.iterates.tobytes(), case
                    assert scaled.average_point.tobytes() == plain.average_point.tobytes(), case
                    assert scaled.grad_norms.tobytes() == (c * plain.grad_norms).tobytes(), case



def _bits(a) -> bytes:
    """The bytes of a float64 array, or of a float, with -0.0 read as +0.0:
    x - x is +0.0 on either side of a reflection, so a zero's sign is the
    one bit that a reflected run may change."""
    return (np.asarray(a, dtype=np.float64) + 0.0).tobytes()


def _assert_reflected(plain, flipped, sign, case):
    """flipped is plain's cell with every point multiplied by sign (-1, or a
    vector of +-1): its points are plain's times sign, and every per-step
    column, stop, exceeded step, mean gap and bound field keeps its bits.
    An ogd_const record from run_cells keeps no iterates, so run_cell's
    give its points."""
    a, b = plain.run, flipped.run
    points = [run.iterates if run.iterates is not None else
              run_cell(cell.problem, cell.config, cell.horizon, cell.seed).run.iterates
              for cell, run in ((plain, a), (flipped, b))]
    assert _bits(points[1]) == _bits(sign * points[0]), case
    assert _bits(b.average_point) == _bits(sign * a.average_point), case
    for column in ("grad_norms", "suboptimalities", "weights", "local_constants", "dist_sq"):
        assert _bits(getattr(b, column)) == _bits(getattr(a, column)), (column, case)
    assert (b.stop_index, b.exceeded_index) == (a.stop_index, a.exceeded_index), case
    assert _bits([b.mean_suboptimality, b.average_suboptimality, *astuple(flipped.report)]) \
        == _bits([a.mean_suboptimality, a.average_suboptimality, *astuple(plain.report)]), case


@pytest.mark.parametrize("family", range(5), ids=[p.family for p in canonical_problems()])
def test_reflecting_the_start_reflects_the_run(family):
    # every canonical family has x* = 0 and f(-x) = f(x) computed in the same
    # order, so a run from -start is the run from start, negated. A radial
    # family reads z only through its norm, so a flipped coordinate flips the
    # run's too. log_sum_exp is left out of that part: flipping z_i moves
    # exp(z_i) from one of its two exp sums to the other, which changes how
    # the sums round (55 of its 64 flipped cells differ); a full reflection
    # swaps the two sums, which is exact
    for dimension in (1, 3, 10):
        problem = canonical_problems(dimension)[family]
        coordinate = np.ones(dimension)
        coordinate[dimension // 2] = -1.0
        signs = [-1.0] if problem.family == "log_sum_exp" else [-1.0, coordinate]
        for kind in LEARNER_KINDS:
            for distance in (1.0, 1.3):
                for seed in range(2):
                    config = resolve_learner_config(
                        problem, {"kind": kind, "start_distance": distance}, seed)
                    plain = list(run_cells(problem, config, (7, 256), seed))
                    for sign in signs:
                        record = {"kind": kind, "start": (sign * config.start).tolist()}
                        flipped = resolve_learner_config(problem, record, seed)
                        case = (dimension, kind, distance, seed, np.ndim(sign))
                        for a, b in zip(plain, run_cells(problem, flipped, (7, 256), seed)):
                            _assert_reflected(a, b, sign, case + (a.horizon,))


def test_kt_wealth_does_not_depend_on_the_start():
    # KT bets on iterates centered at its start: fed the same unit losses,
    # two starts spend the same wealth, bit for bit, at every step
    problem = Huber(3)
    config = resolve_learner_config(problem, {"kind": "kt", "start_distance": 1.3}, 0)
    moved = resolve_learner_config(problem, {"kind": "kt", "start": [-5.0, 0.25, 3.0]}, 0)
    a, b = learners.make_learner(config, 256), learners.make_learner(moved, 256)
    for _ in range(256):
        g = problem.grad(a.next_point())
        b.next_point()
        a.observe(g / l2_norm(g))
        b.observe(g / l2_norm(g))
        assert a.wealth.hex() == b.wealth.hex()


def test_start_at_distance_properties():
    p = Quadratic(7, minimizer=np.arange(7.0))
    for seed in range(5):
        x = start_at_distance(p, 2.5, seed)
        assert l2_norm(x - p.minimizer) == pytest.approx(2.5, rel=1e-12)
    assert np.array_equal(start_at_distance(p, 2.5, 1), start_at_distance(p, 2.5, 1))
    with pytest.raises(ContractViolation):
        start_at_distance(p, -1.0, 0)
