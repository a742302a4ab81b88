"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output of failing tests)."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from normgrad import (
    Huber,
    LearnerConfig,
    Quadratic,
    run_adagrad_warmup,
    run_normalized,
)
from normgrad.bench import (
    SWEEP_COLUMNS,
    bound_violations,
    rate_experiment,
    resolve_learner_config,
    rows_to_csv,
    run_cell,
    sweep_rows,
)
from normgrad.vectors import l2_norm

from golden_diff import csv_diff

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
RATE_LEARNERS = ("ogd_const", "da_sqrt")
RATE_NUS = (0.0, 0.5, 1.0)


def _report(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {name}")
    for f in failures:
        print(f"  - {f}")
    assert not failures, f"criterion {number} ({name}): {failures}"


@pytest.fixture(scope="module")
def default_sweep():
    # library defaults: nu x learner x 2^8..2^14 x seeds 0..2
    return list(sweep_rows())


def test_default_sweep_matches_reference_csv(default_sweep, kernel_note):
    body = "".join(rows_to_csv(default_sweep, SWEEP_COLUMNS))
    reference = (REFERENCE_DIR / "sweep_default.csv").read_bytes()
    assert body.encode("utf-8") == reference, (
        f"{kernel_note}\n{csv_diff(body, reference.decode('utf-8'))}")


def test_criterion_1_rate_interpolation():
    failures = []
    t0 = time.time()
    for nu in RATE_NUS:
        predicted = -(1.0 + nu) / 2.0
        for kind in RATE_LEARNERS:
            _, fit = rate_experiment(nu, kind)
            if abs(fit.slope - predicted) > 0.15:
                failures.append(
                    f"nu={nu} {kind}: slope {fit.slope:+.4f} not within 0.15 of {predicted:+.2f}")
            if fit.r_squared < 0.98:
                failures.append(f"nu={nu} {kind}: r^2 {fit.r_squared:.4f} < 0.98")
    elapsed = time.time() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(1, f"rate interpolation ({elapsed:.1f}s)", failures)


def test_criterion_2_bound_validity(default_sweep):
    failures = []
    for row in default_sweep:
        failures.extend(bound_violations(row["_cell"]))
    _report(2, f"bound validity on {len(default_sweep)} sweep cells", failures)


def test_criterion_3_bounded_iterates(default_sweep):
    failures = []
    cells = 0
    for row in default_sweep:
        if row["learner"] != "ogd_const":
            continue
        cells += 1
        cell = row["_cell"]
        d_sq = l2_norm(cell.config.start - cell.problem.minimizer) ** 2
        limit = d_sq + cell.config.step_scale ** 2 + 1e-9
        if row["max_iterate_dist_sq"] > limit:
            failures.append(
                f"nu={row['nu']} T={row['T']} seed={row['seed']}: "
                f"max dist^2 {row['max_iterate_dist_sq']} > {limit}")
    _report(3, f"bounded iterates on {cells} constant-step cells", failures)


def test_criterion_4_inequality_suites(default_check, kernel_note):
    failures = []
    reference = json.loads((REFERENCE_DIR / "check_default.json").read_text())
    expected = {s["name"]: s for s in reference["suites"]}
    results = {r.name: r for r in default_check}
    for name in ("descent", "grad_bound", "means_ordering"):
        res = results[name]
        if not res.passed:
            failures.append(f"{name}: {res.failures} failures over {res.samples} samples "
                            f"(worst slack {res.worst_slack!r})")
        if res.as_dict() != expected[name]:
            failures.append(f"{name}: {res.as_dict()} differs from the reference report "
                            f"({kernel_note})")
    control = results["descent_negative_control"]
    if not control.passed:
        failures.append("halved-constant negative control was not caught")
    if control.as_dict() != expected[control.name]:
        failures.append(f"{control.name}: {control.as_dict()} differs from the reference "
                        f"report ({kernel_note})")
    _report(4, "descent / gradient-bound / means suites at 10^4 samples", failures)


def test_criterion_5_oracle_traces():
    failures = []

    def check(label, got, expected):
        if len(got) != len(expected):
            failures.append(f"{label}: {len(got)} points, expected {len(expected)}")
            return
        for i, (g, e) in enumerate(zip(got, expected)):
            if abs(g - e) > 1e-12:
                failures.append(f"{label}[{i}]: {g!r} != {e!r}")

    quad = Quadratic(1)

    run = run_normalized(
        LearnerConfig(kind="ogd_const", start=np.array([1.0])), quad, 4)
    check("ogd_const iterates", [x[0] for x in run.iterates], [1.0, 0.5])
    if not (run.terminated_early and run.stop_index == 3 and run.average_point[0] == 0.0):
        failures.append("ogd_const did not stop at the exact optimum at t=3")

    run = run_normalized(
        LearnerConfig(kind="kt", start=np.array([1.0]), wealth_init=1.0), quad, 8)
    check("kt iterates", [x[0] for x in run.iterates], [1.0, 0.5])
    if not (run.terminated_early and abs(run.average_point[0]) <= 1e-12):
        failures.append("kt did not reach the optimum at t=3")

    run = run_normalized(
        LearnerConfig(kind="da_sqrt", start=np.array([1.0]), step_scale=0.5), quad, 2)
    x3 = 1.0 - (0.5 / math.sqrt(2.0)) * 2.0
    check("da_sqrt iterates", [x[0] for x in run.iterates], [1.0, 0.5])
    da = LearnerConfig(kind="da_sqrt", start=np.array([1.0]), step_scale=0.5)
    run = run_normalized(da, quad, 3)
    check("da_sqrt iterates (3 steps)", [x[0] for x in run.iterates], [1.0, 0.5, x3])

    ada = LearnerConfig(kind="adagrad_da", start=np.array([1.0]),
                        step_scale=1.0, grad_bound_init=1.0)
    run = run_adagrad_warmup(ada, quad, 3)
    x2 = 1.0 - 1.0 / math.sqrt(2.0)
    x3 = 1.0 - (1.0 + x2) / math.sqrt(2.0 + x2 * x2)
    check("adagrad_da iterates", [x[0] for x in run.iterates], [1.0, x2, x3])

    _report(5, "hand-simulated trajectories within 1e-12", failures)


def test_criterion_6_kt_parameter_free_adaptation():
    failures = []
    horizons = tuple(2 ** k for k in range(8, 15))
    quad = Quadratic(10)
    for distance in (1.0, 10.0, 100.0):
        config = resolve_learner_config(quad, {"kind": "kt", "start_distance": distance}, 0)
        gaps = []
        means = []
        stopped = []
        for horizon in horizons:
            cell = run_cell(quad, config, horizon, seed=0)
            for v in bound_violations(cell):
                failures.append(f"D={distance}: {v}")
            gaps.append(cell.report.measured)
            means.append(cell.run.mean_suboptimality)
            stopped.append(cell.run.terminated_early)
        final = gaps[-1]
        if not (math.isfinite(final)):
            failures.append(f"D={distance}: gap at T=2^14 not finite: {final}")
        for series, label in ((gaps, "gap"), (means, "mean gap")):
            for i in range(1, len(series)):
                if stopped[i] or stopped[i - 1]:
                    ok = series[i] <= series[i - 1] + 1e-15
                else:
                    ok = series[i] < series[i - 1]
                if not ok:
                    failures.append(
                        f"D={distance}: {label} not decreasing at T={horizons[i]}: "
                        f"{series[i - 1]!r} -> {series[i]!r}")
    _report(6, "parameter-free adaptation across start distances 1/10/100", failures)


def test_criterion_7_local_smoothness_advantage():
    failures = []
    problem = Huber(10, delta=1.0)
    config = resolve_learner_config(problem, {"kind": "da_sqrt", "start_distance": 10.0}, 0)
    cell = run_cell(problem, config, 1024, seed=0)
    rep = cell.report
    if not (rep.bound_gm < rep.bound_am):
        failures.append(f"geometric-mean bound {rep.bound_gm!r} not strictly below "
                        f"arithmetic-mean bound {rep.bound_am!r}")
    if not (rep.measured <= rep.bound_gm * (1 + 1e-9)):
        failures.append(f"measured {rep.measured!r} above gm bound {rep.bound_gm!r}")
    if not (rep.measured <= rep.bound_am * (1 + 1e-9)):
        failures.append(f"measured {rep.measured!r} above am bound {rep.bound_am!r}")
    ratio = rep.bound_gm / rep.bound_am
    _report(7, f"local-smoothness advantage on linear-region start (gm/am={ratio:.3f})",
            failures)


def test_criterion_8_gradient_correctness(default_check):
    res = next(r for r in default_check if r.name == "gradient_check")
    failures = []
    if not res.passed:
        failures.append(f"{res.failures} of {res.samples} points off by more than "
                        f"1e-5 relative (worst {res.worst_slack!r})")
    _report(8, "finite-difference gradients at 1e-5 relative on 10^4 points/family",
            failures)
