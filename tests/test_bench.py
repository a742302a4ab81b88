import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import normgrad.bench
import normgrad.cli
import normgrad.reduction
import normgrad.vectors
from normgrad import (
    ContractViolation,
    Huber,
    LearnerConfig,
    LogSumExp,
    NumericalFailure,
    PowerNorm,
    Quadratic,
    bound_report,
    closed_form_rate,
    hm_gm_am,
    local_constant_from_parts,
    regret_bound,
    run_adagrad_warmup,
)
from normgrad.bench import (
    ConfigError,
    InsufficientData,
    RATE_FIT_DISTANCE,
    SUITES,
    SWEEP_COLUMNS,
    TRAJECTORY_COLUMNS,
    bound_violations,
    canonical_problems,
    fit_rate,
    parse_experiment_config,
    rate_fit_from_records,
    resolve_learner_config,
    rows_to_csv,
    _visited_dist_sq,
    run_cell,
    run_cells,
    run_suites,
    summary_record,
    sweep_rows,
    trajectory_rows,
)
from normgrad.cli import main
from normgrad.learners import ANYTIME_KINDS, LEARNER_KINDS, RECORD_SCALES
from normgrad.problems import FAMILIES

from golden_diff import json_diff


# --- rate fitting ------------------------------------------------------------


def test_fit_rate_exact_power_law():
    fit = fit_rate([4, 16, 64], [0.25, 0.0625, 0.015625], predicted_slope=-1.0)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 3 and fit.n_excluded == 0


def test_fit_rate_excludes_nonpositive_and_requires_three():
    fit = fit_rate([4, 16, 64, 256], [0.25, 0.0625, 0.015625, 0.0], predicted_slope=-1.0)
    assert fit.n_points == 3 and fit.n_excluded == 1
    with pytest.raises(InsufficientData, match="insufficient data"):
        fit_rate([4, 16], [0.1, 0.01], predicted_slope=-1.0)
    with pytest.raises(InsufficientData, match="insufficient data"):
        fit_rate([4, 16, 64], [0.1, 0.0, None], predicted_slope=-1.0)
    # iterators count their excluded horizons as lists do
    fit = fit_rate(iter([256, 512, 1024, 2048]), iter([1e-2, 5e-3, 2.5e-3, None]), -0.5)
    assert fit.n_points == 3 and fit.n_excluded == 1


def _loop_sum(values):
    acc = 0.0
    for v in values:
        acc += v
    return acc


def _compensated_sum(values, start=0):
    return math.fsum(values) + start


def _fit_by(total, horizons, gaps):
    """fit_rate's slope, intercept and r^2 with every sum taken by `total`."""
    lx, ly, n = [math.log(t) for t in horizons], [math.log(g) for g in gaps], len(gaps)
    mx, my = total(lx) / n, total(ly) / n
    slope = total((x - mx) * (y - my) for x, y in zip(lx, ly)) / total((x - mx) ** 2 for x in lx)
    intercept = my - slope * mx
    ss_res = total((y - (intercept + slope * x)) ** 2 for x, y in zip(lx, ly))
    return slope, intercept, 1.0 - ss_res / total((y - my) ** 2 for y in ly)


def test_reported_sums_add_left_to_right_on_any_python(monkeypatch):
    # CPython 3.12 made the builtin sum() of floats compensated; a reported
    # sum must keep the bits of a plain left-to-right loop on every version
    for module in (normgrad.bench, normgrad.reduction, normgrad.vectors):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)

    values = [1.0, 1e-16, 1e-16, 1e-16]
    assert _loop_sum(values) != _compensated_sum(values)
    n = len(values)
    assert hm_gm_am(values) == (n / _loop_sum(1.0 / v for v in values),
                                math.exp(_loop_sum(math.log(v) for v in values) / n),
                                _loop_sum(values) / n)
    assert hm_gm_am(values).am != _compensated_sum(values) / n

    # adagrad_da's psi reads the sum of squared gradient norms
    problem = Quadratic(10)
    config = resolve_learner_config(problem, {"kind": "adagrad_da", "start_distance": 1.5}, 0)
    run = run_adagrad_warmup(config, problem, 32)
    squares = [g * g for g in run.grad_norms.tolist()]
    distance = normgrad.vectors.l2_norm(config.start - problem.minimizer)
    psi = regret_bound(config, distance, 32, grad_sq_sum=_loop_sum(squares))
    assert psi != regret_bound(config, distance, 32, grad_sq_sum=_compensated_sum(squares))
    assert bound_report(run, problem, config).psi_at_xstar == psi

    horizons = [2 ** k for k in range(4, 11)]
    gaps = np.exp(np.random.default_rng(1).uniform(-10.0, 0.0, len(horizons))).tolist()
    expected = _fit_by(_loop_sum, horizons, gaps)
    assert expected != _fit_by(_compensated_sum, horizons, gaps)
    fit = fit_rate(horizons, gaps, predicted_slope=-0.75)
    assert (fit.slope, fit.intercept, fit.r_squared) == expected


def test_rate_fit_from_records_reads_mean_gap_and_nu():
    records = []
    for t in (4, 16, 64):
        records.append({
            "config": {"problem": {"family": "power_norm", "dimension": 2,
                                   "parameters": {"nu": 1.0}}, "T": t},
            "terminated_early": False,
            "f_gap_mean": 1.0 / t,
        })
    fit = rate_fit_from_records(records)
    assert fit.predicted_slope == -1.0
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    records[0]["config"]["problem"] = {"family": "l2_norm", "dimension": 2}
    with pytest.raises(ConfigError, match="single nu"):
        rate_fit_from_records(records)


# --- experiment config -------------------------------------------------------


def good_config():
    return {
        "problem": {"family": "quadratic", "dimension": 1, "minimizer": [0.0]},
        "learner": {"kind": "ogd_const", "start": [1.0], "step_scale": 1.0},
        "horizons": [4],
        "seed": 0,
        "eps_zero": 1e-12,
    }


def test_parse_experiment_config_validation():
    cfg = parse_experiment_config(good_config())
    assert cfg.problem.family == "quadratic"

    bad = good_config()
    bad["horizons"] = []
    with pytest.raises(ConfigError):
        parse_experiment_config(bad)

    bad = good_config()
    bad["horizons"] = [16, 8]
    with pytest.raises(ConfigError):
        parse_experiment_config(bad)

    bad = good_config()
    bad["learner"]["kind"] = "sgd"
    with pytest.raises(ConfigError):
        parse_experiment_config(bad)

    bad = good_config()
    del bad["problem"]
    with pytest.raises(ConfigError):
        parse_experiment_config(bad)


def test_resolve_learner_config_start_handling():
    p = Quadratic(4)
    cfg = resolve_learner_config(p, {"kind": "kt", "start_distance": 2.0}, seed=5)
    assert np.linalg.norm(cfg.start - p.minimizer) == pytest.approx(2.0, rel=1e-12)
    cfg2 = resolve_learner_config(p, {"kind": "kt", "start_distance": 2.0}, seed=5)
    assert np.array_equal(cfg.start, cfg2.start)

    explicit = resolve_learner_config(p, {"kind": "da_sqrt", "start": [1, 0, 0, 0]}, 0)
    assert np.array_equal(explicit.start, np.array([1.0, 0, 0, 0]))

    # the horizon is the run's: an ogd_const record resolves without one
    ogd = resolve_learner_config(p, {"kind": "ogd_const"}, 0)
    assert (ogd.kind, ogd.step_scale) == ("ogd_const", 1.0) and not hasattr(ogd, "horizon")

    ada = resolve_learner_config(p, {"kind": "adagrad_da", "start": [3.0, 0, 0, 0]}, 0)
    assert ada.grad_bound_init == pytest.approx(3.0, rel=1e-12)
    ada_small = resolve_learner_config(p, {"kind": "adagrad_da", "start": [0.1, 0, 0, 0]}, 0)
    assert ada_small.grad_bound_init == 1.0


@pytest.mark.parametrize("kind", LEARNER_KINDS)
def test_learner_config_record_round_trip(kind):
    # each kind's own scale off its default; the fields a kind does not read keep theirs
    cfg = LearnerConfig(kind=kind, start=np.array([0.5, -1.0, 2.0]), step_scale=1.5,
                        wealth_init=0.25 if kind == "kt" else 1.0,
                        grad_bound_init=3.0 if kind == "adagrad_da" else 1.0)
    record = cfg.config_record()
    assert "horizon" not in record  # a summary record's T holds it
    back = resolve_learner_config(Quadratic(3), record, 0)
    assert vars(back).keys() == vars(cfg).keys()
    for name, value in vars(cfg).items():
        assert np.array_equal(getattr(back, name), value), name
    # the reader takes exactly the scales the record writes
    assert set(record) == {"kind", "start", *RECORD_SCALES[kind]}
    for name in ("step_scale", "wealth_init", "grad_bound_init", "horizon"):
        if name not in record:
            with pytest.raises(ContractViolation, match=f"unknown key '{name}'"):
                resolve_learner_config(Quadratic(3), {"kind": kind, name: 2.0}, 0)


# --- cells, trajectories, summaries -------------------------------------------


def _record_cell(problem, record, horizon, seed):
    """run_cell of a learner record, resolved at seed."""
    return run_cell(problem, resolve_learner_config(problem, record, seed), horizon, seed)


def test_run_cell_trajectory_and_summary():
    p = Quadratic(1)
    cell = _record_cell(p, {"kind": "ogd_const", "start": [1.0]}, 4, seed=0)
    rows = list(trajectory_rows(cell))
    assert len(rows) == 2  # two loss-fed steps before the exact hit
    assert rows[0] == {"t": 1, "f_gap": 0.5, "grad_norm": 1.0, "weight": 1.0, "local_L": 1.0}
    assert rows[1]["t"] == 2 and rows[1]["grad_norm"] == 0.5 and rows[1]["weight"] == 2.0

    rec = summary_record(cell)
    assert rec["steps_taken"] == 2
    assert rec["terminated_early"] is True
    assert rec["f_gap_avg"] == 0.0
    assert rec["config"]["learner"]["kind"] == "ogd_const"
    assert rec["config"]["T"] == 4
    assert rec["bound_gm"] <= rec["bound_am"]


def test_quadratic_kt_bounds_at_two_horizons():
    p = Quadratic(10)
    for horizon in (16, 256):
        cell = _record_cell(p, {"kind": "kt", "start_distance": 1.0}, horizon, seed=0)
        assert cell.report.measured <= cell.report.bound_closed_form
        assert not bound_violations(cell)


def test_kt_closed_form_distance_ratio():
    # bound ratio across start distances follows the closed form itself
    p10 = Quadratic(4)
    t = 1024
    kt1 = LearnerConfig(kind="kt", start=np.array([1.0, 0, 0, 0]))
    kt10 = LearnerConfig(kind="kt", start=np.array([10.0, 0, 0, 0]))
    b1 = closed_form_rate(p10, kt1, t)
    b10 = closed_form_rate(p10, kt10, t)
    log1 = math.log(24 * t * t * 1.0 + 1)
    log10 = math.log(24 * t * t * 100.0 + 1)
    base1 = math.sqrt(log1 / t) + 1.0 / t
    base10 = 10 * math.sqrt(log10 / t) + 1.0 / t
    assert b10 / b1 == pytest.approx((base10 / base1) ** 2, rel=1e-12)
    # and the d0/T terms barely matter: ratio ~ (10 sqrt(log10) / sqrt(log1))^2
    assert b10 / b1 == pytest.approx((10 * math.sqrt(log10 / log1)) ** 2, rel=0.03)


@pytest.mark.parametrize("kind", LEARNER_KINDS)
@pytest.mark.parametrize("problem,distance", [
    # the gap cancels to 0 at step 1 while ||g_1|| is about 1e-9
    (LogSumExp(10), 1e-8),
    (PowerNorm(0.0, 10), RATE_FIT_DISTANCE),
    (PowerNorm(0.5, 10), RATE_FIT_DISTANCE),
], ids=["lse_at_1e-8", "power_norm_0", "power_norm_0.5"])
def test_run_columns_weights_and_local_constants(kind, problem, distance):
    cell = _record_cell(problem, {"kind": kind, "start_distance": distance}, 16, seed=0)
    run = cell.run
    assert run.steps_taken == 16
    columns = (run.grad_norms, run.suboptimalities, run.weights, run.local_constants)
    for column in columns:
        assert isinstance(column, np.ndarray) and column.dtype == np.float64
        assert column.shape == (run.steps_taken,)
    if kind == "adagrad_da":
        assert run.weights.tolist() == [1.0] * 16
    else:
        assert run.weights.tolist() == [1.0 / gn for gn in run.grad_norms.tolist()]
    at_optimum = [problem.spec.nu > 0.0 and gap == 0.0 for gap in run.suboptimalities.tolist()]
    if distance == 1e-8:
        assert at_optimum[0] and run.grad_norms[0] > 1e-12
    assert np.isnan(run.local_constants).tolist() == at_optimum
    assert all(c == local_constant_from_parts(problem.spec, gn, gap)
               for c, gn, gap in zip(run.local_constants.tolist(), run.grad_norms.tolist(),
                                     run.suboptimalities.tolist()) if not math.isnan(c))
    rows = list(trajectory_rows(cell))
    assert [row["local_L"] == "" for row in rows] == at_optimum
    assert [row["weight"] for row in rows] == run.weights.tolist()
    # rows_to_csv writes a float's repr, which for a numpy scalar names its type
    assert all(type(value) in (float, int) or value == ""
               for row in rows for value in row.values())
    # one vecdot over the rows equals one dot product per visited point
    center = problem.minimizer
    assert _visited_dist_sq(run, center).tolist() == [
        float(np.dot(x - center, x - center)) for x in run.iterates]


def _cell_outputs(cell):
    """Everything a cell reports: its summary, trajectory, bound report and
    the largest squared distance it visited."""
    dists = _visited_dist_sq(cell.run, cell.problem.minimizer)
    return (summary_record(cell), list(trajectory_rows(cell)), cell.report,
            max(dists, default=0.0))


_RUN_CELLS_CASES = [
    (kind, family, {"kind": kind, "start_distance": 1.5}, (32, 4, 64, 4, 1))
    for kind in ANYTIME_KINDS for family in range(5)
] + [
    # dual averaging at distance 1 with alpha 1 lands on x* at step 2
    ("da_sqrt", 0, {"kind": "da_sqrt", "start_distance": 1.0}, (4, 1, 2, 1)),
    # ||g_1|| = G, then the overshooting step 2 exceeds G
    ("adagrad_da", 0, {"kind": "adagrad_da", "start_distance": 1.0, "step_scale": 3.0,
                       "grad_bound_init": 1.0}, (8, 1, 2, 8)),
] + [
    # log_sum_exp's gap is 0 at step 1, so that step has no local constant
    (kind, 4, {"kind": kind, "start_distance": 1e-8}, (16, 1, 4, 16))
    for kind in ANYTIME_KINDS
]


@pytest.mark.parametrize("kind,family,record,horizons", _RUN_CELLS_CASES)
def test_run_cells_equals_one_run_cell_per_horizon(kind, family, record, horizons):
    problem = canonical_problems()[family]
    config = resolve_learner_config(problem, record, seed=3)
    cells = list(run_cells(problem, config, horizons, seed=3))
    assert all(cell.config is config for cell in cells)  # resolved once, shared by every cell
    shared = [_cell_outputs(c) for c in cells]
    alone = [_cell_outputs(_record_cell(problem, record, h, seed=3)) for h in horizons]
    assert [s["config"]["T"] for s, *_ in shared] == list(horizons)
    assert shared == alone
    if record.get("start_distance") == 1.0:
        flag = "terminated_early" if kind == "da_sqrt" else "grad_bound_exceeded"
        assert [s[flag] for s, *_ in shared[:2]] == [True, False]
    # every horizon's columns are views of the longest run's, equal to its prefix
    full = next(c.run for c in cells if c.horizon == max(horizons))
    for cell in cells:
        run = cell.run
        assert run.steps_taken >= 1
        for name in ("iterates", "grad_norms", "suboptimalities", "weights", "local_constants"):
            column, whole = getattr(run, name), getattr(full, name)
            assert np.shares_memory(column, whole)
            assert np.array_equal(column, whole[:run.steps_taken], equal_nan=True)


def test_sweep_runs_each_anytime_learner_once_per_seed(monkeypatch):
    calls = []
    grad = PowerNorm.grad

    def counted(self, x):
        calls.append(1)
        return grad(self, x)

    monkeypatch.setattr(PowerNorm, "grad", counted)
    horizons, seeds = (8, 32, 16), (0, 1)
    rows = list(sweep_rows(nus=(0.5,), horizons=horizons, seeds=seeds, dimension=3,
                           distance=RATE_FIT_DISTANCE))
    assert len(rows) == 4 * 3 * 2
    assert all(row["steps_taken"] == row["T"] for row in rows)  # no early stop
    # ogd_const runs every horizon; da_sqrt, kt and adagrad_da each run once
    # per seed, to the longest horizon; adagrad_da's default bound G takes
    # one more gradient, at the start
    assert len(calls) == len(seeds) * (sum(horizons) + 3 * max(horizons) + 1)


def test_sweep_resolves_each_learner_record_once_per_seed(monkeypatch, capsys):
    calls = []
    resolve = normgrad.bench.resolve_learner_config

    def counted(problem, record, seed):
        calls.append((record["kind"], seed))
        return resolve(problem, record, seed)

    monkeypatch.setattr(normgrad.bench, "resolve_learner_config", counted)
    argv = ["sweep", "--nu", "0.5", "--learner", "ogd_const", "--horizons", "4", "8", "16",
            "--seeds", "0", "1"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 2
    # once per seed, not once per (horizon, seed) cell
    assert calls == [("ogd_const", 0), ("ogd_const", 1)]


def test_sweep_rows_grid_shape_and_bounds():
    rows = list(sweep_rows(nus=(0.0, 1.0), learners=("ogd_const", "adagrad_da"),
                           horizons=(16, 64), seeds=(0,), dimension=4))
    assert len(rows) == 2 * 2 * 2
    for row in rows:
        cell = row.pop("_cell")
        assert not bound_violations(cell)
        assert set(SWEEP_COLUMNS) <= set(row)
        assert not row["grad_bound_exceeded"]
    with pytest.raises(ConfigError):
        list(sweep_rows(nus=(), learners=("kt",), horizons=(4,), seeds=(0,)))
    with pytest.raises(ConfigError):
        list(sweep_rows(nus=(0.5,), learners=("sgd",), horizons=(4,), seeds=(0,)))
    # the whole grid is checked before the first cell runs
    with pytest.raises(ContractViolation):
        next(sweep_rows(nus=(0.5, 2.0), learners=("kt",), horizons=(4,), seeds=(0,)))
    with pytest.raises(ConfigError):
        next(sweep_rows(nus=(0.5,), learners=("kt",), horizons=(4,), seeds=(0, -1)))


def test_rows_to_csv_deterministic():
    rows = list(sweep_rows(nus=(0.5,), learners=("kt",), horizons=(16, 32), seeds=(0, 1),
                           dimension=3))
    for row in rows:
        row.pop("_cell")
    body1 = "".join(rows_to_csv(rows, SWEEP_COLUMNS))
    rows2 = list(sweep_rows(nus=(0.5,), learners=("kt",), horizons=(16, 32), seeds=(0, 1),
                            dimension=3))
    for row in rows2:
        row.pop("_cell")
    body2 = "".join(rows_to_csv(rows2, SWEEP_COLUMNS))
    assert body1 == body2
    assert body1.splitlines()[0] == ",".join(SWEEP_COLUMNS)


# --- property suites ----------------------------------------------------------


def test_all_suites_pass_at_reduced_samples():
    results = run_suites(samples=300, seed=0)
    by_name = {r.name: r for r in results}
    assert set(by_name) == set(SUITES)
    for name, res in by_name.items():
        assert res.passed, f"{name}: {res.failures} failures, worst {res.worst_slack}"


def test_negative_control_detects_halved_constants():
    res = SUITES["descent_negative_control"](500, seed=0)
    assert res.passed  # i.e. the corruption was caught
    assert res.failures > 0


def test_suite_counts_nonfinite_value_as_failure(monkeypatch):
    monkeypatch.setattr(Quadratic, "eval", lambda self, x: float("nan"))
    res = SUITES["convexity"](100, seed=0)
    assert not res.passed
    assert res.failures == 10  # every quadratic segment, nothing else
    assert math.isnan(res.worst_slack)


def test_driver_suites_match_reference_report(default_check, kernel_note):
    """All ten suites at the default check, as `normgrad check` reports them."""
    reference = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
         / "check_default.json").read_text())
    report = {"samples": 10_000, "seed": 0, "passed": all(r.passed for r in default_check),
              "suites": [r.as_dict() for r in default_check]}
    assert report == reference, f"{kernel_note}\n{json_diff(report, reference)}"


def test_driver_suites_share_one_pass_of_ogd_const_runs(monkeypatch):
    calls = []
    resolves = []
    run_normalized = normgrad.bench.run_normalized
    resolve = normgrad.bench.resolve_learner_config

    def counted(config, *args):
        calls.append(config.kind)
        return run_normalized(config, *args)

    def counted_resolve(problem, record, seed):
        resolves.append(record["kind"])
        return resolve(problem, record, seed)

    monkeypatch.setattr(normgrad.bench, "run_normalized", counted)
    monkeypatch.setattr(normgrad.bench, "resolve_learner_config", counted_resolve)
    names = ["bounded_iterates", "reduction_chain"]
    together = run_suites(names, 10, 0)
    # 5 families x 9 horizons of ogd_const, run once for both suites, and
    # one run to the longest horizon per family for da_sqrt and for kt
    assert len(calls) == 55 and calls.count("ogd_const") == 45
    # one learner record resolved per family and kind, whatever the horizons
    assert len(resolves) == 5 * 3 and resolves.count("ogd_const") == 5
    del calls[:], resolves[:]
    alone = [SUITES[name](10, 0) for name in names]
    assert len(calls) == 45 + 55 and len(resolves) == 5 + 5 * 3
    assert [r.as_dict() for r in together] == [r.as_dict() for r in alone]


def test_oracle_patched_between_run_suites_calls_changes_the_second(monkeypatch):
    names = ["bounded_iterates", "reduction_chain"]
    first = [r.as_dict() for r in run_suites(names, 10, 0)]
    grad = Huber.grad
    # a gradient off by 0.1 in every coordinate moves every huber run
    monkeypatch.setattr(Huber, "grad", lambda self, x: grad(self, x) + 0.1)
    second = [r.as_dict() for r in run_suites(names, 10, 0)]
    assert all(a != b for a, b in zip(first, second))


@pytest.mark.parametrize("family", list(FAMILIES))
def test_gradient_check_catches_a_bad_gradient_on_each_family(family, monkeypatch):
    n = 40
    assert SUITES["gradient_check"](n, 0).failures == 0
    cls = FAMILIES[family]
    grad = cls.grad
    monkeypatch.setattr(cls, "grad", lambda self, x: grad(self, x) * (1.0 + 1e-4))
    res = SUITES["gradient_check"](n, 0)
    # the other families' rows are the clean run's, so these are all of family's
    assert (res.samples, res.failures, res.passed) == (5 * n, n, False)


def test_kernel_note_names_every_found_dispatch_target(kernel_note):
    from numpy._core import _multiarray_umath as umath
    found = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]
    this_run = kernel_note.split("this run uses ", 1)[1].split()
    assert all(t in this_run for t in found)


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suites(["nope"], samples=10, seed=0)


# --- bound violations ----------------------------------------------------------

_KT_LABEL = "[learner=kt problem=PowerNorm(dimension=10, nu=0.5) T=4 seed=0]"
# the label that perfbench/workloads.py parses out of each violation line
_LABEL = re.compile(r"\[learner=(\S+) problem=\w+\((.*)\) T=(\d+) seed=(-?\d+)\]$")


def test_bound_violations_names_each_broken_link():
    cell = _record_cell(PowerNorm(0.5, 10), {"kind": "kt"}, 4, 0)
    assert cell.label in _KT_LABEL and bound_violations(cell) == []

    def violations(measured, gm, am, closed_form):
        report = replace(cell.report, measured=measured, bound_gm=gm, bound_am=am,
                         bound_closed_form=closed_form)
        return bound_violations(replace(cell, report=report))

    assert violations(0.5, 1.0, 2.0, 3.0) == []
    assert violations(2.0, 3.0, 4.0, 1.0) == [
        f"measured 2.0 > closed-form bound 1.0 {_KT_LABEL}"]
    assert violations(2.0, 1.0, 1.5, 3.0) == [
        f"measured 2.0 > geometric-mean bound 1.0 {_KT_LABEL}"]
    assert violations(0.5, 2.0, 1.0, 3.0) == [
        f"geometric-mean bound 2.0 > arithmetic-mean bound 1.0 {_KT_LABEL}"]
    # the relative slack 1e-9 (1 + |b|): half of it holds, twice it does not
    assert violations(1.0 + 1e-9, 1.0, 1.0, 1.0) == []
    assert len(violations(1.0 + 4e-9, 1.0, 1.0, 1.0)) == 2
    for message in violations(2.0, 1.0, 0.5, 1.5):
        assert _LABEL.search(message).groups() == ("kt", "dimension=10, nu=0.5", "4", "0")


@pytest.fixture
def gap_above_closed_form(monkeypatch):
    """bound_report with the measured gap moved above the closed-form and the
    geometric-mean bounds: two broken links per cell."""
    def broken(run, problem, config):
        report = normgrad.reduction.bound_report(run, problem, config)
        top = max(report.bound_closed_form, report.bound_gm)
        return replace(report, measured=2.0 * top + 1.0)
    monkeypatch.setattr(normgrad.bench, "bound_report", broken)


_LINK = re.compile(r"bound violation: (.+?) \S+ > (.+?) \S+ \[")


def _violation_lines(err: str) -> list:
    return [line for line in err.splitlines() if line.startswith("bound violation: ")]


def test_cli_sweep_with_broken_bound_exits_1(tmp_path, capsys, gap_above_closed_form):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--nu", "0.5", "--learner", "kt", "--horizons", "4",
                 "--seeds", "0", "--out", str(out)]) == 1
    assert len(out.read_text().splitlines()) == 2  # header and the one cell
    lines = _violation_lines(capsys.readouterr().err)
    assert [_LINK.match(line).groups() for line in lines] == [
        ("measured", "closed-form bound"), ("measured", "geometric-mean bound")]
    assert all(line.endswith(_KT_LABEL) for line in lines)


def test_cli_run_with_broken_bound_exits_1(tmp_path, capsys, gap_above_closed_form):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**good_config(), "horizons": [4, 8]}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "summary.json", "trajectory_T4.csv", "trajectory_T8.csv"]
    assert len(json.loads((out / "summary.json").read_text())["records"]) == 2
    lines = _violation_lines(capsys.readouterr().err)
    assert len(lines) == 4  # two links at each of the two horizons
    assert [_LABEL.search(line).group(3) for line in lines] == ["4", "4", "8", "8"]


def test_cli_check_with_failed_suite_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Quadratic, "eval", lambda self, x: float("nan"))
    out = tmp_path / "report.json"
    assert main(["check", "--suite", "convexity", "means_ordering", "--samples", "100",
                 "--out", str(out)]) == 1
    assert json.loads(out.read_text())["passed"] is False
    assert capsys.readouterr().err == (
        "suite failed: convexity (10 failures, worst slack nan)\n")


# --- CLI ----------------------------------------------------------------------


def test_cli_run_and_ratefit_and_artifacts(tmp_path):
    config = {
        "problem": {"family": "power_norm", "dimension": 4, "parameters": {"nu": 1.0}},
        "learner": {"kind": "da_sqrt", "start_distance": 1.3541320163922068,
                    "step_scale": 1.25},
        "horizons": [16, 64, 256, 1024],
        "seed": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0

    for t in config["horizons"]:
        assert (out_dir / f"trajectory_T{t}.csv").exists()
    body = (out_dir / "trajectory_T16.csv").read_text()
    assert body.splitlines()[0] == ",".join(TRAJECTORY_COLUMNS)

    summary = json.loads((out_dir / "summary.json").read_text())
    assert len(summary["records"]) == 4
    assert summary["rate_fit"] is not None
    assert summary["rate_fit"]["predicted_slope"] == -1.0

    assert main(["ratefit", "--in", str(out_dir / "summary.json")]) == 0


_REPLAY_PROBLEMS = {
    "quadratic": {"family": "quadratic", "dimension": 3, "minimizer": "random", "seed": 4},
    "power_norm": {"family": "power_norm", "dimension": 3, "parameters": {"nu": 0.5}},
    "l2_norm": {"family": "l2_norm", "dimension": 3, "minimizer": [0.25, -1.0, 0.5]},
    "huber": {"family": "huber", "dimension": 3, "parameters": {"delta": 0.5}},
    "log_sum_exp": {"family": "log_sum_exp", "dimension": 3},
}
_REPLAY_LEARNERS = {
    "ogd_const": {"kind": "ogd_const", "start_distance": 1.7, "step_scale": 1.3},
    "da_sqrt": {"kind": "da_sqrt", "start_distance": 1.7, "step_scale": 1.3},
    "kt": {"kind": "kt", "start_distance": 1.7, "wealth_init": 0.5},
    "adagrad_da": {"kind": "adagrad_da", "start_distance": 1.7, "step_scale": 1.3},
}


def _run_outputs(config, tmp_path, name):
    """(summary records, trajectory bytes per T) of `normgrad run` on config."""
    cfg, out = tmp_path / f"{name}.json", tmp_path / name
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    records = json.loads((out / "summary.json").read_text())["records"]
    return records, {t: (out / f"trajectory_T{t}.csv").read_bytes() for t in config["horizons"]}


@pytest.mark.parametrize("kind", list(_REPLAY_LEARNERS))
@pytest.mark.parametrize("family", list(_REPLAY_PROBLEMS))
def test_written_record_replays_bit_for_bit(family, kind, tmp_path):
    """Each summary record, fed back as a one-horizon config at its T,
    writes the same record and trajectory."""
    config = {"problem": _REPLAY_PROBLEMS[family], "learner": _REPLAY_LEARNERS[kind],
              "horizons": [8, 32, 64], "seed": 2}
    records, trajectories = _run_outputs(config, tmp_path, "first")
    for record in records:
        written = record["config"]
        replay = {"problem": written["problem"], "learner": written["learner"],
                  "horizons": [written["T"]], "seed": written["seed"],
                  "eps_zero": written["eps_zero"]}
        again, again_trajectories = _run_outputs(replay, tmp_path, f"T{written['T']}")
        assert json.dumps(again) == json.dumps([record])
        assert again_trajectories[written["T"]] == trajectories[written["T"]]


def test_cli_run_early_stop_artifact(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(good_config()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    body = (out / "trajectory_T4.csv").read_text()
    assert len(body.strip().splitlines()) == 1 + 2  # header + 2 loss-fed rows
    rec = json.loads((out / "summary.json").read_text())["records"][0]
    assert rec["terminated_early"] is True


def test_cli_config_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**good_config(), "horizons": []}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert main(["run", "--config", str(notjson), "--out", str(tmp_path / "o")]) == 2

    mismatch = tmp_path / "mismatch.json"
    cfg = good_config()
    cfg["learner"]["start"] = [1.0, 2.0]  # problem is 1-dimensional
    mismatch.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(mismatch), "--out", str(tmp_path / "o")]) == 2


def _bad_problem_config(learner=None, **problem):
    return {"problem": {"family": "quadratic", "dimension": 2, **problem},
            "learner": learner or {"kind": "ogd_const", "start_distance": 1.0}, "horizons": [4]}


def _bad_run_config(**learner):
    cfg = good_config()
    cfg["learner"].update(learner)
    return cfg


@pytest.mark.parametrize("case", [
    "step_scale", "start", "grad_bound_init", "wealth_init", "seed", "seed_float",
    "out_is_file", "sweep_seed", "sweep_nu", "check_samples_0", "check_samples_neg",
    "check_seed", "check_out", "ratefit_records_int", "ratefit_list", "ratefit_int",
    "binary_config", "start_overflow", "start_distance_overflow", "eps_zero_inf",
    "horizons_float", "horizons_bool", "seed_bool", "dimension_float", "problem_seed_bool",
    "problem_seed_float", "dimension_huge", "sweep_dimension_huge", "step_scale_inf",
    "wealth_init_inf", "grad_bound_init_inf", "sweep_step_scale_inf",
    "sweep_closed_form_overflow", "sweep_norm_overflow_nu0", "sweep_norm_overflow_nu05",
    "eps_zero_below_floor", "step_scale_str", "step_scale_bool", "wealth_init_str",
    "start_distance_str", "start_str", "eps_zero_str", "eps_zero_bool", "minimizer_str",
    "nu_bool", "delta_bool", "step_scale_huge_int", "huber_unknown_parameter",
    "power_norm_extra_parameter", "learner_unknown_key", "ogd_const_horizon",
    "experiment_unknown_key", "problem_unknown_key", "problem_seed_without_minimizer",
    "problem_seed_with_listed_minimizer", "kt_grad_bound_init", "ogd_const_wealth_init",
    "learner_pairs", "parameters_pairs",
])
def test_cli_bad_input_exit_2_without_traceback(case, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    configs = {
        "step_scale": _bad_run_config(step_scale="abc"),
        "start": _bad_run_config(start=["a", "b"]),
        "grad_bound_init": _bad_run_config(kind="adagrad_da", grad_bound_init="x"),
        "wealth_init": _bad_run_config(kind="kt", wealth_init="x"),
        "seed": {**good_config(), "seed": -1},
        "seed_float": {**good_config(), "seed": 1.5},
        "start_overflow": _bad_run_config(start=[1e200]),
        "start_distance_overflow": {**good_config(),
                                    "learner": {"kind": "ogd_const", "start_distance": 1e308}},
        "eps_zero_inf": {**good_config(), "eps_zero": 1e400},  # JSON reads 1e400 as inf too
        # below sqrt(smallest normal float) a normalized gradient can miss norm 1
        "eps_zero_below_floor": {**good_config(), "eps_zero": 1e-300},
        "horizons_float": {**good_config(), "horizons": [4.9, 8.2]},
        "horizons_bool": {**good_config(), "horizons": [True, 4]},
        "seed_bool": {**good_config(), "seed": True},
        "dimension_float": _bad_problem_config(dimension=2.7),
        "problem_seed_bool": _bad_problem_config(minimizer="random", seed=True),
        "problem_seed_float": _bad_problem_config(minimizer="random", seed=0.5),
        # numpy refuses 8 PB at once, without allocating anything
        "dimension_huge": _bad_problem_config(dimension=10**15),
        "step_scale_inf": _bad_run_config(step_scale=1e400),
        "wealth_init_inf": _bad_run_config(kind="kt", wealth_init=1e400),
        "grad_bound_init_inf": _bad_run_config(kind="adagrad_da", grad_bound_init=1e400),
        # a config real is an int or a float: neither a string nor a bool
        "step_scale_str": _bad_run_config(step_scale="1.5"),
        "step_scale_bool": _bad_run_config(step_scale=True),
        "wealth_init_str": _bad_run_config(kind="kt", wealth_init="2"),
        "start_distance_str": _bad_problem_config(
            learner={"kind": "ogd_const", "start_distance": "3"}),
        "start_str": _bad_problem_config(dimension=3,
                                         learner={"kind": "da_sqrt", "start": ["1", "2", "3"]}),
        "eps_zero_str": {**good_config(), "eps_zero": "1e-12"},
        "eps_zero_bool": {**good_config(), "eps_zero": True},
        "minimizer_str": _bad_problem_config(dimension=3, minimizer=["1", "2", "3"]),
        "nu_bool": _bad_problem_config(family="power_norm", parameters={"nu": True}),
        "delta_bool": _bad_problem_config(family="huber", parameters={"delta": True}),
        "step_scale_huge_int": _bad_run_config(step_scale=10**400),  # no float holds it
        # every key is read or refused: a misspelt or derived field never runs with defaults
        "huber_unknown_parameter": _bad_problem_config(family="huber", parameters={"delat": 0.5}),
        "power_norm_extra_parameter": _bad_problem_config(
            family="power_norm", parameters={"nu": 0.5, "delta": 0.5}),
        "learner_unknown_key": _bad_run_config(**{"step-scale": 2.0}),
        "ogd_const_horizon": _bad_run_config(horizon=5),
        "experiment_unknown_key": {**good_config(), "eps-zero": 1e-3},
        "problem_unknown_key": _bad_problem_config(family="huber", parameter={"delta": 0.5}),
        # a problem seed is read only to draw a random minimizer
        "problem_seed_without_minimizer": _bad_problem_config(seed=7),
        "problem_seed_with_listed_minimizer": _bad_problem_config(minimizer=[0.0, 1.0], seed=7),
        # a record gives only the scales its kind's record writes
        "kt_grad_bound_init": _bad_run_config(kind="kt", grad_bound_init=5.0),
        "ogd_const_wealth_init": _bad_run_config(wealth_init=2.0),
        # a record level is a JSON object, not a list of key-value pairs
        "learner_pairs": {**good_config(),
                          "learner": [["kind", "kt"], ["start_distance", 2.0]]},
        "parameters_pairs": _bad_problem_config(family="huber", parameters=[["delta", 2.0]]),
    }
    unknown_keys = {"huber_unknown_parameter": "'delat'", "power_norm_extra_parameter": "'delta'",
                    "learner_unknown_key": "'step-scale'", "ogd_const_horizon": "'horizon'",
                    "experiment_unknown_key": "'eps-zero'", "problem_unknown_key": "'parameter'",
                    "problem_seed_without_minimizer": "'seed'",
                    "problem_seed_with_listed_minimizer": "'seed'",
                    "kt_grad_bound_init": "'grad_bound_init'",
                    "ogd_const_wealth_init": "'wealth_init'",
                    "learner_pairs": "learner record", "parameters_pairs": "parameters"}
    payloads = {"ratefit_records_int": {"records": 5}, "ratefit_list": [1, 2, 3],
                "ratefit_int": 5}
    overflow_sweep = ["sweep", "--learner", "da_sqrt", "--horizons", "4", "--seeds", "0",
                      "--out", str(out)]
    if case in configs:
        cfg.write_text(json.dumps(configs[case]))
        argv = ["run", "--config", str(cfg), "--out", str(out)]
    elif case == "out_is_file":
        cfg.write_text(json.dumps(good_config()))
        out.write_text("")
        argv = ["run", "--config", str(cfg), "--out", str(out)]
    elif case == "binary_config":
        cfg.write_bytes(b"\xff\xfe\x00")
        argv = ["run", "--config", str(cfg), "--out", str(out)]
    elif case in payloads:
        cfg.write_text(json.dumps(payloads[case]))
        argv = ["ratefit", "--in", str(cfg)]
    else:
        argv = {
            "sweep_seed": ["sweep", "--seeds", "-1"],
            "sweep_nu": ["sweep", "--nu", "0.5", "2"],
            "check_samples_0": ["check", "--samples", "0"],
            "check_samples_neg": ["check", "--samples", "-5"],
            "check_seed": ["check", "--seed", "-1"],
            "check_out": ["check", "--suite", "means_ordering", "--samples", "10",
                          "--out", str(tmp_path / "missing" / "x.json")],
            "sweep_dimension_huge": ["sweep", "--dimension", str(10**15), "--out", str(out)],
            "sweep_step_scale_inf": ["sweep", "--step-scale", "inf", "--out", str(out)],
            # the closed form overflows; then, a norm overflows and the run stops early
            "sweep_closed_form_overflow": overflow_sweep + ["--nu", "0.5", "--step-scale", "1e250"],
            "sweep_norm_overflow_nu0": overflow_sweep + ["--nu", "0", "--step-scale", "1e200"],
            "sweep_norm_overflow_nu05": overflow_sweep + ["--nu", "0.5", "--step-scale", "1e160"],
        }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    if case in unknown_keys:  # one line that names the key
        assert err.count("\n") == 1 and unknown_keys[case] in err
    overflows = ("sweep_closed_form_overflow", "sweep_norm_overflow_nu0",
                 "sweep_norm_overflow_nu05")
    if case in configs or case in ("binary_config", "sweep_dimension_huge",
                                   "sweep_step_scale_inf") + overflows:
        assert not out.exists()
    if case in overflows:  # one line naming the cell, not a bound violation
        assert err.count("\n") == 1 and "not finite [learner=da_sqrt" in err


def test_cli_gradient_overflow_gives_one_stderr_line(capsys):
    argv = ["sweep", "--learner", "da_sqrt", "--nu", "1", "--horizons", "4", "--seeds", "0",
            "--step-scale", "1e308"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: the gradient norm at step 2 is not finite\n"


def test_cli_nonfinite_gradient_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(PowerNorm, "grad", lambda self, x: np.full(x.shape, np.nan))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--nu", "0.5", "--learner", "kt", "--horizons", "4", "--seeds", "0",
            "--dimension", "3", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "step 1" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_failed_write_keeps_existing_out(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    out.write_text("old report")
    argv = ["check", "--suite", "means_ordering", "--samples", "10", "--out", str(out)]

    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", no_space)
        assert main(argv) == 2
    assert out.read_text() == "old report"
    assert os.listdir(tmp_path) == ["report.json"]  # no temp file left behind
    # an --out that is a directory fails at the rename, and cleans up too
    out_dir = tmp_path / "a_dir"
    out_dir.mkdir()
    assert main(argv[:-1] + [str(out_dir)]) == 2
    assert sorted(os.listdir(tmp_path)) == ["a_dir", "report.json"]
    assert main(argv) == 0 and out.read_text() != "old report"


@pytest.mark.parametrize("error", [NumericalFailure("row 2 failed"), RuntimeError("row 2 failed")],
                         ids=["mapped", "unmapped"])
def test_cli_failed_trajectory_row_keeps_existing_file(error, tmp_path, capsys, monkeypatch):
    # a trajectory streams into its temp file, so a row that fails after the
    # first line is written must still leave the old outputs and no temp file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(good_config()))
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(before) == ["summary.json", "trajectory_T4.csv"]

    def first_row_then_fail(cell):
        yield next(trajectory_rows(cell))
        raise error

    monkeypatch.setattr(normgrad.cli, "trajectory_rows", first_row_then_fail)
    if isinstance(error, NumericalFailure):
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: row 2 failed\n"
    else:
        with pytest.raises(RuntimeError, match="row 2 failed"):
            main(argv)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_cli_ratefit_insufficient_data_exit_1(tmp_path, capsys):
    cfg = good_config()  # early stop at T=4 leaves zero usable horizons
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["ratefit", "--in", str(out / "summary.json")]) == 1
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"records": []}))
    capsys.readouterr()
    assert main(["ratefit", "--in", str(empty)]) == 1
    assert capsys.readouterr().err == "insufficient data: no summary records\n"


def test_cli_ratefit_malformed_record_exit_2(tmp_path):
    def record(t, problem):
        return {"config": {"problem": problem, "T": t},
                "terminated_early": False, "f_gap_mean": 1.0 / t}

    power = {"family": "power_norm", "dimension": 2, "parameters": {"nu": 1.0}}
    no_t = [record(t, power) for t in (4, 16, 64)]
    del no_t[1]["config"]["T"]
    cases = {
        "cubic": [record(t, {"family": "cubic", "dimension": 2}) for t in (4, 16, 64)],
        "no_parameters": [record(t, {"family": "power_norm", "dimension": 2})
                          for t in (4, 16, 64)],
        "no_t": no_t,
    }
    for name, records in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"records": records}))
        assert main(["ratefit", "--in", str(path)]) == 2, name
        with pytest.raises(ConfigError, match="bad summary record"):
            rate_fit_from_records(records)


def test_cli_sweep_deterministic_csv(tmp_path):
    args = ["sweep", "--nu", "0.5", "--learner", "kt", "--horizons", "16", "32",
            "--seeds", "0", "--dimension", "3"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_check_report(tmp_path):
    report_path = tmp_path / "report.json"
    code = main(["check", "--suite", "means_ordering", "descent_negative_control",
                 "--samples", "200", "--seed", "1", "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert {s["name"] for s in report["suites"]} == {
        "means_ordering", "descent_negative_control"}
    for suite in report["suites"]:
        assert "worst_slack" in suite and "samples" in suite


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _normgrad(cwd, *args):
    """Run `python -m normgrad` on this checkout's sources in a subprocess."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-m", "normgrad", *args], cwd=cwd, env=env,
                          capture_output=True, check=False)


def test_module_entry_point_prints_what_out_writes(tmp_path):
    for argv in (["check", "--suite", "means_ordering", "--samples", "20", "--seed", "0"],
                 ["sweep", "--nu", "0.5", "--learner", "kt", "--horizons", "4",
                  "--seeds", "0"]):
        printed = _normgrad(tmp_path, *argv)
        written = _normgrad(tmp_path, *argv, "--out", "out")
        assert printed.returncode == written.returncode == 0, printed.stderr
        assert printed.stderr == b""
        assert printed.stdout == (tmp_path / "out").read_bytes()
    bad = _normgrad(tmp_path, "check", "--samples", "0")
    assert bad.returncode == 2 and bad.stdout == b""
    assert bad.stderr.decode().startswith("config error: ")
    assert b"Traceback" not in bad.stderr
