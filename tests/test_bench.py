import ast
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict, replace
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
    DEFAULT_DISTANCE,
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
    _block_rows,
    _in_order,
    _sweep_unit,
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
from normgrad.vectors import chunk_rows

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
            with pytest.raises(ConfigError, match=f"unknown key '{name}'"):
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
    # the gap at step 1 is about 5e-18, which eval - f* would cancel to 0,
    # while ||g_1|| is about 1e-9
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
        assert 0.0 < run.suboptimalities[0] < 1e-16 and run.grad_norms[0] > 1e-12
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


def _record_bits(run) -> list:
    """Every field of a record but its iterates, as bytes or reprs."""
    return [np.asarray(v).tobytes() if isinstance(v, np.ndarray) else repr(v)
            for name, v in vars(run).items() if name != "iterates"]


@pytest.mark.parametrize("problem,start,horizons,stops", [
    # at nu = 1 from distance 1 each step moves 1/sqrt(T) straight at x*, so
    # at a power-of-4 T the iterate lands on x* after sqrt(T) loss-fed steps
    (PowerNorm(1.0, 10), None, (1024, 256, 512, 256, 16), {1024: 32, 256: 16, 16: 4}),
    # a start at x* stops at step 1, before any loss is fed
    (Huber(3), [0.0, 0.0, 0.0], (4, 1, 4), {4: 0, 1: 0}),
], ids=["lands_on_x*", "stops_at_step_1"])
def test_lockstep_cells_equal_run_cell_at_an_early_stop(problem, start, horizons, stops):
    seeds = (0, 1, 2)
    if start is None:
        cells = list(normgrad.bench._grid(normgrad.bench._same, problem, "ogd_const", seeds,
                                          horizons))
    else:
        config = resolve_learner_config(problem, {"kind": "ogd_const", "start": start}, 0)
        cells = [cell for seed in seeds for cell in run_cells(problem, config, horizons, seed)]
    assert [(c.seed, c.horizon) for c in cells] == [(s, h) for s in seeds for h in horizons]
    for cell in cells:
        alone = run_cell(problem, cell.config, cell.horizon, cell.seed)
        assert cell.run.iterates is None
        assert _record_bits(cell.run) == _record_bits(alone.run), cell.label
        assert _cell_outputs(cell) == _cell_outputs(alone)
        steps = stops.get(cell.horizon)  # the loss-fed steps before a stop
        assert cell.run.stop_index == (None if steps is None else steps + 1)
        assert cell.run.steps_taken == (cell.horizon if steps is None else steps)


def test_a_lockstep_block_raises_the_per_cell_walks_first_error(monkeypatch, capsys):
    # NaN gradients wherever x_2 > -0.1: from distance 1 at d = 3, seed 1
    # starts there and fails at step 1, while seed 0 gets there later
    grad = PowerNorm.grad
    monkeypatch.setattr(PowerNorm, "grad", lambda self, x: np.where(
        x[..., 1:2] > -0.1, np.nan, grad(self, x)))
    problem, horizons = PowerNorm(0.5, 3), (64, 16)
    walk = []
    for seed in (0, 1):
        config = resolve_learner_config(problem, {"kind": "ogd_const"}, seed)
        for horizon in horizons:
            with pytest.raises(NumericalFailure) as failure:
                run_cell(problem, config, horizon, seed)
            walk.append(str(failure.value))
    assert " step 1 " not in walk[0] and " step 1 " in walk[2]
    # a walk of run_cell raises seed 0's first cell's error; so does the
    # sweep, in process and with its two blocks in a pool
    argv = ["sweep", "--nu", "0.5", "--learner", "ogd_const", "kt", "--horizons", "64", "16",
            "--seeds", "0", "1", "--dimension", "3"]
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {walk[0]}\n"
        assert not multiprocessing.active_children()


def _sweep_block(block: tuple) -> list:
    """The sweep rows of one (problem, kind, seeds, horizons, distance,
    step_scale) block, a unit of its own, in grid order; its error raised."""
    rows, error = _sweep_unit(block)
    if error is not None:
        raise error
    return _block_rows(rows, len(block[3]))


def test_sweep_runs_each_anytime_learner_once_per_seed(monkeypatch):
    # gradient rows, not calls: an ogd_const block steps its rows as one block
    calls = []
    grad = PowerNorm.grad

    def counted(self, x):
        calls.append(len(x) if x.ndim == 2 else 1)
        return grad(self, x)

    monkeypatch.setattr(PowerNorm, "grad", counted)
    # unsorted, with a repeated horizon
    horizons, seeds = (8, 32, 16, 32), (0, 1)
    problem = PowerNorm(0.5, 3)
    blocks = {}
    # a sweep's blocks may run in forked workers, whose counts stay there,
    # so each block is counted here, in this process
    for kind, grads in (("ogd_const", sum(horizons)), ("da_sqrt", max(horizons)),
                        ("kt", max(horizons)), ("adagrad_da", max(horizons) + 1)):
        calls.clear()
        block = (problem, kind, seeds, horizons, RATE_FIT_DISTANCE, 1.0)
        rows = blocks[block] = _sweep_block(block)
        assert len(rows) == len(horizons) * len(seeds)
        assert all(row["steps_taken"] == row["T"] for row in rows)  # no early stop
        # ogd_const runs every horizon; da_sqrt, kt and adagrad_da each run
        # once per seed, to the longest horizon; adagrad_da's default bound G
        # takes one more gradient, at the start
        assert sum(calls) == len(seeds) * grads, kind
    # dual averaging at distance 1 with alpha 1 lands on x* at step 2 from
    # seed 1; from seed 0 rounding keeps it off, so the two seeds' rows differ
    block = (problem, "da_sqrt", seeds, horizons, 1.0, 1.0)
    rows = blocks[block] = _sweep_block(block)
    assert [row["steps_taken"] for row in rows] == [8, 1, 32, 1, 16, 1, 32, 1]
    # each row sits at its cell's grid position, horizon by horizon and seed
    # by seed within one, and equals the row of that cell run alone
    for (_, kind, _, _, *start), rows in blocks.items():
        alone = [_sweep_block((problem, kind, (seed,), (horizon,), *start))[0]
                 for horizon in horizons for seed in seeds]
        assert [repr(row) for row in rows] == [repr(row) for row in alone], kind


def test_a_multi_row_anytime_unit_streams_its_rows():
    # the default grid's kt unit steps its (nu, seed) rows as one _drive
    # block: none of its records holds an iterate array, and with each
    # row's records dropped once taken, as the sweep drops its cells, the
    # block holds at most each row's grad-norm, gap and dist_sq columns (T
    # float64 each) and one chunk of the block's points
    problems = [PowerNorm(nu, 10) for nu in (0.0, 0.5, 1.0)]
    horizons = tuple(2 ** k for k in range(8, 15))
    rows = [(resolve_learner_config(p, {"kind": "kt"}, seed), p, horizons)
            for p in problems for seed in (0, 1, 2)]
    n, d = len(rows), 10
    ended = []
    tracemalloc.start()
    try:
        for i, records in normgrad.bench._drive(rows):
            ended.append((i, [record.iterates is None for record in records]))
            del records
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(ended) == [(i, [True] * len(horizons)) for i in range(n)]
    assert peak <= n * max(horizons) * 3 * 8 + chunk_rows(n * d) * n * d * 8


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


def _package_nodes():
    """(module.function, node) for every AST node of the package, the
    function being the innermost one that holds the node."""
    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)

    package = Path(__file__).resolve().parents[1] / "src" / "normgrad"
    for module in sorted(package.glob("*.py")):
        for scope, node in walk(ast.parse(module.read_text()), "<module>"):
            yield f"{module.stem}.{scope}", node


def _calls_of(name: str) -> list:
    """Where the package calls a function or method named name, in order."""
    return [where for where, node in _package_nodes() if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_only_grid_and_cmd_run_call_run_cells():
    # every cell grid (sweep, rate experiment, driver suites) walks bench._grid;
    # cmd_run drives one experiment config's horizons
    assert _calls_of("run_cells") == ["bench._grid", "cli.cmd_run"]


def test_only_drive_steps_a_learner():
    # one step loop: _drive steps every learner, ogd_const's too, and is the
    # one function of the reduction that calls an oracle's grad
    assert set(_calls_of("next_point")) == set(_calls_of("observe")) == {"reduction._drive"}
    assert {where for where in _calls_of("grad")
            if where.startswith("reduction.")} == {"reduction._drive"}


def test_only_in_order_makes_a_pool_for_the_sweep_and_the_check():
    # one pool helper: multiprocessing and concurrent.futures are named
    # (imported or read) only in bench._in_order, and only sweep_rows and
    # run_suites map work through it
    def names(node):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""

    for module in ("multiprocessing", "concurrent"):
        named = {where for where, node in _package_nodes()
                 if any(name.split(".")[0] == module for name in names(node))}
        assert named == {"bench._in_order"}, module
    assert _calls_of("_in_order") == ["bench.sweep_rows", "bench.run_suites"]


def test_only_finish_returns_1_and_only_main_returns_2():
    # exit code 1 means "a bound or property failed", and _finish alone decides it;
    # main alone maps an error to 2. A constant counts where the return can
    # evaluate to it, so not inside a call's arguments (json.dumps(..., indent=2))
    def constants(node):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            yield node.value
        if not isinstance(node, ast.Call):
            for child in ast.iter_child_nodes(node):
                yield from constants(child)

    source = Path(normgrad.cli.__file__).read_text()
    returns = {1: set(), 2: set()}
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Return) and node.value is not None:
                    for value in set(constants(node.value)) & returns.keys():
                        returns[value].add(func.name)
    assert returns == {1: {"_finish"}, 2: {"main"}}


def test_sweep_rows_grid_shape_and_bounds():
    rows = list(sweep_rows(nus=(0.0, 1.0), learners=("ogd_const", "adagrad_da"),
                           horizons=(16, 64), seeds=(0,), dimension=4))
    assert len(rows) == 2 * 2 * 2
    for row in rows:
        assert row.pop("_violations") == []
        assert list(row) == list(SWEEP_COLUMNS)
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


def _usable_cpus(monkeypatch, cpus):
    """Make the sweep and check see cpus as the CPUs the process may use."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def test_pooled_sweep_equals_its_blocks_run_in_process(monkeypatch):
    nus, horizons, seeds = (0.0, 0.5), (16, 64), (0, 1)
    expected = [row for nu in nus for kind in LEARNER_KINDS for row in _sweep_block(
        (PowerNorm(nu, 3), kind, seeds, horizons, DEFAULT_DISTANCE, 1.0))]
    _usable_cpus(monkeypatch, 2)
    rows = sweep_rows(nus=nus, horizons=horizons, seeds=seeds, dimension=3)
    first = next(rows)
    assert len(multiprocessing.active_children()) == 2  # the blocks run in a pool
    pooled = [first, *rows]
    # bit for bit: the repr of a float round-trips, and a dict's repr keeps its order
    assert [repr(row) for row in pooled] == [repr(row) for row in expected]
    assert len(pooled) == 2 * 4 * 2 * 2


def test_no_sweep_worker_outlives_its_sweep(monkeypatch, capsys):
    _usable_cpus(monkeypatch, 2)
    grid = {"nus": (0.0, 0.5), "learners": ("kt", "ogd_const"), "horizons": (16,),
            "seeds": (0,), "dimension": 3}
    assert len(list(sweep_rows(**grid))) == 4
    assert not multiprocessing.active_children()
    rows = sweep_rows(**grid)
    next(rows)
    assert multiprocessing.active_children()
    rows.close()
    assert not multiprocessing.active_children()
    # the kt block fails after its 16384-step run, the adagrad_da block at
    # its first step: a pool, like the serial walk, reports the kt block
    argv = ["sweep", "--learner", "kt", "adagrad_da", "--nu", "1", "--horizons", "4", "16384",
            "--seeds", "0", "--distance", "1e200"]
    errors = []
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
        assert not multiprocessing.active_children()
    assert errors[0] == errors[1] == (
        "config error: the measured or mean gap, psi or a bound is not finite "
        "[learner=kt problem=PowerNorm(dimension=10, nu=1.0) T=16384 seed=0]\n")


def test_closing_a_pooled_sweep_cancels_its_pending_units(monkeypatch, tmp_path):
    # a sweep's units are its learner kinds, and a 2-worker pool has handed
    # all four to its workers by the time the first ends: closing the sweep
    # after the first unit's rows waits for the others and leaves no child.
    # Units not yet handed to a worker never run: 16 per-kind units (one
    # seed each), mapped on 2 workers as sweep_rows maps its units, closed
    # after the first. A unit resolves one config per (nu, seed) row, in
    # its worker.
    resolved = _count_calls(monkeypatch, tmp_path / "resolved", "resolve_learner_config",
                            lambda problem, record, seed: f"{record['kind']} {seed}")
    _usable_cpus(monkeypatch, 2)
    nus, horizons = [k / 4 for k in range(4)], (1024,)
    rows = sweep_rows(nus=nus, horizons=horizons, seeds=(0, 1, 2), dimension=3)
    assert next(rows)["learner"] == LEARNER_KINDS[0]
    rows.close()
    assert not multiprocessing.active_children()
    assert {line.split()[0] for line in resolved()} <= set(LEARNER_KINDS)
    problems = tuple(PowerNorm(nu, 3) for nu in nus)
    units = [(problems, kind, (seed,), horizons, DEFAULT_DISTANCE, 1.0)
             for seed in range(4) for kind in LEARNER_KINDS]
    results = _in_order(_sweep_unit, units)
    assert len(next(results)[0]) == len(nus)
    results.close()
    assert not multiprocessing.active_children()
    assert 1 <= len(set(resolved())) < 16


def test_a_task_that_cannot_pickle_is_refused_before_the_pool_starts():
    # on Python 3.11 such a task would leave the pool's shutdown waiting for
    # ever; run in a child under a timeout, so a regression cannot hang here
    probe = ("import multiprocessing, os\n"
             "os.sched_getaffinity = lambda pid: {0, 1}\n"
             "from normgrad.bench import _in_order\n"
             "try:\n"
             "    list(_in_order(lambda x: x, [1, 2, 3]))\n"
             "except Exception as exc:\n"
             "    print(type(exc).__name__, len(multiprocessing.active_children()))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=_package_env(), capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out in ("PicklingError 0\n", "AttributeError 0\n")


def test_importing_the_cli_leaves_multiprocessing_out():
    # setup stays lean: the sweep and check import multiprocessing and
    # concurrent.futures only to make a pool
    probe = ("import sys, normgrad.cli; "
             "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=_package_env(), capture_output=True,
                         check=True, text=True).stdout
    assert out == "False False\n"


def _package_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


# A pooled command on 2 usable CPUs, one of whose tasks first touches the
# file named by argv[2]; argv[3] names the task function to wrap and argv[4]
# the item that SIGKILLs its own worker ("" for none). After main returns,
# it prints the children left, and exits with main's code.
_POOLED = """
import multiprocessing, os, signal, sys
import normgrad.bench as bench
from normgrad.cli import main
os.sched_getaffinity = lambda pid: {0, 1}
marker, name, victim = sys.argv[2:5]
task = getattr(bench, name)

def wrapped(item):
    open(marker, "a").close()
    if victim and victim in repr(item):
        os.kill(os.getpid(), signal.SIGKILL)
    return task(item)

setattr(bench, name, wrapped)
code = main(sys.argv[5:])
print(len(multiprocessing.active_children()))
sys.exit(code)
"""


@pytest.mark.parametrize("name,victim,argv", [
    ("_sweep_unit", "'kt'", ["sweep", "--horizons", "16", "256", "--seeds", "0", "1"]),
    ("_check_task", "('kt', PowerNorm", ["check", "--samples", "100"]),
], ids=["sweep", "check"])
def test_a_dead_pool_worker_ends_the_command(name, victim, argv, tmp_path):
    # a pool worker that dies takes its task with it: the command ends with
    # one stderr line and exit 2, and leaves no child, instead of waiting
    done = subprocess.run(
        [sys.executable, "-c", _POOLED, "", str(tmp_path / "marker"), name, victim, *argv,
         "--out", str(tmp_path / "out")],
        env=_package_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: a worker process died")
    assert len(done.stderr.splitlines()) == 1
    assert done.stdout.splitlines()[-1] == "0"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,argv", [("_sweep_unit", ["sweep"]),
                                       ("_check_task", ["check", "--samples", "10000"])],
                         ids=["sweep", "check"])
def test_ctrl_c_ends_a_pooled_command_with_one_line_and_exit_130(name, argv, tmp_path):
    # SIGINT to the command's process group, as Ctrl-C sends it, once a
    # worker runs a task: the workers ignore it, the parent stops the pool
    marker = tmp_path / "marker"
    child = subprocess.Popen(
        [sys.executable, "-c", _POOLED, "", str(marker), name, "", *argv,
         "--out", str(tmp_path / "out")],
        env=_package_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        for _ in range(600):
            if marker.exists() or child.poll() is not None:
                break
            time.sleep(0.05)
        time.sleep(0.2)  # every worker has set its SIGINT handler by now
        os.killpg(child.pid, signal.SIGINT)
        out, err = child.communicate(timeout=120)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    assert (child.returncode, err) == (130, "interrupted\n")
    assert out.splitlines()[-1] == "0"
    assert not (tmp_path / "out").exists()


def test_rows_to_csv_deterministic():
    rows = list(sweep_rows(nus=(0.5,), learners=("kt",), horizons=(16, 32), seeds=(0, 1),
                           dimension=3))
    for row in rows:
        row.pop("_violations")
    body1 = "".join(rows_to_csv(rows, SWEEP_COLUMNS))
    rows2 = list(sweep_rows(nus=(0.5,), learners=("kt",), horizons=(16, 32), seeds=(0, 1),
                            dimension=3))
    for row in rows2:
        row.pop("_violations")
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
              "suites": [asdict(r) for r in default_check]}
    assert report == reference, f"{kernel_note}\n{json_diff(report, reference)}"


def _count_calls(monkeypatch, path, name, key):
    """Patch normgrad.bench.<name> to append key(*args) to the file at path,
    one line per call, so that the calls a forked worker makes count too;
    returns a function that reads the lines and empties the file."""
    fn = getattr(normgrad.bench, name)

    def counted(*args):
        with open(path, "a") as f:
            f.write(key(*args) + "\n")
        return fn(*args)

    def taken():
        lines = path.read_text().splitlines() if path.exists() else []
        path.unlink(missing_ok=True)
        return lines

    monkeypatch.setattr(normgrad.bench, name, counted)
    return taken


def test_driver_suites_share_one_pass_of_ogd_const_runs(monkeypatch, tmp_path):
    # driven cells: one per run_normalized call, one per row of a _drive block
    calls = _count_calls(monkeypatch, tmp_path / "runs", "run_normalized",
                         lambda config, *args: config.kind)
    _count_calls(monkeypatch, tmp_path / "runs", "_drive",
                 lambda rows, *args: "\n".join(config.kind for config, _, _ in rows))
    resolves = _count_calls(monkeypatch, tmp_path / "resolves", "resolve_learner_config",
                            lambda problem, record, seed: record["kind"])
    names = ["bounded_iterates", "reduction_chain"]
    alone = [asdict(SUITES[name](10, 0)) for name in names]
    ran, resolved = calls(), resolves()
    assert len(ran) == 45 + 55 and len(resolved) == 5 + 5 * 3
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        for order in (names, names[::-1]):
            together = run_suites(order, 10, 0)
            ran, resolved = calls(), resolves()
            # 5 families x 9 horizons of ogd_const, run once for both suites, and
            # one run to the longest horizon per family for da_sqrt and for kt
            assert len(ran) == 55 and ran.count("ogd_const") == 45
            # one learner record resolved per family and kind, whatever the horizons
            assert len(resolved) == 5 * 3 and resolved.count("ogd_const") == 5
            assert [asdict(r) for r in together] == [alone[names.index(n)] for n in order]


def test_oracle_patched_between_run_suites_calls_changes_the_second(monkeypatch):
    names = ["bounded_iterates", "reduction_chain"]
    first = [asdict(r) for r in run_suites(names, 10, 0)]
    grad = Huber.grad
    # a gradient off by 0.1 in every coordinate moves every huber run
    monkeypatch.setattr(Huber, "grad", lambda self, x: grad(self, x) + 0.1)
    second = [asdict(r) for r in run_suites(names, 10, 0)]
    assert all(a != b for a, b in zip(first, second))


def test_each_suite_alone_equals_its_entry_in_run_suites():
    together = run_suites(samples=10)
    assert [asdict(r) for r in together] == [asdict(SUITES[name](10, 0)) for name in SUITES]


@pytest.mark.parametrize("names", [
    ["bounded_iterates", "reduction_chain"],
    ["reduction_chain", "bounded_iterates"],
    ["bounded_iterates", "descent"],
])
def test_each_chain_pass_runs_once_per_call(names, monkeypatch, tmp_path):
    passes = _count_calls(
        monkeypatch, tmp_path / "passes", "resolve_learner_config",
        lambda problem, record, seed: f"{record['kind']} {problem.family} {os.getpid()}")
    kinds = ("ogd_const", "da_sqrt", "kt") if "reduction_chain" in names else ("ogd_const",)
    expected = sorted(f"{kind} {family}" for kind in kinds for family in FAMILIES)
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        run_suites(names, 10, 0)
        ran = [line.rsplit(" ", 1) for line in passes()]
        # each (kind, family) pass resolves its record once: in this process
        # on one CPU, in the pool's workers on two
        assert sorted(kind_family for kind_family, _ in ran) == expected
        assert {pid == str(os.getpid()) for _, pid in ran} == {cpus == 1}


def test_pooled_check_equals_the_in_process_check(monkeypatch, tmp_path, capsys):
    names = [None, ["bounded_iterates"], ["reduction_chain", "bounded_iterates"],
             ["means_ordering", "descent"], ["descent", "descent"]]

    def raising(samples, seed):
        raise NumericalFailure("convexity broke")

    runs = []
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        results = []
        for chosen in names:
            results.append([asdict(r) for r in run_suites(chosen, 10, 0)])
            assert not multiprocessing.active_children()
        out = tmp_path / f"check_{cpus}.json"
        assert main(["check", "--samples", "300", "--out", str(out)]) == 0
        assert not multiprocessing.active_children()
        capsys.readouterr()
        with monkeypatch.context() as patched:
            patched.setitem(SUITES, "convexity", raising)
            assert main(["check", "--samples", "300"]) == 2
            assert not multiprocessing.active_children()
            with pytest.raises(NumericalFailure):
                run_suites(None, 10, 0)
            assert not multiprocessing.active_children()
        runs.append((results, out.read_bytes(), capsys.readouterr()))
    assert runs[0] == runs[1]
    results, report, (out, err) = runs[0]
    assert [len(r) for r in results] == [10, 1, 2, 2, 2] and results[4][0] == results[4][1]
    assert json.loads(report)["passed"] and out == ""
    assert err == "config error: convexity broke\n"


# Failures at 10^4 samples and seed 0 when one family declares 0.9 times its
# constant. No suite catches log_sum_exp, whose declared L = 1 is loose at d = 3.
_SCALED_CONSTANT_FAILURES = {
    "quadratic": {"descent": 10_000, "grad_bound": 10_000, "holder_sampling": 10,
                  "local_constant": 10_000},
    "power_norm": {"descent": 11, "holder_sampling": 10},
    "l2_norm": {"holder_sampling": 10},
    "huber": {"grad_bound": 7, "local_constant": 7},
}


@pytest.mark.parametrize("family", list(_SCALED_CONSTANT_FAILURES))
def test_suites_catch_a_constant_scaled_by_0_9_on_each_family(family, default_check,
                                                              monkeypatch):
    names = ("descent", "grad_bound", "holder_sampling", "local_constant")
    assert all(r.failures == 0 for r in default_check if r.name in names)
    canonical = normgrad.bench.canonical_problems

    def corrupted(dimension=3):
        problems = canonical(dimension)
        for problem in problems:
            if problem.family == family:
                problem.spec = replace(problem.spec, l_nu=0.9 * problem.spec.l_nu)
        return problems

    monkeypatch.setattr(normgrad.bench, "canonical_problems", corrupted)
    failures = {name: SUITES[name](10_000, 0).failures for name in names}
    assert {name: n for name, n in failures.items() if n} == _SCALED_CONSTANT_FAILURES[family]


# Failures at 10^4 samples and seed 0 when one family declares its optimum
# moved by shift. Only the suites that read the optimum run, and
# reduction_chain only at -1e-3: the two gradient-norm suites catch nothing
# there. At +1e-3 no sampling suite catches power_norm, l2_norm or log_sum_exp.
_SHIFTED_OPTIMUM_FAILURES = {
    ("quadratic", -1e-3): {"reduction_chain": 6},
    ("power_norm", -1e-3): {"reduction_chain": 18},
    ("l2_norm", -1e-3): {"reduction_chain": 11},
    ("huber", -1e-3): {"reduction_chain": 6},
    ("log_sum_exp", -1e-3): {"reduction_chain": 40},
    ("quadratic", 1e-3): {"grad_bound": 10_000, "local_constant": 10_000},
    ("huber", 1e-3): {"grad_bound": 6, "local_constant": 6},
}


@pytest.mark.parametrize("family, shift", list(_SHIFTED_OPTIMUM_FAILURES))
def test_suites_catch_a_shifted_optimum_on_each_family(family, shift, default_check,
                                                       monkeypatch):
    names = ("grad_bound", "local_constant") + (("reduction_chain",) if shift < 0 else ())
    assert all(r.failures == 0 for r in default_check if r.name in names)
    canonical = normgrad.bench.canonical_problems

    def corrupted(dimension=3):
        problems = canonical(dimension)
        for problem in problems:
            if problem.family == family:
                problem.optimum += shift
        return problems

    monkeypatch.setattr(normgrad.bench, "canonical_problems", corrupted)
    failures = {name: SUITES[name](10_000, 0).failures for name in names}
    assert {name: n for name, n in failures.items() if n} == _SHIFTED_OPTIMUM_FAILURES[
        (family, shift)]


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
    "learner_pairs", "parameters_pairs", "start_and_start_distance", "start_null",
    "family_object", "family_list", "horizons_null", "horizons_int", "horizons_str",
    "minimizer_int", "problem_seed_negative", "missing_problem", "missing_learner",
    "missing_horizons", "missing_kind", "minimizer_wrong_length", "minimizer_word",
    "learner_unknown_kind_with_scale", "grad_bound_init_huge", "sweep_adagrad_overflow_nu1",
    "start_distance_not_finite", "sweep_distance_inf",
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
        # the floor, about 1.49e-154, keeps each weight 1/||g|| below 6.7e153
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
        # a start comes from one key: never both, and null is not "absent"
        "start_and_start_distance": _bad_run_config(start_distance=0.5),
        "start_null": _bad_run_config(start=None),
        # each level's shape is checked where it is read, and the refusal names its key
        "family_object": _bad_problem_config(family={}),
        "family_list": _bad_problem_config(family=["huber"]),
        "horizons_null": {**good_config(), "horizons": None},
        "horizons_int": {**good_config(), "horizons": 5},
        "horizons_str": {**good_config(), "horizons": "16"},
        "minimizer_int": _bad_problem_config(minimizer=5),
        "problem_seed_negative": _bad_problem_config(minimizer="random", seed=-1),
        "missing_problem": {k: v for k, v in good_config().items() if k != "problem"},
        "missing_learner": {k: v for k, v in good_config().items() if k != "learner"},
        "missing_horizons": {k: v for k, v in good_config().items() if k != "horizons"},
        "missing_kind": {**good_config(), "learner": {"start": [1.0]}},
        "minimizer_wrong_length": _bad_problem_config(minimizer=[0.0, 1.0, 2.0]),
        "minimizer_word": _bad_problem_config(minimizer="origin"),
        # the kind is checked before the keys it allows, so the refusal names the kind
        "learner_unknown_kind_with_scale": _bad_run_config(kind="adagrad", step_scale=2.0),
        # finite, but adagrad_da's G ** 2 overflows at step 1
        "grad_bound_init_huge": _bad_run_config(kind="adagrad_da", grad_bound_init=1e200),
        # finite coordinates, but the start's norm is past the largest float
        "start_distance_not_finite": _bad_problem_config(
            learner={"kind": "ogd_const", "start": [1.7e308, 1.7e308]}),
    }
    unknown_keys = {"huber_unknown_parameter": "'delat'", "power_norm_extra_parameter": "'delta'",
                    "learner_unknown_key": "'step-scale'", "ogd_const_horizon": "'horizon'",
                    "experiment_unknown_key": "'eps-zero'", "problem_unknown_key": "'parameter'",
                    "problem_seed_without_minimizer": "'seed'",
                    "problem_seed_with_listed_minimizer": "'seed'",
                    "kt_grad_bound_init": "'grad_bound_init'",
                    "ogd_const_wealth_init": "'wealth_init'",
                    "learner_pairs": "learner record", "parameters_pairs": "parameters",
                    "start_and_start_distance": "'start' or 'start_distance'",
                    "start_null": "'start'", "family_object": "'family'",
                    "family_list": "'family'", "horizons_null": "'horizons'",
                    "horizons_int": "'horizons'", "horizons_str": "'horizons'",
                    "minimizer_int": "'minimizer'", "problem_seed_negative": "'seed'",
                    "missing_problem": "missing key 'problem'",
                    "missing_learner": "missing key 'learner'",
                    "missing_horizons": "missing key 'horizons'",
                    "missing_kind": "missing key 'kind'",
                    "minimizer_wrong_length": "minimizer has dimension 3",
                    "minimizer_word": "'minimizer'",
                    "learner_unknown_kind_with_scale": "unknown learner kind 'adagrad'",
                    "grad_bound_init_huge": "step 1 overflows",
                    "sweep_adagrad_overflow_nu1": "step 1 overflows",
                    "start_distance_not_finite": "distance from the minimizer is not finite",
                    "sweep_distance_inf": "distance from the minimizer is not finite"}
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
            # the closed form overflows; then, an iterate's squared distance overflows
            "sweep_closed_form_overflow": overflow_sweep + ["--nu", "0.5", "--step-scale", "1e250"],
            "sweep_norm_overflow_nu0": overflow_sweep + ["--nu", "0", "--step-scale", "1e200"],
            "sweep_norm_overflow_nu05": overflow_sweep + ["--nu", "0.5", "--step-scale", "1e160"],
            # a finite start whose default G, its gradient norm, is about 1e200
            "sweep_adagrad_overflow_nu1": ["sweep", "--learner", "adagrad_da", "--nu", "1",
                                           "--horizons", "4", "--seeds", "0",
                                           "--distance", "1e200", "--out", str(out)],
            "sweep_distance_inf": overflow_sweep + ["--nu", "1", "--distance", "inf"],
        }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    if case in unknown_keys:  # one line that names the key
        assert err.count("\n") == 1 and unknown_keys[case] in err
    overflows = ("sweep_closed_form_overflow", "sweep_norm_overflow_nu0",
                 "sweep_norm_overflow_nu05")
    # a run that fails at a step, as grad_bound_init_huge does, may have made --out
    if (case in configs and case != "grad_bound_init_huge") or case in (
            "binary_config", "sweep_dimension_huge", "sweep_step_scale_inf",
            "sweep_adagrad_overflow_nu1", "sweep_distance_inf") + overflows:
        assert not out.exists()
    if case in overflows:  # one line naming the cell, not a bound violation
        assert err.count("\n") == 1 and "not finite [learner=da_sqrt" in err
    if case == "sweep_adagrad_overflow_nu1":  # the step's failure names its cell
        assert err.endswith("step 1 overflows [learner=adagrad_da "
                            "problem=PowerNorm(dimension=10, nu=1.0) T=4 seed=0]\n")


def test_cli_gradient_overflow_gives_one_stderr_line(capsys):
    argv = ["sweep", "--learner", "da_sqrt", "--nu", "1", "--horizons", "4", "--seeds", "0",
            "--step-scale", "1e308"]
    assert main(argv) == 2
    # step 2's gradient norm, 1e308, is finite; the cell's mean gap and closed form are not
    assert capsys.readouterr().err == (
        "config error: the measured or mean gap, psi or a bound is not finite "
        "[learner=da_sqrt problem=PowerNorm(dimension=10, nu=1.0) T=4 seed=0]\n")


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
    # three records at one horizon give log T no spread to fit against
    same_t = tmp_path / "same_t.json"
    same_t.write_text(json.dumps([{"config": {"problem": {"family": "quadratic", "dimension": 2},
                                              "T": 16},
                                   "terminated_early": False, "f_gap_mean": gap}
                                  for gap in (0.5, 0.25, 0.125)]))
    assert main(["ratefit", "--in", str(same_t)]) == 1
    assert capsys.readouterr().err == ("insufficient data: rate fit needs >= 3 distinct "
                                       "horizons with positive suboptimality, got 1\n")


def test_cli_ratefit_malformed_record_exit_2(tmp_path, capsys):
    def record(t, problem):
        return {"config": {"problem": problem, "T": t},
                "terminated_early": False, "f_gap_mean": 1.0 / t}

    def with_field(**field):
        records = [record(t, power) for t in (4, 16, 64)]
        records[1].update(field)
        return records

    power = {"family": "power_norm", "dimension": 2, "parameters": {"nu": 1.0}}
    no_t = [record(t, power) for t in (4, 16, 64)]
    del no_t[1]["config"]["T"]
    t_float = [record(t, power) for t in (4, 16.5, 64)]
    cases = {
        "cubic": [record(t, {"family": "cubic", "dimension": 2}) for t in (4, 16, 64)],
        "no_parameters": [record(t, {"family": "power_norm", "dimension": 2})
                          for t in (4, 16, 64)],
        "no_t": no_t,
        # each field the fit reads has one type: no NaN fit, no traceback
        "t_float": t_float,
        "f_gap_mean_inf": with_field(f_gap_mean=1e400),  # JSON reads 1e400 as inf
        "f_gap_mean_bool": with_field(f_gap_mean=True),
        "terminated_early_str": with_field(terminated_early="no"),
    }
    keys = {"no_t": "'T'", "t_float": "T must be", "f_gap_mean_inf": "f_gap_mean",
            "f_gap_mean_bool": "f_gap_mean", "terminated_early_str": "terminated_early"}
    for name, records in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"records": records}))
        assert main(["ratefit", "--in", str(path)]) == 2, name
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and keys.get(name, "bad summary record") in err, err
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
