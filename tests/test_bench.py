import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from normgrad import (
    ContractViolation,
    LearnerConfig,
    LogSumExp,
    PowerNorm,
    Quadratic,
    closed_form_rate,
    local_constant_from_parts,
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
from normgrad.learners import ANYTIME_KINDS, LEARNER_KINDS


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
    cfg = resolve_learner_config(p, {"kind": "kt", "start_distance": 2.0}, 16, seed=5)
    assert np.linalg.norm(cfg.start - p.minimizer) == pytest.approx(2.0, rel=1e-12)
    cfg2 = resolve_learner_config(p, {"kind": "kt", "start_distance": 2.0}, 16, seed=5)
    assert np.array_equal(cfg.start, cfg2.start)

    explicit = resolve_learner_config(p, {"kind": "da_sqrt", "start": [1, 0, 0, 0]}, 16, 0)
    assert np.array_equal(explicit.start, np.array([1.0, 0, 0, 0]))

    ogd = resolve_learner_config(p, {"kind": "ogd_const"}, 32, 0)
    assert ogd.horizon == 32

    ada = resolve_learner_config(p, {"kind": "adagrad_da", "start": [3.0, 0, 0, 0]}, 8, 0)
    assert ada.grad_bound_init == pytest.approx(3.0, rel=1e-12)
    ada_small = resolve_learner_config(p, {"kind": "adagrad_da", "start": [0.1, 0, 0, 0]}, 8, 0)
    assert ada_small.grad_bound_init == 1.0


# --- cells, trajectories, summaries -------------------------------------------


def test_run_cell_trajectory_and_summary():
    p = Quadratic(1)
    cell = run_cell(p, {"kind": "ogd_const", "start": [1.0]}, 4, seed=0)
    rows = trajectory_rows(cell)
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
        cell = run_cell(p, {"kind": "kt", "start_distance": 1.0}, horizon, seed=0)
        assert cell.report.measured <= cell.report.bound_closed_form
        assert not bound_violations(cell)


def test_kt_closed_form_distance_ratio():
    # bound ratio across start distances follows the closed form itself
    p10 = Quadratic(4)
    t = 1024
    kt1 = LearnerConfig(kind="kt", start=np.array([1.0, 0, 0, 0]))
    kt10 = LearnerConfig(kind="kt", start=np.array([10.0, 0, 0, 0]))
    b1 = closed_form_rate("kt", p10, kt1, t)
    b10 = closed_form_rate("kt", p10, kt10, t)
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
    cell = run_cell(problem, {"kind": kind, "start_distance": distance}, 16, seed=0)
    run = cell.run
    assert run.steps_taken == 16
    if kind == "adagrad_da":
        assert run.weights == [1.0] * 16
    else:
        assert run.weights == [1.0 / gn for gn in run.grad_norms]
    at_optimum = [problem.spec.nu > 0.0 and gap == 0.0 for gap in run.suboptimalities]
    if distance == 1e-8:
        assert at_optimum[0] and run.grad_norms[0] > 1e-12
    assert [c is None for c in run.local_constants] == at_optimum
    assert all(c == local_constant_from_parts(problem.spec, gn, gap)
               for c, gn, gap in zip(run.local_constants, run.grad_norms,
                                     run.suboptimalities) if c is not None)
    rows = trajectory_rows(cell)
    assert [row["local_L"] == "" for row in rows] == at_optimum
    assert [row["weight"] for row in rows] == run.weights
    # one vecdot over the rows equals one dot product per visited point
    center = problem.minimizer
    assert _visited_dist_sq(run, center) == [
        float(np.dot(x - center, x - center)) for x in run.iterates]


def _cell_outputs(cell):
    """Everything a cell reports: its summary, trajectory, bound report and
    the largest squared distance it visited."""
    dists = _visited_dist_sq(cell.run, cell.problem.minimizer)
    return (summary_record(cell), trajectory_rows(cell), cell.report, max(dists, default=0.0))


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
    shared = [_cell_outputs(c) for c in run_cells(problem, record, horizons, seed=3)]
    alone = [_cell_outputs(run_cell(problem, record, h, seed=3)) for h in horizons]
    assert [s["config"]["T"] for s, *_ in shared] == list(horizons)
    assert shared == alone
    if record.get("start_distance") == 1.0:
        flag = "terminated_early" if kind == "da_sqrt" else "grad_bound_exceeded"
        assert [s[flag] for s, *_ in shared[:2]] == [True, False]


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
    body1 = rows_to_csv(rows, SWEEP_COLUMNS)
    rows2 = list(sweep_rows(nus=(0.5,), learners=("kt",), horizons=(16, 32), seeds=(0, 1),
                            dimension=3))
    for row in rows2:
        row.pop("_cell")
    body2 = rows_to_csv(rows2, SWEEP_COLUMNS)
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


def test_driver_suites_match_reference_report():
    reference = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
         / "check_default.json").read_text())
    expected = {s["name"]: s for s in reference["suites"]}
    names = ["gradient_check", "convexity", "holder_sampling", "local_constant",
             "bounded_iterates", "reduction_chain"]
    for res in run_suites(names, 10_000, 0):
        assert res.as_dict() == expected[res.name]


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suites(["nope"], samples=10, seed=0)


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


def _bad_problem_config(**problem):
    return {"problem": {"family": "quadratic", "dimension": 2, **problem},
            "learner": {"kind": "ogd_const", "start_distance": 1.0}, "horizons": [4]}


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
    }
    payloads = {"ratefit_records_int": {"records": 5}, "ratefit_list": [1, 2, 3],
                "ratefit_int": 5}
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
        }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    if case in configs or case in ("binary_config", "sweep_dimension_huge",
                                   "sweep_step_scale_inf"):
        assert not out.exists()


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


def test_cli_ratefit_insufficient_data_exit_1(tmp_path):
    cfg = good_config()  # early stop at T=4 leaves zero usable horizons
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["ratefit", "--in", str(out / "summary.json")]) == 1


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
