"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    GATED,
    REFERENCE_DIR,
    RUN_LONG_HORIZON,
    WORKLOADS,
    reported_violations,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# --- span arithmetic -----------------------------------------------------------


def _traced_pair():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.now += 1.0

    leaf_w = tracer.aggregate("leaf", leaf)

    def mid():
        clock.now += 2.0
        leaf_w()
        leaf_w()
        clock.now += 0.5
        return "done"

    mid_w = tracer.span("mid", mid, annotate=lambda result: {"result": result})
    assert mid_w() == "done"
    return tracer.as_dict()["tree"]


def test_self_time_subtracts_children():
    tree = _traced_pair()
    mid = tree["children"][0]
    assert mid["name"] == "mid" and mid["kind"] == "span"
    assert mid["total_s"] == 4.5 and mid["attrs"] == {"result": "done"}
    assert mid["children"][0] == {"name": "leaf", "kind": "agg", "calls": 2, "total_s": 2.0,
                                  "start_s": 0.0, "attrs": {}, "children": []}
    stats = spans.layer_stats(tree, inner=0.0, outer=0.0)
    assert stats["mid"] == {"calls": 1, "self_s": 2.5}
    assert stats["leaf"] == {"calls": 2, "self_s": 2.0}


def test_wrapper_costs_are_removed_consistently():
    tree = _traced_pair()
    stats = spans.layer_stats(tree, inner=0.1, outer=0.05)
    assert stats["leaf"]["self_s"] == pytest.approx(2.0 - 2 * 0.1)
    assert stats["mid"]["self_s"] == pytest.approx(2.5 - 2 * 0.05 - 0.1)
    mid = tree["children"][0]
    total = spans.corrected_total(mid, 0.1, 0.05)
    assert total == pytest.approx(stats["leaf"]["self_s"] + stats["mid"]["self_s"])


def test_aggregate_keeps_stack_balanced_on_error():
    tracer = spans.Tracer(FakeClock())

    def boom():
        raise ValueError("x")

    wrapped = tracer.aggregate("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.stack == [tracer.root]
    assert tracer.root.children["boom"].calls == 1


def _node(name, kind, calls, total, attrs=None, children=()):
    return {"name": name, "kind": kind, "calls": calls, "total_s": total, "start_s": 0.0,
            "attrs": attrs or {}, "children": list(children)}


def test_layer_metrics_from_a_written_tree():
    driver = _node("reduction.run_normalized", "span", 1, 10.0,
                   {"steps": 4, "early_stop": 1, "record_bytes": 320}, [
                       _node("problems.huber.grad", "agg", 5, 2.0),
                       _node("learners.kt.observe", "agg", 4, 1.0),
                       _node("vectors.l2_norm", "agg", 5, 1.0),
                   ])
    cell = _node("bench.run_cell", "span", 1, 12.0, {"steps": 4}, [
        driver, _node("reduction.bound_report", "agg", 1, 1.0)])
    tree = _node("root", "span", 0, 0.0, children=[_node("job", "span", 1, 13.0, children=[
        cell, _node("problems.huber.distance_to_nonsmooth", "agg", 8, 0.5),
        _node("cli.format.rows_to_csv", "agg", 1, 0.25)])])
    trace = {"tree": tree, "counters": {"accepted_points": 6}}
    m = spans.layer_metrics(trace, inner=0.0, outer=0.0, output_bytes=99, overhead_ratio=0.2)
    assert list(m) == [name for name, _, _ in spans.LAYER_METRICS]
    assert m["problems.huber.grad.calls"] == 5
    assert m["problems.huber.grad.us"] == pytest.approx(2.0 / 5 * 1e6)
    assert m["problems.quadratic.grad.calls"] == 0 and m["problems.quadratic.grad.us"] == 0.0
    assert m["problems.sample_accept_ratio"] == 6 / 8
    assert m["reduction.steps"] == 4 and m["reduction.early_stops"] == 1
    assert m["reduction.record_bytes"] == 320
    assert m["reduction.driver_self_us_per_step"] == pytest.approx((10.0 - 4.0) / 4 * 1e6)
    assert m["bench.grad_calls_per_step"] == 5 / 4
    assert m["bench.run_cell.calls"] == 1
    assert m["bench.run_cell.us_per_step.p50"] == pytest.approx(12.0 / 4 * 1e6)
    assert m["cli.format.s"] == 0.25 and m["cli.output.bytes"] == 99
    assert m["trace.overhead_ratio"] == 0.2


def test_calibrate_is_positive_and_small():
    inner, outer = spans.calibrate(calls=2000, repeats=3)
    assert 0.0 < inner < 1e-4
    assert outer < 1e-4


def test_traced_child_counts_one_sweep_cell(tmp_path):
    result, trace = tmp_path / "result.json", tmp_path / "trace.json"
    out = tmp_path / "sweep.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["sweep", "--nu", "0.5", "--learner", "kt", "--horizons", "64", "--seeds", "3",
            "--out", str(out)]
    subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "trace", str(result),
                    str(trace), "--"] + argv, env=env, check=True, cwd=ROOT, timeout=120)
    res = json.loads(result.read_text())
    assert res["rc"] == 0 and res["wall_s"] > 0.0 and res["setup_s"] > 0.0
    m = spans.layer_metrics(json.loads(trace.read_text()), res["timer_inner_s"],
                            res["timer_outer_s"], out.stat().st_size, 0.0)
    steps = int(out.read_text().splitlines()[1].split(",")[4])
    assert m["reduction.steps"] == steps == 64
    assert m["reduction.run_normalized.calls"] == 1 and m["bench.run_cell.calls"] == 1
    assert m["learners.kt.observe.calls"] == m["learners.kt.next_point.calls"] == 64
    assert m["problems.power_norm.grad.calls"] == 64
    assert m["bench.grad_calls_per_step"] == 1.0
    assert m["reduction.record_bytes"] == 64 * 10 * 8


# --- reference comparison ------------------------------------------------------


def _sweep_out(tmp_path, text=None):
    out = tmp_path / "out"
    out.mkdir()
    body = text if text is not None else (REFERENCE_DIR / "sweep_default.csv").read_text()
    (out / "sweep.csv").write_text(body)
    return out


def test_sweep_reference_matches_itself(tmp_path):
    outcome = WORKLOADS["sweep_default"].evaluate(0, _sweep_out(tmp_path), "", False)
    assert (outcome.attempted, outcome.failed, outcome.work) == (252, 0, 780843)
    assert "reference: 252/252 rows match" in outcome.notes


def test_sweep_counts_changed_missing_and_reported_rows(tmp_path):
    lines = (REFERENCE_DIR / "sweep_default.csv").read_text().splitlines(keepends=True)
    changed = lines[1].split(",")
    changed[7] = repr(float(changed[7]) * (1 + 1e-15) + 1e-300)
    lines[1] = ",".join(changed)
    del lines[2]
    out = _sweep_out(tmp_path, "".join(lines))
    label = "learner=kt problem=PowerNorm(dimension=10, nu=1.0) T=16384 seed=2"
    stderr = f"bound violation: measured 1.0 > closed-form bound 0.5 [{label}]\n"
    outcome = WORKLOADS["sweep_default"].evaluate(0, out, stderr, False)
    assert outcome.failed == 3


def test_sweep_rechecks_bounds_at_any_seed(tmp_path):
    lines = (REFERENCE_DIR / "sweep_default.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        cells[header.index("seed")] = str(int(cells[header.index("seed")]) + 7)
        rows.append(cells)
    rows[0][header.index("bound_gm")] = "1e-300"  # measured > gm
    text = "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"
    outcome = WORKLOADS["sweep_default"].evaluate(7, _sweep_out(tmp_path, text), "", False)
    assert (outcome.attempted, outcome.failed) == (252, 1)
    assert not any(n.startswith("reference") for n in outcome.notes)


def test_reported_violations_parse_program_labels():
    stderr = ("bound violation: measured 2.0 > geometric-mean bound 1.0 "
              "[learner=da_sqrt problem=PowerNorm(dimension=10, nu=0.5) T=256 seed=4]\n"
              "bound violation: x [learner=kt problem=Huber(dimension=256, delta=1.0) "
              "T=131072 seed=0]\nwrote 252 rows\n")
    assert reported_violations(stderr) == {(0.5, "da_sqrt", 256, 4), (None, "kt", 131072, 0)}


def test_crash_fails_every_operation(tmp_path):
    for name, attempted in (("sweep_default", 252), ("check_default", 10), ("run_long", 1)):
        out = tmp_path / name
        out.mkdir()
        outcome = WORKLOADS[name].evaluate(0, out, "", True)
        assert outcome.attempted == outcome.failed == attempted


def test_check_compares_per_suite(tmp_path):
    report = json.loads((REFERENCE_DIR / "check_default.json").read_text())
    out = tmp_path / "out"
    out.mkdir()
    (out / "check.json").write_text(json.dumps(report))
    outcome = WORKLOADS["check_default"].evaluate(0, out, "", False)
    assert (outcome.failed, outcome.work) == (0, 276009)
    report["suites"][3]["worst_slack"] += 1e-12
    report["suites"][5]["passed"] = False
    (out / "check.json").write_text(json.dumps(report))
    assert WORKLOADS["check_default"].evaluate(0, out, "", False).failed == 2
    assert WORKLOADS["check_default"].evaluate(3, out, "", False).failed == 1


def test_run_long_compares_record_and_trajectory_digest(tmp_path):
    ref = json.loads((REFERENCE_DIR / "run_long.json").read_text())
    run_dir = tmp_path / "out" / "run_long"
    run_dir.mkdir(parents=True)
    (run_dir / "summary.json").write_text(json.dumps({"records": [ref["record"]]}))
    (run_dir / f"trajectory_T{RUN_LONG_HORIZON}.csv").write_text("t,f_gap\n")
    workload = WORKLOADS["run_long"]
    assert workload.evaluate(0, tmp_path / "out", "", False).failed == 1
    outcome = workload.evaluate(1, tmp_path / "out", "", False)
    assert (outcome.failed, outcome.work) == (0, RUN_LONG_HORIZON)
    assert workload.evaluate(1, tmp_path / "out", "bound violation: x\n", False).failed == 1


# --- command line and contract -------------------------------------------------


def test_parse_args():
    args = run.parse_args(["--workload", "run_long", "--seed", "3", "--seconds", "5",
                           "--trace", "1"])
    assert (args.workload, args.seed, args.seconds, args.trace) == ("run_long", 3, 5.0, 1)
    assert run.parse_args([]).workload == "all"
    for bad in (["--workload", "nope"], ["--trace", "2"], ["--seed", "x"]):
        with pytest.raises(SystemExit):
            run.parse_args(bad)


def test_another_job_fills_the_run_without_overrunning_it():
    # 17 s sweep jobs in a 50 s run: a third job ends at 51 s, nearer 50 than 34
    assert run.another_job(17.0, 1, 50.0, 150.0)
    assert run.another_job(34.0, 2, 50.0, 150.0)
    assert not run.another_job(51.0, 3, 50.0, 150.0)
    # 19.5 s jobs: a third would end at 58.5 s, past 1.15 x 50
    assert not run.another_job(39.0, 2, 50.0, 150.0)
    # 40 s from two jobs: stopping now is as near to 50 s as a third job
    assert not run.another_job(40.0, 2, 50.0, 150.0)
    # no time left before the run's limit
    assert not run.another_job(17.0, 1, 50.0, 30.0)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(name, WORKLOADS[name].why) for name in GATED]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in spans.LAYER_METRICS]
    assert all(compare.target_of(m["name"]) for m in spec["per_layer"])


def test_bare_directory_exits_without_result(tmp_path, capsys):
    shutil.copytree(BENCH_DIR / "reference", tmp_path / "perfbench" / "reference")
    assert run.main(["--workload", "run_long"], root=tmp_path) == 2
    captured = capsys.readouterr()
    assert "{" not in captured.out and "no normgrad sources" in captured.err


# --- per-layer compare ---------------------------------------------------------


def test_compare_flags_moves_beyond_spread(tmp_path):
    def write(path, values):
        lines = ["some human line", "not json {"]
        for a, b in values:
            lines.append(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
                "a.us": {"value": a, "unit": "us"}, "b.calls": {"value": b, "unit": "count"}}}))
        path.write_text("\n".join(lines) + "\n")

    write(tmp_path / "base.txt", [(10.0, 5), (11.0, 5), (12.0, 5), (13.0, 5)])
    write(tmp_path / "new.txt", [(11.0, 6), (12.0, 6), (11.5, 6), (12.5, 6)])
    base = compare.load_runs(str(tmp_path / "base.txt"))
    new = compare.load_runs(str(tmp_path / "new.txt"))
    assert len(base) == len(new) == 4
    assert [m[0] for m in compare.moved(base, new)] == ["b.calls"]
    assert compare.main([str(tmp_path / "base.txt"), str(tmp_path / "new.txt")]) == 0
