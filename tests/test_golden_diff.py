"""The golden-test diff helper names what changed between two outputs."""

import json
import math
from pathlib import Path

from golden_diff import csv_diff, json_diff, ulp_distance

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def test_ulp_distance_counts_float64_steps():
    assert ulp_distance(1.0, 1.0) == 0
    assert ulp_distance(1.0, math.nextafter(1.0, 2.0)) == 1
    assert ulp_distance(-5e-324, 5e-324) == 2
    assert ulp_distance(0.0, -0.0) == 0
    assert ulp_distance(-1.0, math.nextafter(math.nextafter(-1.0, 0.0), 0.0)) == 2
    assert ulp_distance(math.nan, 1.0) is None


def _edit(line: str, header: list, **fields) -> str:
    values = line.split(",")
    for name, value in fields.items():
        values[header.index(name)] = value
    return ",".join(values)


def test_csv_diff_names_rows_fields_ulps_and_changed_runs():
    reference = (REFERENCE_DIR / "sweep_default.csv").read_text(encoding="utf-8")
    lines = reference.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    assert csv_diff(reference, reference).startswith(
        "sweep CSV (252 reference rows, 252 candidate rows): 0 rows differ in 0 fields")
    row = lines[5].rstrip("\n").split(",")
    gap = float(row[header.index("f_gap_avg")])
    nudged = math.nextafter(math.nextafter(math.nextafter(gap, math.inf), math.inf), math.inf)
    lines[5] = _edit(lines[5].rstrip("\n"), header, f_gap_avg=repr(nudged)) + "\n"
    lines[9] = _edit(lines[9].rstrip("\n"), header, steps_taken="3",
                     terminated_early="true") + "\n"
    dropped = lines.pop(12)
    report = csv_diff("".join(lines), reference)
    name5 = " ".join(f"{c}={row[header.index(c)]}" for c in ("nu", "learner", "T", "seed"))
    assert "(252 reference rows, 251 candidate rows): 2 rows differ in 3 fields" in report
    assert f"f_gap_avg: 3 at {name5}" in report
    assert "1 changed runs" in report
    changed = [line for line in report.splitlines() if "steps_taken" in line and "-> 3" in line]
    assert len(changed) == 2 and "terminated_early False -> True" in changed[0]
    cells = dropped.split(",")
    assert f"only in the reference: nu={cells[0]} learner={cells[1]}" in report


def test_json_diff_names_suites_fields_and_ulps():
    text = (REFERENCE_DIR / "check_default.json").read_text(encoding="utf-8")
    reference = json.loads(text)
    assert json_diff(text, reference).startswith("check report: 0 suites differ")
    candidate = json.loads(text)
    suite = candidate["suites"][3]
    suite["worst_slack"] = math.nextafter(suite["worst_slack"], math.inf)
    suite["failures"] = 2
    candidate["passed"] = False
    report = json_diff(candidate, reference)
    assert "2 suites differ in 3 fields" in report
    assert f"worst_slack: 1 at {suite['name']}" in report
    assert f"{suite['name']}: failures: 0 -> 2; worst_slack:" in report
    assert "(report): passed: True -> False" in report
