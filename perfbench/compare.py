"""Per-layer compare of two sets of traced results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files holding the output of one or more
`perfbench/run.py --trace 1` runs of one workload; every line that is a
result object counts as one run. The report lists each metric whose median
moved by more than its quartile spread (the larger of the two sides'), with
the end-to-end metric and workload that layer is expected to move. It is a
report only: it gates nothing and exits 0.
"""

from __future__ import annotations

import json
import statistics
import sys

# Where a move in each per-layer metric should show end to end; the first
# matching prefix applies.
TARGETS = (
    ("problems.sample_accept_ratio", "work_per_s on check_default"),
    ("problems.", "work_per_s on check_default, and on sweep_default for power_norm"),
    ("learners.", "work_per_s on sweep_default; little on check_default"),
    ("reduction.record_bytes",
     "peak_rss_mb on sweep_default and run_long; not on check_default"),
    ("reduction.", "work_per_s on sweep_default and run_long"),
    ("vectors.", "reduction.driver_self_us_per_step, so work_per_s on sweep_default and run_long"),
    ("bench.grad_calls_per_step",
     "work_per_s on sweep_default (prefix sharing lowers it); unchanged on run_long"),
    ("bench.run_cell.", "work_per_s on sweep_default and run_long"),
    ("bench.suite.", "work_per_s on check_default"),
    ("cli.", "work_per_s on run_long (fixed work there, so 1/wall_s); not on sweep_default"),
    ("trace.", "none: the cost of tracing itself"),
)


def target_of(metric: str) -> str | None:
    for prefix, target in TARGETS:
        if metric.startswith(prefix):
            return target
    return None


def load_runs(path: str) -> list:
    """The metrics dict of every result line in a file."""
    runs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict) and isinstance(obj.get("metrics"), dict):
                runs.append({k: v["value"] for k, v in obj["metrics"].items()})
    return runs


def spread(values: list) -> float:
    """Distance between the first and third quartiles; 0 for one value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def moved(base_runs: list, new_runs: list) -> list:
    """(metric, base median, new median, spread) of every metric in both
    sides whose median moved by more than its spread, largest move first."""
    out = []
    for metric in sorted(set().union(*base_runs) & set().union(*new_runs)):
        base = [r[metric] for r in base_runs if metric in r]
        new = [r[metric] for r in new_runs if metric in r]
        b, n = statistics.median(base), statistics.median(new)
        s = max(spread(base), spread(new))
        if abs(n - b) > s:
            out.append((metric, b, n, s))
    return sorted(out, key=lambda m: -abs(m[2] - m[1]) / (abs(m[1]) or 1.0))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_runs, new_runs = load_runs(argv[0]), load_runs(argv[1])
    if not base_runs or not new_runs:
        print("compare: each file needs at least one result line", file=sys.stderr)
        return 2
    rows = moved(base_runs, new_runs)
    print(f"runs: base {len(base_runs)}, new {len(new_runs)}; "
          f"{len(rows)} metrics moved by more than their quartile spread")
    for metric, b, n, s in rows:
        change = f"{(n - b) / b:+.1%}" if b else "from 0"
        print(f"{metric}: {b:.6g} -> {n:.6g} ({change}, spread {s:.3g}); "
              f"expected to move {target_of(metric)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
