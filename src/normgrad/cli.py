"""Command-line harness.

    normgrad run --config cfg.json --out DIR
    normgrad sweep [--nu ...] [--learner ...] [--horizons ...] [--seeds ...]
    normgrad ratefit --in summary.json [summary2.json ...]
    normgrad check [--suite NAME ...] [--samples N] [--seed S]

Exit codes: 0 all checks pass, 1 a property or bound failed (or ratefit found
too few usable horizons), 2 bad usage, configuration or file (including a
problem too large to allocate, a run whose gradient norm is not finite, or
a sweep or check worker process that died), 130 interrupted (Ctrl-C). Every
command ends with `_finish`, the only place that returns 1; `main` is the
only place that maps an error (to 2) or an interrupt (to 130), each with
one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .bench import (
    ConfigError,
    DEFAULT_DIMENSION,
    DEFAULT_DISTANCE,
    DEFAULT_HORIZONS,
    DEFAULT_SEEDS,
    DEFAULT_SWEEP_NUS,
    InsufficientData,
    SUITES,
    SWEEP_COLUMNS,
    TRAJECTORY_COLUMNS,
    bound_violations,
    parse_experiment_config,
    rate_fit_from_records,
    rows_to_csv,
    run_cells,
    run_suites,
    summary_record,
    sweep_rows,
    trajectory_rows,
)
from .errors import ContractViolation, NumericalFailure, WorkerLost
from .learners import LEARNER_KINDS

__all__ = ["main"]


def _write_text(path: str, chunks) -> None:
    """Write the strings of chunks to path atomically: into a temp file in
    path's directory as they come, then os.replace. A failed write, or an
    error raised while chunks are produced, leaves path as it was and no
    temp file."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.remove(tmp)


def _finish(path, chunks, failures, wrote="") -> int:
    """End a command: write chunks to path through _write_text and print
    wrote, or without a path write them to stdout; print each failure line
    to stderr. The only place that returns 1, when there is a failure."""
    if path:
        _write_text(path, chunks)
        if wrote:
            print(wrote)
    else:
        sys.stdout.writelines(chunks)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


def cmd_run(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        exp = parse_experiment_config(json.load(fh))

    os.makedirs(args.out, exist_ok=True)
    records = []
    violations = []
    for cell in run_cells(exp.problem, exp.learner, exp.horizons, exp.seed,
                          exp.eps_zero):
        _write_text(os.path.join(args.out, f"trajectory_T{cell.horizon}.csv"),
                    rows_to_csv(trajectory_rows(cell), TRAJECTORY_COLUMNS))
        records.append(summary_record(cell))
        violations.extend(f"bound violation: {v}" for v in bound_violations(cell))

    try:
        rate_fit = asdict(rate_fit_from_records(records))
    except InsufficientData:
        rate_fit = None
    summary = {"records": records, "rate_fit": rate_fit}
    return _finish(os.path.join(args.out, "summary.json"),
                   (json.dumps(summary, indent=2) + "\n",), violations,
                   f"wrote {len(records)} summaries to {args.out}")


def cmd_sweep(args) -> int:
    rows = []
    violations = []
    for row in sweep_rows(nus=args.nu, learners=args.learner, horizons=args.horizons,
                          seeds=args.seeds, dimension=args.dimension,
                          distance=args.distance, step_scale=args.step_scale):
        violations.extend(f"bound violation: {v}" for v in row.pop("_violations"))
        rows.append(row)
    return _finish(args.out, rows_to_csv(rows, SWEEP_COLUMNS), violations,
                   f"wrote {len(rows)} rows to {args.out}")


def cmd_ratefit(args) -> int:
    records = []
    for path in args.inputs:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        # a 'run' summary, or a bare list of its records
        recs = payload.get("records") if isinstance(payload, dict) else payload
        if not isinstance(recs, list):
            raise ConfigError(f"{path}: not a summary: expected a list of records")
        records.extend(recs)
    try:
        fit = asdict(rate_fit_from_records(records))
    except InsufficientData as exc:
        return _finish(None, (), [str(exc)])
    return _finish(None, (json.dumps(fit, indent=2) + "\n",), [])


def cmd_check(args) -> int:
    results = run_suites(args.suite or None, samples=args.samples, seed=args.seed)
    report = {
        "samples": args.samples,
        "seed": args.seed,
        "passed": all(r.passed for r in results),
        "suites": [asdict(r) for r in results],
    }
    return _finish(args.out, (json.dumps(report, indent=2) + "\n",),
                   [f"suite failed: {r.name} ({r.failures} failures, "
                    f"worst slack {r.worst_slack!r})" for r in results if not r.passed])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normgrad",
        description="Normalized-gradient reduction benchmarks and property checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config over its horizons")
    p_run.add_argument("--config", required=True, help="experiment config JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid over nu x learner x horizon x seed")
    p_sweep.add_argument("--nu", nargs="+", default=list(DEFAULT_SWEEP_NUS), type=float)
    p_sweep.add_argument("--learner", nargs="+", default=list(LEARNER_KINDS))
    p_sweep.add_argument("--horizons", nargs="+", default=list(DEFAULT_HORIZONS), type=int)
    p_sweep.add_argument("--seeds", nargs="+", default=list(DEFAULT_SEEDS), type=int)
    p_sweep.add_argument("--dimension", type=int, default=DEFAULT_DIMENSION)
    p_sweep.add_argument("--distance", type=float, default=DEFAULT_DISTANCE,
                         help="start distance from the minimizer")
    p_sweep.add_argument("--step-scale", type=float, default=1.0, dest="step_scale")
    p_sweep.add_argument("--out", help="CSV path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("ratefit", help="fit the convergence rate from summaries")
    p_fit.add_argument("--in", dest="inputs", nargs="+", required=True,
                       help="summary JSON files produced by 'run'")
    p_fit.set_defaults(func=cmd_ratefit)

    p_check = sub.add_parser("check", help="run property suites")
    p_check.add_argument("--suite", nargs="+", choices=sorted(SUITES),
                         help="suites to run (default: all)")
    p_check.add_argument("--samples", type=int, default=10_000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out", help="JSON report path (default stdout)")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractViolation, NumericalFailure, OSError,
            json.JSONDecodeError, UnicodeDecodeError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WorkerLost as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
