"""Benchmark harness: experiments, sweeps, rate fits, and property suites.

Everything here is deterministic given explicit seeds. The default sweep
(dimension 10, start at distance 1 from the minimizer, seeds 0..2, horizons
2^8..2^14) drives the interpolation families against all four learners and
checks every bound on every cell.

Rate-fit experiments use their own canonical start distance. A start at
distance exactly 1 with step scale 1 makes the dual-averaging iterate land
exactly on the minimizer at step 2 (and the constant-step oscillation phase
lock to the horizon on power-of-4 horizons), which degenerates log-log
fits; RATE_FIT_DISTANCE is a high-entropy value that keeps the oscillation
phase generic at every default horizon.
"""

from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass, replace

import numpy as np

from .errors import ConfigError, ContractViolation, InsufficientData, NumericalFailure, WorkerLost
from .learners import LEARNER_KINDS, RECORD_SCALES, UNIT_NORM_KINDS, LearnerConfig
from .problems import (
    SAMPLE_RADIUS,
    Huber,
    L2Norm,
    LogSumExp,
    PowerNorm,
    Problem,
    Quadratic,
    check_descent_inequality,
    check_grad_bound,
    config_count,
    config_level,
    config_real,
    finite_diff_grad,
    local_holder_constant,
    problem_from_config,
    sample_holder_constant,
)
from .reduction import (
    DEFAULT_EPS_ZERO,
    BoundReport,
    RunRecord,
    _drive,
    _overflow_unwarned,
    bound_report,
    check_eps_zero,
    hm_gm_am,
    run_adagrad_warmup,
    run_lockstep,
    run_normalized,
    start_at_distance,
    summarize,
)
from .vectors import chunk_rows, dot, l2_norm, left_sum

__all__ = [
    "ConfigError",
    "InsufficientData",
    "DEFAULT_DIMENSION",
    "DEFAULT_DISTANCE",
    "DEFAULT_SEEDS",
    "DEFAULT_HORIZONS",
    "DEFAULT_SWEEP_NUS",
    "RATE_FIT_DISTANCE",
    "RATE_FIT_STEP_SCALES",
    "RateFit",
    "fit_rate",
    "ExperimentConfig",
    "parse_experiment_config",
    "resolve_learner_config",
    "CellResult",
    "run_cell",
    "run_cells",
    "bound_violations",
    "summary_record",
    "trajectory_rows",
    "TRAJECTORY_COLUMNS",
    "SWEEP_COLUMNS",
    "sweep_rows",
    "rows_to_csv",
    "rate_fit_from_records",
    "rate_experiment",
    "SuiteResult",
    "SUITES",
    "run_suites",
    "canonical_problems",
]

DEFAULT_DIMENSION = 10
DEFAULT_DISTANCE = 1.0
DEFAULT_SEEDS = (0, 1, 2)
DEFAULT_HORIZONS = tuple(2 ** k for k in range(8, 15))
DEFAULT_SWEEP_NUS = (0.0, 0.5, 1.0)

# Start distance for rate-fit experiments; see the module docstring.
RATE_FIT_DISTANCE = 1.3541320163922068
# Step scales giving well-conditioned fits at that distance.
RATE_FIT_STEP_SCALES = {"ogd_const": 1.0, "da_sqrt": 1.25, "kt": 1.0, "adagrad_da": 1.0}


# ---------------------------------------------------------------------------
# rate fitting


@dataclass
class RateFit:
    """Least-squares line through (log T, log gap) with the value the
    interpolation rate predicts for the slope, -(1+nu)/2."""

    slope: float
    intercept: float
    r_squared: float
    predicted_slope: float
    n_points: int
    n_excluded: int


def fit_rate(horizons, gaps, predicted_slope: float) -> RateFit:
    """Fit log(gap) against log(T). Horizons with nonpositive gap (early
    stops at the optimum) are excluded; fewer than 3 distinct usable
    horizons (distinct as log T, so the fit's spread in log T is not 0)
    raise InsufficientData. Every sum is a left_sum."""
    horizons = list(horizons)
    pts = [(t, g) for t, g in zip(horizons, gaps) if g is not None and g > 0.0]
    excluded = len(horizons) - len(pts)
    lx = [math.log(t) for t, _ in pts]
    if len(set(lx)) < 3:
        raise InsufficientData(
            f"insufficient data: rate fit needs >= 3 distinct horizons with positive "
            f"suboptimality, got {len(set(lx))}")
    ly = [math.log(g) for _, g in pts]
    n = len(pts)
    mx, my = left_sum(lx) / n, left_sum(ly) / n
    sxx = left_sum((x - mx) ** 2 for x in lx)
    sxy = left_sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = left_sum((y - (intercept + slope * x)) ** 2 for x, y in zip(lx, ly))
    ss_tot = left_sum((y - my) ** 2 for y in ly)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else (1.0 if ss_res == 0.0 else 0.0)
    return RateFit(slope, intercept, r2, predicted_slope, n, excluded)


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass
class ExperimentConfig:
    problem: Problem
    learner: LearnerConfig
    horizons: list
    seed: int = 0
    eps_zero: float = DEFAULT_EPS_ZERO


def parse_experiment_config(record: dict) -> ExperimentConfig:
    """Validate and resolve a config record:

    {"problem": {...}, "learner": {"kind": ..., "start": [...] |
     "start_distance": float, ...}, "horizons": [ints, strictly increasing],
     "seed": int >= 0, "eps_zero": float}

    Counts (horizons, seeds, the problem's dimension) must be integers; a
    bool or a non-integral number raises ConfigError, as do a real that is
    not an int or a float, horizons that are not a list, a level that is
    not a JSON object, a required key missing (problem, learner, horizons;
    a learner's kind) and a key, at any level, that the schema lacks. Every
    refusal names its key. The learner record is resolved once
    here, into the config every horizon runs, so a malformed learner field
    raises ConfigError before anything runs. eps_zero must pass
    check_eps_zero, and the gradient norm and the gap at the start must be
    finite.
    """
    try:
        config_level(record, "experiment record", ("problem", "learner", "horizons"),
                     ("seed", "eps_zero"))
        problem = problem_from_config(record["problem"])
        horizons = record["horizons"]
        if not isinstance(horizons, list):
            raise ConfigError(f"experiment record: 'horizons' must be a list, got {horizons!r}")
        horizons = [config_count(t, "horizon", 1) for t in horizons]
        seed = config_count(record.get("seed", 0), "seed", 0)
        eps_zero = check_eps_zero(config_real(record.get("eps_zero", DEFAULT_EPS_ZERO), "eps_zero"))
        if not horizons or any(b <= a for a, b in zip(horizons, horizons[1:])):
            raise ConfigError("horizons must be nonempty and strictly increasing")
        config = resolve_learner_config(problem, record["learner"], seed)
        # checked once here, not per cell: the start is the same at every horizon
        with _overflow_unwarned():
            at_start = (l2_norm(problem.grad(config.start)), problem.gap(config.start))
        if not all(map(math.isfinite, at_start)):
            raise ConfigError("the gradient norm or the gap at the start is not finite")
    except (ValueError, OverflowError, ConfigError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc
    return ExperimentConfig(problem, config, horizons, seed, eps_zero)


def resolve_learner_config(problem: Problem, record: dict, seed: int) -> LearnerConfig:
    """Turn a learner record into the config that every horizon shares.

    The start point comes from an explicit "start" list or from
    "start_distance" (direction drawn from the seed; default distance 1).
    The other keys are the kind's RECORD_SCALES, passed to LearnerConfig
    by name (an omitted one keeps its default; adagrad_da's gradient bound
    defaults to the gradient norm at the start, floored at 1). A record
    that is not a JSON object, a missing or unknown kind, an unknown key
    ("horizon" is the run's), both start keys, or a start that is not a
    list, of the wrong dimension or at a distance that is not finite
    raises ConfigError. Every number goes through config_real.
    """
    kind = config_level(record, "learner record", ("kind",))["kind"]
    if kind not in LEARNER_KINDS:
        raise ConfigError(f"unknown learner kind {kind!r}; expected one of {LEARNER_KINDS}")
    config_level(record, f"{kind} learner record", ("kind",),
                 ("start", "start_distance") + RECORD_SCALES[kind])
    if {"start", "start_distance"} <= record.keys():
        raise ConfigError("learner record: give 'start' or 'start_distance', not both")
    if "start" in record:
        if not isinstance(record["start"], list):
            raise ConfigError(f"learner record: 'start' must be a list: {record['start']!r}")
        start = np.array([config_real(c, "start coordinate") for c in record["start"]])
    else:
        distance = config_real(record.get("start_distance", DEFAULT_DISTANCE), "start_distance")
        start = start_at_distance(problem, distance, seed)
    if start.shape != (problem.dimension,):
        raise ConfigError(
            f"start has shape {start.shape}, problem wants ({problem.dimension},)")
    scales = {k: config_real(record[k], k) for k in RECORD_SCALES[kind] if k in record}
    with _overflow_unwarned():  # an overflow is what the checks below report
        distance = l2_norm(start - problem.minimizer)
        if kind == "adagrad_da" and "grad_bound_init" not in scales:
            scales["grad_bound_init"] = max(1.0, l2_norm(problem.grad(start)))
    if not math.isfinite(distance):
        raise ConfigError("the start's distance from the minimizer is not finite")
    return LearnerConfig(kind, start, **scales)


@dataclass
class CellResult:
    problem: Problem
    config: LearnerConfig
    horizon: int
    seed: int
    run: RunRecord
    report: BoundReport
    eps_zero: float

    @property
    def label(self) -> str:
        return _cell_label(self.problem, self.config, self.horizon, self.seed)


def _cell_label(problem: Problem, config: LearnerConfig, horizon: int, seed: int) -> str:
    return f"learner={config.kind} problem={problem!r} T={horizon} seed={seed}"


def _cell(problem: Problem, config: LearnerConfig, horizon: int, seed: int,
          run: RunRecord, eps_zero: float) -> CellResult:
    """The cell of a run, with its bound report. A measured or mean gap,
    psi or bound that is not finite, or that overflows while it is
    computed, raises NumericalFailure naming the cell: it says nothing
    about the bound chain."""
    cell = CellResult(problem, config, horizon, seed, run, None, eps_zero)
    try:
        with _overflow_unwarned():
            cell.report = bound_report(run, problem, config)
        finite = all(math.isfinite(v) for v in (*astuple(cell.report), run.mean_suboptimality))
    except OverflowError:
        finite = False
    if not finite:
        raise NumericalFailure(
            f"the measured or mean gap, psi or a bound is not finite [{cell.label}]")
    return cell


def run_cell(problem: Problem, config: LearnerConfig, horizon: int, seed: int,
             eps_zero: float = DEFAULT_EPS_ZERO) -> CellResult:
    """Run one (problem, config, horizon, seed) cell with its bound report.
    The driver's NumericalFailure (a step whose gradient norm is not finite
    or whose learner point overflows) is raised again naming the cell."""
    try:
        if config.kind == "adagrad_da":
            run = run_adagrad_warmup(config, problem, horizon)
        else:
            run = run_normalized(config, problem, horizon, eps_zero)
    except NumericalFailure as exc:
        raise NumericalFailure(f"{exc} [{_cell_label(problem, config, horizon, seed)}]") from exc
    return _cell(problem, config, horizon, seed, run, eps_zero)


def run_cells(problem: Problem, config: LearnerConfig, horizons, seed: int,
              eps_zero: float = DEFAULT_EPS_ZERO):
    """Yield the cell of every horizon, in the order given (horizons may be
    unsorted or repeated); each equals run_cell at that horizon with config,
    bit for bit, except that an ogd_const record keeps no iterates.

    An anytime learner (ANYTIME_KINDS) runs once, to the largest horizon,
    at the first request. Each shorter horizon's record is summarized from
    the first T rows of that run when it is requested, so the run stays
    alive until the generator is done. ogd_const, whose step depends on the
    horizon, runs every horizon as one run_lockstep at the first request."""
    horizons = [int(h) for h in horizons]
    if config.kind == "ogd_const":
        rows = [(problem, config, (h,), seed) for h in horizons]
        yield from _cells(run_lockstep(problem, [(config, h) for h in horizons], eps_zero), rows,
                          eps_zero, _same)
        return
    full = run_cell(problem, config, max(horizons), seed, eps_zero)
    for horizon in horizons:
        if horizon == full.horizon:
            yield full
            continue
        yield _cell(problem, config, horizon, seed, summarize(full.run, horizon, problem),
                    eps_zero)


def _same(cell: CellResult) -> CellResult:
    return cell


def _cells(runs, rows: list, eps_zero: float, fn):
    """Yield fn(cell) for the cells of every (problem, config, horizons,
    seed) of rows, row by row and each row's in the order of its horizons,
    from runs, which yields (i, records) as rows[i] ends: its records at
    its horizons (one record for one horizon), or the NumericalFailure of
    its run. fn takes each cell as soon as its row ends, so no cell
    outlives fn. As run_cells does, a row makes the cell of its longest
    horizon first. A NumericalFailure, from a run, from _cell or from fn,
    is raised after the results of the cells before it, naming its cell as
    run_cell does (a run's names the longest horizon): the first failing
    cell's, as a walk of run_cells over the rows would raise it."""
    done = {}
    for i, records in runs:
        problem, config, horizons, seed = rows[i]
        top = max(horizons)
        out = done[i] = []
        try:
            if isinstance(records, NumericalFailure):
                raise NumericalFailure(
                    f"{records} [{_cell_label(problem, config, top, seed)}]") from records
            at = dict(zip(horizons, records if isinstance(records, list) else [records]))
            full = _cell(problem, config, top, seed, at[top], eps_zero)
            for horizon in horizons:
                out.append(fn(full if horizon == top else _cell(
                    problem, config, horizon, seed, at[horizon], eps_zero)))
        except NumericalFailure as exc:
            out.append(exc)
    for i in range(len(rows)):
        for result in done.pop(i):
            if isinstance(result, NumericalFailure):
                raise result
            yield result


def _excess(a, b):
    """Residual of a <= b (floats or arrays) with the bench's relative slack
    1e-9: the inequality holds when this is <= 0, and a NaN never holds."""
    return a - b - 1e-9 * (1.0 + abs(b))


def bound_violations(result: CellResult) -> list:
    """Bound-chain violations for one cell (empty list means all hold):
    measured <= bound_closed_form and measured <= bound_gm <= bound_am."""
    r = result.report
    links = (("measured", r.measured, "closed-form bound", r.bound_closed_form),
             ("measured", r.measured, "geometric-mean bound", r.bound_gm),
             ("geometric-mean bound", r.bound_gm, "arithmetic-mean bound", r.bound_am))
    return [f"{a_name} {a!r} > {b_name} {b!r} [{result.label}]"
            for a_name, a, b_name, b in links if not _excess(a, b) <= 0.0]


# ---------------------------------------------------------------------------
# artifacts (CSV / JSON payloads)

TRAJECTORY_COLUMNS = ("t", "f_gap", "grad_norm", "weight", "local_L")

SWEEP_COLUMNS = (
    "nu", "learner", "T", "seed", "steps_taken", "terminated_early",
    "grad_bound_exceeded", "f_gap_avg", "f_gap_mean", "psi_at_xstar",
    "bound_gm", "bound_am", "bound_closed_form", "max_iterate_dist_sq",
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows, columns):
    """Yield the lines of a deterministic CSV body (no timestamps), each
    ending in a newline: the header, then one line per dict row."""
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(_fmt(row[c]) for c in columns) + "\n"


def trajectory_rows(result: CellResult):
    """Yield one row per loss-fed step: t, f_gap, grad_norm, weight, local_L.

    The run's own columns as Python floats, whose reprs rows_to_csv writes:
    weight is 1/||g_t|| for normalized runs and 1.0 (uniform) for warm-up
    runs; local_L is empty at steps sitting exactly at the optimum (NaN)."""
    run = result.run
    columns = (run.grad_norms, run.suboptimalities, run.weights, run.local_constants)
    for t, (gn, gap, w, c) in enumerate(zip(*(col.tolist() for col in columns)), 1):
        yield {"t": t, "f_gap": gap, "grad_norm": gn, "weight": w,
               "local_L": "" if math.isnan(c) else c}


def summary_record(result: CellResult) -> dict:
    r = result.report
    return {
        "config": {
            "problem": result.problem.config_record(),
            "learner": result.config.config_record(),
            "T": result.horizon,
            "seed": result.seed,
            "eps_zero": result.eps_zero,
        },
        "steps_taken": result.run.steps_taken,
        "terminated_early": result.run.terminated_early,
        "grad_bound_exceeded": result.run.grad_bound_exceeded,
        "f_gap_avg": r.measured,
        "f_gap_mean": result.run.mean_suboptimality,
        "psi_at_xstar": r.psi_at_xstar,
        "bound_gm": r.bound_gm,
        "bound_am": r.bound_am,
        "bound_closed_form": r.bound_closed_form,
    }


def _visited_dist_sq(run: RunRecord, minimizer: np.ndarray) -> np.ndarray:
    """Squared distances from the minimizer of every point a run visited:
    its dist_sq column, plus the stop point's for an early stop."""
    if not run.terminated_early:
        return run.dist_sq
    z = run.average_point - minimizer
    return np.append(run.dist_sq, dot(z, z))


def rate_fit_from_records(records) -> RateFit:
    """Fit the convergence rate from summary records (one per horizon).

    Uses f_gap_mean of runs that did not stop early; all records must share
    the same smoothness exponent. Each record needs config.problem, config.T
    (a count >= 1), terminated_early (a bool) and f_gap_mean (a finite
    real); its other keys are not read. A malformed record raises
    ConfigError naming its key, too few usable horizons InsufficientData."""
    if not records:
        raise InsufficientData("insufficient data: no summary records")
    try:
        points = sorted((_summary_point(rec) for rec in records), key=lambda p: p[0])
    except (ValueError, OverflowError, ConfigError) as exc:
        raise ConfigError(f"bad summary record: {exc}") from exc
    nus = {nu for _, nu, _ in points}
    if len(nus) != 1:
        raise ConfigError(f"rate fit needs a single nu, got {sorted(nus)}")
    return fit_rate([t for t, _, _ in points], [g for _, _, g in points],
                    predicted_slope=-(1.0 + nus.pop()) / 2.0)


def _summary_point(record) -> tuple:
    """(T, nu, f_gap_mean or None for an early stop) of a summary record."""
    config_level(record, "summary record", ("config", "terminated_early", "f_gap_mean"))
    config = config_level(record["config"], "summary config", ("problem", "T"))
    early = record["terminated_early"]
    if not isinstance(early, bool):
        raise ConfigError(f"terminated_early must be a bool, got {early!r}")
    gap = config_real(record["f_gap_mean"], "f_gap_mean")
    if not math.isfinite(gap):
        raise ConfigError(f"f_gap_mean must be finite, got {gap!r}")
    return (config_count(config["T"], "T", 1), problem_from_config(config["problem"]).spec.nu,
            None if early else gap)


# ---------------------------------------------------------------------------
# sweeps


def _grid(fn, problem, kind, seeds, horizons, distance=DEFAULT_DISTANCE, step_scale=1.0):
    """Yield fn(cell) for the cells of one unit of work: its (problem,
    seed) rows, problem by problem and seed by seed, each row's cells in
    the order of horizons, the learner started at distance with step_scale
    from one config resolved per row. problem is one problem or, for an
    anytime kind, a tuple of them.

    An ogd_const block runs all its (seed, horizon) cells as one
    run_lockstep. An anytime unit of one row takes run_cells, whose run
    keeps its iterates, and of more rows one _drive block, whose records
    keep none. A row whose config fails to resolve raises after the cells
    of the rows before it. Either way the first error raised is the first
    failing cell's in this order, as a walk of run_cells over the rows
    would raise it, and no cell outlives fn."""
    record = {"kind": kind, "start_distance": distance, "step_scale": step_scale}
    horizons = tuple(map(int, horizons))
    rows, unresolved = [], None
    try:
        for p in problem if isinstance(problem, tuple) else (problem,):
            for seed in map(int, seeds):
                rows.append((p, resolve_learner_config(p, record, seed), horizons, seed))
    except ConfigError as exc:
        unresolved = exc
    if kind == "ogd_const":
        runs = run_lockstep(problem, [(row[1], h) for row in rows for h in horizons])
        yield from _cells(runs, [(p, config, (h,), seed) for p, config, _, seed in rows
                                 for h in horizons], DEFAULT_EPS_ZERO, fn)
    elif len(rows) == 1:
        yield from map(fn, run_cells(*rows[0][:2], horizons, rows[0][3]))
    elif rows:
        runs = _drive([(config, p, horizons) for p, config, _, _ in rows])
        yield from _cells(runs, rows, DEFAULT_EPS_ZERO, fn)
    if unresolved is not None:
        raise unresolved


def _sweep_row(cell: CellResult) -> dict:
    """A cell's SWEEP_COLUMNS values and its bound_violations under
    "_violations"; a max_iterate_dist_sq that overflows raises
    NumericalFailure naming the cell."""
    with _overflow_unwarned():
        dist_sq = float(_visited_dist_sq(cell.run, cell.problem.minimizer).max(initial=0.0))
    if not math.isfinite(dist_sq):
        raise NumericalFailure(f"max_iterate_dist_sq is not finite [{cell.label}]")
    fields = {**summary_record(cell), "nu": cell.problem.nu, "learner": cell.config.kind,
              "T": cell.horizon, "seed": cell.seed, "max_iterate_dist_sq": dist_sq}
    return {**{c: fields[c] for c in SWEEP_COLUMNS}, "_violations": bound_violations(cell)}


def _sweep_unit(unit: tuple) -> tuple:
    """The _sweep_rows of one (problem or problems, kind, seeds, horizons,
    distance, step_scale) unit, never a CellResult, in the order _grid
    yields them, and the error that ended them (None if none did): one of
    the errors a cell or a config raises, which sweep_rows raises at its
    cell's place in the grid. _grid drops each cell once its row is
    built."""
    rows = []
    try:
        for row in _grid(_sweep_row, *unit):
            rows.append(row)
    except (ConfigError, ContractViolation, NumericalFailure, MemoryError) as exc:
        return rows, exc
    return rows, None


def _block_rows(rows: list, n: int) -> list:
    """The rows of one (problem, kind) block, seed by seed as _grid yields
    them, in grid order: horizon by horizon of its n, seed by seed within
    one."""
    return [row for h in range(n) for row in rows[h::n]]


def _in_order(fn, items: list):
    """Yield fn(item) for every item, in order: from a fork
    ProcessPoolExecutor of min(usable CPUs, len(items)) workers, whose map
    keeps the order (so the first error raised is the first failing
    item's) and which is shut down, its pending items cancelled, before
    this generator returns, raises or is closed; or in this process, with
    one worker, no CPU affinity call or no fork start method. The workers
    ignore SIGINT, so Ctrl-C reaches the parent alone, which waits for the
    running items. A worker that dies raises WorkerLost. fn and the items
    must pickle (fn by its module-level name), which is checked before the
    pool starts: on Python 3.11 an item that fails to pickle in the pool
    leaves its shutdown waiting for it. multiprocessing, concurrent.futures
    and signal are imported only to make a pool."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(items))
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            import pickle
            import signal
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool
            pickle.dumps((fn, items))
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=signal.signal,
                                       initargs=(signal.SIGINT, signal.SIG_IGN))
            try:
                yield from pool.map(fn, items)
            except BrokenProcessPool as exc:
                raise WorkerLost(f"a worker process died before it finished: {exc}") from None
            finally:
                pool.shutdown(cancel_futures=True)
            return
    yield from map(fn, items)


def sweep_rows(nus=DEFAULT_SWEEP_NUS, learners=LEARNER_KINDS,
               horizons=DEFAULT_HORIZONS, seeds=DEFAULT_SEEDS,
               dimension=DEFAULT_DIMENSION, distance=DEFAULT_DISTANCE,
               step_scale=1.0):
    """Run the (nu x learner x horizon x seed) grid over the interpolation
    family and yield one row dict per cell, in deterministic grid order:
    (nu, learner) block by block, horizon by horizon within one, seed by
    seed within a horizon.

    The whole grid is checked at the first request, before any cell runs:
    an empty axis, an unknown learner, a nu outside [0, 1], a horizon below
    1 or a negative seed raises. The work is one _sweep_unit per ogd_const
    block, a lockstep over its (seed, horizon) cells, and one per anytime
    kind over every (nu, seed) row of the grid, which steps as one _drive
    block (a lone row takes the one-point path of run_cells). The units
    are mapped over every usable CPU by _in_order, in the order of their
    first block, and the rows (the SWEEP_COLUMNS and "_violations") are
    yielded in grid order as their units arrive. So the rows, their order
    and the first error raised, the first failing block's and within it
    the first failing cell's in seed order (all of seed 0's horizons before
    seed 1's), do not depend on the units or on the worker count."""
    if not nus or not learners or not horizons or not seeds:
        raise ConfigError("sweep grid must be nonempty in every axis")
    for kind in learners:
        if kind not in LEARNER_KINDS:
            raise ConfigError(f"unknown learner kind {kind!r}")
    if min(horizons) < 1 or min(seeds) < 0:
        raise ConfigError("sweep horizons must be >= 1 and seeds >= 0")
    problems = tuple(PowerNorm(float(nu), dimension) for nu in nus)
    seeds, horizons = tuple(seeds), tuple(horizons)
    units = {}  # (nu's index for ogd_const, else None; kind): unit
    blocks = []  # per block in grid order: its unit's key and the offset of its rows
    for j, problem in enumerate(problems):
        for kind in learners:
            key = (j if kind == "ogd_const" else None, kind)
            units.setdefault(key, (problem if kind == "ogd_const" else problems, kind, seeds,
                                   horizons, distance, step_scale))
            blocks.append((key, 0 if kind == "ogd_const" else j * len(seeds) * len(horizons)))
    order = list(units)
    results = _in_order(_sweep_unit, list(units.values()))
    arrived = []
    try:
        for key, offset in blocks:
            while len(arrived) <= order.index(key):
                arrived.append(next(results))
            rows, error = arrived[order.index(key)]
            block = rows[offset:offset + len(seeds) * len(horizons)]
            if len(block) < len(seeds) * len(horizons):
                raise error
            yield from _block_rows(block, len(horizons))
    finally:
        results.close()


def rate_experiment(nu: float, kind: str):
    """Canonical rate-fit experiment: one learner on the interpolation
    family at DEFAULT_DIMENSION, started at RATE_FIT_DISTANCE with seed 0,
    across DEFAULT_HORIZONS; returns (summary records, RateFit)."""
    summaries = list(_grid(summary_record, PowerNorm(float(nu), DEFAULT_DIMENSION), kind, [0],
                           DEFAULT_HORIZONS, RATE_FIT_DISTANCE, RATE_FIT_STEP_SCALES[kind]))
    return summaries, rate_fit_from_records(summaries)


# ---------------------------------------------------------------------------
# property suites


@dataclass
class SuiteResult:
    name: str
    samples: int
    failures: int
    worst_slack: float
    passed: bool
    note: str = ""


def canonical_problems(dimension: int = 3) -> list:
    """One instance per family, used by the sampling suites."""
    return [
        Quadratic(dimension),
        PowerNorm(0.5, dimension),
        L2Norm(dimension),
        Huber(dimension, delta=1.0),
        LogSumExp(dimension),
    ]


def _sample_point(problem: Problem, rng, min_smooth_dist: float = 0.0) -> np.ndarray:
    """One point uniform in the sampling box, redrawn while it lies within
    min_smooth_dist of the family's nonsmooth set."""
    while True:
        x = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, problem.dimension)
        if min_smooth_dist <= 0.0 or problem.distance_to_nonsmooth(x) > min_smooth_dist:
            return x


def _sample_points(problem: Problem, rng, m: int, min_smooth_dist: float) -> np.ndarray:
    """The m points that m calls of _sample_point(problem, rng,
    min_smooth_dist) draw, for min_smooth_dist > 0, leaving rng as they do.

    Each round draws one (k, d) block of exactly the k points still
    missing and keeps those farther than min_smooth_dist from the nonsmooth
    set. The candidates are the per-point loop's stream in order, and the
    last one drawn is the last one kept, so no draw is wasted."""
    kept = []
    missing = m
    while missing:
        x = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (missing, problem.dimension))
        x = x[problem.distance_to_nonsmooth(x) > min_smooth_dist]
        kept.append(x)
        missing -= len(x)
    return np.concatenate(kept)


def _tally(name: str, residuals) -> SuiteResult:
    """Count, failures and worst value over residuals, an iterable of floats
    or float arrays. A value passes only when it is <= 0, so a NaN fails and,
    once seen, stays the worst; no values give worst -inf and a pass. A tie
    of 0.0 and -0.0 for the worst may report either sign."""
    samples = failures = 0
    worst = -math.inf
    for chunk in residuals:
        values = np.ravel(chunk)
        samples += values.size
        failures += int(np.count_nonzero(~(values <= 0.0)))
        top = float(values.max(initial=-math.inf))  # a NaN in the chunk makes top NaN
        if top > worst or math.isnan(top):
            worst = top
    return SuiteResult(name, samples, failures, worst, failures == 0)


def _sampled(name: str, samples: int, seed: int, width, residuals,
             smooth_only: bool = False) -> SuiteResult:
    """The sampling loop of the suites below: for each canonical family
    (only those with nu > 0 if smooth_only), a fresh rng from seed and
    chunks that cover `samples` rows of width(d) elements; residuals(problem,
    rng, m) draws a chunk of m rows and returns the values to tally.

    A (m, k, d) uniform draw holds the values of m rounds of k draws of d
    coordinates, and _sample_points keeps the per-point loop's stream under
    rejection, so every point equals the one the per-point loop
    (_sample_point) draws, and the block oracles give its values bit for
    bit."""
    def chunks():
        for problem in canonical_problems():
            if smooth_only and problem.spec.nu <= 0.0:
                continue
            rng = np.random.default_rng(seed)
            rows = chunk_rows(width(problem.dimension))
            for lo in range(0, samples, rows):
                yield residuals(problem, rng, min(rows, samples - lo))
    return _tally(name, chunks())


def _descent_residuals(problem: Problem, rng, m: int, l_scale: float = 1.0) -> np.ndarray:
    pairs = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (m, 2, problem.dimension))
    check = check_descent_inequality(problem, pairs[:, 0], pairs[:, 1], l_scale=l_scale)
    return check.residual - check.slack


def suite_descent(samples: int, seed: int) -> SuiteResult:
    """Descent inequality on random pairs, per family, checked in chunks of
    (x, y) pairs drawn as one (m, 2, d) block."""
    return _sampled("descent", samples, seed, lambda d: 2 * d, _descent_residuals)


def suite_descent_negative_control(samples: int, seed: int) -> SuiteResult:
    """Same sampling with the declared constants halved; passes iff the
    corruption is detected (i.e. the descent check fails somewhere)."""
    inner = _sampled("descent_negative_control", samples, seed, lambda d: 2 * d,
                     lambda problem, rng, m: _descent_residuals(problem, rng, m, l_scale=0.5))
    return replace(inner, passed=inner.failures > 0,
                   note="passes iff halved constants are caught")


def suite_grad_bound(samples: int, seed: int) -> SuiteResult:
    """Gradient-norm bound on random points, families with nu > 0, checked
    in chunks."""
    def residuals(problem, rng, m):
        check = check_grad_bound(
            problem, rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (m, problem.dimension)))
        return _excess(check.lhs, check.rhs)
    return _sampled("grad_bound", samples, seed, lambda d: d, residuals, smooth_only=True)


def suite_gradient_check(samples: int, seed: int) -> SuiteResult:
    """Analytic gradients against central differences (1e-5 relative), at
    points farther than 1e-3 from the nonsmooth set.

    A chunk's points come from _sample_points, in blocks of candidates that
    give the per-point loop's points; their gradients and the 2d
    central-difference evaluations of each go in blocks too."""
    def residuals(problem, rng, m):
        x = _sample_points(problem, rng, m, min_smooth_dist=1e-3)
        a = problem.grad(x)
        fd = finite_diff_grad(problem, x)
        return l2_norm(a - fd) / (1e-12 + l2_norm(a)) - 1e-5
    return _sampled("gradient_check", samples, seed, lambda d: 2 * d * d, residuals)


def suite_convexity(samples: int, seed: int) -> SuiteResult:
    """f(lam x + (1-lam) y) <= lam f(x) + (1-lam) f(y) + 1e-9 on random
    segments (a tenth of the configured samples per family), in chunks.

    A segment takes 2d + 1 uniform draws (x, y, then lam); one (m, 2d + 1)
    draw of rng.random, scaled as -R + 2R u for the points, gives the same
    values as the uniform draws."""
    def residuals(problem, rng, m):
        d = problem.dimension
        u = rng.random((m, 2 * d + 1))
        points = -SAMPLE_RADIUS + 2.0 * SAMPLE_RADIUS * u[:, :2 * d]
        x, y, lam = points[:, :d], points[:, d:], u[:, 2 * d:]
        mid = problem.eval(lam * x + (1.0 - lam) * y)
        chord = lam[:, 0] * problem.eval(x) + (1.0 - lam[:, 0]) * problem.eval(y)
        return mid - chord - 1e-9
    return _sampled("convexity", max(1, samples // 10), seed, lambda d: 2 * d + 1, residuals)


def suite_holder_sampling(samples: int, seed: int) -> SuiteResult:
    """Sampled smoothness ratio never above the declared constant (10 seeds
    per family, a tenth of the configured samples each)."""
    n = max(1, samples // 10)
    return _tally("holder_sampling", (
        sample_holder_constant(problem, n, seed + offset) - problem.spec.l_nu - 1e-9
        for problem in canonical_problems() for offset in range(10)))


def suite_local_constant(samples: int, seed: int) -> SuiteResult:
    """Pointwise local constants never above the global one (nu > 0),
    checked in chunks; points at the optimum (gap <= 0) are skipped."""
    def residuals(problem, rng, m):
        x = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (m, problem.dimension))
        x = x[~(problem.gap(x) <= 0.0)]
        return local_holder_constant(problem, x) - problem.spec.l_nu - 1e-9
    return _sampled("local_constant", samples, seed, lambda d: d, residuals, smooth_only=True)


def suite_means_ordering(samples: int, seed: int) -> SuiteResult:
    """hm <= gm <= am (relative 1e-12) on random positive sequences of
    lengths 1..64 spanning twelve orders of magnitude, tallied as one
    array."""
    rng = np.random.default_rng(seed)
    residuals = np.empty(samples)
    for s in range(samples):
        n = int(rng.integers(1, 65))
        hm, gm, am = hm_gm_am(np.exp(rng.uniform(-14.0, 14.0, n)))
        residuals[s] = max((hm - gm) / gm, (gm - am) / am) - 1e-12
    return _tally("means_ordering", [residuals])


_CHAIN_HORIZONS = tuple(2 ** k for k in range(4, 13))


def _chain_residuals(cell: CellResult):
    """measured <= gm-bound <= am-bound <= closed form (relative slack 1e-9),
    the averaged point obeys the weighted mean of the per-step gaps (+1e-9),
    the weighted gap sum stays below psi (+1e-6), and an early stop really
    sits at a zero-gradient point."""
    run, rep = cell.run, cell.report
    yield run.average_suboptimality - run.mean_suboptimality - 1e-9
    if run.steps_taken > 0:
        yield left_sum(run.suboptimalities / run.grad_norms) - rep.psi_at_xstar - 1e-6
        yield _excess(rep.measured, rep.bound_gm)
        yield _excess(rep.bound_gm, rep.bound_am)
    if not run.terminated_early:
        # psi/steps matches the closed form only for full runs
        yield _excess(rep.bound_am, rep.bound_closed_form)
    yield _excess(rep.measured, rep.bound_closed_form)
    if run.terminated_early:
        yield l2_norm(cell.problem.grad(run.average_point)) - DEFAULT_EPS_ZERO


def _family_pass(seed: int, kind: str, problem: Problem) -> tuple:
    """One pass over a unit-norm kind's chain cells on one family (every
    chain horizon): the lists of bounded_iterates' residuals, for ogd_const
    only, and of the cells' _chain_residuals. Constant-step normalized runs
    keep every iterate within ||x_1 - x*||^2 + alpha^2 of the minimizer
    (one array of squared distances per cell)."""
    def residuals(cell):
        chain = list(_chain_residuals(cell))
        if kind != "ogd_const":
            return [], chain
        start, alpha = cell.config.start, cell.config.step_scale
        limit = l2_norm(start - problem.minimizer) ** 2 + alpha ** 2 + 1e-9
        return [_visited_dist_sq(cell.run, problem.minimizer) - limit], chain

    return _joined(_grid(residuals, problem, kind, [seed], _CHAIN_HORIZONS))


def _joined(passes) -> tuple:
    """(bounded, chain) lists concatenated in order: a family pass's cells
    in horizon order, or a kind's family passes in family order."""
    bounded, chain = [], []
    for b, c in passes:
        bounded += b
        chain += c
    return bounded, chain


def _chain_pass(seed: int, kind: str) -> tuple:
    """One pass over a unit-norm kind's chain cells: the _family_pass of
    every canonical family at DEFAULT_DIMENSION, concatenated."""
    return _joined(_family_pass(seed, kind, problem)
                   for problem in canonical_problems(DEFAULT_DIMENSION))


def suite_bounded_iterates(samples: int, seed: int, chain=_chain_pass) -> SuiteResult:
    """The bounded_iterates residuals of chain(seed, "ogd_const"): the pass
    above, or the one run_suites has already run."""
    return _tally("bounded_iterates", chain(seed, "ogd_const")[0])


def suite_reduction_chain(samples: int, seed: int, chain=_chain_pass) -> SuiteResult:
    """End-to-end chain (_chain_residuals) on the chain cells of every
    family and unit-norm learner, read kind by kind from chain(seed, kind)
    as in suite_bounded_iterates."""
    return _tally("reduction_chain", (chain(seed, kind)[1] for kind in UNIT_NORM_KINDS))


# the kinds whose passes each driver suite reads
_DRIVER_SUITES = {"bounded_iterates": ("ogd_const",), "reduction_chain": UNIT_NORM_KINDS}
SUITES = {suite.__name__.removeprefix("suite_"): suite for suite in (
    suite_descent, suite_descent_negative_control, suite_grad_bound, suite_gradient_check,
    suite_convexity, suite_holder_sampling, suite_local_constant, suite_means_ordering,
    suite_bounded_iterates, suite_reduction_chain)}


def _check_task(task: tuple):
    """One task of run_suites: (name, samples, seed) gives a suite's
    SUITES[name](samples, seed), and (kind, problem, seed) that kind's
    _family_pass on that family."""
    first, second, seed = task
    if first in SUITES:
        return SUITES[first](second, seed)
    return _family_pass(seed, first, second)


def run_suites(names=None, samples: int = 10_000, seed: int = 0):
    """Run the named suites (all by default); returns one result per name,
    in the order named (a repeated name is reported once per mention).

    The work is one task list, mapped over every usable CPU by _in_order:
    each distinct non-driver suite named, in the order named, then one
    _family_pass per (kind, family) that the named driver suites read
    (ogd_const for bounded_iterates; ogd_const, da_sqrt and kt for
    reduction_chain), kind by kind and each kind in family order. The
    driver suites then tally those passes, joined per kind as _chain_pass
    joins them, through their chain argument, so each pass runs once per
    call and all ten suites make 55 driver calls. The results, their bits
    and the first error raised (the first failing task's, in task order)
    do not depend on the worker count."""
    if samples < 1 or seed < 0:
        raise ConfigError(f"samples must be >= 1 and seed >= 0, got {samples} and {seed}")
    if names is None:
        names = list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    others = list(dict.fromkeys(name for name in names if name not in _DRIVER_SUITES))
    kinds = [kind for kind in UNIT_NORM_KINDS
             if any(kind in _DRIVER_SUITES.get(name, ()) for name in names)]
    problems = canonical_problems(DEFAULT_DIMENSION)
    tasks = [(name, samples, seed) for name in others] + [
        (kind, problem, seed) for kind in kinds for problem in problems]
    results = iter(list(_in_order(_check_task, tasks)))  # list: the pool ends here
    done = {name: next(results) for name in others}
    passes = {kind: _joined(next(results) for _ in problems) for kind in kinds}
    return [SUITES[name](samples, seed, lambda _, kind: passes[kind])
            if name in _DRIVER_SUITES else done[name] for name in names]
