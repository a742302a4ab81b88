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
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, ContractViolation, InsufficientData
from .learners import ANYTIME_KINDS, LEARNER_KINDS, LearnerConfig
from .problems import (
    Huber,
    L2Norm,
    LogSumExp,
    PowerNorm,
    Problem,
    Quadratic,
    check_descent_inequality,
    check_grad_bound,
    config_count,
    finite_diff_grad,
    local_holder_constant,
    problem_from_config,
    sample_holder_constant,
)
from .reduction import (
    DEFAULT_EPS_ZERO,
    BoundReport,
    RunRecord,
    bound_report,
    hm_gm_am,
    run_adagrad_warmup,
    run_normalized,
    start_at_distance,
    summarize,
)
from .vectors import l2_norm

__all__ = [
    "ConfigError",
    "InsufficientData",
    "DEFAULT_DIMENSION",
    "DEFAULT_DISTANCE",
    "DEFAULT_SEEDS",
    "DEFAULT_HORIZONS",
    "DEFAULT_SWEEP_NUS",
    "DEFAULT_SWEEP_LEARNERS",
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
DEFAULT_SWEEP_LEARNERS = ("ogd_const", "da_sqrt", "kt", "adagrad_da")

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

    def as_dict(self) -> dict:
        return asdict(self)


def fit_rate(horizons, gaps, predicted_slope: float) -> RateFit:
    """Fit log(gap) against log(T). Horizons with nonpositive gap (early
    stops at the optimum) are excluded; fewer than 3 usable points raise
    InsufficientData."""
    pts = [(t, g) for t, g in zip(horizons, gaps) if g is not None and g > 0.0]
    excluded = len(list(horizons)) - len(pts)
    if len(pts) < 3:
        raise InsufficientData(
            f"insufficient data: rate fit needs >= 3 horizons with positive "
            f"suboptimality, got {len(pts)}")
    lx = [math.log(t) for t, _ in pts]
    ly = [math.log(g) for _, g in pts]
    n = len(pts)
    mx = sum(lx) / n
    my = sum(ly) / n
    sxx = sum((x - mx) ** 2 for x in lx)
    sxy = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(lx, ly))
    ss_tot = sum((y - my) ** 2 for y in ly)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else (1.0 if ss_res == 0.0 else 0.0)
    return RateFit(slope, intercept, r2, predicted_slope, n, excluded)


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass
class ExperimentConfig:
    problem: Problem
    learner_record: dict
    horizons: list
    seed: int = 0
    eps_zero: float = DEFAULT_EPS_ZERO


def parse_experiment_config(record: dict) -> ExperimentConfig:
    """Validate and resolve a config record:

    {"problem": {...}, "learner": {"kind": ..., "start": [...] |
     "start_distance": float, ...}, "horizons": [ints, strictly increasing],
     "seed": int >= 0, "eps_zero": float}

    Counts (horizons, seeds, the problem's dimension) must be integers; a
    bool or a non-integral number raises ConfigError. The learner record is
    resolved for every horizon here, so a malformed learner field raises
    ConfigError before anything runs. eps_zero must be positive and finite,
    and so must the gradient norm at the start.
    """
    try:
        problem = problem_from_config(record["problem"])
        learner = dict(record["learner"])
        horizons = [config_count(t, "horizon") for t in record["horizons"]]
        seed = config_count(record.get("seed", 0), "seed")
        eps_zero = float(record.get("eps_zero", DEFAULT_EPS_ZERO))
        if not horizons:
            raise ConfigError("horizons must be nonempty")
        if any(b <= a for a, b in zip(horizons, horizons[1:])) or horizons[0] < 1:
            raise ConfigError("horizons must be strictly increasing positives")
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        if not (0.0 < eps_zero < math.inf):
            raise ConfigError(f"eps_zero must be positive and finite, got {eps_zero!r}")
        for horizon in horizons:
            config = resolve_learner_config(problem, learner, horizon, seed)
        # checked once here, not per cell: the start is the same at every horizon
        with np.errstate(over="ignore"):
            grad_norm = l2_norm(problem.grad(config.start))
        if not math.isfinite(grad_norm):
            raise ConfigError("the gradient norm at the start is not finite")
    except (KeyError, TypeError, ValueError, ContractViolation, ConfigError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc
    return ExperimentConfig(problem, learner, horizons, seed, eps_zero)


def resolve_learner_config(problem: Problem, record: dict, horizon: int,
                           seed: int) -> LearnerConfig:
    """Turn a learner record into a concrete config for one horizon.

    The start point comes from an explicit "start" list or from
    "start_distance" (direction drawn from the seed; default distance 1).
    ogd_const always runs at horizon == T regardless of any horizon field.
    The adagrad_da gradient bound defaults to the gradient norm at the
    start (its largest realized value on the shipped descent problems),
    floored at 1. A start whose dimension is not the problem's, or whose
    distance from the minimizer is not finite, raises ContractViolation.
    """
    kind = record["kind"]
    if "start" in record and record["start"] is not None:
        start = np.asarray(record["start"], dtype=np.float64)
    else:
        start = start_at_distance(problem, float(record.get("start_distance", DEFAULT_DISTANCE)), seed)
    if start.shape != (problem.dimension,):
        raise ContractViolation(
            f"start has shape {start.shape}, problem wants ({problem.dimension},)")
    with np.errstate(over="ignore"):  # the overflow is what this checks for
        distance = l2_norm(start - problem.minimizer)
    if not math.isfinite(distance):
        raise ContractViolation("the start's distance from the minimizer is not finite")
    kwargs = {
        "kind": kind,
        "start": start,
        "step_scale": float(record.get("step_scale", 1.0)),
        "wealth_init": float(record.get("wealth_init", 1.0)),
    }
    if kind == "ogd_const":
        kwargs["horizon"] = horizon
    if kind == "adagrad_da":
        if "grad_bound_init" in record:
            kwargs["grad_bound_init"] = float(record["grad_bound_init"])
        else:
            kwargs["grad_bound_init"] = max(1.0, l2_norm(problem.grad(start)))
    return LearnerConfig(**kwargs)


@dataclass
class CellResult:
    problem: Problem
    config: LearnerConfig
    horizon: int
    seed: int
    run: RunRecord
    report: BoundReport
    eps_zero: float


def run_cell(problem: Problem, learner_record: dict, horizon: int, seed: int,
             eps_zero: float = DEFAULT_EPS_ZERO) -> CellResult:
    """Run one (problem, learner, horizon, seed) cell with its bound report."""
    config = resolve_learner_config(problem, learner_record, horizon, seed)
    if config.kind == "adagrad_da":
        run = run_adagrad_warmup(config, problem, horizon)
    else:
        run = run_normalized(config, problem, horizon, eps_zero)
    report = bound_report(run, problem, config)
    return CellResult(problem, config, horizon, seed, run, report, eps_zero)


def run_cells(problem: Problem, learner_record: dict, horizons, seed: int,
              eps_zero: float = DEFAULT_EPS_ZERO):
    """Yield the cell of every horizon, in the order given (horizons may be
    unsorted or repeated); each equals run_cell at that horizon.

    An anytime learner (ANYTIME_KINDS) runs once, to the largest horizon,
    at the first request. Each shorter horizon's record is summarized from
    the first T rows of that run when it is requested, so the run stays
    alive until the generator is done. ogd_const, whose step depends on the
    horizon, runs once per horizon."""
    horizons = [int(h) for h in horizons]
    if learner_record["kind"] not in ANYTIME_KINDS:
        for horizon in horizons:
            yield run_cell(problem, learner_record, horizon, seed, eps_zero)
        return
    full = run_cell(problem, learner_record, max(horizons), seed, eps_zero)
    for horizon in horizons:
        if horizon == full.horizon:
            yield full
            continue
        run = summarize(full.run, horizon, problem)
        report = bound_report(run, problem, full.config)
        yield CellResult(problem, full.config, horizon, seed, run, report, eps_zero)


def _leq(a: float, b: float, slack: float = 1e-9) -> bool:
    return a <= b + slack * (1.0 + abs(b))


def bound_violations(result: CellResult, slack: float = 1e-9) -> list:
    """Bound-chain violations for one cell (empty list means all hold).

    Checks measured <= bound_closed_form, measured <= bound_gm <= bound_am,
    each with the given relative slack."""
    r = result.report
    out = []
    label = (f"learner={result.config.kind} problem={result.problem!r} "
             f"T={result.horizon} seed={result.seed}")
    if not _leq(r.measured, r.bound_closed_form, slack):
        out.append(f"measured {r.measured!r} > closed-form bound "
                   f"{r.bound_closed_form!r} [{label}]")
    if not _leq(r.measured, r.bound_gm, slack):
        out.append(f"measured {r.measured!r} > geometric-mean bound {r.bound_gm!r} [{label}]")
    if not _leq(r.bound_gm, r.bound_am, slack):
        out.append(f"geometric-mean bound {r.bound_gm!r} > arithmetic-mean "
                   f"bound {r.bound_am!r} [{label}]")
    return out


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


def rows_to_csv(rows, columns) -> str:
    """Render dict rows into a deterministic CSV body (no timestamps)."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def trajectory_rows(result: CellResult) -> list:
    """One row per loss-fed step: t, f_gap, grad_norm, weight, local_L.

    The run's own columns: weight is 1/||g_t|| for normalized runs and 1.0
    (uniform) for warm-up runs; local_L is empty at steps sitting exactly
    at the optimum."""
    run = result.run
    return [
        {"t": t, "f_gap": gap, "grad_norm": gn, "weight": w, "local_L": "" if c is None else c}
        for t, (gn, gap, w, c) in enumerate(
            zip(run.grad_norms, run.suboptimalities, run.weights, run.local_constants), 1)
    ]


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


def _visited_dist_sq(run: RunRecord, center: np.ndarray) -> list:
    """Squared distances from center of every point a run visited: the
    loss-fed iterates, plus the stop point of an early stop."""
    points = run.iterates
    if run.terminated_early:
        points = np.vstack([points, run.average_point])
    z = points - center
    # vecdot equals a per-row np.dot bit for bit; einsum and (z*z).sum do not
    return np.vecdot(z, z).tolist()


def rate_fit_from_records(records) -> RateFit:
    """Fit the convergence rate from summary records (one per horizon).

    Uses f_gap_mean of runs that did not stop early; all records must share
    the same smoothness exponent. A malformed record raises ConfigError,
    too few usable horizons InsufficientData."""
    if not records:
        raise InsufficientData("insufficient data: no summary records")
    try:
        nus = {problem_from_config(rec["config"]["problem"]).spec.nu for rec in records}
        if len(nus) != 1:
            raise ConfigError(f"rate fit needs a single nu, got {sorted(nus)}")
        nu = nus.pop()
        horizons = []
        gaps = []
        for rec in sorted(records, key=lambda r: r["config"]["T"]):
            horizons.append(rec["config"]["T"])
            gaps.append(None if rec["terminated_early"] else rec["f_gap_mean"])
        return fit_rate(horizons, gaps, predicted_slope=-(1.0 + nu) / 2.0)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad summary record: {exc!r}") from exc


# ---------------------------------------------------------------------------
# sweeps


def sweep_rows(nus=DEFAULT_SWEEP_NUS, learners=DEFAULT_SWEEP_LEARNERS,
               horizons=DEFAULT_HORIZONS, seeds=DEFAULT_SEEDS,
               dimension=DEFAULT_DIMENSION, distance=DEFAULT_DISTANCE,
               step_scale=1.0):
    """Run the (nu x learner x horizon x seed) grid over the interpolation
    family and yield one row dict per cell, in deterministic grid order.

    This is a generator: each cell runs when its row is requested, through
    one run_cells generator per seed of a (nu, learner) block. An anytime
    block therefore runs all its seeds, each to the largest horizon, at its
    first row, and keeps those runs until the block is done; an ogd_const
    block runs one cell per row. The whole grid is checked at the first
    request, before any cell runs: an empty axis, an unknown learner, a nu
    outside [0, 1], a horizon below 1 or a negative seed raises. A row holds
    the SWEEP_COLUMNS (the summary_record fields plus nu, learner, T, seed
    and max_iterate_dist_sq) and the CellResult under "_cell"."""
    if not nus or not learners or not horizons or not seeds:
        raise ConfigError("sweep grid must be nonempty in every axis")
    for kind in learners:
        if kind not in LEARNER_KINDS:
            raise ConfigError(f"unknown learner kind {kind!r}")
    if min(horizons) < 1 or min(seeds) < 0:
        raise ConfigError("sweep horizons must be >= 1 and seeds >= 0")
    problems = [PowerNorm(float(nu), dimension) for nu in nus]
    for nu, problem in zip(nus, problems):
        for kind in learners:
            record = {"kind": kind, "start_distance": distance, "step_scale": step_scale}
            per_seed = [run_cells(problem, record, horizons, int(seed)) for seed in seeds]
            for _ in horizons:
                # one cell at a time: a zip would hold every seed's cell of a horizon
                for cells in per_seed:
                    cell = next(cells)
                    yield {
                        **summary_record(cell),
                        "nu": float(nu),
                        "learner": kind,
                        "T": cell.horizon,
                        "seed": cell.seed,
                        "max_iterate_dist_sq": max(
                            _visited_dist_sq(cell.run, problem.minimizer), default=0.0),
                        "_cell": cell,
                    }


def rate_experiment(nu: float, kind: str, horizons=DEFAULT_HORIZONS,
                    dimension=DEFAULT_DIMENSION, seed: int = 0,
                    distance: float = RATE_FIT_DISTANCE):
    """Canonical rate-fit experiment: one learner on the interpolation
    family across horizons, returning (summary records, RateFit)."""
    problem = PowerNorm(float(nu), dimension)
    record = {
        "kind": kind,
        "start_distance": distance,
        "step_scale": RATE_FIT_STEP_SCALES.get(kind, 1.0),
    }
    summaries = [summary_record(cell) for cell in run_cells(problem, record, horizons, seed)]
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

    def as_dict(self) -> dict:
        return asdict(self)


def canonical_problems(dimension: int = 3) -> list:
    """One instance per family, used by the sampling suites."""
    return [
        Quadratic(dimension),
        PowerNorm(0.5, dimension),
        L2Norm(dimension),
        Huber(dimension, delta=1.0),
        LogSumExp(dimension),
    ]


_SAMPLE_RADIUS = 10.0


def _sample_point(problem: Problem, rng, min_smooth_dist: float = 0.0) -> np.ndarray:
    while True:
        x = rng.uniform(-_SAMPLE_RADIUS, _SAMPLE_RADIUS, problem.dimension)
        if min_smooth_dist <= 0.0 or problem.distance_to_nonsmooth(x) > min_smooth_dist:
            return x


class _Tally:
    """Count, failures and worst value over the values a suite checks. A
    value passes only when it is <= 0, so a NaN counts as a failure, and a
    NaN, once seen, stays the worst value."""

    def __init__(self):
        self.total = 0
        self.failures = 0
        self.worst = -math.inf

    def add(self, value: float) -> None:
        self.total += 1
        if value > self.worst or math.isnan(value):
            self.worst = value
        if not (value <= 0.0):
            self.failures += 1

    def result(self, name: str) -> SuiteResult:
        return SuiteResult(name, self.total, self.failures, self.worst, self.failures == 0)


def suite_descent(samples: int, seed: int, l_scale: float = 1.0,
                  name: str = "descent") -> SuiteResult:
    """Descent inequality on random pairs, per family."""
    tally = _Tally()
    for problem in canonical_problems():
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            x = _sample_point(problem, rng)
            y = _sample_point(problem, rng)
            check = check_descent_inequality(problem, x, y, l_scale=l_scale)
            tally.add(check.residual - check.slack)
    return tally.result(name)


def suite_descent_negative_control(samples: int, seed: int) -> SuiteResult:
    """Same sampling with the declared constants halved; passes iff the
    corruption is detected (i.e. the descent check fails somewhere)."""
    inner = suite_descent(samples, seed, l_scale=0.5, name="descent_negative_control")
    detected = inner.failures > 0
    return SuiteResult(inner.name, inner.samples, inner.failures, inner.worst_slack,
                       detected, note="passes iff halved constants are caught")


def suite_grad_bound(samples: int, seed: int) -> SuiteResult:
    """Gradient-norm bound on random points, families with nu > 0."""
    tally = _Tally()
    for problem in canonical_problems():
        if problem.spec.nu <= 0.0:
            continue
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            x = _sample_point(problem, rng)
            check = check_grad_bound(problem, x)
            tally.add(check.residual - 1e-9 * (1.0 + abs(check.rhs)))
    return tally.result("grad_bound")


def suite_gradient_check(samples: int, seed: int) -> SuiteResult:
    """Analytic gradients against central differences (1e-5 relative),
    sampling away from nonsmooth sets."""
    tally = _Tally()
    for problem in canonical_problems():
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            x = _sample_point(problem, rng, min_smooth_dist=1e-3)
            a = problem.grad(x)
            fd = finite_diff_grad(problem, x, h=1e-6)
            tally.add(l2_norm(a - fd) / (1e-12 + l2_norm(a)) - 1e-5)
    return tally.result("gradient_check")


def suite_convexity(samples: int, seed: int) -> SuiteResult:
    """f(lam x + (1-lam) y) <= lam f(x) + (1-lam) f(y) + 1e-9 on random
    segments (a tenth of the configured samples per family)."""
    n = max(1, samples // 10)
    tally = _Tally()
    for problem in canonical_problems():
        rng = np.random.default_rng(seed)
        for _ in range(n):
            x = _sample_point(problem, rng)
            y = _sample_point(problem, rng)
            lam = rng.uniform()
            mid = problem.eval(lam * x + (1.0 - lam) * y)
            chord = lam * problem.eval(x) + (1.0 - lam) * problem.eval(y)
            tally.add(mid - chord - 1e-9)
    return tally.result("convexity")


def suite_holder_sampling(samples: int, seed: int) -> SuiteResult:
    """Sampled smoothness ratio never above the declared constant (10 seeds
    per family, a tenth of the configured samples each)."""
    n = max(1, samples // 10)
    tally = _Tally()
    for problem in canonical_problems():
        for offset in range(10):
            value = sample_holder_constant(problem, n, seed + offset)
            tally.add(value - problem.spec.l_nu - 1e-9)
    return tally.result("holder_sampling")


def suite_local_constant(samples: int, seed: int) -> SuiteResult:
    """Pointwise local constants never above the global one (nu > 0)."""
    tally = _Tally()
    for problem in canonical_problems():
        if problem.spec.nu <= 0.0:
            continue
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            x = _sample_point(problem, rng)
            if problem.gap(x) <= 0.0:
                continue
            tally.add(local_holder_constant(problem, x) - problem.spec.l_nu - 1e-9)
    return tally.result("local_constant")


def suite_means_ordering(samples: int, seed: int) -> SuiteResult:
    """hm <= gm <= am (relative 1e-12) on random positive sequences of
    lengths 1..64 spanning twelve orders of magnitude."""
    rng = np.random.default_rng(seed)
    tally = _Tally()
    for _ in range(samples):
        n = int(rng.integers(1, 65))
        vals = np.exp(rng.uniform(-14.0, 14.0, n))
        hm, gm, am = hm_gm_am(vals)
        tally.add(max((hm - gm) / gm, (gm - am) / am) - 1e-12)
    return tally.result("means_ordering")


_CHAIN_HORIZONS = tuple(2 ** k for k in range(4, 13))


def _chain_learner_records():
    return [
        {"kind": "ogd_const", "step_scale": 1.0},
        {"kind": "da_sqrt", "step_scale": 1.0},
        {"kind": "kt", "wealth_init": 1.0},
    ]


def suite_bounded_iterates(samples: int, seed: int) -> SuiteResult:
    """Constant-step normalized runs keep every iterate within
    ||x_1 - x*||^2 + alpha^2 of the minimizer (squared distances)."""
    tally = _Tally()
    for problem in canonical_problems(DEFAULT_DIMENSION):
        record = {"kind": "ogd_const", "step_scale": 1.0, "start_distance": DEFAULT_DISTANCE}
        for cell in run_cells(problem, record, _CHAIN_HORIZONS, seed):
            d_sq = l2_norm(cell.config.start - problem.minimizer) ** 2
            limit = d_sq + cell.config.step_scale ** 2 + 1e-9
            for dist_sq in _visited_dist_sq(cell.run, problem.minimizer):
                tally.add(dist_sq - limit)
    return tally.result("bounded_iterates")


def suite_reduction_chain(samples: int, seed: int) -> SuiteResult:
    """End-to-end chain on every family and unit-norm learner:

    measured <= gm-bound <= am-bound <= closed form (relative slack 1e-9),
    the averaged point obeys the weighted mean of the per-step gaps
    (+1e-9), the weighted gap sum stays below psi (+1e-6), and an early
    stop really sits at a zero-gradient point."""
    tally = _Tally()
    for problem in canonical_problems(DEFAULT_DIMENSION):
        for record in _chain_learner_records():
            record = dict(record, start_distance=DEFAULT_DISTANCE)
            for cell in run_cells(problem, record, _CHAIN_HORIZONS, seed):
                run, rep = cell.run, cell.report
                tally.add(run.average_suboptimality - run.mean_suboptimality - 1e-9)
                if run.steps_taken > 0:
                    gap_w = sum(g / n for g, n in zip(run.suboptimalities, run.grad_norms))
                    tally.add(gap_w - rep.psi_at_xstar - 1e-6)
                    tally.add(rep.measured - rep.bound_gm - 1e-9 * (1.0 + rep.bound_gm))
                    tally.add(rep.bound_gm - rep.bound_am - 1e-9 * (1.0 + rep.bound_am))
                if not run.terminated_early:
                    # psi/steps matches the closed form only for full runs
                    tally.add(rep.bound_am - rep.bound_closed_form
                              - 1e-9 * (1.0 + rep.bound_closed_form))
                tally.add(rep.measured - rep.bound_closed_form
                          - 1e-9 * (1.0 + rep.bound_closed_form))
                if run.terminated_early:
                    tally.add(l2_norm(problem.grad(run.average_point)) - DEFAULT_EPS_ZERO)
    return tally.result("reduction_chain")


SUITES = {
    "descent": suite_descent,
    "descent_negative_control": suite_descent_negative_control,
    "grad_bound": suite_grad_bound,
    "gradient_check": suite_gradient_check,
    "convexity": suite_convexity,
    "holder_sampling": suite_holder_sampling,
    "local_constant": suite_local_constant,
    "means_ordering": suite_means_ordering,
    "bounded_iterates": suite_bounded_iterates,
    "reduction_chain": suite_reduction_chain,
}


def run_suites(names=None, samples: int = 10_000, seed: int = 0):
    """Run the named suites (all by default); returns the result list."""
    if samples < 1 or seed < 0:
        raise ConfigError(f"samples must be >= 1 and seed >= 0, got {samples} and {seed}")
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
        results.append(SUITES[name](samples, seed))
    return results
