"""Black-box drivers and the theoretical bound compositions.

Both drivers run one step loop. `run_normalized` feeds a unit-norm
learner the normalized gradients g_t / ||g_t|| and returns the
1/||g_t||-weighted average of the iterates (stopping immediately when a
gradient norm falls to the zero threshold). `run_adagrad_warmup` feeds raw
gradients to the adagrad_da learner and returns the uniform average (the
same loop with weight 1). `run_lockstep` steps many ogd_const runs of one
problem as the rows of one block, each row's record equal to
run_normalized's without its iterates.

The bound side composes a regret guarantee psi with the mean of pointwise
local smoothness constants:

    f(xbar_T) - f*  <=  alpha^nu (psi/T)^(1+nu) * mean(L(x_t))

where the mean is geometric (sharper) or arithmetic, and alpha^nu is the
factor the problem's smoothness record derives from nu ((1+1/nu)^nu, limit
1 at nu = 0; at nu = 0 the local constants are the gradient norms
themselves). `closed_form_rate` evaluates the per-learner
worst-case displays obtained by relaxing the local constants to the global
one.
"""

from __future__ import annotations

import math
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractViolation, NumericalFailure
from .learners import (
    UNIT_NORM_KINDS,
    LearnerConfig,
    make_learner,
    regret_bound,
)
from .problems import HolderSpec, Problem, local_constant_from_parts
from .vectors import WeightedMeanAccumulator, chunk_rows, dot, finite_at_least, l2_norm, left_sum

__all__ = [
    "DEFAULT_EPS_ZERO",
    "EPS_ZERO_FLOOR",
    "check_eps_zero",
    "RunRecord",
    "run_normalized",
    "run_adagrad_warmup",
    "run_lockstep",
    "summarize",
    "MeanTriple",
    "hm_gm_am",
    "regret_to_gap_bound",
    "closed_form_rate",
    "BoundReport",
    "bound_report",
    "start_at_distance",
]

DEFAULT_EPS_ZERO = 1e-12
EPS_ZERO_FLOOR = math.sqrt(sys.float_info.min)  # about 1.49e-154


def check_eps_zero(eps_zero: float) -> float:
    """Return eps_zero if it is finite and at least EPS_ZERO_FLOOR, else
    raise ContractViolation. Every eps_zero from outside passes here.

    This is where the unit-loss contract of the learners is kept: a loss is
    fed only when ||g|| > eps_zero >= sqrt(smallest normal float), so the
    squared norm is a normal float and no coordinate's rounding swamps it.
    g / ||g|| then has norm 1 within about d * 2^-53 (at most 2.3e-14 found
    for d = 1 to 10^5), which is why the learners do not re-check it. Below
    the floor the squared norm can go subnormal, and l2_norm's scaled path
    keeps the loss at norm 1 there too. The floor still keeps each weight
    1/||g_t|| below 6.7e153: a norm below about 5.6e-309 gives an infinite
    weight, which summarize refuses. It also keeps every fed gradient off
    the scaled path, which costs about 6 us a call at d = 10 where the dot
    product costs 1 us (2-vCPU Xeon host).
    """
    if not (EPS_ZERO_FLOOR <= eps_zero < math.inf):
        raise ContractViolation(
            f"eps_zero must be finite and at least {EPS_ZERO_FLOOR!r}, got {eps_zero!r}")
    return eps_zero


@dataclass
class RunRecord:
    """Full trajectory of one driver run: per-step columns, then averages.

    The columns cover exactly the loss-fed steps. Each is a float64 array
    with one row per step: iterates is (steps_taken, d), the others 1-D.
    A run_lockstep record keeps no iterates (None). The step loop records
    only the iterates and gradient norms; suboptimalities (f(x_t) - f*) and
    dist_sq (||x_t - x*||^2) are computed from the iterates after it.
    weights are 1/||g_t|| for a unit-norm learner and 1.0 for adagrad_da;
    local_constants come from local_constant_from_parts, NaN at a nu > 0
    step whose gap is 0 or overflowed. stop_index is the step whose
    gradient norm fell to eps_zero (its point becomes average_point),
    exceeded_index the first step whose raw gradient norm exceeded G +
    1e-9; steps_taken, terminated_early and grad_bound_exceeded derive from
    them and the columns.

    average_suboptimality is f(average_point) - f*. mean_suboptimality is
    the same weighting applied to the per-step suboptimalities; it
    upper-bounds average_suboptimality and is the statistic used for rate
    fitting. `summarize` computes the averages.
    """

    horizon: int
    iterates: np.ndarray | None
    grad_norms: np.ndarray
    suboptimalities: np.ndarray
    weights: np.ndarray
    local_constants: np.ndarray
    dist_sq: np.ndarray
    stop_index: int | None = None
    exceeded_index: int | None = None
    average_point: np.ndarray | None = None
    average_suboptimality: float = 0.0
    mean_suboptimality: float = 0.0

    @property
    def steps_taken(self) -> int:
        return len(self.grad_norms)

    @property
    def terminated_early(self) -> bool:
        return self.stop_index is not None

    @property
    def grad_bound_exceeded(self) -> bool:
        return self.exceeded_index is not None


@contextmanager
def _overflow_unwarned():
    """Silence numpy's overflow warnings: the caller checks what they would
    report, a value that is not finite. np.errstate(over="ignore") would do
    the same, but numpy takes a slower path for every call made under an
    error state other than the default (about 0.2 us per call at d = 10)."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)
        yield


def summarize(run: RunRecord, horizon: int, problem: Problem) -> RunRecord:
    """The record of the horizon-step run, with its averages computed from
    the columns `run` recorded.

    The driver calls this on its own run; for an anytime learner, whose
    steps never read the horizon, it also gives every shorter horizon's
    record, bit for bit, from views of the first `horizon` rows of each
    column, which copy nothing. A horizon at or after the run's early stop
    gets the stopped record, whose point is the stop point. A horizon past
    the recorded steps of a run that did not stop raises ContractViolation.
    """
    stopped = run.stop_index is not None and run.stop_index <= horizon
    steps = run.steps_taken if stopped else horizon
    if not stopped and not 1 <= horizon <= run.steps_taken:
        raise ContractViolation(
            f"cannot summarize {horizon} steps of a run that recorded {run.steps_taken}")
    weights, gaps = run.weights[:steps], run.suboptimalities[:steps]
    point = run.average_point
    # an overflow shows as a gap that is not finite, which the caller checks
    with _overflow_unwarned():
        if not stopped:
            points = WeightedMeanAccumulator(problem.dimension)
            points.push(run.iterates[:steps], weights)
            point = points.finalize()
        gap = problem.gap(point)
        # left to right from 0.0, as the accumulator adds
        mean_gap = left_sum(weights * gaps) / left_sum(weights) if steps else gap
    exceeded = run.exceeded_index is not None and run.exceeded_index <= steps
    return RunRecord(horizon, run.iterates[:steps], run.grad_norms[:steps], gaps, weights,
                     run.local_constants[:steps], run.dist_sq[:steps],
                     run.stop_index if stopped else None,
                     run.exceeded_index if exceeded else None, point, gap, mean_gap)


def _check_run(config: LearnerConfig, problem: Problem, horizon: int) -> None:
    """Refuse a horizon below 1 or a start of another dimension."""
    if horizon < 1:
        raise ContractViolation(f"horizon must be >= 1, got {horizon}")
    if config.start.size != problem.dimension:
        raise ContractViolation(
            f"start has dimension {config.start.size}, problem wants {problem.dimension}")


def _gaps_and_dist_sq(problem: Problem, points: np.ndarray) -> tuple:
    """The gap and the squared distance from x* of each row of a block of
    iterates, each equal to its one-point value."""
    z = points - problem.minimizer
    return problem.gap(points), dot(z, z)


def _local_constants(spec: HolderSpec, grad_norms: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """One block call of local_constant_from_parts over the steps that have
    a local constant, NaN at the others (a nu > 0 step whose gap is 0 or
    not finite)."""
    live = ((gaps > 0.0) & (gaps < math.inf)) | (spec.nu == 0.0)
    local = np.full_like(gaps, np.nan)
    local[live] = local_constant_from_parts(spec, grad_norms[live], gaps[live])
    return local


def _drive(config: LearnerConfig, problem: Problem, horizon: int,
           eps_zero: float = DEFAULT_EPS_ZERO) -> RunRecord:
    """The step loop behind both drivers: it records each step's iterate
    and gradient norm, then derives the other per-step columns once.

    Each round serves x_t and makes its one oracle call, g_t = grad f(x_t).
    A gradient norm that is not finite (a NaN or inf coordinate, or an
    overflow), or a learner's point whose computation overflows, raises
    NumericalFailure naming the step; numpy's overflow
    warnings are off, as that check and the caller's check of the bounds
    report an overflow. A unit-norm learner stops returning x_t if
    ||g_t|| <= eps_zero; otherwise the round records (x_t, ||g_t||) and feeds
    the learner g_t / ||g_t|| (unit-norm learners, norm 1 by check_eps_zero)
    or the raw g_t (adagrad_da, which never stops early; a norm above G only
    sets exceeded_index). After the loop problem.gap and dot take the
    recorded iterates in blocks of chunk_rows(d) rows (each row equal to its
    one-point call), giving the gaps and dist_sq; config.kind in
    UNIT_NORM_KINDS alone decides the weights, _local_constants gives the
    local constants, and `summarize` computes the averages.

    The iterates go into the rows of one array that doubles when full, so a
    run that stops early never allocates for its horizon.
    """
    _check_run(config, problem, horizon)
    learner = make_learner(config, horizon)
    unit = config.kind in UNIT_NORM_KINDS
    d = problem.dimension
    iterates = np.empty((min(horizon, 16), d))
    grad_norms = []
    stop_index, stop_point = None, None

    with _overflow_unwarned():
        for t in range(1, horizon + 1):
            try:
                x = learner.next_point()
            except OverflowError as exc:  # adagrad_da's G ** 2, for a G above about 1.3e154
                raise NumericalFailure(f"the learner's point at step {t} overflows") from exc
            g = problem.grad(x)
            gn = l2_norm(g)
            if not math.isfinite(gn):
                raise NumericalFailure(f"the gradient norm at step {t} is not finite")
            if unit and gn <= eps_zero:
                stop_index, stop_point = t, x.copy()
                break
            if t > len(iterates):
                # no view of the buffer exists yet, so it may move
                iterates.resize((min(2 * len(iterates), horizon), d), refcheck=False)
            iterates[t - 1] = x
            grad_norms.append(gn)
            learner.observe(g / gn if unit else g)

        grad_norms = np.array(grad_norms)
        iterates.resize((len(grad_norms), d), refcheck=False)
        gaps, dist_sq = np.empty_like(grad_norms), np.empty_like(grad_norms)
        chunk = chunk_rows(d)
        for lo in range(0, len(gaps), chunk):
            gaps[lo:lo + chunk], dist_sq[lo:lo + chunk] = _gaps_and_dist_sq(
                problem, iterates[lo:lo + chunk])
        weights = 1.0 / grad_norms if unit else np.ones_like(grad_norms)
        local = _local_constants(problem.spec, grad_norms, gaps)
    over = np.flatnonzero(grad_norms > config.grad_bound_init + 1e-9)
    exceeded = int(over[0]) + 1 if over.size and not unit else None
    return summarize(RunRecord(horizon, iterates, grad_norms, gaps, weights, local, dist_sq,
                               stop_index, exceeded, stop_point), horizon, problem)


def run_normalized(config: LearnerConfig, problem: Problem, horizon: int,
                   eps_zero: float = DEFAULT_EPS_ZERO) -> RunRecord:
    """Drive a unit-norm learner with normalized gradients g_t / ||g_t|| for
    <= horizon steps, stopping at a step with ||g_t|| <= eps_zero. Without
    an early stop the returned point is the 1/||g_t||-weighted average of
    the iterates."""
    if config.kind not in UNIT_NORM_KINDS:
        raise ContractViolation(
            f"run_normalized drives unit-norm learners {UNIT_NORM_KINDS}, "
            f"got {config.kind!r}; use run_adagrad_warmup for raw gradients")
    return _drive(config, problem, horizon, check_eps_zero(eps_zero))


def run_adagrad_warmup(config: LearnerConfig, problem: Problem, horizon: int) -> RunRecord:
    """Drive adagrad_da with raw gradients for exactly horizon steps; the
    average is uniform over the iterates. A realized gradient norm above the
    configured bound G does not abort the run; it only sets
    grad_bound_exceeded (the guarantee is void then, as callers check)."""
    if config.kind != "adagrad_da":
        raise ContractViolation(
            f"run_adagrad_warmup drives adagrad_da, got {config.kind!r}; "
            f"use run_normalized for unit-norm learners")
    return _drive(config, problem, horizon)


def _running_sum(total: np.ndarray, values: np.ndarray) -> np.ndarray:
    """total plus the rows of values along axis 0, added left to right as
    the WeightedMeanAccumulator and left_sum add; values is overwritten."""
    values[0] += total
    return np.add.accumulate(values, axis=0, out=values)[-1].copy()


def run_lockstep(problem: Problem, rows, eps_zero: float = DEFAULT_EPS_ZERO):
    """Drive ogd_const with normalized gradients on problem for every
    (config, horizon) of rows in one step loop. Yield (i, record) as soon
    as rows[i] ends: the record run_normalized(config, problem, horizon,
    eps_zero) returns, bit for bit, but with no iterates. A row whose
    gradient norm at some step is not finite yields (i, error) instead, the
    NumericalFailure run_normalized raises, and the live rows after it in
    rows are dropped unreported.

    The live rows, longest horizon first, are a prefix of one (rows, d)
    block. Each step makes one block grad and one block l2_norm call and
    sets every row x <- x - (alpha / sqrt(T)) * (g / ||g||), as the
    one-point step does; a lone row steps as one point, which costs less.
    A row leaves at its horizon, or at a gradient norm at most eps_zero,
    whose point is then its average point. The iterates of a chunk of
    chunk_rows(rows * d) steps live until the chunk ends or a row leaves:
    then one block gap and one block dot give the rows' gaps and dist_sq,
    and the weighted point, weight and weighted gap sums advance left to
    right, as summarize adds them.
    """
    eps_zero = check_eps_zero(eps_zero)
    for config, horizon in rows:
        if config.kind != "ogd_const":
            raise ContractViolation(f"run_lockstep drives ogd_const, got {config.kind!r}")
        _check_run(config, problem, horizon)
    d, floor = problem.dimension, math.nextafter(eps_zero, math.inf)
    live = sorted(range(len(rows)), key=lambda i: -rows[i][1])  # row indices
    x = np.array([rows[i][0].start for i in live]).reshape(len(live), d)
    eta = np.array([rows[i][0].step_scale / math.sqrt(rows[i][1]) for i in live])
    point_sums, weight_sums, gap_sums = np.zeros_like(x), np.zeros(len(live)), np.zeros(len(live))
    # each live row's grad norm, gap and dist_sq columns, filled step by step;
    # a long row's pages are touched only as its steps come
    columns = {i: np.empty((3, rows[i][1])) for i in live}
    # halting: the gradients and norms of a step that stops or fails rows;
    # kept: those of the rows that go on from that step
    t, cutoff, kept = 0, len(rows), None

    def record(p, stop_index=None):
        i = live[p]
        steps = rows[i][1] if stop_index is None else stop_index - 1
        norms, gaps, dist_sq = columns.pop(i)[:, :steps]
        weight_sum = weight_sums[p].item()
        point = point_sums[p] / weight_sum if stop_index is None else x[p].copy()
        gap = problem.gap(point)
        mean_gap = gap_sums[p].item() / weight_sum if len(norms) else gap
        return i, RunRecord(rows[i][1], None, norms, gaps, 1.0 / norms,
                            _local_constants(problem.spec, norms, gaps), dist_sq,
                            stop_index, None, point, gap, mean_gap)

    while live:
        ended = []
        with _overflow_unwarned():
            while live and not ended:
                k = len(live)
                size = chunk_rows(k * d)
                points, norms = np.empty((size + 1, k, d)), np.empty((size, k))
                points[0] = x
                fed, halting, last = 0, None, rows[live[-1]][1]
                base = t - (kept is not None)  # the steps each live row has been fed
                if kept is not None:  # the rest of a step that stopped or failed rows
                    g, gn = kept
                    norms[0] = gn
                    np.subtract(x, eta[:, None] * (g / gn[:, None]), out=points[1])
                    fed, kept = 1, None
                # one row steps as one point, which costs less and gives the same bits
                single = k == 1
                xs, ns = (points[:, 0], norms[:, 0]) if single else (points, norms)
                scale = eta.item() if single else eta[:, None]
                while fed < size and t < last:
                    t += 1
                    x_t = xs[fed]
                    g = problem.grad(x_t)
                    gn = l2_norm(g)
                    if single:
                        if not eps_zero < gn < math.inf:
                            halting = g[None], np.array([gn])
                            break
                        ns[fed] = gn
                        np.subtract(x_t, scale * (g / gn), out=xs[fed + 1])
                    else:
                        if not finite_at_least(gn, floor) and not all(
                                eps_zero < v < math.inf for v in gn.tolist()):
                            halting = g, gn
                            break
                        ns[fed] = gn
                        np.subtract(x_t, scale * (g / gn[:, None]), out=xs[fed + 1])
                    fed += 1
                if fed:
                    gaps, dists = (column.reshape(fed, k) for column in _gaps_and_dist_sq(
                        problem, points[:fed].reshape(fed * k, d)))
                    w = 1.0 / norms[:fed]
                    point_sums = _running_sum(point_sums, points[:fed] * w[:, :, None])
                    gap_sums = _running_sum(gap_sums, w * gaps)
                    weight_sums = _running_sum(weight_sums, w)
                    for p, i in enumerate(live):
                        columns[i][:, base:base + fed] = norms[:fed, p], gaps[:, p], dists[:, p]
                x = points[fed]
                gone = []  # the positions of the rows that leave at step t
                if halting is not None:  # step t stops or fails these rows
                    for p, v in enumerate(halting[1].tolist()):
                        if not math.isfinite(v):
                            ended.append((live[p], NumericalFailure(
                                f"the gradient norm at step {t} is not finite")))
                            cutoff = min(cutoff, live[p])
                            gone.append(p)
                        elif v <= eps_zero:
                            ended.append(record(p, t))
                            gone.append(p)
                elif t == last:
                    gone = [p for p, i in enumerate(live) if rows[i][1] == t]
                    ended += map(record, gone)
                keep = np.array([p not in gone and i < cutoff for p, i in enumerate(live)])
                if halting is not None:
                    kept = halting[0][keep], halting[1][keep]
                if not keep.all():
                    for p in np.flatnonzero(~keep).tolist():
                        columns.pop(live[p], None)
                    live = [i for i, stays in zip(live, keep.tolist()) if stays]
                    x, eta, point_sums = x[keep], eta[keep], point_sums[keep]
                    weight_sums, gap_sums = weight_sums[keep], gap_sums[keep]
        yield from ended


class MeanTriple(NamedTuple):
    hm: float
    gm: float
    am: float


def hm_gm_am(values: Sequence[float]) -> MeanTriple:
    """Harmonic, geometric, and arithmetic means of positive numbers.

    The geometric mean is computed through the mean of logarithms; the
    returned triple satisfies hm <= gm <= am up to relative 1e-12. The
    sums are left_sums of Python floats, for both callers: means_ordering
    (1 to 64 values) and bound_report (256 to 16,384 local constants per
    default-sweep cell). The libm log per value dominates at both sizes;
    numpy would cost more at 64 and save 20-30 % at 16,384.
    """
    vals = np.asarray(values, dtype=np.float64).tolist()
    if not vals:
        raise ContractViolation("hm_gm_am requires a nonempty sequence")
    for v in vals:
        if not 0.0 < v < math.inf:
            raise ContractViolation(f"hm_gm_am requires positive finite values, got {v}")
    n = len(vals)
    return MeanTriple(n / left_sum([1.0 / v for v in vals]),
                      math.exp(left_sum(map(math.log, vals)) / n), left_sum(vals) / n)


def regret_to_gap_bound(psi_at_xstar: float, steps: int, spec: HolderSpec,
                        local_ls: Sequence[float]) -> tuple[float, float]:
    """Compose a regret bound with local constants into the two gap bounds
    (gm, am):

    alpha^nu * (psi/steps)^(1+nu) * M, with M the geometric (gm) or the
    arithmetic (am) mean of local_ls; both means come from one hm_gm_am.
    At nu = 0 the alpha factor is 1 and the expression reduces to
    (psi/steps) * M.
    """
    if not (psi_at_xstar >= 0.0):
        raise ContractViolation(f"psi_at_xstar must be >= 0, got {psi_at_xstar}")
    if steps < 1:
        raise ContractViolation(f"steps must be >= 1, got {steps}")
    if len(local_ls) > steps:
        raise ContractViolation(
            f"got {len(local_ls)} local constants for {steps} steps")
    means = hm_gm_am(local_ls)
    scale = spec.alpha_pow_nu * (psi_at_xstar / steps) ** (1.0 + spec.nu)
    return scale * means.gm, scale * means.am


def closed_form_rate(problem: Problem, config: LearnerConfig, horizon: int) -> float:
    """Deterministic worst-case bound on f(xbar_T) - f* after T = horizon steps.

    With D = ||x_1 - x*||, C = L (1 + 1/nu)^nu (limit 1 at nu = 0, with L
    the nu = 0 gradient bound in that case), each kind gives a base B and
    the bound is C * B^(1+nu):

    ogd_const   B = (D^2/alpha + alpha) / (2 sqrt(T))
    da_sqrt     B = (D^2/(2 alpha) + alpha) / sqrt(T)
    kt          B = D sqrt(ln(24 T^2 D^2/d0^2 + 1))/sqrt(T) + d0/T
    adagrad_da  B = (D^2/alpha + 2 alpha)/sqrt(T), and the bound is the
                larger of C * B^(1+nu) and (G/T) (D^2/alpha + 2 alpha)
    """
    if horizon < 1:
        raise ContractViolation(f"horizon must be >= 1, got {horizon}")
    kind, nu = config.kind, problem.spec.nu
    l_rate = problem.spec.l_nu if nu > 0.0 else problem.grad_norm_bound
    if l_rate is None:
        raise ContractViolation(
            f"{problem.family} declares nu = 0 but no gradient norm bound")
    d = l2_norm(config.start - problem.minimizer)
    alpha = config.step_scale
    rt = math.sqrt(horizon)
    if kind == "ogd_const":
        base = (d * d / alpha + alpha) / (2.0 * rt)
    elif kind == "da_sqrt":
        base = (d * d / (2.0 * alpha) + alpha) / rt
    elif kind == "kt":
        d0 = config.wealth_init
        log_arg = 24.0 * horizon * horizon * d * d / (d0 * d0) + 1.0
        base = d * math.sqrt(math.log(log_arg)) / rt + d0 / horizon
    else:  # adagrad_da
        c = d * d / alpha + 2.0 * alpha
        base = c / rt
    smooth = l_rate * problem.spec.alpha_pow_nu * base ** (1.0 + nu)
    if kind == "adagrad_da":
        return max(smooth, config.grad_bound_init / horizon * c)
    return smooth


@dataclass
class BoundReport:
    """Theoretical bounds next to the measured suboptimality of one run.

    bound_gm / bound_am compose the regret guarantee with the geometric /
    arithmetic mean of the realized local constants; bound_closed_form is
    the worst-case display. measured is f(average_point) - f*. For a run
    stopped before feeding any loss the composed bounds degenerate to 0.
    """

    psi_at_xstar: float
    bound_gm: float
    bound_am: float
    bound_closed_form: float
    measured: float


def bound_report(run: RunRecord, problem: Problem, config: LearnerConfig) -> BoundReport:
    """Assemble the bound report for a run produced with (problem, config).

    The composed bounds use the number of loss-fed steps; the ogd_const
    regret guarantee is always evaluated at run.horizon, which its step
    reads (valid for any prefix). The local constants are the run's own
    column, without the steps at the optimum (NaN); adagrad_da's bound is
    its regret over the steps, psi/steps, for both means.
    """
    d = l2_norm(config.start - problem.minimizer)
    measured = run.average_suboptimality
    closed = closed_form_rate(problem, config, run.horizon)
    steps = run.steps_taken
    if steps == 0:
        return BoundReport(0.0, 0.0, 0.0, closed, measured)

    if config.kind == "adagrad_da":
        grad_sq = left_sum(run.grad_norms * run.grad_norms)
        psi = regret_bound(config, d, steps, grad_sq_sum=grad_sq)
        gap_bound = psi / steps
        return BoundReport(psi, gap_bound, gap_bound, closed, measured)

    psi_horizon = run.horizon if config.kind == "ogd_const" else steps
    psi = regret_bound(config, d, psi_horizon)
    local = run.local_constants[~np.isnan(run.local_constants)]
    gm, am = regret_to_gap_bound(psi, steps, problem.spec, local) if local.size else (0.0, 0.0)
    return BoundReport(psi, gm, am, closed, measured)


def start_at_distance(problem: Problem, distance: float, seed: int) -> np.ndarray:
    """Start point at a given distance from the minimizer, direction seeded."""
    if not (distance >= 0.0):
        raise ContractViolation(f"distance must be >= 0, got {distance}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(problem.dimension)
    return problem.minimizer + distance * (v / l2_norm(v))
