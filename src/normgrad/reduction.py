"""The black-box driver and the theoretical bound compositions.

`_drive` is the one step loop. It steps one run at a point, or many runs
of one kind as the rows of a (k, d) block, whose problems may differ in nu
(`problems.block_problem`). Its two one-run entry points are
`run_normalized`, which feeds a unit-norm learner the normalized gradients
g_t / ||g_t|| and returns the 1/||g_t||-weighted average of the iterates
(stopping immediately when a gradient norm falls to the zero threshold),
and `run_adagrad_warmup`, which feeds raw gradients to the adagrad_da
learner and returns the uniform average (the same loop with weight 1).
Their records keep the iterates; the record of a block row equals the
one-run entry's without them.

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
    ANYTIME_KINDS,
    UNIT_NORM_KINDS,
    LearnerConfig,
    make_learner,
    regret_bound,
    stack_learners,
)
from .problems import HolderSpec, Problem, block_problem, local_constant_from_parts
from .vectors import WeightedMeanAccumulator, chunk_rows, dot, finite_at_least, l2_norm, left_sum

__all__ = [
    "DEFAULT_EPS_ZERO",
    "EPS_ZERO_FLOOR",
    "check_eps_zero",
    "RunRecord",
    "run_normalized",
    "run_adagrad_warmup",
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
    Only a one-run record (run_normalized, run_adagrad_warmup, and the
    records summarize takes from it) keeps its iterates; the record of a
    _drive block row keeps none (None), whatever its kind. The step loop
    records the iterates and gradient norms; suboptimalities (f(x_t) - f*)
    and dist_sq (||x_t - x*||^2) are computed from the iterates per chunk
    of steps.
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
    fitting. The driver streams the averages' sums as it steps;
    `summarize` computes them from a one-run record's columns.
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

    For an anytime learner, whose steps never read the horizon, it gives
    every shorter horizon's record of a one-run record that keeps its
    iterates, bit for bit, from views of the first `horizon` rows of each
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


def _local_constants(spec: HolderSpec, grad_norms: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Block calls of local_constant_from_parts, one per chunk of
    chunk_rows(1) steps, over the steps that have a local constant, NaN at
    the others (a nu > 0 step whose gap is 0 or not finite)."""
    local = np.full_like(gaps, np.nan)
    chunk = chunk_rows(1)
    for lo in range(0, len(gaps), chunk):
        norms, part = grad_norms[lo:lo + chunk], gaps[lo:lo + chunk]
        live = ((part > 0.0) & (part < math.inf)) | (spec.nu == 0.0)
        local[lo:lo + chunk][live] = local_constant_from_parts(spec, norms[live], part[live])
    return local


def _chunk_gaps(groups, points: np.ndarray) -> tuple:
    """The gaps and dist_sq, (steps, k) each, of a (steps, k, d) chunk whose
    column p holds row p's points: one block gap and one block dot per
    (problem, its columns) of groups, each value equal to its one-point call."""
    steps, _, d = points.shape
    gaps, dist_sq = np.empty(points.shape[:2]), np.empty(points.shape[:2])
    for problem, cols in groups:
        block = points[:, cols].reshape(-1, d)
        z = block - problem.minimizer
        gaps[:, cols] = problem.gap(block).reshape(steps, -1)
        dist_sq[:, cols] = dot(z, z).reshape(steps, -1)
    return gaps, dist_sq


def _grow(array: np.ndarray, n: int, cap: int) -> None:
    """Resize array in place along its first axis to hold at least n rows,
    doubling it but to at most cap rows, its rows so far kept. No view of
    it may be alive."""
    if n > len(array):
        array.resize((min(max(2 * len(array), n), cap),) + array.shape[1:], refcheck=False)


def _drive(rows, eps_zero: float = DEFAULT_EPS_ZERO, *, iterates: bool = False):
    """The step loop. Drive each (config, problem, horizons) row of rows,
    all of one kind and dimension, from its config's start to its longest
    horizon, and yield (i, records) as rows[i] ends: its records at its
    horizons, in their order (a repeated horizon shares one), each equal
    bit for bit to summarize's of the same run at that horizon. An
    ogd_const row, whose step reads the horizon, has one horizon. A row
    whose run fails yields (i, error), its NumericalFailure, and the live
    rows after it in rows are dropped unreported.

    Each round every live row serves x_t and gets g_t = grad f(x_t), from
    one grad call of block_problem over the rows. A gradient norm that is
    not finite (a NaN or inf coordinate, or an overflow) fails the row at
    that step, and a learner that cannot be made (adagrad_da's G ** 2
    overflows) fails it at step 1; numpy's overflow warnings are off, as
    that check and the caller's check of the bounds report an overflow. A
    unit-norm row stops returning x_t if ||g_t|| <= eps_zero: x_t is then
    the average point of its records from that horizon on. Otherwise the
    round records x_t and ||g_t|| and feeds the learner g_t / ||g_t||
    (unit-norm learners, norm 1 by check_eps_zero) or the raw g_t
    (adagrad_da, which never stops early; a norm above G only sets
    exceeded_index). The rows that go on from a step that stops or fails
    others are fed that step's gradients, with no second grad call.

    The points of a chunk of chunk_rows(k * d) steps live until the chunk
    ends or a row leaves: then _chunk_gaps gives the rows' gaps and
    dist_sq, and each row's weighted point, weight and weighted gap sums
    advance left to right, as summarize adds them, with the sums kept at
    each requested horizon. A row keeps its grad-norm, gap and dist_sq
    columns; its weights (1/||g_t|| for a unit-norm kind, 1.0 for
    adagrad_da) and local constants (_local_constants) are derived once
    when it ends.

    The live rows step as one (k, d) block (stack_learners), and as one
    point, with learner and oracle calls on (d,) vectors, whenever one row
    is live, which costs less and gives the same bits. Only with iterates,
    for a lone row, do its records keep its iterates, in one array that
    doubles when full, so a run that stops early never allocates for its
    horizon.
    """
    kind, d = rows[0][0].kind, rows[0][1].dimension
    for config, problem, horizons in rows:
        if (config.kind != kind or problem.dimension != d or not horizons
                or len(set(horizons)) > 1 and kind not in ANYTIME_KINDS):
            raise ContractViolation(
                "the rows of one drive share a learner kind and a dimension, and have "
                "horizons, one for ogd_const")
        for horizon in horizons:
            _check_run(config, problem, horizon)
    unit = kind in UNIT_NORM_KINDS
    floor = math.nextafter(eps_zero, math.inf) if unit else 0.0  # the least norm fed
    live, learners = [], []  # row indices, and their learners
    for i, (config, _, horizons) in enumerate(rows):
        try:
            learners.append(make_learner(config, max(horizons)))
        except OverflowError:  # adagrad_da's G ** 2, for a G above about 1.3e154
            yield i, NumericalFailure("the learner's point at step 1 overflows")
            break
        live.append(i)
    if not live:
        return
    learner = learners[0] if len(live) == 1 else stack_learners(learners)
    ends = [max(rows[i][2]) for i in live]
    # each live row's grad norm, gap and dist_sq columns, filled chunk by chunk
    columns = {i: np.empty((min(end, 16), 3)) for i, end in zip(live, ends)}
    # the horizons each live row has yet to reach, and its sums at those reached
    waiting = {i: sorted(set(rows[i][2])) for i in live}
    sums_at = {i: {} for i in live}
    point_sums = np.zeros((len(live), d))
    weight_sums, gap_sums = np.zeros(len(live)), np.zeros(len(live))
    visited = np.empty((min(ends[0], 16), d)) if iterates else None
    # kept: the points, gradients and norms of the rows that go on from a
    # step that stopped or failed others
    t, cutoff, kept = 0, len(rows), None

    def layout():
        """The block problem of the live rows, and each problem's columns."""
        groups = {}
        for p, i in enumerate(live):
            groups.setdefault(id(rows[i][1]), (rows[i][1], []))[1].append(p)
        return block_problem([rows[i][1] for i in live]), list(groups.values())

    def records(p, stop=None, stop_point=None):
        """The records of live row p, which reached its longest horizon or
        stopped at step stop, in the order of its horizons."""
        i = live[p]
        config, problem, horizons = rows[i]
        steps = ends[p] if stop is None else stop - 1
        norms, gaps, dist_sq = columns.pop(i)[:steps].T
        weights = 1.0 / norms if unit else np.ones_like(norms)
        local = _local_constants(problem.spec, norms, gaps)
        over = np.flatnonzero(norms > config.grad_bound_init + 1e-9)
        exceeded = int(over[0]) + 1 if over.size and not unit else None
        if iterates:
            visited.resize((steps, d), refcheck=False)
        made = {}
        for horizon in set(horizons):
            if stop is not None and stop <= horizon:
                n, point, stop_index = steps, stop_point, stop
                weight_sum, gap_sum = weight_sums[p].item(), gap_sums[p].item()
            else:
                n, stop_index = horizon, None
                point_sum, weight_sum, gap_sum = sums_at[i][horizon]
                point = point_sum / weight_sum
            gap = problem.gap(point)
            made[horizon] = RunRecord(
                horizon, visited[:n] if iterates else None, norms[:n], gaps[:n], weights[:n],
                local[:n], dist_sq[:n], stop_index,
                exceeded if exceeded is not None and exceeded <= n else None, point, gap,
                gap_sum / weight_sum if n else gap)
        return [made[horizon] for horizon in horizons]

    oracle, groups = layout()
    with _overflow_unwarned():
        while live:
            k = len(live)
            single = k == 1
            size = chunk_rows(k * d)
            points, norms = np.empty((size, k, d)), np.empty((size, k))
            xs, ns = (points[:, 0], norms[:, 0]) if single else (points, norms)
            fed, halting, last = 0, None, min(ends)
            base = t - (kept is not None)  # the steps each live row has been fed
            if kept is not None:  # the rest of a step that stopped or failed rows
                points[0], g, norms[0] = kept
                q = g / norms[0][:, None] if unit else g
                learner.observe(q[0] if single else q)
                fed, kept = 1, None
            next_point, observe, grad = learner.next_point, learner.observe, oracle.grad
            while fed < size and t < last:
                t += 1
                x = next_point()
                g = grad(x)
                gn = l2_norm(g)
                if single:
                    if not floor <= gn < math.inf:
                        halting = x[None], g[None], np.array([gn])
                        break
                    q = g / gn if unit else g
                elif finite_at_least(gn, floor) or all(floor <= v < math.inf for v in gn.tolist()):
                    q = g / gn[:, None] if unit else g
                else:
                    halting = x, g, gn
                    break
                xs[fed], ns[fed] = x, gn
                observe(q)
                fed += 1
            if fed:
                gaps, dist_sq = _chunk_gaps(groups, points[:fed])
                w = 1.0 / norms[:fed] if unit else np.ones((fed, k))
                at_points = _running_sum(point_sums, points[:fed] * w[:, :, None])
                at_gaps = _running_sum(gap_sums, w * gaps)
                at_weights = _running_sum(weight_sums, w)  # last: w is overwritten
                point_sums, weight_sums, gap_sums = (
                    at[-1].copy() for at in (at_points, at_weights, at_gaps))
                stacked = np.stack((norms[:fed], gaps, dist_sq), 2)
                for p, i in enumerate(live):
                    _grow(columns[i], base + fed, ends[p])
                    columns[i][base:base + fed] = stacked[:, p]
                    while waiting[i] and waiting[i][0] <= base + fed:
                        j = waiting[i].pop(0) - base - 1
                        sums_at[i][base + j + 1] = (
                            at_points[j, p].copy(), at_weights[j, p].item(), at_gaps[j, p].item())
                if iterates:
                    _grow(visited, base + fed, ends[0])
                    visited[base:base + fed] = xs[:fed]
            gone = {}  # position: None (its longest horizon), (stop step, point) or error
            if halting is not None:  # step t stops or fails these rows
                for p, v in enumerate(halting[2].tolist()):
                    if not math.isfinite(v):
                        gone[p] = NumericalFailure(f"the gradient norm at step {t} is not finite")
                        cutoff = min(cutoff, live[p])
                    elif v < floor:
                        gone[p] = (t, halting[0][p].copy())
            elif t == last:
                gone = {p: None for p, end in enumerate(ends) if end == t}
            for p, end in gone.items():
                yield live[p], (end if isinstance(end, NumericalFailure)
                                else records(p, *end or ()))
            keep = np.array([p not in gone and i < cutoff for p, i in enumerate(live)])
            if halting is not None:
                kept = tuple(column[keep] for column in halting)
            if not keep.all():
                for p in np.flatnonzero(~keep).tolist():
                    columns.pop(live[p], None)
                live = [i for i, stays in zip(live, keep.tolist()) if stays]
                ends = [end for end, stays in zip(ends, keep.tolist()) if stays]
                point_sums, weight_sums, gap_sums = (
                    sums[keep] for sums in (point_sums, weight_sums, gap_sums))
                if live:
                    learner.keep(keep)
                    oracle, groups = layout()


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
    return _run(config, problem, horizon, check_eps_zero(eps_zero))


def run_adagrad_warmup(config: LearnerConfig, problem: Problem, horizon: int) -> RunRecord:
    """Drive adagrad_da with raw gradients for exactly horizon steps; the
    average is uniform over the iterates. A realized gradient norm above the
    configured bound G does not abort the run; it only sets
    grad_bound_exceeded (the guarantee is void then, as callers check)."""
    if config.kind != "adagrad_da":
        raise ContractViolation(
            f"run_adagrad_warmup drives adagrad_da, got {config.kind!r}; "
            f"use run_normalized for unit-norm learners")
    return _run(config, problem, horizon, DEFAULT_EPS_ZERO)


def _run(config: LearnerConfig, problem: Problem, horizon: int, eps_zero: float) -> RunRecord:
    """The record of one run, a lone row of _drive, with its iterates; its
    NumericalFailure is raised."""
    (_, records), = _drive([(config, problem, (horizon,))], eps_zero, iterates=True)
    if isinstance(records, NumericalFailure):
        raise records
    return records[0]


def _running_sum(total: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The running totals of total plus the rows of values along axis 0,
    added left to right as the WeightedMeanAccumulator and left_sum add;
    they overwrite values."""
    values[0] += total
    return np.add.accumulate(values, axis=0, out=values)


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
