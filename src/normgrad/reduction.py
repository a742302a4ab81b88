"""Black-box drivers and the theoretical bound compositions.

Both drivers run one step loop. `run_normalized` feeds a unit-norm
learner the normalized gradients g_t / ||g_t|| and returns the
1/||g_t||-weighted average of the iterates (stopping immediately when a
gradient norm falls to the zero threshold). `run_adagrad_warmup` feeds raw
gradients to the adagrad_da learner and returns the uniform average (the
same loop with weight 1).

The bound side composes a regret guarantee psi with the mean of pointwise
local smoothness constants:

    f(xbar_T) - f*  <=  alpha^nu (psi/T)^(1+nu) * mean(L(x_t))

where the mean is geometric (sharper) or arithmetic, and alpha^nu is the
derived factor of the problem's smoothness record ((1+1/nu)^nu for the
shipped families, limit 1 at nu = 0; at nu = 0 the local constants are the
gradient norms themselves). `closed_form_rate` evaluates the per-learner
worst-case displays obtained by relaxing the local constants to the global
one.
"""

from __future__ import annotations

import math
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
from .vectors import WeightedMeanAccumulator, l2_norm

__all__ = [
    "DEFAULT_EPS_ZERO",
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


@dataclass
class RunRecord:
    """Full trajectory of one driver run: per-step columns, then averages.

    The columns cover exactly the loss-fed steps. iterates are the rows of
    one (steps_taken, d) float64 array; the others are lists of Python
    floats. weights are 1/||g_t|| for a unit-norm learner and 1.0 for
    adagrad_da; local_constants come from local_constant_from_parts, None
    at a nu > 0 step whose gap is 0. The driver derives both once per run.
    stop_index is the step whose gradient norm fell to eps_zero (its point
    becomes average_point), exceeded_index the first step whose raw
    gradient norm exceeded G + 1e-9; steps_taken, terminated_early and
    grad_bound_exceeded are read from them and from the columns.

    average_suboptimality is f(average_point) - f*. mean_suboptimality is
    the same weighting applied to the per-step suboptimalities; it
    upper-bounds average_suboptimality and is the statistic used for rate
    fitting. `summarize` computes the averages.
    """

    horizon: int
    iterates: np.ndarray
    grad_norms: list
    suboptimalities: list
    weights: list
    local_constants: list
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


def summarize(run: RunRecord, horizon: int, problem: Problem) -> RunRecord:
    """The record of the horizon-step run, with its averages computed from
    the columns `run` recorded.

    The driver calls this on its own run; for an anytime learner, whose
    steps never read the horizon, it also gives every shorter horizon's
    record, bit for bit, from the first `horizon` rows of each column. A
    horizon at or after the run's early stop gets the stopped record, whose
    point is the stop point. A horizon past the recorded steps of a run
    that did not stop raises ContractViolation.
    """
    stopped = run.stop_index is not None and run.stop_index <= horizon
    steps = run.steps_taken if stopped else horizon
    if not stopped and not 1 <= horizon <= run.steps_taken:
        raise ContractViolation(
            f"cannot summarize {horizon} steps of a run that recorded {run.steps_taken}")
    weights, gaps = run.weights[:steps], run.suboptimalities[:steps]
    point, mean_gap = run.average_point, None
    if steps > 0:
        if not stopped:
            points = WeightedMeanAccumulator(problem.dimension)
            points.push(run.iterates[:steps], weights)
            point = points.finalize()
        gap_sums = WeightedMeanAccumulator(1)
        gap_sums.push(np.asarray(gaps)[:, None], weights)
        mean_gap = float(gap_sums.finalize()[0])
    gap = problem.gap(point)
    exceeded = run.exceeded_index is not None and run.exceeded_index <= steps
    return RunRecord(horizon=horizon, iterates=run.iterates[:steps],
                     grad_norms=run.grad_norms[:steps], suboptimalities=gaps,
                     weights=weights, local_constants=run.local_constants[:steps],
                     stop_index=run.stop_index if stopped else None,
                     exceeded_index=run.exceeded_index if exceeded else None,
                     average_point=point, average_suboptimality=gap,
                     mean_suboptimality=gap if mean_gap is None else mean_gap)


def _drive(config: LearnerConfig, problem: Problem, horizon: int,
           eps_zero: float = DEFAULT_EPS_ZERO) -> RunRecord:
    """The step loop behind both drivers: it records each step, then
    derives the per-step columns once.

    Each round serves x_t and evaluates g_t = grad f(x_t). A gradient norm
    that is not finite (a NaN or inf coordinate, or an overflow) raises
    NumericalFailure naming the step. A unit-norm learner stops returning
    x_t if ||g_t|| <= eps_zero; otherwise the round records (x_t, ||g_t||,
    f(x_t) - f*) and feeds the learner g_t / ||g_t|| (unit-norm learners)
    or the raw g_t (adagrad_da, which never stops early). After the loop,
    learner.unit_norm_losses alone decides the weights. `summarize`
    computes the averages.

    The iterates go into the rows of one array that doubles when full, so a
    run that stops early never allocates for its horizon.
    """
    if horizon < 1:
        raise ContractViolation(f"horizon must be >= 1, got {horizon}")
    if config.start.size != problem.dimension:
        raise ContractViolation(
            f"start has dimension {config.start.size}, problem wants {problem.dimension}")
    learner = make_learner(config)
    unit = learner.unit_norm_losses
    d = problem.dimension
    iterates = np.empty((min(horizon, 16), d))
    grad_norms, gaps = [], []
    stop_index, stop_point = None, None

    for t in range(1, horizon + 1):
        x = learner.next_point()
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
        gaps.append(problem.gap(x))
        if unit:
            learner.observe(g / gn)
        else:
            learner.observe(g, enforce_bound=False)

    n = len(grad_norms)
    iterates.resize((n, d), refcheck=False)
    spec, bound = problem.spec, config.grad_bound_init + 1e-9
    weights = [1.0 / gn for gn in grad_norms] if unit else [1.0] * n
    local = [local_constant_from_parts(spec, gn, gap) if spec.nu == 0.0 or gap > 0.0 else None
             for gn, gap in zip(grad_norms, gaps)]
    exceeded = None if unit else next(
        (t for t, gn in enumerate(grad_norms, 1) if gn > bound), None)
    record = RunRecord(horizon, iterates, grad_norms, gaps, weights, local, stop_index,
                       exceeded, stop_point)
    return summarize(record, horizon, problem)


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
    if not (eps_zero > 0.0):
        raise ContractViolation(f"eps_zero must be positive, got {eps_zero}")
    return _drive(config, problem, horizon, eps_zero)


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


class MeanTriple(NamedTuple):
    hm: float
    gm: float
    am: float


def hm_gm_am(values: Sequence[float]) -> MeanTriple:
    """Harmonic, geometric, and arithmetic means of positive numbers.

    The geometric mean is computed through the mean of logarithms; the
    returned triple satisfies hm <= gm <= am up to relative 1e-12.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ContractViolation("hm_gm_am requires a nonempty sequence")
    for v in vals:
        if not (v > 0.0) or not math.isfinite(v):
            raise ContractViolation(f"hm_gm_am requires positive finite values, got {v}")
    n = len(vals)
    hm = n / sum(1.0 / v for v in vals)
    gm = math.exp(sum(math.log(v) for v in vals) / n)
    am = sum(vals) / n
    return MeanTriple(hm, gm, am)


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


def _rate_constant(problem: Problem) -> float:
    """Global constant entering worst-case rate displays: l_nu for nu > 0,
    the gradient norm bound at nu = 0 (where the local constants are
    gradient norms)."""
    if problem.spec.nu > 0.0:
        return problem.spec.l_nu
    if problem.grad_norm_bound is None:
        raise ContractViolation(
            f"{problem.family} declares nu = 0 but no gradient norm bound")
    return problem.grad_norm_bound


def closed_form_rate(kind: str, problem: Problem, config: LearnerConfig,
                     horizon: int) -> float:
    """Deterministic worst-case bound on f(xbar_T) - f* for one learner kind.

    With D = ||x_1 - x*||, C = L (1 + 1/nu)^nu (limit 1 at nu = 0, with L
    the nu = 0 gradient bound in that case):

    ogd_const   C * ((D^2/alpha + alpha) / (2 sqrt(T)))^(1+nu)
    da_sqrt     C * ((D^2/(2 alpha) + alpha) / sqrt(T))^(1+nu)
    kt          C * (D sqrt(ln(24 T^2 D^2/d0^2 + 1))/sqrt(T) + d0/T)^(1+nu)
    adagrad_da  max(C * ((D^2/alpha + 2 alpha)/sqrt(T))^(1+nu),
                    (G/T) (D^2/alpha + 2 alpha))
    """
    if kind != config.kind:
        raise ContractViolation(
            f"closed_form_rate called for kind {kind!r} with a {config.kind!r} config")
    if horizon < 1:
        raise ContractViolation(f"horizon must be >= 1, got {horizon}")
    spec = problem.spec
    nu = spec.nu
    d = l2_norm(config.start - problem.minimizer)
    alpha = config.step_scale
    l_rate = _rate_constant(problem)
    factor = 1.0 if nu == 0.0 else (1.0 + 1.0 / nu) ** nu
    rt = math.sqrt(horizon)
    if kind == "ogd_const":
        if horizon != config.horizon:
            raise ContractViolation(
                f"ogd_const rate is only valid at its configured horizon "
                f"{config.horizon}, asked for {horizon}")
        base = (d * d / alpha + alpha) / (2.0 * rt)
        return l_rate * factor * base ** (1.0 + nu)
    if kind == "da_sqrt":
        base = (d * d / (2.0 * alpha) + alpha) / rt
        return l_rate * factor * base ** (1.0 + nu)
    if kind == "kt":
        d0 = config.wealth_init
        log_arg = 24.0 * horizon * horizon * d * d / (d0 * d0) + 1.0
        base = d * math.sqrt(math.log(log_arg)) / rt + d0 / horizon
        return l_rate * factor * base ** (1.0 + nu)
    if kind == "adagrad_da":
        c = d * d / alpha + 2.0 * alpha
        smooth_branch = l_rate * factor * (c / rt) ** (1.0 + nu)
        lipschitz_branch = config.grad_bound_init / horizon * c
        return max(smooth_branch, lipschitz_branch)
    raise ContractViolation(f"unknown learner kind {kind!r}")


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
    regret guarantee is always evaluated at its configured horizon (valid
    for any prefix). The local constants are the run's own column, without
    the steps at the optimum; adagrad_da's bound is its regret over the
    steps, psi/steps, for both means.
    """
    d = l2_norm(config.start - problem.minimizer)
    measured = run.average_suboptimality
    closed = closed_form_rate(config.kind, problem, config, run.horizon)
    steps = run.steps_taken
    if steps == 0:
        return BoundReport(0.0, 0.0, 0.0, closed, measured)

    if config.kind == "adagrad_da":
        grad_sq = sum(g * g for g in run.grad_norms)
        psi = regret_bound(config, d, steps, grad_sq_sum=grad_sq)
        gap_bound = psi / steps
        return BoundReport(psi, gap_bound, gap_bound, closed, measured)

    psi_horizon = config.horizon if config.kind == "ogd_const" else steps
    psi = regret_bound(config, d, psi_horizon)
    local = [c for c in run.local_constants if c is not None]
    gm, am = regret_to_gap_bound(psi, steps, problem.spec, local) if local else (0.0, 0.0)
    return BoundReport(psi, gm, am, closed, measured)


def start_at_distance(problem: Problem, distance: float, seed: int) -> np.ndarray:
    """Start point at a given distance from the minimizer, direction seeded."""
    if not (distance >= 0.0):
        raise ContractViolation(f"distance must be >= 0, got {distance}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(problem.dimension)
    return problem.minimizer + distance * (v / l2_norm(v))
