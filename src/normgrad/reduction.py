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
from dataclasses import dataclass, field, replace
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
    "MeanTriple",
    "hm_gm_am",
    "regret_to_gap_bound",
    "closed_form_rate",
    "BoundReport",
    "bound_report",
    "step_local_constants",
    "start_at_distance",
]

DEFAULT_EPS_ZERO = 1e-12


@dataclass
class RunRecord:
    """Full trajectory of one driver run.

    iterates / grad_norms / suboptimalities cover exactly the loss-fed
    steps; iterates are the rows of one (steps_taken, d) float64 array. A
    step whose gradient norm fell to eps_zero is reported through
    terminated_early / stop_index and its point becomes average_point. For
    normalized runs every recorded grad_norm exceeds eps_zero and
    average_point is the 1/||g_t||-weighted mean of the iterates; warm-up
    runs record whatever norms occur and average uniformly.

    average_suboptimality is f(average_point) - f*. mean_suboptimality is
    the same weighting applied to the per-step suboptimalities (weighted
    mean for normalized runs, uniform for warm-up); it upper-bounds
    average_suboptimality and is the statistic used for rate fitting.

    checkpoints maps each shorter horizon the run was asked to report, and
    reached, to (weighted mean point, weighted mean gap,
    grad_bound_exceeded) after that many steps; `prefix` rebuilds the
    record of that horizon from it.
    """

    horizon: int
    iterates: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    grad_norms: list = field(default_factory=list)
    suboptimalities: list = field(default_factory=list)
    average_point: np.ndarray | None = None
    average_suboptimality: float = 0.0
    mean_suboptimality: float = 0.0
    terminated_early: bool = False
    stop_index: int | None = None
    steps_taken: int = 0
    grad_bound_exceeded: bool = False
    checkpoints: dict = field(default_factory=dict)

    def prefix(self, horizon: int, problem: Problem) -> RunRecord:
        """The record of the horizon-step run of the same learner.

        Valid only for an anytime learner, whose steps never read the
        horizon, so that the shorter run is the first steps of this one. A
        horizon at or after this run's early stop gets the stopped record;
        a shorter one must be a checkpoint, and its record is the first
        `horizon` steps with the averages snapshotted there. Either way the
        result equals, bit for bit, the record of running to `horizon`.
        """
        if horizon == self.horizon or (
                self.stop_index is not None and self.stop_index <= horizon):
            return replace(self, horizon=horizon)
        if horizon not in self.checkpoints:
            raise ContractViolation(
                f"no checkpoint at horizon {horizon} in a run to {self.horizon}")
        point, mean_gap, exceeded = self.checkpoints[horizon]
        return RunRecord(
            horizon=horizon,
            iterates=self.iterates[:horizon],
            grad_norms=self.grad_norms[:horizon],
            suboptimalities=self.suboptimalities[:horizon],
            average_point=point,
            average_suboptimality=problem.gap(point),
            mean_suboptimality=mean_gap,
            steps_taken=horizon,
            grad_bound_exceeded=exceeded,
        )


def _checked_grad(problem: Problem, x: np.ndarray, step: int) -> np.ndarray:
    g = problem.grad(x)
    if not np.all(np.isfinite(g)):
        raise NumericalFailure(f"nonfinite gradient at step {step}")
    return g


def _check_run_args(config: LearnerConfig, problem: Problem, horizon: int,
                    checkpoints: Sequence[int]) -> list:
    """Validate the run arguments; return the horizons to report, ascending."""
    if horizon < 1:
        raise ContractViolation(f"horizon must be >= 1, got {horizon}")
    if any(not (1 <= c <= horizon) for c in checkpoints):
        raise ContractViolation(
            f"checkpoints must lie in [1, {horizon}], got {list(checkpoints)}")
    if config.start.size != problem.dimension:
        raise ContractViolation(
            f"start has dimension {config.start.size}, problem wants {problem.dimension}")
    return sorted({horizon, *checkpoints})


def _drive(config: LearnerConfig, problem: Problem, horizons: Sequence[int],
           eps_zero: float = DEFAULT_EPS_ZERO) -> RunRecord:
    """The step loop behind both drivers.

    Runs to the last of horizons (ascending). Each round serves x_t and
    evaluates g_t = grad f(x_t). A unit-norm learner stops returning x_t if
    ||g_t|| <= eps_zero, and otherwise is fed g_t / ||g_t|| with averaging
    weight 1/||g_t||. adagrad_da is fed the raw g_t with weight 1 and never
    stops early; a norm above its bound G only sets grad_bound_exceeded.
    After each earlier horizon's step the averages are snapshotted into
    record.checkpoints.

    The iterates go into the rows of one array that doubles when full, so a
    run that stops early never allocates for its horizon.
    """
    learner = make_learner(config)
    unit = learner.unit_norm_losses
    horizon = horizons[-1]
    snapshot_at = set(horizons[:-1])
    record = RunRecord(horizon=horizon)
    d = problem.dimension
    acc = WeightedMeanAccumulator(d)
    weighted_gap_sum = 0.0
    bound = config.grad_bound_init + 1e-9
    iterates = np.empty((min(horizon, 16), d))

    for t in range(1, horizon + 1):
        x = learner.next_point()
        g = _checked_grad(problem, x, t)
        gn = l2_norm(g)
        if unit and gn <= eps_zero:
            record.terminated_early = True
            record.stop_index = t
            record.average_point = x.copy()
            break
        gap = problem.gap(x)
        if t > len(iterates):
            # no view of the buffer exists yet, so it may move
            iterates.resize((min(2 * len(iterates), horizon), d), refcheck=False)
        iterates[t - 1] = x
        record.grad_norms.append(gn)
        record.suboptimalities.append(gap)
        w = 1.0 / gn if unit else 1.0
        acc.push(x, w)
        weighted_gap_sum += w * gap
        if unit:
            learner.observe(g / gn)
        else:
            record.grad_bound_exceeded |= gn > bound
            learner.observe(g, enforce_bound=False)
        if t in snapshot_at:
            record.checkpoints[t] = (acc.finalize(), weighted_gap_sum / acc.weight_sum,
                                     record.grad_bound_exceeded)

    record.steps_taken = len(record.grad_norms)
    iterates.resize((record.steps_taken, d), refcheck=False)
    record.iterates = iterates
    if not record.terminated_early:
        record.average_point = acc.finalize()
    record.average_suboptimality = problem.gap(record.average_point)
    if record.steps_taken > 0:
        record.mean_suboptimality = weighted_gap_sum / acc.weight_sum
    else:
        record.mean_suboptimality = record.average_suboptimality
    return record


def run_normalized(config: LearnerConfig, problem: Problem, horizon: int,
                   eps_zero: float = DEFAULT_EPS_ZERO,
                   checkpoints: Sequence[int] = ()) -> RunRecord:
    """Drive a unit-norm learner with normalized gradients for <= horizon steps.

    Each round serves x_t, evaluates g_t = grad f(x_t), stops returning x_t
    if ||g_t|| <= eps_zero, and otherwise records the step and feeds the
    learner q_t = g_t / ||g_t||. Without an early stop the returned point is
    the 1/||g_t||-weighted average of the iterates. The averages are also
    snapshotted after each of checkpoints (horizons in [1, horizon]); see
    RunRecord.prefix.
    """
    if config.kind not in UNIT_NORM_KINDS:
        raise ContractViolation(
            f"run_normalized drives unit-norm learners {UNIT_NORM_KINDS}, "
            f"got {config.kind!r}; use run_adagrad_warmup for raw gradients")
    if not (eps_zero > 0.0):
        raise ContractViolation(f"eps_zero must be positive, got {eps_zero}")
    horizons = _check_run_args(config, problem, horizon, checkpoints)
    return _drive(config, problem, horizons, eps_zero)


def run_adagrad_warmup(config: LearnerConfig, problem: Problem, horizon: int,
                       checkpoints: Sequence[int] = ()) -> RunRecord:
    """Drive adagrad_da with raw gradients for exactly horizon steps.

    The same loop as run_normalized with weight 1: the average is uniform
    over the iterates. A realized gradient norm above the configured bound G
    does not abort the run; it only sets grad_bound_exceeded (the guarantee
    is void in that case, which callers check via the flag). checkpoints
    are as in run_normalized.
    """
    if config.kind != "adagrad_da":
        raise ContractViolation(
            f"run_adagrad_warmup drives adagrad_da, got {config.kind!r}; "
            f"use run_normalized for unit-norm learners")
    horizons = _check_run_args(config, problem, horizon, checkpoints)
    return _drive(config, problem, horizons)


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
                        local_ls: Sequence[float], use_geometric_mean: bool = True) -> float:
    """Compose a regret bound with local constants into a gap bound:

    alpha^nu * (psi/steps)^(1+nu) * M, with M the geometric or arithmetic
    mean of local_ls. At nu = 0 the alpha factor is 1 and the expression
    reduces to (psi/steps) * M.
    """
    if not (psi_at_xstar >= 0.0):
        raise ContractViolation(f"psi_at_xstar must be >= 0, got {psi_at_xstar}")
    if steps < 1:
        raise ContractViolation(f"steps must be >= 1, got {steps}")
    if len(local_ls) > steps:
        raise ContractViolation(
            f"got {len(local_ls)} local constants for {steps} steps")
    means = hm_gm_am(local_ls)
    m = means.gm if use_geometric_mean else means.am
    nu = spec.nu
    return spec.alpha_pow_nu * (psi_at_xstar / steps) ** (1.0 + nu) * m


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
    local_constants: list


def step_local_constants(run: RunRecord, spec: HolderSpec) -> list:
    """Local constant of every loss-fed step: the gradient norm at nu = 0,
    otherwise local_constant_from_parts, or None at a step sitting exactly
    at the optimum (where the constant is undefined)."""
    if spec.nu == 0.0:
        return list(run.grad_norms)
    return [
        local_constant_from_parts(spec, gn, gap) if gap > 0.0 else None
        for gn, gap in zip(run.grad_norms, run.suboptimalities)
    ]


def bound_report(run: RunRecord, problem: Problem, config: LearnerConfig) -> BoundReport:
    """Assemble the bound report for a run produced with (problem, config).

    The composed bounds use the number of loss-fed steps; the ogd_const
    regret guarantee is always evaluated at its configured horizon (valid
    for any prefix). Local constants are recomputed from the recorded
    gradient norms and suboptimalities, skipping steps at the optimum.
    """
    d = l2_norm(config.start - problem.minimizer)
    measured = run.average_suboptimality
    closed = closed_form_rate(config.kind, problem, config, run.horizon)
    if run.steps_taken == 0:
        return BoundReport(0.0, 0.0, 0.0, closed, measured, [])

    steps = run.steps_taken
    local = [c for c in step_local_constants(run, problem.spec) if c is not None]
    if config.kind == "adagrad_da":
        grad_sq = sum(g * g for g in run.grad_norms)
        psi = regret_bound(config, d, steps, grad_sq_sum=grad_sq)
        gap_bound = psi / steps
        return BoundReport(psi, gap_bound, gap_bound, closed, measured, local)

    psi_horizon = config.horizon if config.kind == "ogd_const" else steps
    psi = regret_bound(config, d, psi_horizon)
    if local:
        gm = regret_to_gap_bound(psi, steps, problem.spec, local, use_geometric_mean=True)
        am = regret_to_gap_bound(psi, steps, problem.spec, local, use_geometric_mean=False)
    else:
        gm = am = 0.0
    return BoundReport(psi, gm, am, closed, measured, local)


def start_at_distance(problem: Problem, distance: float, seed: int) -> np.ndarray:
    """Start point at a given distance from the minimizer, direction seeded."""
    if not (distance >= 0.0):
        raise ContractViolation(f"distance must be >= 0, got {distance}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(problem.dimension)
    return problem.minimizer + distance * (v / l2_norm(v))
