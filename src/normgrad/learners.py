"""Online linear optimizers with closed-form regret guarantees.

Each learner serves points via `next_point()` and ingests loss vectors via
`observe(q)`. The first three, UNIT_NORM_KINDS, operate on unit-norm losses
and the fourth consumes raw gradients. `observe` checks neither: the driver
(`reduction._drive`) makes every loss, and its `eps_zero` rule keeps each
normalized gradient at norm 1 up to rounding. A gradient above adagrad_da's
bound G is reported by the driver, not raised here.

A learner holds the state of one run at a point (`make_learner`), or of
k runs of one kind over the rows of a (k, d) block (`stack_learners`):
then `next_point()` serves a block, `observe` takes one, and `keep(rows)`
drops the runs that have ended, leaving the state of one run at a point
when one is kept. Each row steps as its own learner would, bit for bit.

kind            update for x_{t+1}                                  reads
--------------  --------------------------------------------------  ---------
ogd_const       x_t - (alpha / sqrt(T)) q_t                         alpha, T
da_sqrt         x_1 - (alpha / sqrt(t)) sum_{i<=t} q_i              alpha
kt              x_1 - (sum q_i / (t+1)) (d0 - sum <q_i, x_i - x_1>)  wealth d0
adagrad_da      x_1 - alpha sum g_i / sqrt(G^2 + sum ||g_i||^2)     alpha, G

The horizon T is the run's, passed to `make_learner(config, horizon)`, not
a config field. The other three are anytime: their steps never read T, so
the run to T is the first T steps of any longer run (ANYTIME_KINDS).

`regret_bound` returns the matching guarantee psi_T(D) on the cumulative
linear loss against any comparator at distance D from the start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .vectors import as_vector, dot

__all__ = [
    "UNIT_NORM_KINDS",
    "LEARNER_KINDS",
    "ANYTIME_KINDS",
    "RECORD_SCALES",
    "LearnerConfig",
    "make_learner",
    "stack_learners",
    "regret_bound",
    "OgdConstLearner",
    "DaSqrtLearner",
    "KTLearner",
    "AdaGradDaLearner",
]

UNIT_NORM_KINDS = ("ogd_const", "da_sqrt", "kt")
LEARNER_KINDS = UNIT_NORM_KINDS + ("adagrad_da",)
ANYTIME_KINDS = ("da_sqrt", "kt", "adagrad_da")

# The scales a kind's record writes, the only ones its reader takes. kt reads
# no step_scale, but its records (and perfbench/reference/run_long.json) carry
# one; whether kt's record drops it is still open.
RECORD_SCALES = {"ogd_const": ("step_scale",), "da_sqrt": ("step_scale",),
                 "kt": ("step_scale", "wealth_init"),
                 "adagrad_da": ("step_scale", "grad_bound_init")}


@dataclass
class LearnerConfig:
    """Configuration shared by all learner kinds; the horizon is the run's.

    step_scale is the learning-rate scale alpha (ogd_const, da_sqrt,
    adagrad_da), wealth_init is the KT initial wealth d0, and
    grad_bound_init is the adagrad_da gradient bound G. The three scales
    must be positive and finite.
    """

    kind: str
    start: np.ndarray
    step_scale: float = 1.0
    wealth_init: float = 1.0
    grad_bound_init: float = 1.0

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ContractViolation(
                f"unknown learner kind {self.kind!r}; expected one of {LEARNER_KINDS}")
        self.start = as_vector(self.start, name="start")
        for name in ("step_scale", "wealth_init", "grad_bound_init"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ContractViolation(f"{name} must be positive and finite, got {value}")

    def config_record(self) -> dict:
        """The learner record of this config: kind, start and the kind's
        RECORD_SCALES, which replays as a config's learner record."""
        rec = {"kind": self.kind, "start": [float(c) for c in self.start]}
        rec.update((name, getattr(self, name)) for name in RECORD_SCALES[self.kind])
        return rec


def _per_row(value):
    """A block's per-row values as a column that scales its rows; a point's
    float as it is."""
    return value[:, None] if isinstance(value, np.ndarray) else value


def _sqrt(value):
    """math.sqrt of a point's float, np.sqrt of a block's per-row values
    (the same bits)."""
    return np.sqrt(value) if isinstance(value, np.ndarray) else math.sqrt(value)


class _Learner:
    """The state of one run at a point, or of k runs over the rows of a
    block (stack_learners): each float becomes a (k,) array and each
    array the stack of the k (a vector a (k, d) block); the step count is
    shared."""

    def keep(self, rows) -> None:
        """Keep only the given rows (a boolean mask) of a block's state. With
        one row kept, the state becomes that run's at a point, a float for
        each (1,) array and its one row for each other array, whose steps
        cost less and give the same bits."""
        one = np.count_nonzero(rows) == 1
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                value = value[rows]
                setattr(self, name, (value.item() if value.ndim == 1 else value[0]) if one
                        else value)


class OgdConstLearner(_Learner):
    """Gradient steps of fixed length alpha/sqrt(T) against unit losses (unchecked)."""

    kind = "ogd_const"

    def __init__(self, config: LearnerConfig, horizon: int):
        # (1,), so that a block's (k, 1) column scales its rows
        self.eta = np.array([config.step_scale / math.sqrt(horizon)])
        self.x = config.start

    def next_point(self) -> np.ndarray:
        return self.x

    def observe(self, q: np.ndarray) -> None:
        self.x = self.x - self.eta * q


class DaSqrtLearner(_Learner):
    """Dual averaging: x_{t+1} = x_1 - (alpha / sqrt(t)) * (sum of unit losses)."""

    kind = "da_sqrt"

    def __init__(self, config: LearnerConfig, horizon: int):
        self.start, self.alpha = config.start, config.step_scale
        self.sum = np.zeros_like(config.start)
        self.steps = 0

    def next_point(self) -> np.ndarray:
        if self.steps == 0:
            return self.start
        return self.start - _per_row(self.alpha / math.sqrt(self.steps)) * self.sum

    def observe(self, q: np.ndarray) -> None:
        self.sum += q
        self.steps += 1


class KTLearner(_Learner):
    """Coin-betting learner on iterates centered at the start point:

    x_{t+1} = x_1 - (sum q_i / (t+1)) * (d0 - sum <q_i, x_i - x_1>).

    The wealth term uses centered iterates, which makes the trajectory (and
    the guarantee) invariant under joint translation of start and losses.
    No learning rate anywhere. The losses are unit-norm, unchecked here.
    """

    kind = "kt"

    def __init__(self, config: LearnerConfig, horizon: int):
        self.start, self.wealth_init = config.start, config.wealth_init
        self.sum = np.zeros_like(config.start)
        self.spent = 0.0  # sum of <q_i, x_i - x_1>
        self.wealth = self.wealth_init - self.spent
        self.steps = 0

    def next_point(self) -> np.ndarray:
        # -S / (t+1) with the sign in the divisor: the same bits, one pass fewer
        return self.start + (self.sum / -(self.steps + 1.0)) * _per_row(self.wealth)

    def observe(self, q: np.ndarray) -> None:
        # <q, x_t - x_1> for the point served before this observation, the
        # sign again in the divisor
        self.spent += dot(q, self.sum) / -(self.steps + 1.0) * self.wealth
        self.wealth = self.wealth_init - self.spent
        self.sum += q
        self.steps += 1


class AdaGradDaLearner(_Learner):
    """Dual averaging with gradient-sum normalization:

    x_{t+1} = x_1 - alpha / sqrt(G^2 + sum ||g_i||^2) * sum g_i.

    Consumes raw (not normalized) gradients; G must dominate every observed
    gradient norm for the guarantee to hold. observe does not check that:
    the driver reports the first step above G (RunRecord.exceeded_index).
    Making the learner raises OverflowError for a G whose square
    overflows, above about 1.3e154.
    """

    kind = "adagrad_da"

    def __init__(self, config: LearnerConfig, horizon: int):
        self.start, self.alpha = config.start, config.step_scale
        self.bound_sq = config.grad_bound_init ** 2
        self.sum = np.zeros_like(config.start)
        self.grad_sq_sum = 0.0

    def next_point(self) -> np.ndarray:
        scale = self.alpha / _sqrt(self.bound_sq + self.grad_sq_sum)
        return self.start - _per_row(scale) * self.sum

    def observe(self, g: np.ndarray) -> None:
        self.sum += g
        self.grad_sq_sum += dot(g, g)


_LEARNER_CLASSES = {cls.kind: cls for cls in (
    OgdConstLearner, DaSqrtLearner, KTLearner, AdaGradDaLearner)}


def make_learner(config: LearnerConfig, horizon: int):
    """The learner for config.kind at a point, driven for horizon steps
    (ogd_const's step reads it)."""
    return _LEARNER_CLASSES[config.kind](config, horizon)


def stack_learners(learners: list):
    """One learner over a (k, d) block whose row p holds learners[p]'s
    state: learners of one kind from make_learner, none stepped yet. Every
    attribute but the step count becomes the array of the k values, so
    each block row steps as its learner would, bit for bit: the block's
    dot is np.vecdot, whose rows equal np.dot, and every other operation is
    elementwise."""
    block = object.__new__(type(learners[0]))
    for name, value in vars(learners[0]).items():
        setattr(block, name, value if name == "steps" else np.array(
            [vars(learner)[name] for learner in learners]))
    return block


def regret_bound(config: LearnerConfig, comparator_dist: float, horizon: int,
                 grad_sq_sum: float | None = None) -> float:
    """Closed-form bound psi_T(D) on sum_t <q_t, x_t - u> for ||u - x_1|| = D.

    ogd_const   sqrt(T) D^2 / (2 alpha) + alpha sqrt(T) / 2   (T is the
                horizon the learner was made for)
    da_sqrt     sqrt(T) (D^2 / (2 alpha) + alpha)
    kt          D sqrt(T ln(24 T^2 D^2 / d0^2 + 1)) + d0
    adagrad_da  (D^2 / (2 alpha) + alpha) (G + sqrt(V)) where V is the
                realized sum of squared gradient norms (extra input)

    The unit-norm bounds assume every loss has norm 1; the adagrad_da bound
    assumes every gradient norm is at most G.
    """
    if not (comparator_dist >= 0.0):
        raise ContractViolation(f"comparator_dist must be >= 0, got {comparator_dist}")
    if horizon < 1:
        raise ContractViolation(f"horizon must be >= 1, got {horizon}")
    d = comparator_dist
    alpha = config.step_scale
    kind = config.kind
    if kind == "ogd_const":
        rt = math.sqrt(horizon)
        return rt * d * d / (2.0 * alpha) + alpha * rt / 2.0
    if kind == "da_sqrt":
        return math.sqrt(horizon) * (d * d / (2.0 * alpha) + alpha)
    if kind == "kt":
        d0 = config.wealth_init
        log_arg = 24.0 * horizon * horizon * d * d / (d0 * d0) + 1.0
        return d * math.sqrt(horizon * math.log(log_arg)) + d0
    if grad_sq_sum is None or grad_sq_sum < 0.0:  # adagrad_da
        raise ContractViolation(
            "adagrad_da regret bound needs the realized sum of squared "
            "gradient norms (grad_sq_sum >= 0)")
    g = config.grad_bound_init
    return (d * d / (2.0 * alpha) + alpha) * (g + math.sqrt(grad_sq_sum))
