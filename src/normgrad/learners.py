"""Online linear optimizers with closed-form regret guarantees.

Each learner serves points via `next_point()` and ingests loss vectors via
`observe(q)`. The first three, UNIT_NORM_KINDS, operate on unit-norm losses
and the fourth consumes raw gradients. `observe` checks neither: the driver
(`reduction._drive`) makes every loss, and its `eps_zero` rule keeps each
normalized gradient at norm 1 up to rounding. A gradient above adagrad_da's
bound G is reported by the driver, not raised here.

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


class OgdConstLearner:
    """Gradient steps of fixed length alpha/sqrt(T) against unit losses (unchecked)."""

    kind = "ogd_const"

    def __init__(self, config: LearnerConfig, horizon: int):
        self.config = config
        self._eta = config.step_scale / math.sqrt(horizon)
        self._x = config.start

    def next_point(self) -> np.ndarray:
        return self._x

    def observe(self, q: np.ndarray) -> None:
        self._x = self._x - self._eta * q


class DaSqrtLearner:
    """Dual averaging: x_{t+1} = x_1 - (alpha / sqrt(t)) * (sum of unit losses)."""

    kind = "da_sqrt"

    def __init__(self, config: LearnerConfig, horizon: int):
        self.config = config
        self._sum = np.zeros_like(config.start)
        self.steps = 0

    def next_point(self) -> np.ndarray:
        if self.steps == 0:
            return self.config.start
        return self.config.start - (self.config.step_scale / math.sqrt(self.steps)) * self._sum

    def observe(self, q: np.ndarray) -> None:
        self._sum += q
        self.steps += 1


class KTLearner:
    """Coin-betting learner on iterates centered at the start point:

    x_{t+1} = x_1 - (sum q_i / (t+1)) * (d0 - sum <q_i, x_i - x_1>).

    The wealth term uses centered iterates, which makes the trajectory (and
    the guarantee) invariant under joint translation of start and losses.
    No learning rate anywhere. The losses are unit-norm, unchecked here.
    """

    kind = "kt"

    def __init__(self, config: LearnerConfig, horizon: int):
        self.config = config
        self._start = config.start
        self._sum = np.zeros_like(config.start)
        self._spent = 0.0  # sum of <q_i, x_i - x_1>
        self.steps = 0

    @property
    def wealth(self) -> float:
        return self.config.wealth_init - self._spent

    def next_point(self) -> np.ndarray:
        # -S / (t+1) with the sign in the divisor: the same bits, one pass fewer
        return self._start + (self._sum / -(self.steps + 1.0)) * self.wealth

    def observe(self, q: np.ndarray) -> None:
        # <q, x_t - x_1> for the point served before this observation
        self._spent += -dot(q, self._sum) / (self.steps + 1.0) * self.wealth
        self._sum += q
        self.steps += 1


class AdaGradDaLearner:
    """Dual averaging with gradient-sum normalization:

    x_{t+1} = x_1 - alpha / sqrt(G^2 + sum ||g_i||^2) * sum g_i.

    Consumes raw (not normalized) gradients; G must dominate every observed
    gradient norm for the guarantee to hold. observe does not check that:
    the driver reports the first step above G (RunRecord.exceeded_index).
    """

    kind = "adagrad_da"

    def __init__(self, config: LearnerConfig, horizon: int):
        self.config = config
        self._sum = np.zeros_like(config.start)
        self.grad_sq_sum = 0.0

    def next_point(self) -> np.ndarray:
        g2 = self.config.grad_bound_init ** 2 + self.grad_sq_sum
        return self.config.start - (self.config.step_scale / math.sqrt(g2)) * self._sum

    def observe(self, g: np.ndarray) -> None:
        self._sum += g
        self.grad_sq_sum += dot(g, g)


_LEARNER_CLASSES = {cls.kind: cls for cls in (
    OgdConstLearner, DaSqrtLearner, KTLearner, AdaGradDaLearner)}


def make_learner(config: LearnerConfig, horizon: int):
    """The learner for config.kind, driven for horizon steps (ogd_const's step reads it)."""
    return _LEARNER_CLASSES[config.kind](config, horizon)


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
