"""Holder-smooth convex test problems with analytic gradients and known optima.

Every problem knows its minimizer x*, its optimal value f*, and a declared
smoothness record (exponent nu in [0, 1], constant l_nu, and the gradient
inequality constant holder_alpha). The module also provides executable
checkers for the descent inequality, the gradient-norm bound, the sampled
smoothness ratio, and pointwise local smoothness constants.

Families and declared constants:

* quadratic:    f(x) = 0.5 * ||x - x*||^2          nu = 1,  L = 1
* power_norm:   f(x) = ||x - x*||^(1+nu) / (1+nu)  L = 2^(1-nu) (validated
                empirically; proven only in the scalar case)
* l2_norm:      f(x) = ||x - x*||                  nu = 0,  L = 2 (two unit
                gradients across the kink), gradient norm bound G = 1
* huber:        quadratic within radius delta of x*, linear outside; nu = 1,
                L = 1/delta
* log_sum_exp:  log sum of exp(+-(x_i - x*_i));    nu = 1,  L = 1 (Hessian
                is dominated by the identity)
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractViolation, DegeneratePointError
from .vectors import as_vector, l2_norm

__all__ = [
    "HolderSpec",
    "Problem",
    "Quadratic",
    "PowerNorm",
    "L2Norm",
    "Huber",
    "LogSumExp",
    "FAMILIES",
    "make_problem",
    "problem_from_config",
    "config_count",
    "finite_diff_grad",
    "DescentCheck",
    "check_descent_inequality",
    "GradBoundCheck",
    "check_grad_bound",
    "sample_holder_constant",
    "local_holder_constant",
    "local_constant_from_parts",
]


@dataclass(frozen=True)
class HolderSpec:
    """Declared smoothness data: exponent nu, constant l_nu, and the
    constant holder_alpha of the gradient-norm inequality
    ||grad f(x)|| <= alpha^(nu/(1+nu)) L(x)^(1/(1+nu)) (f(x)-f*)^(nu/(1+nu)).

    For globally smooth declarations holder_alpha = 1 + 1/nu; only the
    derived factor alpha^nu enters any bound, and at nu = 0 that factor is
    defined as its limit, 1.
    """

    nu: float
    l_nu: float
    holder_alpha: float

    def __post_init__(self):
        if not (0.0 <= self.nu <= 1.0):
            raise ContractViolation(f"nu must lie in [0, 1], got {self.nu}")
        if not (self.l_nu > 0.0):
            raise ContractViolation(f"l_nu must be positive, got {self.l_nu}")
        if not (self.holder_alpha > 0.0):
            raise ContractViolation(f"holder_alpha must be positive, got {self.holder_alpha}")

    @classmethod
    def from_nu(cls, nu: float, l_nu: float) -> "HolderSpec":
        """Record with the globally-smooth alpha = 1 + 1/nu (1 at nu = 0)."""
        alpha = 1.0 + 1.0 / nu if nu > 0.0 else 1.0
        return cls(nu=nu, l_nu=l_nu, holder_alpha=alpha)

    @property
    def alpha_pow_nu(self) -> float:
        """holder_alpha^nu with the nu -> 0 limit value 1."""
        if self.nu == 0.0:
            return 1.0
        return self.holder_alpha ** self.nu


class Problem:
    """Base class: a convex function with analytic gradient and known optimum.

    Subclasses set `family`, `spec`, `optimum`, optionally `grad_norm_bound`
    (a global bound on ||grad f||, required for rate formulas at nu = 0),
    and implement `eval` / `grad`. Problems are immutable after construction.
    """

    family: str = "abstract"

    def __init__(self, dimension: int, minimizer=None):
        if dimension < 1:
            raise ContractViolation(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        if minimizer is None:
            self.minimizer = np.zeros(self.dimension)
        else:
            self.minimizer = as_vector(minimizer, name="minimizer")
            if self.minimizer.size != self.dimension:
                raise ContractViolation(
                    f"minimizer has dimension {self.minimizer.size}, expected {self.dimension}")
        self.spec: HolderSpec
        self.optimum: float = 0.0
        self.grad_norm_bound: float | None = None
        self.params: dict = {}

    def _center(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self.minimizer.shape:
            raise ContractViolation(
                f"{self.family}: point has shape {x.shape}, expected {self.minimizer.shape}")
        return x - self.minimizer

    def eval(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gap(self, x: np.ndarray) -> float:
        """f(x) - f*, clamped at 0 against rounding dust near the optimum."""
        return max(self.eval(x) - self.optimum, 0.0)

    def distance_to_nonsmooth(self, x: np.ndarray) -> float:
        """Distance to the nearest point where higher derivatives blow up."""
        return math.inf

    def config_record(self) -> dict:
        return {
            "family": self.family,
            "dimension": self.dimension,
            "minimizer": [float(c) for c in self.minimizer],
            "parameters": dict(self.params),
        }

    def __repr__(self):
        extra = "".join(f", {k}={v}" for k, v in self.params.items())
        return f"{type(self).__name__}(dimension={self.dimension}{extra})"


class Quadratic(Problem):
    """f(x) = 0.5 * ||x - x*||^2."""

    family = "quadratic"

    def __init__(self, dimension: int, minimizer=None):
        super().__init__(dimension, minimizer)
        self.spec = HolderSpec.from_nu(1.0, 1.0)

    def eval(self, x):
        z = self._center(x)
        return 0.5 * float(np.dot(z, z))

    def grad(self, x):
        return self._center(x)


class PowerNorm(Problem):
    """f(x) = ||x - x*||^(1+nu) / (1+nu); gradient ||z||^(nu-1) z, zero at x*.

    nu = 1 coincides with the quadratic family and nu = 0 with the norm
    family, including their declared constants.
    """

    family = "power_norm"

    def __init__(self, nu: float, dimension: int, minimizer=None):
        super().__init__(dimension, minimizer)
        if not (0.0 <= nu <= 1.0):
            raise ContractViolation(f"power_norm exponent nu must lie in [0, 1], got {nu}")
        self.nu = float(nu)
        self.spec = HolderSpec.from_nu(self.nu, 2.0 ** (1.0 - self.nu))
        if self.nu == 0.0:
            self.grad_norm_bound = 1.0
        self.params = {"nu": self.nu}

    def eval(self, x):
        z = self._center(x)
        r = l2_norm(z)
        return r ** (1.0 + self.nu) / (1.0 + self.nu)

    def grad(self, x):
        z = self._center(x)
        if self.nu == 1.0:
            return z
        r = l2_norm(z)
        if r == 0.0:
            return np.zeros_like(z)
        return r ** (self.nu - 1.0) * z

    def distance_to_nonsmooth(self, x):
        if self.nu == 1.0:
            return math.inf
        return l2_norm(self._center(x))


class L2Norm(Problem):
    """f(x) = ||x - x*||; the chosen subgradient at the kink x* is zero."""

    family = "l2_norm"

    def __init__(self, dimension: int, minimizer=None):
        super().__init__(dimension, minimizer)
        self.spec = HolderSpec.from_nu(0.0, 2.0)
        self.grad_norm_bound = 1.0

    def eval(self, x):
        return l2_norm(self._center(x))

    def grad(self, x):
        z = self._center(x)
        r = l2_norm(z)
        if r == 0.0:
            return np.zeros_like(z)
        return z / r

    def distance_to_nonsmooth(self, x):
        return l2_norm(self._center(x))


class Huber(Problem):
    """Quadratic bowl of radius delta continued linearly:

    f(x) = ||z||^2 / (2 delta)   for ||z|| <= delta,
           ||z|| - delta / 2     otherwise,        z = x - x*.

    Smooth with constant 1/delta, attained only inside the bowl; far
    iterates see a much smaller local constant, which is what makes this
    family interesting for mean-of-local-constants bounds.
    """

    family = "huber"

    def __init__(self, dimension: int, delta: float = 1.0, minimizer=None):
        super().__init__(dimension, minimizer)
        if not (delta > 0.0):
            raise ContractViolation(f"huber delta must be positive, got {delta}")
        self.delta = float(delta)
        self.spec = HolderSpec.from_nu(1.0, 1.0 / self.delta)
        self.params = {"delta": self.delta}

    def eval(self, x):
        z = self._center(x)
        r = l2_norm(z)
        if r <= self.delta:
            return r * r / (2.0 * self.delta)
        return r - self.delta / 2.0

    def grad(self, x):
        z = self._center(x)
        r = l2_norm(z)
        if r <= self.delta:
            return z / self.delta
        return z / r

    def distance_to_nonsmooth(self, x):
        # gradient is continuous everywhere; second derivative jumps on the sphere
        return abs(l2_norm(self._center(x)) - self.delta)


class LogSumExp(Problem):
    """f(x) = log sum_i [exp(x_i - x*_i) + exp(-(x_i - x*_i))].

    Minimized at x* with value log(2 d). The Hessian is dominated by the
    identity, so the declared constant is 1.
    """

    family = "log_sum_exp"

    def __init__(self, dimension: int, minimizer=None):
        super().__init__(dimension, minimizer)
        self.spec = HolderSpec.from_nu(1.0, 1.0)
        self.optimum = float(np.log(2.0 * self.dimension))

    def eval(self, x):
        z = self._center(x)
        m = float(np.max(np.abs(z))) if z.size else 0.0
        s = float(np.sum(np.exp(z - m)) + np.sum(np.exp(-z - m)))
        return m + math.log(s)

    def grad(self, x):
        z = self._center(x)
        m = float(np.max(np.abs(z))) if z.size else 0.0
        ep = np.exp(z - m)
        en = np.exp(-z - m)
        return (ep - en) / float(np.sum(ep) + np.sum(en))


FAMILIES = {
    "quadratic": Quadratic,
    "power_norm": PowerNorm,
    "l2_norm": L2Norm,
    "huber": Huber,
    "log_sum_exp": LogSumExp,
}


def make_problem(family: str, dimension: int, minimizer=None, **params) -> Problem:
    """Construct a problem by family name; unknown names are rejected."""
    if family not in FAMILIES:
        raise ContractViolation(
            f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    cls = FAMILIES[family]
    if cls is PowerNorm:
        if "nu" not in params:
            raise ContractViolation("power_norm requires a 'nu' parameter")
        return PowerNorm(params["nu"], dimension, minimizer)
    if cls is Huber:
        return Huber(dimension, params.get("delta", 1.0), minimizer)
    if params:
        raise ContractViolation(f"{family} takes no parameters, got {sorted(params)}")
    return cls(dimension, minimizer)


def problem_from_config(record: dict) -> Problem:
    """Build a problem from a config record.

    Schema: {"family": str, "dimension": int, "minimizer": [floats] | "random"
    (optional, default origin), "parameters": {...} (optional), "seed": int
    (used only when minimizer == "random")}. A dimension or seed that is not
    an integer raises ConfigError.
    """
    if "family" not in record or "dimension" not in record:
        raise ContractViolation("problem record requires 'family' and 'dimension'")
    dimension = config_count(record["dimension"], "dimension")
    minimizer = record.get("minimizer")
    if isinstance(minimizer, str):
        if minimizer != "random":
            raise ContractViolation(f"minimizer must be a list or 'random', got {minimizer!r}")
        rng = np.random.default_rng(config_count(record.get("seed", 0), "problem seed"))
        minimizer = rng.standard_normal(dimension)
    params = dict(record.get("parameters", {}))
    return make_problem(record["family"], dimension, minimizer, **params)


def config_count(value, name: str) -> int:
    """A count read from a config record: an integer, or a float with an
    integral value. A bool or any other value raises ConfigError."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
            isinstance(value, float) and value.is_integer())):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def finite_diff_grad(p: Problem, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient, (f(x + h e_i) - f(x - h e_i)) / (2h).

    The caller is responsible for keeping x at distance > 10h from the
    family's nonsmooth set (see Problem.distance_to_nonsmooth).
    """
    if not (h > 0.0):
        raise ContractViolation(f"h must be positive, got {h}")
    g = np.zeros_like(x, dtype=np.float64)
    for i in range(x.size):
        e = np.zeros_like(g)
        e[i] = h
        g[i] = (p.eval(x + e) - p.eval(x - e)) / (2.0 * h)
    return g


class DescentCheck(NamedTuple):
    passed: bool
    residual: float
    slack: float


def check_descent_inequality(p: Problem, x: np.ndarray, y: np.ndarray,
                             l_scale: float = 1.0) -> DescentCheck:
    """Check f(y) <= f(x) + <grad f(x), y - x> + L/(1+nu) ||x - y||^(1+nu).

    Returns the residual (left side minus right side); the check passes when
    the residual is at most 1e-9 * (1 + |f(y)|). `l_scale` rescales the
    declared constant, which negative-control suites use to verify that a
    too-small constant is caught.
    """
    nu = p.spec.nu
    l_eff = p.spec.l_nu * l_scale
    fy = p.eval(y)
    fx = p.eval(x)
    g = p.grad(x)
    d = y - x
    rhs = fx + float(np.dot(g, d)) + l_eff / (1.0 + nu) * l2_norm(d) ** (1.0 + nu)
    residual = fy - rhs
    slack = 1e-9 * (1.0 + abs(fy))
    return DescentCheck(residual <= slack, residual, slack)


class GradBoundCheck(NamedTuple):
    passed: bool
    lhs: float
    rhs: float
    residual: float


def check_grad_bound(p: Problem, x: np.ndarray) -> GradBoundCheck:
    """Check ||grad f(x)||^(1 + 1/nu) <= (1 + 1/nu) l_nu^(1/nu) (f(x) - f*).

    Defined for nu > 0 only; the inequality passes with relative slack 1e-9.
    """
    nu = p.spec.nu
    if nu <= 0.0:
        raise ContractViolation("check_grad_bound requires nu > 0")
    gn = l2_norm(p.grad(x))
    lhs = gn ** (1.0 + 1.0 / nu)
    rhs = (1.0 + 1.0 / nu) * p.spec.l_nu ** (1.0 / nu) * p.gap(x)
    residual = lhs - rhs
    return GradBoundCheck(residual <= 1e-9 * (1.0 + abs(rhs)), lhs, rhs, residual)


def sample_holder_constant(p: Problem, n: int, seed: int, radius: float = 10.0) -> float:
    """Empirical max over n random pairs of ||g(x) - g(y)|| / ||x - y||^nu.

    Points are sampled coordinatewise uniform in [-radius, radius]. For a
    correctly declared constant the result never exceeds l_nu + 1e-9.
    """
    if n < 1:
        raise ContractViolation(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    nu = p.spec.nu
    worst = 0.0
    for _ in range(n):
        x = rng.uniform(-radius, radius, p.dimension)
        y = rng.uniform(-radius, radius, p.dimension)
        dist = l2_norm(x - y)
        while dist == 0.0:
            y = rng.uniform(-radius, radius, p.dimension)
            dist = l2_norm(x - y)
        ratio = l2_norm(p.grad(x) - p.grad(y)) / dist ** nu
        if ratio > worst:
            worst = ratio
    return worst


def local_constant_from_parts(spec: HolderSpec, grad_norm: float, gap: float) -> float:
    """Pointwise-minimal L with ||g|| <= alpha^(nu/(1+nu)) L^(1/(1+nu)) gap^(nu/(1+nu)).

    Needs only the gradient norm and the suboptimality at the point:
    L = ||g||^(1+nu) / (alpha^nu * gap^nu). At nu = 0 this is just ||g||;
    for nu > 0 the gap must be strictly positive.
    """
    nu = spec.nu
    if nu == 0.0:
        return grad_norm
    if not (gap > 0.0):
        raise DegeneratePointError(
            f"local constant undefined at a point with f(x) - f* = {gap}")
    return grad_norm ** (1.0 + nu) / (spec.alpha_pow_nu * gap ** nu)


def local_holder_constant(p: Problem, x: np.ndarray) -> float:
    """Pointwise-minimal local smoothness constant L(x); requires nu > 0
    and f(x) > f*. Never exceeds the declared global l_nu."""
    if p.spec.nu <= 0.0:
        raise ContractViolation("local_holder_constant requires nu > 0")
    return local_constant_from_parts(p.spec, l2_norm(p.grad(x)), p.gap(x))
