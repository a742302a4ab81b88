"""Holder-smooth convex test problems with analytic gradients and known optima.

Every problem knows its minimizer x*, its optimal value f*, and a declared
smoothness record: exponent nu in [0, 1] and constant l_nu. The module also
provides executable checkers for the descent inequality, the gradient-norm
bound, the sampled smoothness ratio, and pointwise local smoothness
constants.

Every oracle and checker takes one point of shape (d,) or a block of n
points of shape (n, d), with one implementation for both. A point gives a
Python float (or a (d,) gradient); a block gives an (n,) array (or an
(n, d) block of gradients) whose rows equal the one-point calls bit for
bit. Only elementwise + - * /, np.sqrt, np.exp, row sums and
`vectors.dot` act on blocks; powers and logarithms go through
`vectors.power` and `vectors.log`.

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
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractViolation, DegeneratePointError
from .vectors import as_vector, chunk_rows, dot, finite_at_least, l2_norm, log, power

__all__ = [
    "HolderSpec",
    "SAMPLE_RADIUS",
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
    "config_real",
    "config_level",
    "finite_diff_grad",
    "DescentCheck",
    "check_descent_inequality",
    "GradBoundCheck",
    "check_grad_bound",
    "sample_holder_constant",
    "local_holder_constant",
    "local_constant_from_parts",
]


# Half-width of the box [-R, R]^d that the sampling checks draw points from.
SAMPLE_RADIUS = 10.0


@dataclass(frozen=True)
class HolderSpec:
    """Declared smoothness data: exponent nu and constant l_nu.

    The gradient-norm inequality of a globally smooth declaration,
    ||grad f(x)|| <= alpha^(nu/(1+nu)) L(x)^(1/(1+nu)) (f(x)-f*)^(nu/(1+nu)),
    holds with alpha = 1 + 1/nu; only the derived factor alpha^nu enters any
    bound, and at nu = 0 that factor is defined as its limit, 1.
    """

    nu: float
    l_nu: float

    def __post_init__(self):
        if not (0.0 <= self.nu <= 1.0):
            raise ContractViolation(f"nu must lie in [0, 1], got {self.nu}")
        if not (self.l_nu > 0.0):
            raise ContractViolation(f"l_nu must be positive, got {self.l_nu}")

    @property
    def alpha_pow_nu(self) -> float:
        """(1 + 1/nu)^nu with the nu -> 0 limit value 1, which is also the
        value rounded at a subnormal nu, where 1/nu may overflow."""
        if self.nu < sys.float_info.min:
            return 1.0
        return (1.0 + 1.0 / self.nu) ** self.nu


def _where(cond, a, b):
    """a where cond holds, else b: row by row for a block (cond an array),
    a plain choice for one point."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _rows(v):
    """A per-row value shaped to scale the rows of a block: an (n,) array
    as an (n, 1) column; a one-point float or numpy scalar as it is."""
    return v[:, None] if isinstance(v, np.ndarray) else v


# The smallest positive float: a norm at least this is not 0.
_TINY = math.ulp(0.0)


def _radial(z: np.ndarray, r, exponent: float) -> np.ndarray:
    """power(r, exponent) * z for an exponent below 0, row by row for a
    block, and a zero row where r == 0: the subgradient chosen at x* (r is
    also 0 when the norm underflows). A block with no zero norm takes one
    power call and one product; 0 ** exponent raises ZeroDivisionError,
    and the rows are then taken apart."""
    if not isinstance(r, np.ndarray):
        return power(r, exponent) * z if r != 0.0 else np.zeros_like(z)
    try:
        return power(r, exponent)[:, None] * z
    except ZeroDivisionError:
        pass
    out = np.zeros_like(z)
    live = r != 0.0
    out[live] = power(r[live], exponent)[:, None] * z[live]
    return out


class Problem:
    """Base class: a convex function with analytic gradient and known optimum.

    Subclasses set `family` and `spec`, override `optimum` and
    `grad_norm_bound` (a global bound on ||grad f||, required for rate
    formulas at nu = 0) where they differ, on the class if they are fixed,
    and implement `eval` / `grad`. Problems are immutable after construction.
    `eval`, `grad` and `gap` take a point (d,) or a block (n, d); see the
    module docstring.
    """

    family: str = "abstract"
    spec: HolderSpec
    optimum: float = 0.0
    grad_norm_bound: float | None = None

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
        self.params: dict = {}

    def _center(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self.minimizer.shape and (x.ndim != 2 or x.shape[1] != self.dimension):
            raise ContractViolation(
                f"{self.family}: point has shape {x.shape}, expected "
                f"{self.minimizer.shape} or (n, {self.dimension})")
        return x - self.minimizer

    def eval(self, x: np.ndarray) -> float:
        """f(x): a float for a point, an (n,) array for a block."""
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        """The gradient (the chosen subgradient at a kink), shaped like x."""
        raise NotImplementedError

    def gap(self, x: np.ndarray) -> float:
        """f(x) - f*, clamped at 0 against rounding dust near the optimum
        (as max(value, 0.0) does: a NaN stays NaN)."""
        value = self.eval(x) - self.optimum
        return _where(value < 0.0, 0.0, value)

    def distance_to_nonsmooth(self, x: np.ndarray) -> float:
        """Distance to the nearest point where higher derivatives blow up, a
        float for a point and an (n,) array for a block; inf if none does."""
        z = self._center(x)
        return np.full(len(z), math.inf) if z.ndim == 2 else math.inf

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
    spec = HolderSpec(1.0, 1.0)

    def eval(self, x):
        z = self._center(x)
        return 0.5 * dot(z, z)

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
        self.spec = HolderSpec(self.nu, 2.0 ** (1.0 - self.nu))
        self.grad_norm_bound = 1.0 if self.nu == 0.0 else None
        self.params = {"nu": self.nu}

    def eval(self, x):
        z = self._center(x)
        return power(l2_norm(z), 1.0 + self.nu) / (1.0 + self.nu)

    def grad(self, x):
        z = self._center(x)
        if self.nu == 1.0:
            return z
        return _radial(z, l2_norm(z), self.nu - 1.0)

    def distance_to_nonsmooth(self, x):
        if self.nu == 1.0:
            return super().distance_to_nonsmooth(x)
        return l2_norm(self._center(x))


class L2Norm(Problem):
    """f(x) = ||x - x*||; the chosen subgradient at the kink x* is zero."""

    family = "l2_norm"
    spec = HolderSpec(0.0, 2.0)
    grad_norm_bound = 1.0

    def eval(self, x):
        return l2_norm(self._center(x))

    def grad(self, x):
        z = self._center(x)
        r = l2_norm(z)
        if not isinstance(r, np.ndarray):
            return z / r if r != 0.0 else np.zeros_like(z)
        if finite_at_least(r, _TINY):
            return z / r[:, None]
        # z / r, without the 0 / 0 at x*
        return np.divide(z, r[:, None], out=np.zeros_like(z), where=r[:, None] != 0.0)

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
        self.spec = HolderSpec(1.0, 1.0 / self.delta)
        self.params = {"delta": self.delta}

    def eval(self, x):
        r = l2_norm(self._center(x))
        return _where(r <= self.delta, r * r / (2.0 * self.delta), r - self.delta / 2.0)

    def grad(self, x):
        # z / max(r, delta): z / delta in the bowl, z / r outside; a NaN r stays NaN
        z = self._center(x)
        r = l2_norm(z)
        if isinstance(r, np.ndarray):
            return z / np.maximum(r, self.delta)[:, None]
        return z / max(r, self.delta)

    def distance_to_nonsmooth(self, x):
        # gradient is continuous everywhere; second derivative jumps on the sphere
        return abs(l2_norm(self._center(x)) - self.delta)


class LogSumExp(Problem):
    """f(x) = log sum_i [exp(x_i - x*_i) + exp(-(x_i - x*_i))].

    Minimized at x* with value log(2 d). The Hessian is dominated by the
    identity, so the declared constant is 1.
    """

    family = "log_sum_exp"
    spec = HolderSpec(1.0, 1.0)

    def __init__(self, dimension: int, minimizer=None):
        super().__init__(dimension, minimizer)
        self.optimum = math.log(2.0 * self.dimension)

    def eval(self, x):
        """m + log(sum exp(+-z - m)) with m = max |z_i|, per row."""
        z = self._center(x)
        m = np.abs(z).max(axis=-1)
        s = np.exp(z - _rows(m)).sum(axis=-1) + np.exp(-z - _rows(m)).sum(axis=-1)
        value = m + log(s)
        return value if value.ndim else float(value)

    def grad(self, x):
        z = self._center(x)
        m = _rows(np.abs(z).max(axis=-1))
        ep = np.exp(z - m)
        en = np.exp(-z - m)
        return (ep - en) / _rows(ep.sum(axis=-1) + en.sum(axis=-1))


FAMILIES = {cls.family: cls for cls in (Quadratic, PowerNorm, L2Norm, Huber, LogSumExp)}


def make_problem(family: str, dimension: int, minimizer=None, **params) -> Problem:
    """Construct a problem by family name with its parameters as constructor
    keywords; an unknown family, or a missing or unknown parameter, is rejected."""
    if family not in FAMILIES:
        raise ContractViolation(
            f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    try:
        return FAMILIES[family](dimension=dimension, minimizer=minimizer, **params)
    except TypeError as exc:  # a missing or unknown keyword
        raise ContractViolation(f"{family}: {exc}") from None


def problem_from_config(record: dict) -> Problem:
    """Build a problem from a config record.

    Schema: {"family": str, "dimension": int, "minimizer": [floats] | "random"
    (optional, default origin), "parameters": {...} (optional), "seed": int
    (optional, >= 0, allowed only when minimizer == "random")}; any other
    key is refused. A record or parameters that is not a JSON object, a
    missing family or dimension, a family that is not a string, a dimension
    or seed that is not an integer or is below 1 or 0, a minimizer that is
    neither a list nor "random", or a coordinate or parameter that is not
    an int or a float raises ConfigError.
    """
    config_level(record, "problem record", ("family", "dimension"),
                 ("minimizer", "parameters", "seed"))
    family = record["family"]
    if not isinstance(family, str):
        raise ConfigError(f"problem record: 'family' must be a string, got {family!r}")
    dimension = config_count(record["dimension"], "dimension", 1)
    minimizer = record.get("minimizer")
    drawn = isinstance(minimizer, str) and minimizer == "random"
    if "seed" in record and not drawn:
        raise ConfigError("problem record: key 'seed' is read only with minimizer 'random'")
    if drawn:
        seed = config_count(record.get("seed", 0), "problem record: 'seed'", 0)
        minimizer = np.random.default_rng(seed).standard_normal(dimension)
    elif minimizer is not None:
        if not isinstance(minimizer, list):
            raise ConfigError(
                f"problem record: 'minimizer' must be a list or 'random', got {minimizer!r}")
        minimizer = [config_real(c, "minimizer coordinate") for c in minimizer]
    params = config_level(record.get("parameters", {}), "problem parameters")
    params = {k: config_real(v, k) for k, v in params.items()}
    return make_problem(family, dimension, minimizer, **params)


def config_level(record, what: str, required=(), optional=None) -> dict:
    """One level of a config record, checked and returned: a JSON object
    with every key of required and no key outside required + optional
    (optional None allows any other key). Anything else raises ConfigError
    naming the level or the key."""
    if not isinstance(record, dict):
        raise ConfigError(f"{what} must be a JSON object, got {record!r}")
    if optional is not None:
        known = required + optional
        for key in record:
            if key not in known:
                raise ConfigError(f"{what}: unknown key {key!r}; expected one of {sorted(known)}")
    for key in required:
        if key not in record:
            raise ConfigError(f"{what}: missing key {key!r}")
    return record


def config_count(value, name: str, floor: int) -> int:
    """A count read from a config record: an integer, or a float with an
    integral value, at least floor. A bool or any other value raises
    ConfigError."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
            isinstance(value, float) and value.is_integer())):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < floor:
        raise ConfigError(f"{name} must be >= {floor}, got {value!r}")
    return int(value)


def config_real(value, name: str) -> float:
    """A real read from a config record: an int or a float. A bool or any
    other value raises ConfigError; an int too large for a float raises
    OverflowError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def finite_diff_grad(p: Problem, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient, (f(x + h e_i) - f(x - h e_i)) / (2h)
    with h = 1e-6, of a point (d,) or of each row of a block (n, d).

    One eval call takes the 2d points x +- h e_i of every row as one block;
    adding the 0.0 entries of h e_i leaves the other coordinates as they
    are. The caller is responsible for keeping x at distance > 10h from the
    family's nonsmooth set (see Problem.distance_to_nonsmooth).
    """
    h = 1e-6
    d = x.shape[-1]
    e = h * np.eye(d)
    points = np.stack([x[..., None, :] + e, x[..., None, :] - e], axis=-3)
    values = p.eval(points.reshape(-1, d)).reshape(points.shape[:-1])
    return (values[..., 0, :] - values[..., 1, :]) / (2.0 * h)


class DescentCheck(NamedTuple):
    residual: float
    slack: float


def check_descent_inequality(p: Problem, x: np.ndarray, y: np.ndarray,
                             l_scale: float = 1.0) -> DescentCheck:
    """Check f(y) <= f(x) + <grad f(x), y - x> + L/(1+nu) ||x - y||^(1+nu)
    for a pair of points, or row by row for blocks x and y of equal shape.

    Returns the residual (left side minus right side) and the slack
    1e-9 * (1 + |f(y)|); the check passes when residual <= slack.
    `l_scale` rescales the declared constant, which negative-control suites
    use to verify that a too-small constant is caught.
    """
    nu = p.spec.nu
    l_eff = p.spec.l_nu * l_scale
    fy = p.eval(y)
    fx = p.eval(x)
    g = p.grad(x)
    d = y - x
    rhs = fx + dot(g, d) + l_eff / (1.0 + nu) * power(l2_norm(d), 1.0 + nu)
    residual = fy - rhs
    slack = 1e-9 * (1.0 + abs(fy))
    return DescentCheck(residual, slack)


class GradBoundCheck(NamedTuple):
    lhs: float
    rhs: float


def check_grad_bound(p: Problem, x: np.ndarray) -> GradBoundCheck:
    """Check ||grad f(x)||^(1 + 1/nu) <= (1 + 1/nu) l_nu^(1/nu) (f(x) - f*)
    at a point, or row by row for a block.

    Defined for nu > 0 only. Returns both sides; the caller chooses the
    slack (the bench allows 1e-9 relative to |rhs|).
    """
    nu = p.spec.nu
    if nu <= 0.0:
        raise ContractViolation("check_grad_bound requires nu > 0")
    gn = l2_norm(p.grad(x))
    lhs = power(gn, 1.0 + 1.0 / nu)
    rhs = (1.0 + 1.0 / nu) * p.spec.l_nu ** (1.0 / nu) * p.gap(x)
    return GradBoundCheck(lhs, rhs)


def sample_holder_constant(p: Problem, n: int, seed: int) -> float:
    """Empirical max over n random pairs of ||g(x) - g(y)|| / ||x - y||^nu.

    Each chunk of m pairs (x, y) is one (m, 2, d) uniform draw in
    [-SAMPLE_RADIUS, SAMPLE_RADIUS]. A pair with x == y is skipped, as is a
    NaN ratio. For a correctly declared constant the result never exceeds
    l_nu + 1e-9.
    """
    if n < 1:
        raise ContractViolation(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    nu = p.spec.nu
    worst = 0.0
    rows = chunk_rows(2 * p.dimension)
    for lo in range(0, n, rows):
        pairs = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (min(rows, n - lo), 2, p.dimension))
        x, y = pairs[:, 0], pairs[:, 1]
        dist = l2_norm(x - y)
        live = dist != 0.0
        ratios = l2_norm(p.grad(x[live]) - p.grad(y[live])) / power(dist[live], nu)
        worst = np.fmax.reduce(ratios, initial=worst)
    return float(worst)


def local_constant_from_parts(spec: HolderSpec, grad_norm: float, gap: float) -> float:
    """Pointwise-minimal L with ||g|| <= alpha^(nu/(1+nu)) L^(1/(1+nu)) gap^(nu/(1+nu)).

    Needs only the gradient norm and the suboptimality at the point (two
    floats, or two (n,) arrays for n points): L = ||g||^(1+nu) / (alpha^nu *
    gap^nu). At nu = 0 this is just ||g||; for nu > 0 every gap must be
    strictly positive.
    """
    nu = spec.nu
    if nu == 0.0:
        return grad_norm
    if not np.all(gap > 0.0):
        raise DegeneratePointError(
            f"local constant undefined at a point with f(x) - f* = {gap}")
    return power(grad_norm, 1.0 + nu) / (spec.alpha_pow_nu * power(gap, nu))


def local_holder_constant(p: Problem, x: np.ndarray) -> float:
    """Pointwise-minimal local smoothness constant L(x) of a point, or of
    each row of a block; requires nu > 0 and f(x) > f*. Never exceeds the
    declared global l_nu."""
    if p.spec.nu <= 0.0:
        raise ContractViolation("local_holder_constant requires nu > 0")
    return local_constant_from_parts(p.spec, l2_norm(p.grad(x)), p.gap(x))
