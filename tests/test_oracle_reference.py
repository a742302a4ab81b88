"""Every canonical family's oracles against exact references over 17
decades of distance from the minimizer.

Each example draws a family with its canonical parameters (power_norm
nu = 1/2, huber delta = 1), d in 1..20, a minimizer of scale 10^-3 to
10^3 and x = x* + 10^k v, v a unit direction and k in [-8, 8]. mpmath
computes f(x), f(x) - f* and grad f(x) at 60 digits from the float x and
x*, so z = x - x* is exact there. Every bound below follows from the
oracle's operation count (Higham 2002, Accuracy and Stability of
Numerical Algorithms, ch. 3), with u = 2^-53 the unit roundoff,
gamma_k = k u / (1 - k u), dev(e, p) = max |(1 +- e)^p - 1| the deviation
of a power of a factor within [1 - e, 1 + e], and a product of such
factors within prod(1 + e_i) - 1. None is tuned to the measured errors.

* z_i = fl(x_i - x*_i) is z_i (1 + delta), |delta| <= u.
* dot(z, z) adds d nonnegative squares in some order, with or without
  FMA: each term passes through at most one product and d - 1 sums, so
  with z's rounding the squared norm errs by rho_s = (1 + u)^2 (1 +
  gamma_d) - 1, and r = sqrt of it (correctly rounded) by rho_r = (1 +
  dev(rho_s, 1/2)) (1 + u) - 1. The draws keep dot(z, z) a normal float,
  so the scaled norm never runs.
* exp (numpy), pow and log (libm) are within 1 ulp of the correctly
  rounded value (numpy's float64 exp accuracy tests; glibc on x86-64),
  so within t = 3u relative of the exact value.

Relative error, the four radial families (f* = 0 is subtracted exactly,
so each gap bound is its eval bound; the gradient error is measured in
the max norm, relative to the gradient's max norm, and each coordinate
errs by at most the bound relative to itself):

* quadratic   0.5 dot(z, z): rho_s.  grad z: u.
* power_norm  pow(r, 1.5) / 1.5: (1 + dev(rho_r, 1.5)) (1 + t) (1 + u) - 1.
              pow(r, -0.5) z: (1 + dev(rho_r, -0.5)) (1 + t) (1 + u)^2 - 1.
* l2_norm     r: rho_r.  z / r: (1 + dev(rho_r, -1)) (1 + u)^2 - 1.
* huber       r r / 2 for r <= 1 errs by (1 + rho_r)^2 (1 + u) - 1, and
              r - 1/2 for r > 1 by (1 + 2 rho_r) (1 + u) - 1, as r / (r -
              1/2) <= 2. Where r and its rounding straddle 1, the other
              branch is taken, off by (r - 1)^2 / 2 <= rho_r^2 r^2 / 2 and
              by the rounding to first order. (1 + 2 rho_r) (1 + rho_r)^3
              (1 + u) - 1 covers all four cases. The gradient, z / 1 or
              z / r, errs as l2_norm's does.

log_sum_exp, with M = max |z_i| (exact) and S = sum exp(+-z_i - M) >= 1,
so f = M + log S >= max(M, log 2d). The computed m = max |fl(z_i)| is
within u M of M, and each exponent fl(+-fl(z_i) - m) within eta = 4 u M
(1 + u) of +-z_i - M; so each exp term errs by alpha = e^eta (1 + t) - 1,
and the sum of the 2d terms (each through at most d sums) by sigma =
(1 + alpha) (1 + gamma_d) - 1 (a term that underflows errs by under
2^-1074, invisible beside S >= 1).

* eval, relative: log S errs by lam = -log(1 - sigma) and the log call by
  t |log S|, so f errs by e_f = u M + e_L + u (f + u M + e_L) with e_L =
  lam + t (log S + lam); the bound is e_f / f.
* gap, absolute: fl(log 2d) errs by t log 2d, and the subtraction by u
  |gap|: e_f + t log 2d + u (gap + e_f + t log 2d). Clamping a negative
  value at 0 only moves it toward the true gap, which is >= 0.
* grad, absolute (max norm): each numerator exp(a) - exp(-a) errs by at
  most beta = alpha + u (1 + alpha) times the sum of its two terms, which
  is at most S, and |g_i| <= 1, so g_i errs by (u + sigma + beta (1 + u))
  / (1 - sigma).

The gradient of log_sum_exp cancels near x*, so its relative error is
unbounded there; only its absolute error is bounded here. Where max |z_i|
< 1 the gap is log1p(2 y) + (log 2d - f*), y = mean(sinh(z_i / 2)^2), with
log 2d - f* = 0 exactly, and keeps a relative bound, checked at ||z| =
1e-7 and 1e-8 below, where eval - f* cancelled to 4.4e-16 (of 5.0e-16)
and 0:

* sinh(fl(z_i) / 2) is sinh(z_i / 2) within e_z = u cosh(1/2) (1 + u)
  relative, as |sinh a| >= |a|, and numpy's sinh is within t of it;
* the dot of the d squares errs by e_y = (1 + e_z)^2 (1 + t)^2 (1 + gamma_d)
  - 1, and 2 dot / d by one rounding more, e_2 = (1 + e_y) (1 + u) - 1;
* log1p's relative condition is y / ((1 + y) log1p(y)) <= 1, so log1p of
  the computed argument errs by e_2 / (1 - e_2), and numpy's log1p by t.

Derandomized, so each run draws the same points.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgrad.bench import canonical_problems
from normgrad.problems import make_problem
from normgrad.vectors import l2_norm

# The bounds are computed with mpmath too: in floats, 1 + u rounds to 1.
U = mpmath.mpf(2) ** -53  # unit roundoff
T = 3 * U  # one exp, pow or log call


def gamma(k: int):
    return k * U / (1 - k * U)


def dev(e, p):
    """The largest |(1 + th)^p - 1| over |th| <= e."""
    return max(abs((1 + e) ** p - 1), abs((1 - e) ** p - 1))


def compose(*errors):
    """The bound on a product of factors each within [1 - e_i, 1 + e_i]."""
    return mpmath.fprod(1 + e for e in errors) - 1


def radial_bounds(family: str, d: int) -> tuple:
    """(eval and gap, grad) relative bounds of a radial family; see the module docstring."""
    rho_s = compose(U, U, gamma(d))
    rho_r = compose(dev(rho_s, 0.5), U)
    grad_by_r = compose(dev(rho_r, -1), U, U)
    return {
        "quadratic": (rho_s, U),
        "power_norm": (compose(dev(rho_r, 1.5), T, U), compose(dev(rho_r, -0.5), T, U, U)),
        "l2_norm": (rho_r, grad_by_r),
        "huber": (compose(2 * rho_r, rho_r, rho_r, rho_r, U), grad_by_r),
    }[family]


def lse_bounds(d: int, big_m, f, gap) -> tuple:
    """(eval relative, gap absolute, grad absolute) bounds of log_sum_exp;
    see the module docstring."""
    alpha = mpmath.exp(4 * U * big_m * (1 + U)) * (1 + T) - 1
    sigma = compose(alpha, gamma(d))
    lam = -mpmath.log1p(-sigma)
    e_log = lam + T * ((f - big_m) + lam)
    e_f = U * big_m + e_log + U * (f + U * big_m + e_log)
    e_opt = T * mpmath.log(2 * d)
    beta = alpha + U * (1 + alpha)
    return (e_f / f, e_f + e_opt + U * (gap + e_f + e_opt),
            (U + sigma + beta * (1 + U)) / (1 - sigma))


def reference(family: str, x, minimizer) -> tuple:
    """f(x), f(x) - f* and grad f(x) at 60 digits, with M = max |z_i|."""
    z = [mpmath.mpf(a) - mpmath.mpf(b) for a, b in zip(x.tolist(), minimizer.tolist())]
    r = mpmath.sqrt(mpmath.fsum(c * c for c in z))
    big_m = max(abs(c) for c in z)
    if family == "quadratic":
        f, grad = r * r / 2, z
    elif family == "power_norm":
        f, grad = r ** 1.5 / 1.5, [c / mpmath.sqrt(r) for c in z]
    elif family == "l2_norm":
        f, grad = r, [c / r for c in z]
    elif family == "huber":
        f, grad = (r * r / 2, z) if r <= 1 else (r - 0.5, [c / r for c in z])
    else:
        ep = [mpmath.exp(c - big_m) for c in z]
        en = [mpmath.exp(-c - big_m) for c in z]
        s = mpmath.fsum(ep) + mpmath.fsum(en)
        f = big_m + mpmath.log(s)
        grad = [(a - b) / s for a, b in zip(ep, en)]
        return f, f - mpmath.log(2 * len(z)), grad, big_m
    return f, f, grad, big_m


def lse_gap_near_bound(d: int):
    """The relative bound of log_sum_exp's gap where max |z_i| < 1; see the
    module docstring."""
    e_z = U * mpmath.cosh(mpmath.mpf(1) / 2) * (1 + U)
    e_2 = compose(e_z, e_z, T, T, gamma(d), U)
    return compose(e_2 / (1 - e_2), T)


@st.composite
def points(draw):
    """A canonical family at d in 1..20 with a minimizer of scale 10^-3 to
    10^3, and a point 10^k from it, k in [-8, 8]."""
    family = draw(st.integers(0, 4))
    d = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    minimizer = 10.0 ** draw(st.floats(-3.0, 3.0)) * rng.standard_normal(d)
    canonical = canonical_problems(d)[family]
    problem = make_problem(canonical.family, d, minimizer, **canonical.params)
    v = rng.standard_normal(d)
    return problem, minimizer + 10.0 ** draw(st.floats(-8.0, 8.0)) * (v / l2_norm(v))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(points())
def test_oracles_are_within_their_rounding_bounds_of_exact_values(point):
    problem, x = point
    family, d = problem.family, problem.dimension
    with mpmath.workdps(60):
        f, gap, grad, big_m = reference(family, x, problem.minimizer)
        eval_err = abs(mpmath.mpf(problem.eval(x)) - f)
        gap_err = abs(mpmath.mpf(problem.gap(x)) - gap)
        grad_err = max(abs(mpmath.mpf(a) - b) for a, b in zip(problem.grad(x).tolist(), grad))
        grad_max = max(abs(b) for b in grad)
        case = (family, d, float(big_m))
        if family == "log_sum_exp":
            eval_rel, gap_abs, grad_abs = lse_bounds(d, big_m, f, gap)
            assert eval_err <= eval_rel * f, case
            assert gap_err <= gap_abs, case
            assert grad_err <= grad_abs, case
        else:
            eval_rel, grad_rel = radial_bounds(family, d)
            assert eval_err <= eval_rel * f, case
            assert gap_err <= eval_rel * gap, case
            assert grad_err <= grad_rel * grad_max, case


@pytest.mark.parametrize("radius", [1e-7, 1e-8])
@pytest.mark.parametrize("seed", range(4))
def test_log_sum_exp_gap_keeps_its_relative_bound_near_the_minimizer(radius, seed):
    # d = 10, at x* = 0 and at a minimizer of scale 1; the gap is about
    # radius^2 / 20, and a block row equals the point call, beside a row
    # near x* and beside one that is not
    rng = np.random.default_rng(seed)
    for minimizer in (np.zeros(10), rng.standard_normal(10)):
        problem = make_problem("log_sum_exp", 10, minimizer)
        v = rng.standard_normal(10)
        x = minimizer + radius * (v / l2_norm(v))
        gap = problem.gap(x)
        for other in (2.0 * minimizer - x, minimizer + 5.0 * v):
            assert problem.gap(np.stack([x, other]))[0] == gap
        with mpmath.workdps(60):
            _, exact, _, big_m = reference("log_sum_exp", x, minimizer)
            assert big_m < 1 and 0.0 < gap
            assert abs(mpmath.mpf(gap) - exact) <= lse_gap_near_bound(10) * exact, (radius, gap)
