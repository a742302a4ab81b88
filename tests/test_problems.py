import math
import sys

import numpy as np
import pytest

from normgrad import (
    ContractViolation,
    DegeneratePointError,
    HolderSpec,
    Huber,
    L2Norm,
    LogSumExp,
    PowerNorm,
    Quadratic,
    check_descent_inequality,
    check_grad_bound,
    finite_diff_grad,
    local_constant_from_parts,
    local_holder_constant,
    make_problem,
    problem_from_config,
    sample_holder_constant,
)
from normgrad.bench import _excess, canonical_problems


def test_quadratic_values():
    p = Quadratic(1)
    assert p.eval(np.array([3.0])) == 4.5
    assert p.grad(np.array([3.0]))[0] == 3.0
    assert p.eval(p.minimizer) == p.optimum == 0.0


def test_power_norm_values():
    p = PowerNorm(0.5, 1)
    assert p.eval(np.array([1.0])) == pytest.approx(2.0 / 3.0, rel=1e-15)
    # ||x||^(nu-1) x = 4^(-1/2) * 4 = 2
    assert p.grad(np.array([4.0]))[0] == pytest.approx(2.0, rel=1e-15)
    assert p.grad(p.minimizer)[0] == 0.0


def test_power_norm_nu_one_matches_quadratic():
    p1 = PowerNorm(1.0, 3)
    q = Quadratic(3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(3)
        assert p1.eval(x) == pytest.approx(q.eval(x), rel=1e-15)
        assert np.allclose(p1.grad(x), q.grad(x), rtol=1e-15)
    assert p1.spec.l_nu == q.spec.l_nu == 1.0


def test_power_norm_nu_zero_matches_l2norm():
    p0 = PowerNorm(0.0, 3)
    l2 = L2Norm(3)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.standard_normal(3)
        assert p0.eval(x) == pytest.approx(l2.eval(x), rel=1e-15)
        assert np.allclose(p0.grad(x), l2.grad(x), rtol=1e-14)
    assert p0.spec.l_nu == l2.spec.l_nu == 2.0
    assert p0.grad_norm_bound == l2.grad_norm_bound == 1.0


def test_l2norm_subgradient_zero_at_kink():
    p = L2Norm(4)
    assert np.array_equal(p.grad(p.minimizer), np.zeros(4))
    x = np.array([3.0, 0.0, 4.0, 0.0])
    g = p.grad(x)
    assert np.allclose(g, x / 5.0, rtol=1e-15)


def test_huber_regions():
    p = Huber(1, delta=1.0)
    # quadratic region: f = r^2/2, grad = z
    assert p.eval(np.array([0.5])) == 0.125
    assert p.grad(np.array([0.5]))[0] == 0.5
    # linear region: f = r - 1/2, grad has unit norm
    assert p.eval(np.array([10.0])) == 9.5
    assert p.grad(np.array([10.0]))[0] == 1.0
    assert p.spec.l_nu == 1.0
    p2 = Huber(2, delta=0.25)
    assert p2.spec.l_nu == 4.0


def test_log_sum_exp_minimum_is_exact():
    p = LogSumExp(5)
    assert p.eval(p.minimizer) == p.optimum == math.log(10.0)
    assert np.array_equal(p.grad(p.minimizer), np.zeros(5))


def test_minimizer_shift():
    center = np.array([2.0, -1.0])
    for p in (Quadratic(2, center), PowerNorm(0.5, 2, center), L2Norm(2, center),
              Huber(2, 1.0, center), LogSumExp(2, center)):
        assert p.eval(center) == p.optimum
        assert np.allclose(p.grad(center), 0.0)
        assert p.gap(center) == 0.0


def test_holder_spec_and_sampler_refuse_bad_arguments():
    with pytest.raises(ContractViolation):
        HolderSpec(1.5, 1.0)  # nu outside [0, 1]
    with pytest.raises(ContractViolation):
        HolderSpec(0.5, 0.0)  # a constant that is not positive
    with pytest.raises(ContractViolation):
        sample_holder_constant(Quadratic(2), 0, 0)


def test_alpha_pow_nu_at_a_subnormal_nu_is_its_rounded_value():
    # (1 + 1/nu)^nu rounds to 1.0 for every nu below the smallest normal
    # float, where 1/nu may overflow; inf ** nu would make every local
    # constant 0, which the bound chain refuses
    tiny = sys.float_info.min
    for nu in (5e-324, 2.2250738585e-313, tiny / 2.0):
        spec = HolderSpec(nu, 2.0)
        assert spec.alpha_pow_nu == 1.0
        assert local_constant_from_parts(spec, 1.0, 0.5) == 1.0
    assert HolderSpec(tiny, 2.0).alpha_pow_nu == (1.0 + 1.0 / tiny) ** tiny == 1.0


def test_dimension_mismatch_raises():
    p = Quadratic(3)
    with pytest.raises(ContractViolation):
        p.eval(np.zeros(2))
    with pytest.raises(ContractViolation):
        p.grad(np.zeros(4))
    for canonical in canonical_problems():
        with pytest.raises(ContractViolation, match="dimension must be >= 1"):
            make_problem(canonical.family, 0, **canonical.params)


def test_finite_diff_matches_analytic_examples():
    q = Quadratic(1)
    fd = finite_diff_grad(q, np.array([2.0]))
    assert fd[0] == pytest.approx(2.0, abs=1e-6)

    lse = LogSumExp(3)
    # at the center both the analytic gradient and the symmetric stencil vanish
    assert np.array_equal(finite_diff_grad(lse, lse.minimizer), np.zeros(3))
    x = np.array([0.3, -0.2, 0.9])
    fd = lse.grad(x) - finite_diff_grad(lse, x)
    assert np.linalg.norm(fd) <= 1e-5 * np.linalg.norm(lse.grad(x))

    pn = PowerNorm(1.0, 2)
    x = np.array([1.5, -0.5])
    assert np.allclose(finite_diff_grad(pn, x), Quadratic(2).grad(x), atol=1e-6)


def test_descent_inequality_quadratic_is_equality():
    p = Quadratic(3)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-10, 10, 3)
        y = rng.uniform(-10, 10, 3)
        check = check_descent_inequality(p, x, y)
        assert check.residual <= check.slack
        assert abs(check.residual) <= 1e-9 * (1.0 + abs(p.eval(y)))


@pytest.mark.parametrize("problem", canonical_problems(), ids=lambda p: p.family)
def test_descent_inequality_random_pairs(problem):
    rng = np.random.default_rng(4)
    for _ in range(2000):
        x = rng.uniform(-10, 10, problem.dimension)
        y = rng.uniform(-10, 10, problem.dimension)
        check = check_descent_inequality(problem, x, y)
        assert check.residual <= check.slack


def test_grad_bound_examples():
    q = Quadratic(1)
    check = check_grad_bound(q, np.array([3.0]))
    # quadratic saturates: lhs = 9, rhs = 2 * 1 * 4.5 = 9
    assert _excess(check.lhs, check.rhs) <= 0.0
    assert check.lhs == pytest.approx(9.0, rel=1e-12)
    assert check.rhs == pytest.approx(9.0, rel=1e-12)

    pn = PowerNorm(0.5, 1)
    check = check_grad_bound(pn, np.array([1.0]))
    # lhs = 1, rhs = 3 * (2^(1/2))^2 * (2/3) = 4
    assert _excess(check.lhs, check.rhs) <= 0.0
    assert check.lhs == pytest.approx(1.0, rel=1e-12)
    assert check.rhs == pytest.approx(4.0, rel=1e-12)

    at_min = check_grad_bound(q, q.minimizer)
    assert _excess(at_min.lhs, at_min.rhs) <= 0.0 and at_min.lhs == 0.0 and at_min.rhs == 0.0


def test_grad_bound_rejects_nu_zero():
    with pytest.raises(ContractViolation):
        check_grad_bound(L2Norm(2), np.ones(2))


@pytest.mark.parametrize("problem", [p for p in canonical_problems() if p.spec.nu > 0],
                         ids=lambda p: p.family)
def test_grad_bound_random_points(problem):
    rng = np.random.default_rng(5)
    for _ in range(2000):
        check = check_grad_bound(problem, rng.uniform(-10, 10, problem.dimension))
        assert _excess(check.lhs, check.rhs) <= 0.0


def test_sample_holder_constant_quadratic_exact_ratio():
    p = Quadratic(3)
    v = sample_holder_constant(p, 500, seed=0)
    assert v == pytest.approx(1.0, rel=1e-12)


def test_sample_holder_constant_respects_declared():
    for p in canonical_problems():
        for seed in range(3):
            assert sample_holder_constant(p, 500, seed) <= p.spec.l_nu + 1e-9


def test_sample_holder_constant_single_pair_nonnegative():
    for p in canonical_problems():
        v = sample_holder_constant(p, 1, seed=0)
        assert math.isfinite(v) and v >= 0.0


def test_sample_holder_constant_power_norm_straddling_limit():
    # scalar pairs straddling the center approach 2^(1-nu)
    p = PowerNorm(0.5, 1)
    v = sample_holder_constant(p, 20_000, seed=7)
    assert v <= math.sqrt(2.0) + 1e-9
    assert v >= math.sqrt(2.0) - 0.05


def test_local_holder_constant_examples():
    q = Quadratic(1)
    assert local_holder_constant(q, np.array([3.0])) == pytest.approx(1.0, rel=1e-12)

    h = Huber(1, delta=1.0)
    # linear region: ||g|| = 1, gap = 9.5, L(x) = 1 / (2 * 9.5)
    assert local_holder_constant(h, np.array([10.0])) == pytest.approx(1.0 / 19.0, rel=1e-12)

    pn = PowerNorm(0.5, 1)
    v = local_holder_constant(pn, np.array([1.0]))
    # ||g||^1.5 / (3^0.5 * (2/3)^0.5) = 1/sqrt(2)
    assert v == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert v <= pn.spec.l_nu


def test_local_holder_constant_errors():
    q = Quadratic(2)
    with pytest.raises(DegeneratePointError):
        local_holder_constant(q, q.minimizer)
    with pytest.raises(ContractViolation):
        local_holder_constant(L2Norm(2), np.ones(2))


@pytest.mark.parametrize("problem", [p for p in canonical_problems() if p.spec.nu > 0],
                         ids=lambda p: p.family)
def test_local_constant_below_global(problem):
    rng = np.random.default_rng(6)
    for _ in range(1000):
        x = rng.uniform(-10, 10, problem.dimension)
        if problem.gap(x) <= 0.0:
            continue
        assert local_holder_constant(problem, x) <= problem.spec.l_nu + 1e-9


def test_convexity_random_segments():
    rng = np.random.default_rng(8)
    for problem in canonical_problems():
        for _ in range(500):
            x = rng.uniform(-10, 10, problem.dimension)
            y = rng.uniform(-10, 10, problem.dimension)
            lam = rng.uniform()
            mid = problem.eval(lam * x + (1 - lam) * y)
            assert mid <= lam * problem.eval(x) + (1 - lam) * problem.eval(y) + 1e-9


def test_fixed_families_declare_their_constants_on_the_class():
    assert "__init__" not in vars(Quadratic) and "__init__" not in vars(L2Norm)
    assert Quadratic.spec == HolderSpec(1.0, 1.0) and LogSumExp.spec == HolderSpec(1.0, 1.0)
    assert L2Norm.spec == HolderSpec(0.0, 2.0) and L2Norm.grad_norm_bound == 1.0
    assert Quadratic.optimum == 0.0 and Quadratic.grad_norm_bound is None
    assert Quadratic(2).params is not Quadratic(2).params


@pytest.mark.parametrize("family, params, key", [
    ("quadratic", {"nu": 0.5}, "nu"),
    ("power_norm", {}, "nu"),
    ("power_norm", {"nu": 0.5, "delta": 1.0}, "delta"),
    ("l2_norm", {"delta": 1.0}, "delta"),
    ("huber", {"delat": 0.5}, "delat"),
    ("log_sum_exp", {"nu": 1.0}, "nu"),
])
def test_make_problem_names_a_missing_or_unknown_parameter(family, params, key):
    with pytest.raises(ContractViolation, match=f"^{family}: .*'{key}'"):
        make_problem(family, 3, **params)


@pytest.mark.parametrize("problem", [
    Quadratic(3), PowerNorm(0.0, 3), PowerNorm(0.5, 3), PowerNorm(1.0, 3), L2Norm(3),
    Huber(3, delta=0.5), LogSumExp(3), LogSumExp(3, minimizer=[0.25, -1.0, 0.5]),
], ids=repr)
def test_problem_config_record_round_trip(problem):
    back = problem_from_config(problem.config_record())
    assert type(back) is type(problem) and repr(back) == repr(problem)
    assert back.spec == problem.spec and back.optimum == problem.optimum
    assert back.grad_norm_bound == problem.grad_norm_bound
    assert np.array_equal(back.minimizer, problem.minimizer)


def test_make_problem_and_config_round_trip():
    p = make_problem("huber", 3, delta=0.5)
    assert isinstance(p, Huber) and p.delta == 0.5
    with pytest.raises(ContractViolation):
        make_problem("power_norm", 2)
    with pytest.raises(ContractViolation):
        make_problem("nope", 2)
    with pytest.raises(ContractViolation):
        make_problem("quadratic", 2, nu=0.5)
    with pytest.raises(ContractViolation):
        make_problem("huber", 3, delta=0.5, nu=0.5)

    rec = {"family": "power_norm", "dimension": 4,
           "minimizer": [1.0, 0.0, 0.0, 0.0], "parameters": {"nu": 0.5}}
    p2 = problem_from_config(rec)
    assert isinstance(p2, PowerNorm) and p2.nu == 0.5
    assert p2.config_record()["minimizer"] == [1.0, 0.0, 0.0, 0.0]

    p3 = problem_from_config({"family": "quadratic", "dimension": 3,
                              "minimizer": "random", "seed": 11})
    p4 = problem_from_config({"family": "quadratic", "dimension": 3,
                              "minimizer": "random", "seed": 11})
    assert np.array_equal(p3.minimizer, p4.minimizer)


def _optimum_witness(problem) -> list:
    """What a witness near x* finds wrong with the declared optimum: f(x*)
    must equal it bit for bit, and the gap must be positive at radii 1e-4
    to 1e-1 from x*. There a raised optimum of 1e-3 is most of the gap,
    and points drawn from [-10, 10]^d almost never come that close."""
    found = []
    if problem.eval(problem.minimizer) != problem.optimum:
        found.append("f(x*) is not the optimum")
    d = problem.dimension
    directions = np.array([np.eye(d)[0], -np.ones(d),
                           np.random.default_rng(d).standard_normal(d)])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = np.logspace(-4.0, -1.0, 7)
    points = problem.minimizer + (radii[:, None, None] * directions).reshape(-1, d)
    if not np.all(problem.gap(points) > 0.0):
        found.append("a gap near x* is not positive")
    return found


@pytest.mark.parametrize("dimension", [3, 10])
def test_declared_optimum_holds_near_the_minimizer(dimension):
    for index, problem in enumerate(canonical_problems(dimension)):
        assert _optimum_witness(problem) == [], problem
        # the shifts of the optimum that no sampling suite catches on some families
        for shift, found in ((-1e-3, ["f(x*) is not the optimum"]),
                             (1e-3, ["f(x*) is not the optimum",
                                     "a gap near x* is not positive"])):
            shifted = canonical_problems(dimension)[index]
            shifted.optimum += shift
            assert _optimum_witness(shifted) == found, (problem, shift)
