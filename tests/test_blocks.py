"""Block oracles: every row of an (n, d) call equals the one-point call on
that row, bit for bit, and the chunked property suites equal their
per-point loops, which this file keeps as the reference implementation."""

import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from normgrad import problems
from normgrad.bench import (
    SUITES,
    SuiteResult,
    _sample_point,
    _sample_points,
    _tally,
    canonical_problems,
)
from normgrad.problems import (
    PowerNorm,
    check_descent_inequality,
    check_grad_bound,
    finite_diff_grad,
    local_constant_from_parts,
    local_holder_constant,
    sample_holder_constant,
)
from normgrad.vectors import chunk_rows, l2_norm, log, power


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bit patterns (so -0.0 != 0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def block_points(problem, seed: int = 0) -> np.ndarray:
    """Random points plus the hard rows: x* itself, ||z|| from 1e-100 to
    1e100, rows whose squared norm is 0 or subnormal (the scaled norm's
    rows), both sides of the huber radius, and log-sum-exp rows with
    ||z||_inf < 1e-8."""
    d = problem.dimension
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(d)
    u /= l2_norm(u)
    rows = [np.zeros(d)]
    rows += [s * u for s in (1e-100, 1e-50, 1e-8, 1e-3, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12,
                             2.0, 1e3, 1e50, 1e100)]
    rows += [1e-170 * u, 1e-155 * u, 5e-324 * np.eye(d)[0], np.full(d, 3e-9), -np.full(d, 1e-10)]
    rows += list(rng.uniform(-10.0, 10.0, (24, d)))
    return problem.minimizer + np.array(rows)


FAMILY_CASES = [pytest.param(d, i, id=f"{p.family}-d{d}")
                for d in (3, 10) for i, p in enumerate(canonical_problems(d))]


def test_vector_helpers_rows_equal_one_point_calls():
    rng = np.random.default_rng(7)
    for d in (1, 3, 10, 256):
        z = rng.standard_normal((50, d)) * np.exp(rng.uniform(-30.0, 30.0, (50, 1)))
        norms = l2_norm(z)
        assert all(type(l2_norm(row)) is float and same_bits(n, l2_norm(row))
                   for n, row in zip(norms, z))
    # rows whose squares underflow or overflow take the scaled norm: within
    # an ulp or two of the true norm, 0 only for the zero row, and inf only
    # past the largest float
    u = rng.standard_normal(10)
    edge = np.array([s * u for s in (1e-300, 1e-170, 1e-155, 1e155, 1e200, 1e300)]
                    + [np.zeros(10), 5e-324 * np.eye(10)[0], np.full(10, 1e308)])
    with np.errstate(over="ignore"):
        norms = l2_norm(edge)
        assert all(same_bits(n, l2_norm(row)) for n, row in zip(norms, edge))
    assert all(n == pytest.approx(math.hypot(*row), rel=4e-16) for n, row in zip(norms, edge))
    assert norms[-1] == math.inf and norms[-3] == 0.0 and norms[-2] == 5e-324
    values = np.exp(rng.uniform(-30.0, 30.0, 200))
    for exponent in (0.0, 0.5, 1.5, -0.5, 3.0):
        block = power(values.reshape(20, 10), exponent)
        assert block.shape == (20, 10)
        assert all(same_bits(b, v ** exponent) for b, v in zip(block.ravel(), values.tolist()))
    assert all(same_bits(b, math.log(v)) for b, v in zip(log(values), values.tolist()))
    assert type(power(2.0, 0.5)) is float and type(log(2.0)) is float
    # an overflow gives inf, as libm's pow does, for a float and in a block
    assert power(1e200, 2.0) == math.inf
    assert same_bits(power(np.array([1e200, 2.0]), 2.0), [math.inf, 4.0])
    # an exponent array gives each element its own, the one-point call's bits
    exponents = rng.choice([0.0, 0.5, 1.5, -0.5, -1.0], 200)
    block = power(values.reshape(20, 10), exponents.reshape(20, 10))
    assert all(same_bits(b, power(v, e)) for b, v, e in
               zip(block.ravel(), values.tolist(), exponents.tolist()))
    assert same_bits(power(np.array([1e200, 2.0]), np.array([2.0, 3.0])), [math.inf, 8.0])


@pytest.mark.parametrize("d", [3, 10])
def test_block_problem_rows_carry_their_own_nu(d):
    # power_norm rows at three nu, as a sweep unit steps them: each gradient
    # row is its own problem's one-point gradient, a nu = 1 row keeps g = z
    # (signed zeros too), and a zero row at nu < 1 gives the zero subgradient
    nus = (0.0, 0.5, 1.0, 1e-6, 1.0 - 1e-6)
    rows = [PowerNorm(nu, d) for nu in nus]
    x = block_points(rows[0])
    x[:3] = -0.0  # x* itself, with signed zeros, at nu 0, 0.5 and 1 below
    for perm in (np.arange(len(x)) % len(rows), np.zeros(len(x), int), np.full(len(x), 2)):
        mine = [rows[i] for i in perm]
        # near nu = 0 the tiniest rows give inf * 0, a NaN, at a point as in a block
        with np.errstate(over="ignore", invalid="ignore"):
            grads = problems.block_problem(mine).grad(x)
            alone = [p.grad(row) for p, row in zip(mine, x)]
        for g, one, p, row in zip(grads, alone, mine, x):
            assert same_bits(g, one), (p.nu, row)
    assert problems.block_problem(rows[:1] * 3) is rows[0]
    for bad in ([rows[0], problems.Quadratic(d)], [rows[0], PowerNorm(0.5, d + 1)],
                [rows[0], PowerNorm(0.5, d, np.ones(d))]):
        with pytest.raises(problems.ContractViolation):
            problems.block_problem(bad)


@pytest.mark.parametrize("d,index", FAMILY_CASES)
def test_oracle_rows_equal_one_point_calls(d, index):
    problem = canonical_problems(d)[index]
    x = block_points(problem)
    for method in (problem.eval, problem.gap):
        block = method(x)
        assert block.shape == (len(x),)
        for value, row in zip(block, x):
            one = method(row)
            assert type(one) is float and same_bits(value, one), (method.__name__, row)
    grads = problem.grad(x)
    assert grads.shape == x.shape
    assert all(same_bits(g, problem.grad(row)) for g, row in zip(grads, x))
    fd = finite_diff_grad(problem, x)
    assert fd.shape == x.shape
    assert all(same_bits(g, finite_diff_grad(problem, row)) for g, row in zip(fd, x))


@pytest.mark.parametrize("d,index", FAMILY_CASES)
def test_checker_rows_equal_one_point_calls(d, index):
    problem = canonical_problems(d)[index]
    x = block_points(problem)
    y = block_points(problem, seed=1)[::-1]
    for l_scale in (1.0, 0.5):
        block = check_descent_inequality(problem, x, y, l_scale=l_scale)
        for i in range(len(x)):
            one = check_descent_inequality(problem, x[i], y[i], l_scale=l_scale)
            assert all(same_bits(b[i], o) for b, o in zip(block, one))
    if problem.spec.nu == 0.0:
        norms = l2_norm(problem.grad(x))
        assert same_bits(local_constant_from_parts(problem.spec, norms, problem.gap(x)), norms)
        return
    block = check_grad_bound(problem, x)
    for i, row in enumerate(x):
        one = check_grad_bound(problem, row)
        assert all(same_bits(b[i], o) for b, o in zip(block, one))
    off = x[problem.gap(x) > 0.0]
    assert len(off) > len(x) // 2
    norms, gaps = l2_norm(problem.grad(off)), problem.gap(off)
    parts = local_constant_from_parts(problem.spec, norms, gaps)
    local = local_holder_constant(problem, off)
    for i, row in enumerate(off):
        assert same_bits(parts[i], local_constant_from_parts(problem.spec, norms[i].item(),
                                                             gaps[i].item()))
        assert same_bits(local[i], local_holder_constant(problem, row))


@pytest.mark.parametrize("problem", canonical_problems(3) + [PowerNorm(1.0, 3)], ids=repr)
def test_distance_to_nonsmooth_rows_equal_one_point_calls(problem):
    x = block_points(problem)
    block = problem.distance_to_nonsmooth(x)
    assert type(block) is np.ndarray and block.shape == (len(x),)
    for value, row in zip(block, x):
        one = problem.distance_to_nonsmooth(row)
        assert type(one) is float and same_bits(value, one), row


def test_block_of_shape_other_than_n_by_d_is_rejected():
    p = canonical_problems(3)[0]
    for bad in (np.zeros((4, 2)), np.zeros((2, 2, 3)), np.zeros(())):
        with pytest.raises(problems.ContractViolation):
            p.eval(bad)


# --- the per-point loops the chunked suites replaced ----------------------------


def loop_finite_diff_grad(p, x, h):
    g = np.zeros_like(x, dtype=np.float64)
    for i in range(x.size):
        e = np.zeros_like(g)
        e[i] = h
        g[i] = (p.eval(x + e) - p.eval(x - e)) / (2.0 * h)
    return g


def loop_sample_holder_constant(p, n, rng, radius=10.0):
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


def loop_descent(samples, seed, l_scale=1.0, name="descent"):
    residuals = []
    for problem in canonical_problems():
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            x = _sample_point(problem, rng)
            y = _sample_point(problem, rng)
            check = check_descent_inequality(problem, x, y, l_scale=l_scale)
            residuals.append(check.residual - check.slack)
    return _tally(name, residuals)


def loop_descent_negative_control(samples, seed):
    inner = loop_descent(samples, seed, l_scale=0.5, name="descent_negative_control")
    return SuiteResult(inner.name, inner.samples, inner.failures, inner.worst_slack,
                       inner.failures > 0, note="passes iff halved constants are caught")


def loop_grad_bound(samples, seed):
    residuals = []
    for problem in canonical_problems():
        if problem.spec.nu <= 0.0:
            continue
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            x = _sample_point(problem, rng)
            check = check_grad_bound(problem, x)
            residuals.append(check.lhs - check.rhs - 1e-9 * (1.0 + abs(check.rhs)))
    return _tally("grad_bound", residuals)


def loop_gradient_check(samples, seed):
    residuals = []
    for problem in canonical_problems():
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            x = _sample_point(problem, rng, min_smooth_dist=1e-3)
            a = problem.grad(x)
            fd = loop_finite_diff_grad(problem, x, h=1e-6)
            residuals.append(l2_norm(a - fd) / (1e-12 + l2_norm(a)) - 1e-5)
    return _tally("gradient_check", residuals)


def loop_convexity(samples, seed):
    n = max(1, samples // 10)
    residuals = []
    for problem in canonical_problems():
        rng = np.random.default_rng(seed)
        for _ in range(n):
            x = _sample_point(problem, rng)
            y = _sample_point(problem, rng)
            lam = rng.uniform()
            mid = problem.eval(lam * x + (1.0 - lam) * y)
            chord = lam * problem.eval(x) + (1.0 - lam) * problem.eval(y)
            residuals.append(mid - chord - 1e-9)
    return _tally("convexity", residuals)


def loop_holder_sampling(samples, seed):
    n = max(1, samples // 10)
    residuals = []
    for problem in canonical_problems():
        for offset in range(10):
            value = loop_sample_holder_constant(problem, n, np.random.default_rng(seed + offset))
            residuals.append(value - problem.spec.l_nu - 1e-9)
    return _tally("holder_sampling", residuals)


def loop_local_constant(samples, seed):
    residuals = []
    for problem in canonical_problems():
        if problem.spec.nu <= 0.0:
            continue
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            x = _sample_point(problem, rng)
            if problem.gap(x) <= 0.0:
                continue
            residuals.append(local_holder_constant(problem, x) - problem.spec.l_nu - 1e-9)
    return _tally("local_constant", residuals)


def per_value_tally(name, chunks):
    """The tally rule one value at a time: a value fails unless it is <= 0,
    and it becomes the worst when it is larger or NaN."""
    samples = failures = 0
    worst = -math.inf
    for chunk in chunks:
        for v in np.ravel(chunk).tolist():
            samples += 1
            if v > worst or math.isnan(v):
                worst = v
            if not v <= 0.0:
                failures += 1
    return SuiteResult(name, samples, failures, worst, failures == 0)


def _tally_cases():
    rng = np.random.default_rng(3)
    chunks = [rng.standard_normal(n) - 2.0 for n in (5, 1, 17, 40, 3)]
    for where in ("first", "middle", "last"):
        with_nan = [c.copy() for c in chunks]
        target = {"first": (0, 0), "middle": (2, 8), "last": (-1, -1)}[where]
        with_nan[target[0]][target[1]] = math.nan
        yield f"nan-{where}", with_nan
    yield "random", chunks
    yield "inf", [np.array([-math.inf, -1.0]), np.array([math.inf]), np.array([2.0])]
    yield "minus-inf-only", [np.array([-math.inf]), -math.inf]
    yield "empty-chunks", [np.array([]), chunks[0], [], np.zeros((0,)), chunks[1]]
    yield "scalars", [-3.0, chunks[2], np.float64(-0.5), 0.25, np.array(-1.0), chunks[3]]
    yield "empty", []


@pytest.mark.parametrize("case", [case for case, _ in _tally_cases()])
def test_tally_equals_the_per_value_rule(case):
    chunks = dict(_tally_cases())[case]
    got = _tally("t", iter(chunks))
    want = per_value_tally("t", chunks)
    assert (got.name, got.samples, got.failures, got.passed, got.note) == (
        want.name, want.samples, want.failures, want.passed, want.note)
    assert type(got.worst_slack) is float
    assert got.worst_slack == want.worst_slack or (
        math.isnan(got.worst_slack) and math.isnan(want.worst_slack))
    if case.startswith("nan"):
        assert math.isnan(got.worst_slack) and not got.passed
    if case == "empty":
        assert (got.samples, got.failures, got.worst_slack, got.passed) == (
            0, 0, -math.inf, True)


# samples that make one more row than a chunk of each suite's blocks (d = 3)
LOOPS = {
    "descent": (loop_descent, chunk_rows(6) + 1),
    "descent_negative_control": (loop_descent_negative_control, chunk_rows(6) + 1),
    "grad_bound": (loop_grad_bound, chunk_rows(3) + 1),
    "gradient_check": (loop_gradient_check, chunk_rows(18) + 1),
    "convexity": (loop_convexity, 10 * (chunk_rows(7) + 1)),
    "holder_sampling": (loop_holder_sampling, 10 * (chunk_rows(6) + 1)),
    "local_constant": (loop_local_constant, chunk_rows(3) + 1),
}


@pytest.mark.parametrize("size", ["1", "7", "chunk+1"])
@pytest.mark.parametrize("name", sorted(LOOPS))
def test_chunked_suite_equals_its_per_point_loop(name, size):
    loop, past_chunk = LOOPS[name]
    samples = {"1": 1, "7": 7, "chunk+1": past_chunk}[size]
    for seed in range(5):
        assert asdict(SUITES[name](samples, seed)) == asdict(loop(samples, seed))


@pytest.mark.parametrize("min_smooth_dist", [1e-3, 5.0])
@pytest.mark.parametrize("index", range(5), ids=[p.family for p in canonical_problems()])
def test_block_sampler_equals_the_per_point_loop(index, min_smooth_dist):
    """The points of _sample_points, and the generator's next draw after
    it, are those of _sample_point called point by point; at distance 5
    from l2_norm's and power_norm's kink (about 6.5 % of the box) and from
    huber's sphere, some candidates are rejected."""
    problem = canonical_problems()[index]
    m = 200
    loop_rng, block_rng = np.random.default_rng(9), np.random.default_rng(9)
    expected = np.array([_sample_point(problem, loop_rng, min_smooth_dist) for _ in range(m)])
    assert same_bits(_sample_points(problem, block_rng, m, min_smooth_dist), expected)
    assert same_bits(block_rng.uniform(), loop_rng.uniform())
    if min_smooth_dist == 5.0 and problem.family in ("power_norm", "l2_norm", "huber"):
        drawn = np.random.default_rng(9).uniform(-10.0, 10.0, (m, 3))
        assert not same_bits(expected, drawn)  # a candidate was rejected


class StreamRng:
    """Serves the values of a fixed stream in order, whatever shape is asked."""

    def __init__(self, values):
        self.values = values
        self.used = 0

    def uniform(self, low, high, size):
        n = int(np.prod(size))
        out = self.values[self.used:self.used + n]
        self.used += n
        assert len(out) == n, "stream exhausted"
        return out.reshape(size)


@pytest.mark.parametrize("repeat_at", [0, 3, chunk_rows(6) - 1, chunk_rows(6)])
def test_sample_holder_constant_skips_a_repeated_pair(repeat_at, monkeypatch):
    """A pair with x == y is skipped: here pair repeat_at repeats x, and the
    result, and the points sent to grad, are those of the per-point loop on
    the stream without that pair. Every later pair keeps its own draws, the
    sampler draws exactly 2 n d values, and 0 / 0 is never computed (the
    RuntimeWarning filter makes it an error)."""
    d, n = 3, chunk_rows(6) + 4
    vectors = np.random.default_rng(5).uniform(-10.0, 10.0, (2 * n, d))
    vectors[2 * repeat_at + 1] = vectors[2 * repeat_at]
    seen = {}

    class Recording(PowerNorm):
        def grad(self, x):
            seen.setdefault(self.tag, []).extend(np.atleast_2d(x).tolist())
            return super().grad(x)

    loop_problem, block_problem = Recording(0.5, d), Recording(0.5, d)
    loop_problem.tag, block_problem.tag = "loop", "block"
    kept = np.delete(vectors, [2 * repeat_at, 2 * repeat_at + 1], axis=0)
    expected = loop_sample_holder_constant(loop_problem, n - 1, StreamRng(kept.ravel()))
    block_rng = StreamRng(vectors.ravel())
    monkeypatch.setattr(problems.np.random, "default_rng", lambda seed: block_rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sample_holder_constant(block_problem, n, seed=0) == expected
    assert sorted(seen["block"]) == sorted(seen["loop"])
    assert len(seen["block"]) == 2 * (n - 1)
    assert block_rng.used == 2 * n * d
