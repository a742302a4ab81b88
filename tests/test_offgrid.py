"""Off-grid differential oracle. The references pin power_norm at d = 10
and the chain cells the canonical families at d = 10, both from distance
1; these records reach every family and kind off that grid. Each record
parses or is refused with ConfigError, and its run finishes or raises
NumericalFailure. A run that finishes holds every bound at every horizon,
and its run_cells cells equal run_cell at each horizon bit for bit. Each
record also runs as one _drive block over three seeds and its horizons,
unsorted and repeated (a power_norm record over three nu as well), an
ogd_const record as one block row per (seed, horizon) cell. The block
equals a walk of run_cell over the same cells, in the order run_cells
takes them: every cell bit for bit, and the same first error.
Derandomized, so each run draws the same records."""

from dataclasses import astuple, fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from normgrad.bench import (
    ConfigError,
    NumericalFailure,
    _cells,
    _same,
    bound_violations,
    parse_experiment_config,
    resolve_learner_config,
    run_cell,
    run_cells,
)
from normgrad.learners import LEARNER_KINDS, RECORD_SCALES
from normgrad.problems import FAMILIES, PowerNorm, problem_from_config
from normgrad.reduction import DEFAULT_EPS_ZERO, _drive


def decades(lo: int, hi: int):
    """10^k for a real k in [lo, hi]: magnitudes spread over the decades."""
    return st.floats(lo, hi).map(lambda k: 10.0 ** k)


@st.composite
def records(draw):
    """An experiment record of the schema: any family at d in 1..20 with a
    random nu, delta and minimizer; any kind with scales and a start
    distance over many decades; up to 3 horizons up to 512."""
    d = draw(st.integers(1, 20))
    family = draw(st.sampled_from(sorted(FAMILIES)))
    problem = {"family": family, "dimension": d}
    if family == "power_norm":
        problem["parameters"] = {"nu": draw(st.floats(0.0, 1.0) | st.sampled_from(
            [1e-6, 1.0 - 1e-6]))}
    elif family == "huber":
        problem["parameters"] = {"delta": draw(decades(-6, 6))}
    minimizer = draw(st.sampled_from(("origin", "random", "list")))
    if minimizer == "random":
        problem.update(minimizer="random", seed=draw(st.integers(0, 2 ** 32)))
    elif minimizer == "list":
        problem["minimizer"] = draw(st.lists(st.floats(-100.0, 100.0), min_size=d, max_size=d))
    kind = draw(st.sampled_from(LEARNER_KINDS))
    learner = draw(st.fixed_dictionaries(
        {"kind": st.just(kind), "start_distance": decades(-150, 150)},
        optional={scale: decades(-12, 12) for scale in RECORD_SCALES[kind]}))
    horizons = draw(st.lists(st.integers(1, 512), min_size=1, max_size=3, unique=True))
    return {"problem": problem, "learner": learner, "horizons": sorted(horizons),
            "seed": draw(st.integers(0, 2 ** 32))}


def _bits(cell, iterates=True) -> tuple:
    """Everything a cell reports, as bytes or reprs: the record's columns
    (dist_sq among them; the iterates unless iterates is False), stop and
    exceeded steps and averages, and every bound report field."""
    names = [f.name for f in fields(cell.run) if iterates or f.name != "iterates"]
    record = tuple((np.shape(v), np.asarray(v).tobytes()) if isinstance(v, np.ndarray)
                   else repr(v) for v in (getattr(cell.run, name) for name in names))
    return record, repr(astuple(cell.report))


def _walked(cells) -> list:
    """The _bits (without iterates) of each cell an iterator yields, then
    the message of the NumericalFailure it raises, if it raises one."""
    out = []
    try:
        for cell in cells:
            out.append(_bits(cell, iterates=False))
    except NumericalFailure as exc:
        out.append(str(exc))
    return out


def _walk(rows, eps_zero):
    """run_cell at every (problem, config, horizons, seed) row's horizons,
    row by row, each row's longest horizon first, whose error names it, as
    run_cells raises it."""
    for problem, config, horizons, seed in rows:
        top = run_cell(problem, config, max(horizons), seed, eps_zero)
        for horizon in horizons:
            yield top if horizon == top.horizon else run_cell(
                problem, config, horizon, seed, eps_zero)


def _block(rows, eps_zero):
    """The cells of rows stepped as one _drive block: one block row per
    ogd_const cell, whose step reads its horizon, or per row of another
    kind. Block records keep no iterates."""
    cells = rows
    if rows[0][1].kind == "ogd_const":
        cells = [(problem, config, (h,), seed) for problem, config, horizons, seed in rows
                 for h in horizons]
    runs = _drive([(config, problem, horizons) for problem, config, horizons, _ in cells],
                  eps_zero)
    for cell in _cells(runs, cells, eps_zero, _same):
        assert cell.run.iterates is None, cell.label
        yield cell


def _assert_block_equals_walk(rows, eps_zero) -> list:
    """The outcome of a block of rows, asserted equal to that of the walk
    of run_cell over them, and returned."""
    walked = _walked(_walk(rows, eps_zero))
    assert _walked(_block(rows, eps_zero)) == walked
    return walked


def _block_rows(config, record):
    """Three seeds of the record's learner, each at the record's horizons
    reversed with the longest repeated; for a power_norm record, at three
    nu each: the record's, 0.0 and 1.0."""
    horizons = tuple(config.horizons[::-1] + config.horizons[-1:])
    problems = [config.problem]
    if config.problem.family == "power_norm":
        problems += [problem_from_config({**record["problem"], "parameters": {"nu": nu}})
                     for nu in (0.0, 1.0)]
    return [(problem, resolve_learner_config(problem, record["learner"], seed), horizons, seed)
            for problem in problems for seed in range(config.seed, config.seed + 3)]


@settings(max_examples=160, derandomize=True, database=None, deadline=None)
@given(records())
def test_off_grid_cells_hold_their_bounds_and_share_runs_bit_for_bit(record):
    try:
        config = parse_experiment_config(record)
        rows = _block_rows(config, record)
    except ConfigError:
        return
    _assert_block_equals_walk(rows, config.eps_zero)
    args = (config.problem, config.learner)
    blocked = config.learner.kind == "ogd_const"  # run_cells steps it as a _drive block
    try:
        cells = list(run_cells(*args, config.horizons, config.seed, config.eps_zero))
    except NumericalFailure:
        return
    assert [cell.horizon for cell in cells] == config.horizons
    for cell in cells:
        assert bound_violations(cell) == []
        alone = run_cell(*args, cell.horizon, config.seed, config.eps_zero)
        assert (cell.run.iterates is None) == blocked
        assert _bits(cell, not blocked) == _bits(alone, not blocked), cell.label


def _rows(problems, record, seeds, horizons):
    return [(problem, resolve_learner_config(problem, record, seed), horizons, seed)
            for problem in problems for seed in seeds]


def test_a_block_whose_rows_stop_at_different_steps():
    # in the default grid, dual averaging from distance 1 with alpha 1 lands
    # on x* at step 2 from some (nu, seed) rows while the others run on
    problems = [PowerNorm(nu, 10) for nu in (0.0, 0.5, 1.0)]
    rows = _rows(problems, {"kind": "da_sqrt"}, (0, 1, 2), (4, 1, 16384, 2, 4))
    walked = _assert_block_equals_walk(rows, DEFAULT_EPS_ZERO)
    steps = {run_cell(problem, config, 16384, seed).run.steps_taken
             for problem, config, _, seed in rows}
    assert len(walked) == 9 * 5 and len(steps) >= 2 and 16384 in steps


def test_a_block_whose_row_turns_non_finite_mid_run(monkeypatch):
    # NaN gradients wherever x_1 > 0.3 at d = 3 from distance 1: seed 1
    # starts there and fails at step 1; dual averaging takes seed 0 there at
    # step 6, after seed 1 has left the block; kt and adagrad_da keep seed 0
    # off it, so its cells come before seed 1's error
    grad = PowerNorm.grad
    monkeypatch.setattr(PowerNorm, "grad", lambda self, x: np.where(
        x[..., :1] > 0.3, np.nan, grad(self, x)))
    problems = [PowerNorm(nu, 3) for nu in (0.5, 0.0)]
    errors = {}
    for kind in ("da_sqrt", "kt", "adagrad_da"):
        rows = _rows(problems, {"kind": kind}, (0, 1, 2), (64, 16, 64))
        walked = _assert_block_equals_walk(rows, DEFAULT_EPS_ZERO)
        errors[kind] = (len(walked), walked[-1].split(" [")[0])
    assert errors == {"da_sqrt": (1, "the gradient norm at step 6 is not finite"),
                      "kt": (4, "the gradient norm at step 1 is not finite"),
                      "adagrad_da": (4, "the gradient norm at step 1 is not finite")}


def test_adagrad_da_rows_above_their_bound_or_whose_bound_overflows():
    # ||g_1|| = G, then the overshooting step 2 exceeds G; at G = 1e200 the
    # learner cannot be made (G ** 2 overflows), which fails its row at step 1
    problem = PowerNorm(1.0, 3)
    rows = _rows([problem], {"kind": "adagrad_da", "start_distance": 1.0, "step_scale": 3.0,
                             "grad_bound_init": 1.0}, (0, 1, 2), (8, 1, 2, 8))
    walked = _assert_block_equals_walk(rows, DEFAULT_EPS_ZERO)
    exceeded = [cell.run.grad_bound_exceeded for cell in _walk(rows, DEFAULT_EPS_ZERO)]
    assert len(walked) == 12 and exceeded.count(True) == 9
    huge = resolve_learner_config(problem, {"kind": "adagrad_da", "grad_bound_init": 1e200}, 1)
    rows[1] = (problem, huge, *rows[1][2:])
    walked = _assert_block_equals_walk(rows, DEFAULT_EPS_ZERO)
    assert len(walked) == 5 and walked[-1].startswith("the learner's point at step 1 overflows")
