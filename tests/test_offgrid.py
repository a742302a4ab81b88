"""Off-grid differential oracle. The references pin power_norm at d = 10
and the chain cells the canonical families at d = 10, both from distance
1; these records reach every family and kind off that grid. Each record
parses or is refused with ConfigError, and its run finishes or raises
NumericalFailure. A run that finishes holds every bound at every horizon,
and its run_cells cells equal run_cell at each horizon bit for bit.
Derandomized, so each run draws the same records."""

from dataclasses import astuple, fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from normgrad.bench import (
    ConfigError,
    NumericalFailure,
    bound_violations,
    parse_experiment_config,
    run_cell,
    run_cells,
)
from normgrad.learners import LEARNER_KINDS, RECORD_SCALES
from normgrad.problems import FAMILIES


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


def _bits(cell) -> tuple:
    """Everything a cell reports, as bytes or reprs: the record's columns,
    stop and exceeded steps and averages, and every bound report field."""
    record = tuple((np.shape(v), np.asarray(v).tobytes()) if isinstance(v, np.ndarray)
                   else repr(v) for v in (getattr(cell.run, f.name) for f in fields(cell.run)))
    return record, repr(astuple(cell.report))


@settings(max_examples=160, derandomize=True, database=None, deadline=None)
@given(records())
def test_off_grid_cells_hold_their_bounds_and_share_runs_bit_for_bit(record):
    try:
        config = parse_experiment_config(record)
    except ConfigError:
        return
    args = (config.problem, config.learner)
    try:
        cells = list(run_cells(*args, config.horizons, config.seed, config.eps_zero))
    except NumericalFailure:
        return
    assert [cell.horizon for cell in cells] == config.horizons
    for cell in cells:
        assert bound_violations(cell) == []
        alone = run_cell(*args, cell.horizon, config.seed, config.eps_zero)
        assert _bits(cell) == _bits(alone), cell.label
