"""Fuzz of the record readers. Every JSON-shaped experiment record either
parses or raises an error that `normgrad run` reports as a config error,
exit 2, without a traceback; every JSON-shaped list of summary records
either fits with finite fields, or raises InsufficientData (exit 1) or
ConfigError (exit 2). No refusal comes from a bare KeyError or TypeError.
Derandomized, so each run draws the same records."""

import copy
import json
import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normgrad.cli
from normgrad.bench import (
    ConfigError,
    InsufficientData,
    parse_experiment_config,
    rate_fit_from_records,
)
from normgrad.cli import main
from normgrad.learners import LEARNER_KINDS, RECORD_SCALES
from normgrad.problems import FAMILIES

MAX_DIMENSION = 64

# any JSON value (Python's json reads NaN and Infinity too); a junk object
# never has a "dimension" key, so no draw asks for a large problem
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8).filter(lambda k: k != "dimension"),
                                     inner, max_size=4)),
    max_leaves=8)
# anything but a dimension above MAX_DIMENSION, in any type
BAD_DIMENSIONS = st.one_of(st.integers(-2, 0), st.floats(max_value=MAX_DIMENSION), st.booleans(),
                           st.none(), st.text(max_size=3), st.lists(st.integers(1, 3), max_size=2))
REALS = st.floats(-10.0, 10.0) | st.integers(-3, 3) | st.floats() | st.just(10 ** 400)
COUNTS = st.integers(-2, 2 ** 64) | st.floats(-2.0, 1e3) | st.booleans()
HORIZONS = (st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=4, unique=True).map(sorted)
            | st.lists(COUNTS, max_size=4))
# keys that a corruption may add to a level: the schema's own, misplaced or not
ADDED_KEYS = ("extra", "horizon", "start", "start_distance", "step_scale", "wealth_init",
              "grad_bound_init", "seed", "nu", "delta", "minimizer", "parameters")


@st.composite
def records(draw):
    """A record of the schema with values at and beyond its edges, then up
    to two corruptions: a value replaced or a key added at some level, as
    any JSON value (a dimension as one of BAD_DIMENSIONS)."""
    d = draw(st.integers(1, MAX_DIMENSION))
    vector = st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d) | st.lists(REALS, max_size=3)
    family = draw(st.sampled_from(sorted(FAMILIES)))
    problem = {"family": family, "dimension": draw(st.just(d) | st.just(float(d)))}
    if family == "power_norm":
        problem["parameters"] = {"nu": draw(st.floats(0.0, 1.0) | REALS)}
    elif family == "huber" and draw(st.booleans()):
        problem["parameters"] = {"delta": draw(REALS)}
    minimizer = draw(st.none() | st.just("random") | vector)
    if minimizer is not None:
        problem["minimizer"] = minimizer
    if minimizer == "random" and draw(st.booleans()):
        problem["seed"] = draw(COUNTS)
    kind = draw(st.sampled_from(LEARNER_KINDS))
    learner = draw(st.fixed_dictionaries(
        {"kind": st.just(kind)}, optional={scale: REALS for scale in RECORD_SCALES[kind]}))
    start = draw(st.sampled_from(("start", "start_distance", None)))
    if start:
        learner[start] = draw(vector if start == "start" else REALS)
    record = draw(st.fixed_dictionaries(
        {"problem": st.just(problem), "learner": st.just(learner), "horizons": HORIZONS},
        optional={"seed": COUNTS, "eps_zero": REALS | st.floats(1e-12, 1e-3)}))
    for _ in range(draw(st.integers(0, 2))):
        levels = (record, problem, learner, problem.get("parameters"))
        level = draw(st.sampled_from([v for v in levels if isinstance(v, dict)]))
        key = draw(st.sampled_from(sorted(level) or ADDED_KEYS) | st.sampled_from(ADDED_KEYS))
        level[key] = draw(BAD_DIMENSIONS if key == "dimension" else JSON)
    return record


def _parse(record) -> int:
    """0 when record parses. A refusal raises ConfigError, never caused by a
    bare KeyError or TypeError, whose messages do not say which key is
    wrong."""
    try:
        return parse_experiment_config(record) and 0
    except ConfigError as exc:
        assert type(exc.__cause__) not in (KeyError, TypeError), repr(exc.__cause__)
        raise


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(records())
def test_any_json_record_parses_or_exits_2(record):
    with pytest.MonkeyPatch.context() as patch:
        # the run command reads only this record, and runs nothing
        patch.setattr(normgrad.cli, "cmd_run", lambda args: _parse(record))
        assert main(["run", "--config", "record.json", "--out", "out"]) in (0, 2)


# valid values at the schema's edges; horizons repeat often, so that a list
# can have too few distinct ones
SUMMARY_HORIZONS = st.sampled_from([4, 16, 64, 256]) | st.integers(1, 2 ** 70) | st.just(16.0)
GAPS = (st.floats(1e-300, 1.0) | st.floats(1e-300, 1e308)
        | st.sampled_from([0.0, -1.0, 5e-324, 1.7e308, 3]))
# what a corruption writes: any JSON value, and the ones a summary must refuse
BAD_FIELDS = JSON | st.sampled_from([10 ** 400, 16.5, 1e400, -4, "no"])


@st.composite
def summaries(draw):
    """A list of summary records of one problem, with values at the
    schema's edges, then up to two corruptions: a value replaced or a key
    added at some level, as one of BAD_FIELDS (a dimension as one of
    BAD_DIMENSIONS)."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    problem = {"family": family, "dimension": draw(st.integers(1, 4))}
    if family == "power_norm":
        problem["parameters"] = {"nu": draw(st.sampled_from([0.0, 0.5, 1.0]))}
    summary = [{"config": {"problem": copy.deepcopy(problem), "T": draw(SUMMARY_HORIZONS)},
                "terminated_early": draw(st.just(False) | st.booleans()),
                "f_gap_mean": draw(GAPS)}
               for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 2)) if summary else 0):
        record = draw(st.sampled_from(summary))
        config = record["config"]
        levels = (record, config, config.get("problem") if isinstance(config, dict) else None)
        level = draw(st.sampled_from([v for v in levels if isinstance(v, dict)]))
        key = draw(st.sampled_from(sorted(level) or ["extra"]) | st.just("extra"))
        level[key] = draw(BAD_DIMENSIONS if key == "dimension" else BAD_FIELDS)
    return summary


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(summaries())
def test_any_json_summary_fits_or_refuses(summary):
    try:
        fit = asdict(rate_fit_from_records(summary))
    except InsufficientData:
        return
    except ConfigError as exc:
        assert type(exc.__cause__) not in (KeyError, TypeError, ZeroDivisionError), repr(
            exc.__cause__)
        return
    assert all(math.isfinite(v) for v in fit.values()), fit
    json.dumps(fit, allow_nan=False)  # ratefit prints valid JSON
