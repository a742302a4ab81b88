"""Span tracing for a traced benchmark child, and the per-layer metrics.

A traced child replaces the package's public functions and methods, at the
names their callers look up, with timing wrappers (see `install`). Jobs,
suites, cells and driver calls each get a span of their own. Every other
wrapped call is aggregated under its parent into one node holding the call
count and the total time; per-call spans would number in the millions. A
node's self time is its total minus the totals of its children.

Wrapping costs time. `calibrate` measures two parts of it on an empty
function: `inner`, the time a wrapper records for the callee, and `outer`,
the rest of the wrapper's cost, which lands in the caller's self time.
`layer_metrics` subtracts both.
"""

from __future__ import annotations

import math
import statistics
import time

FAMILIES = ("quadratic", "power_norm", "l2_norm", "huber", "log_sum_exp")
ORACLE_METHODS = ("grad", "gap", "eval")
LEARNER_KINDS = ("ogd_const", "da_sqrt", "kt", "adagrad_da")
LEARNER_METHODS = ("next_point", "observe")
DRIVERS = ("run_normalized", "run_adagrad_warmup")
SUITES = ("descent", "descent_negative_control", "grad_bound", "gradient_check",
          "convexity", "holder_sampling", "local_constant", "means_ordering",
          "bounded_iterates", "reduction_chain")
FORMATTERS = ("trajectory_rows", "rows_to_csv", "summary_record", "json.dumps")


def _layer_metric_table() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for family in FAMILIES:
        for method in ORACLE_METHODS:
            out.append((f"problems.{family}.{method}.calls", "count", "lower"))
            out.append((f"problems.{family}.{method}.us", "us", "lower"))
    out.append(("problems.sample_accept_ratio", "ratio", "higher"))
    for kind in LEARNER_KINDS:
        for method in LEARNER_METHODS:
            out.append((f"learners.{kind}.{method}.calls", "count", "lower"))
            out.append((f"learners.{kind}.{method}.us", "us", "lower"))
    for driver in DRIVERS:
        out.append((f"reduction.{driver}.calls", "count", "lower"))
    out += [
        ("reduction.driver_self_us_per_step", "us", "lower"),
        ("reduction.bound_report.calls", "count", "lower"),
        ("reduction.bound_report.us", "us", "lower"),
        ("reduction.steps", "count", "higher"),
        ("reduction.early_stops", "count", "higher"),
        ("reduction.record_bytes", "B", "lower"),
    ]
    for name in ("l2_norm", "push"):
        out.append((f"vectors.{name}.calls", "count", "lower"))
        out.append((f"vectors.{name}.us", "us", "lower"))
    out += [
        ("bench.run_cell.calls", "count", "lower"),
        ("bench.run_cell.us_per_step.p50", "us", "lower"),
        ("bench.run_cell.us_per_step.p95", "us", "lower"),
        ("bench.grad_calls_per_step", "ratio", "lower"),
    ]
    out += [(f"bench.suite.{name}.s", "s", "lower") for name in SUITES]
    out += [
        ("cli.format.s", "s", "lower"),
        ("cli.output.bytes", "B", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.timer_us", "us", "lower"),
    ]
    return out


LAYER_METRICS = _layer_metric_table()


class Node:
    """A span (one call) or an aggregate (all calls of one name under one parent)."""

    __slots__ = ("name", "kind", "calls", "total", "start", "attrs", "children", "spans")

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        self.calls = 0
        self.total = 0.0
        self.start = 0.0
        self.attrs = {}
        self.children = {}
        self.spans = []

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "calls": self.calls,
            "total_s": self.total,
            "start_s": self.start,
            "attrs": self.attrs,
            "children": [n.as_dict() for n in self.spans]
                        + [n.as_dict() for n in self.children.values()],
        }


class Tracer:
    """Holds the span tree of one process; wrappers push and pop its stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.epoch = clock()
        self.root = Node("root", "span")
        self.stack = [self.root]
        self.counters = {}

    def aggregate(self, name: str, fn):
        """Wrap fn so its calls add to one node per (parent, name)."""
        stack = self.stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name, "agg")
            stack.append(node)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                node.total += clock() - t0
                node.calls += 1
                stack.pop()

        return wrapper

    def span(self, name: str, fn, annotate=None):
        """Wrap fn so each call is its own node. annotate(result, *args,
        **kwargs) returns counters stored on the node."""
        stack = self.stack
        clock = self.clock
        epoch = self.epoch

        def wrapper(*args, **kwargs):
            node = Node(name, "span")
            stack[-1].spans.append(node)
            stack.append(node)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.total = clock() - t0
                node.start = t0 - epoch
                node.calls = 1
                stack.pop()
            if annotate is not None:
                node.attrs = annotate(result, *args, **kwargs)
            return result

        return wrapper

    def as_dict(self) -> dict:
        return {"tree": self.root.as_dict(), "counters": dict(self.counters)}


def calibrate(calls: int = 100_000, repeats: int = 5, clock=time.perf_counter):
    """Return (inner_s, outer_s) per wrapped call of an empty function,
    each the median over `repeats` loops of `calls` calls."""

    def empty():
        return None

    inner, outer = [], []
    for _ in range(repeats):
        tracer = Tracer(clock)
        wrapped = tracer.aggregate("empty", empty)
        t0 = clock()
        for _ in range(calls):
            pass
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        full = ((t2 - t1) - (t1 - t0)) / calls
        recorded = tracer.root.children["empty"].total / calls
        inner.append(recorded)
        outer.append(full - recorded)
    return statistics.median(inner), statistics.median(outer)


def install(tracer: Tracer) -> None:
    """Wrap the package's layers at the names their callers look up."""
    import json

    from normgrad import bench, cli, learners, problems, reduction, vectors

    for cls in (problems.Quadratic, problems.PowerNorm, problems.L2Norm,
                problems.Huber, problems.LogSumExp):
        for method in ORACLE_METHODS + ("distance_to_nonsmooth",):
            setattr(cls, method, tracer.aggregate(
                f"problems.{cls.family}.{method}", getattr(cls, method)))
    for cls in (learners.OgdConstLearner, learners.DaSqrtLearner,
                learners.KTLearner, learners.AdaGradDaLearner):
        for method in LEARNER_METHODS:
            setattr(cls, method, tracer.aggregate(
                f"learners.{cls.kind}.{method}", getattr(cls, method)))

    reduction.l2_norm = tracer.aggregate("vectors.l2_norm", vectors.l2_norm)
    acc = vectors.WeightedMeanAccumulator
    acc.push = tracer.aggregate("vectors.push", acc.push)

    def driver_counts(run, config, problem, *rest, **kwargs):
        return {"steps": run.steps_taken,
                "early_stop": int(run.terminated_early),
                "record_bytes": len(run.iterates) * problem.dimension * 8}

    for driver in DRIVERS:
        setattr(bench, driver, tracer.span(
            f"reduction.{driver}", getattr(reduction, driver), driver_counts))
    bench.bound_report = tracer.aggregate("reduction.bound_report", reduction.bound_report)

    def cell_counts(cell, *args, **kwargs):
        return {"steps": cell.run.steps_taken}

    run_cell = tracer.span("bench.run_cell", bench.run_cell, cell_counts)
    bench.run_cell = run_cell
    cli.run_cell = run_cell
    for name, suite in list(bench.SUITES.items()):
        bench.SUITES[name] = tracer.span(f"bench.suite.{name}", suite)

    sample_point = bench._sample_point
    counters = tracer.counters
    counters["accepted_points"] = 0

    def counted_sample_point(problem, rng, min_smooth_dist=0.0):
        x = sample_point(problem, rng, min_smooth_dist)
        if min_smooth_dist > 0.0:
            counters["accepted_points"] += 1
        return x

    bench._sample_point = counted_sample_point

    for name in ("trajectory_rows", "rows_to_csv", "summary_record"):
        setattr(cli, name, tracer.aggregate(f"cli.format.{name}", getattr(cli, name)))
    cli.json = _JsonProxy(json, tracer.aggregate("cli.format.json.dumps", json.dumps))


class _JsonProxy:
    """Stands in for the json module in cli, with a traced dumps."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


# ---------------------------------------------------------------------------
# arithmetic on a written tree


def walk(node: dict):
    """Yield every node of a tree dict, parents before children."""
    yield node
    for child in node["children"]:
        yield from walk(child)


def corrected_total(node: dict, inner: float, outer: float) -> float:
    """Seconds in a node's subtree with every wrapper's cost removed.

    Summing (self - child_calls * outer - calls * inner) over the subtree
    telescopes to total - C * (inner + outer) - calls * inner, where C is
    the number of wrapped calls below the node."""
    below = sum(n["calls"] for n in walk(node)) - node["calls"]
    return node["total_s"] - below * (inner + outer) - node["calls"] * inner


def layer_stats(tree: dict, inner: float, outer: float) -> dict:
    """Per name: calls, and self seconds with wrapper costs removed."""
    stats = {}
    for node in walk(tree):
        kids = node["children"]
        child_total = sum(k["total_s"] for k in kids)
        child_calls = sum(k["calls"] for k in kids)
        self_s = (node["total_s"] - child_total - child_calls * outer
                  - node["calls"] * inner)
        entry = stats.setdefault(node["name"], {"calls": 0, "self_s": 0.0})
        entry["calls"] += node["calls"]
        entry["self_s"] += self_s
    return stats


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(trace: dict, inner: float, outer: float, output_bytes: int,
                  overhead_ratio: float) -> dict:
    """Every metric of LAYER_METRICS from a written trace; name -> value.

    A per-call figure with no calls reads 0.0."""
    tree = trace["tree"]
    stats = layer_stats(tree, inner, outer)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def us_per_call(name):
        n = calls(name)
        return stats[name]["self_s"] / n * 1e6 if n else 0.0

    nodes = list(walk(tree))
    drivers = [n for n in nodes if n["name"] in {f"reduction.{d}" for d in DRIVERS}]
    steps = sum(n["attrs"]["steps"] for n in drivers)
    m = {}
    for family in FAMILIES:
        for method in ORACLE_METHODS:
            name = f"problems.{family}.{method}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.us"] = us_per_call(name)
    probes = sum(calls(f"problems.{f}.distance_to_nonsmooth") for f in FAMILIES)
    accepted = trace["counters"].get("accepted_points", 0)
    m["problems.sample_accept_ratio"] = accepted / probes if probes else 0.0
    for kind in LEARNER_KINDS:
        for method in LEARNER_METHODS:
            name = f"learners.{kind}.{method}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.us"] = us_per_call(name)
    for driver in DRIVERS:
        m[f"reduction.{driver}.calls"] = calls(f"reduction.{driver}")
    driver_self = sum(stats.get(f"reduction.{d}", {}).get("self_s", 0.0) for d in DRIVERS)
    m["reduction.driver_self_us_per_step"] = driver_self / steps * 1e6 if steps else 0.0
    m["reduction.bound_report.calls"] = calls("reduction.bound_report")
    m["reduction.bound_report.us"] = us_per_call("reduction.bound_report")
    m["reduction.steps"] = steps
    m["reduction.early_stops"] = sum(n["attrs"]["early_stop"] for n in drivers)
    m["reduction.record_bytes"] = sum(n["attrs"]["record_bytes"] for n in drivers)
    for name in ("l2_norm", "push"):
        m[f"vectors.{name}.calls"] = calls(f"vectors.{name}")
        m[f"vectors.{name}.us"] = us_per_call(f"vectors.{name}")
    cells = [n for n in nodes if n["name"] == "bench.run_cell"]
    per_step = [corrected_total(n, inner, outer) / n["attrs"]["steps"] * 1e6
                for n in cells if n["attrs"]["steps"] > 0]
    m["bench.run_cell.calls"] = len(cells)
    m["bench.run_cell.us_per_step.p50"] = _percentile(per_step, 50)
    m["bench.run_cell.us_per_step.p95"] = _percentile(per_step, 95)
    grads = sum(calls(f"problems.{f}.grad") for f in FAMILIES)
    m["bench.grad_calls_per_step"] = grads / steps if steps else 0.0
    for suite in SUITES:
        m[f"bench.suite.{suite}.s"] = sum(
            corrected_total(n, inner, outer) for n in nodes
            if n["name"] == f"bench.suite.{suite}")
    m["cli.format.s"] = sum(
        corrected_total(n, inner, outer) for n in nodes
        if n["name"] in {f"cli.format.{f}" for f in FORMATTERS})
    m["cli.output.bytes"] = output_bytes
    m["trace.overhead_ratio"] = overhead_ratio
    m["trace.timer_us"] = inner * 1e6
    return m
