"""Explain a mismatch between a candidate output and its golden reference.

`csv_diff` compares two sweep CSV bodies row by row, each row named by its
cell (nu, learner, T, seed); `json_diff` compares two check reports suite
by suite. Each returns a text table for a failing golden test: the rows
(or suites) and fields that differ, the largest ulp distance per column,
and, for the sweep, every cell whose run changed, that is whose
steps_taken, terminated_early or grad_bound_exceeded differs. Rounding
moves the bounds and gaps by a few ulps; a changed run is a change in
behaviour.
"""

import csv
import io
import json
import struct

CELL_COLUMNS = ("nu", "learner", "T", "seed")
RUN_COLUMNS = ("steps_taken", "terminated_early", "grad_bound_exceeded")


def ulp_distance(a: float, b: float):
    """Number of float64 steps between a and b (0.0 and -0.0 are 0 apart),
    or None if either is NaN."""
    if a != a or b != b:
        return None
    return abs(_ordinal(a) - _ordinal(b))


def _ordinal(x: float) -> int:
    """x's position in the order of float64 values, with 0.0 at 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _field_diffs(candidate: dict, reference: dict) -> list:
    """(field, 'field: reference -> candidate', ulp distance or None) for
    each field of two rows that differs in value or in repr (0.0, -0.0)."""
    out = []
    for field in sorted(set(candidate) | set(reference)):
        a, b = candidate.get(field), reference.get(field)
        if a == b and repr(a) == repr(b):
            continue
        ulps = ulp_distance(a, b) if type(a) is float and type(b) is float else None
        text = f"{field}: {b!r} -> {a!r}" + ("" if ulps is None else f" ({ulps} ulp)")
        out.append((field, text, ulps))
    return out


def _compare(candidate: dict, reference: dict, skip=()):
    """(differing fields by row name, the largest ulp distance per field,
    over the rows not in skip, with the row where it is, names only in the
    candidate, names only in the reference) of two dicts of named rows."""
    differing, widest = {}, {}
    for name, row in candidate.items():
        if name not in reference:
            continue
        fields = _field_diffs(row, reference[name])
        if fields:
            differing[name] = [text for _, text, _ in fields]
        for field, _, ulps in fields:
            if ulps is not None and name not in skip and ulps > widest.get(field, (-1, ""))[0]:
                widest[field] = (ulps, name)
    return (differing, widest, [n for n in candidate if n not in reference],
            [n for n in reference if n not in candidate])


def _table(title: str, rows: str, compared, extra=(),
           ulp_title="largest ulp distance per column:") -> str:
    differing, widest, only_candidate, only_reference = compared
    lines = [f"{title}: {len(differing)} {rows} differ in "
             f"{sum(len(f) for f in differing.values())} fields"]
    if only_candidate:
        lines.append(f"only in the candidate: {', '.join(only_candidate)}")
    if only_reference:
        lines.append(f"only in the reference: {', '.join(only_reference)}")
    if widest:
        lines.append(ulp_title)
        lines += [f"  {field}: {ulps} at {where}" for field, (ulps, where) in sorted(widest.items())]
    lines += extra
    if differing:
        lines.append("differing fields (reference -> candidate):")
        lines += [f"  {name}: " + "; ".join(fields) for name, fields in differing.items()]
    return "\n".join(lines)


def _value(text: str):
    """A CSV field as the value it was written from: a bool, an int, a
    float or, failing those, its text."""
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except (TypeError, ValueError):
            pass
    return text


def _cells(body: str) -> dict:
    """Rows of a sweep CSV body by cell name, with every field's value."""
    rows = csv.DictReader(io.StringIO(body))
    return {" ".join(f"{c}={row.get(c)}" for c in CELL_COLUMNS):
            {field: _value(text) for field, text in row.items()} for row in rows}


def csv_diff(candidate: str, reference: str) -> str:
    """The differences of two sweep CSV bodies, row by row (see the module
    docstring). A header change is named first."""
    rows_a, rows_b = _cells(candidate), _cells(reference)
    runs = {}
    for name, row in rows_a.items():
        changed = [f"{c} {rows_b[name].get(c)!r} -> {row.get(c)!r}" for c in RUN_COLUMNS
                   if name in rows_b and row.get(c) != rows_b[name].get(c)]
        if changed:
            runs[name] = changed
    extra = [f"{len(runs)} changed runs (steps_taken, terminated_early or "
             "grad_bound_exceeded)" + (":" if runs else "")]
    extra += [f"  {name}: " + ", ".join(changed) for name, changed in runs.items()]
    table = _table(f"sweep CSV ({len(rows_b)} reference rows, {len(rows_a)} candidate rows)",
                   "rows", _compare(rows_a, rows_b, skip=runs), extra,
                   "largest ulp distance per column, over the rows whose run did not change:")
    header_a, header_b = candidate.split("\n", 1)[0], reference.split("\n", 1)[0]
    if header_a != header_b:
        table = f"header: {header_b!r} -> {header_a!r}\n" + table
    return table


def json_diff(candidate, reference) -> str:
    """The differences of two check reports (dicts or JSON text), suite by
    suite; the top-level fields count as one more row, '(report)'."""
    def rows(report):
        report = json.loads(report) if isinstance(report, str) else report
        named = {s["name"]: s for s in report.get("suites", [])}
        named["(report)"] = {k: v for k, v in report.items() if k != "suites"}
        return named
    return _table("check report", "suites", _compare(rows(candidate), rows(reference)))
