"""The benchmark's workloads: the argv each job gets, and the check of its outputs.

Each workload turns the benchmark seed into a normgrad argv (and, for
`run_long`, a config file), then reads the job's outputs back. An output
row or entry is one operation. It fails on a bound violation the program
reports, a bound the harness rechecks from the written numbers, or, at
seed 0, any difference from the reference output committed under
`reference/`. A crash fails every operation of the job.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from spans import LEARNER_KINDS, SUITES

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0

SWEEP_NUS = (0.0, 0.5, 1.0)
SWEEP_HORIZONS = tuple(2 ** k for k in range(8, 15))
RUN_LONG_HORIZON = 131_072

# label written by normgrad.bench.bound_violations
_VIOLATION = re.compile(
    r"^bound violation: .*\[learner=(\S+) problem=\w+\((.*)\) T=(\d+) seed=(-?\d+)\]$")
_NU = re.compile(r"nu=([0-9.eE+-]+)")


@dataclass
class Outcome:
    """What one job's outputs say: operations attempted and failed, work done."""

    attempted: int
    failed: int = 0
    work: int = 0
    digests: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _leq(a: float, b: float, slack: float = 1e-9) -> bool:
    return a <= b + slack * (1.0 + abs(b))


def bounds_hold(row: dict) -> bool:
    """measured <= closed form and measured <= gm <= am, as the program checks."""
    measured = float(row["f_gap_avg"])
    gm, am = float(row["bound_gm"]), float(row["bound_am"])
    return (_leq(measured, float(row["bound_closed_form"]))
            and _leq(measured, gm) and _leq(gm, am))


def reported_violations(stderr: str) -> set:
    """(nu, learner, T, seed) of every bound violation printed on stderr;
    nu is None when the problem label carries none."""
    out = set()
    for line in stderr.splitlines():
        match = _VIOLATION.match(line.strip())
        if match:
            kind, params, horizon, seed = match.groups()
            nu = _NU.search(params)
            out.add((float(nu.group(1)) if nu else None, kind, int(horizon), int(seed)))
    return out


class Workload:
    name = ""
    why = ""
    # what work_per_s counts here: (its specific name, the unit of work)
    work = ("steps_per_s", "loss-fed steps")

    def argv(self, seed: int, workdir: Path) -> list:
        raise NotImplementedError

    def evaluate(self, seed: int, workdir: Path, stderr: str, crashed: bool) -> Outcome:
        raise NotImplementedError


class SweepDefault(Workload):
    """normgrad sweep over the default grid at seeds s, s+1, s+2."""

    name = "sweep_default"
    why = ("paper's headline grid: 252 cells at d = 10, so per-call driver, learner and oracle "
           "overhead dominate; bypasses the property suites and large artifacts")

    def argv(self, seed, workdir):
        return ["sweep", "--seeds", str(seed), str(seed + 1), str(seed + 2),
                "--out", str(workdir / "sweep.csv")]

    @staticmethod
    def expected_cells(seed: int) -> list:
        return [(nu, kind, horizon, s) for nu in SWEEP_NUS for kind in LEARNER_KINDS
                for horizon in SWEEP_HORIZONS for s in (seed, seed + 1, seed + 2)]

    def evaluate(self, seed, workdir, stderr, crashed):
        expected = self.expected_cells(seed)
        outcome = Outcome(attempted=len(expected))
        path = workdir / "sweep.csv"
        if crashed or not path.exists():
            outcome.failed = outcome.attempted
            outcome.notes.append("no sweep output")
            return outcome
        outcome.digests["sweep.csv"] = sha256_file(path)
        text = path.read_text(encoding="utf-8")
        rows = self.rows_by_cell(text)
        violated = reported_violations(stderr)
        reference = None
        if seed == REFERENCE_SEED:
            reference = self.rows_by_cell(
                (REFERENCE_DIR / "sweep_default.csv").read_text(encoding="utf-8"))
        mismatched = 0
        for key in expected:
            line, row = rows.get(key, (None, None))
            bad = row is None or key in violated or not bounds_hold(row)
            if row is not None:
                outcome.work += int(row["steps_taken"])
            if reference is not None and (line is None or line != reference[key][0]):
                mismatched += 1
                bad = True
            outcome.failed += bad
        extra = len(rows) - len(set(rows) & set(expected))
        if extra:
            outcome.notes.append(f"{extra} unexpected rows")
            outcome.failed = min(outcome.attempted, outcome.failed + extra)
        if reference is not None:
            outcome.notes.append(
                f"reference: {len(expected) - mismatched}/{len(expected)} rows match")
        return outcome

    @staticmethod
    def rows_by_cell(text: str) -> dict:
        """(nu, learner, T, seed) -> (raw line, parsed row)."""
        lines = text.splitlines()
        if not lines:
            return {}
        header = lines[0].split(",")
        out = {}
        for line in lines[1:]:
            row = next(csv.DictReader(io.StringIO(line), fieldnames=header))
            key = (float(row["nu"]), row["learner"], int(row["T"]), int(row["seed"]))
            out[key] = (line, row)
        return out


class CheckDefault(Workload):
    """normgrad check over all ten suites at 10^4 samples."""

    name = "check_default"
    work = ("samples_per_s", "suite samples")
    why = ("all 10 property suites: oracles and checkers of all 5 families on random points; "
           "bypasses the learners and the driver almost entirely")

    def argv(self, seed, workdir):
        return ["check", "--samples", "10000", "--seed", str(seed),
                "--out", str(workdir / "check.json")]

    def evaluate(self, seed, workdir, stderr, crashed):
        outcome = Outcome(attempted=len(SUITES))
        path = workdir / "check.json"
        if crashed or not path.exists():
            outcome.failed = outcome.attempted
            outcome.notes.append("no check output")
            return outcome
        outcome.digests["check.json"] = sha256_file(path)
        suites = {s["name"]: s for s in json.loads(path.read_text(encoding="utf-8"))["suites"]}
        reference = None
        if seed == REFERENCE_SEED:
            ref = json.loads((REFERENCE_DIR / "check_default.json").read_text(encoding="utf-8"))
            reference = {s["name"]: s for s in ref["suites"]}
        mismatched = 0
        for name in SUITES:
            suite = suites.get(name)
            bad = suite is None or not suite["passed"]
            if suite is not None:
                outcome.work += int(suite["samples"])
            if reference is not None and suite != reference[name]:
                mismatched += 1
                bad = True
            outcome.failed += bad
        if reference is not None:
            outcome.notes.append(
                f"reference: {len(SUITES) - mismatched}/{len(SUITES)} suites match")
        return outcome


class RunLong(Workload):
    """normgrad run on one long, wide cell: huber, d = 256, kt, T = 2^17."""

    name = "run_long"
    why = ("one 2^17-step cell at d = 256 that writes a 9 MB trajectory: wide vectors and "
           "artifact writing; bypasses batching and prefix sharing, as nothing is shared")

    def config(self, seed: int) -> dict:
        return {
            "problem": {"family": "huber", "dimension": 256, "parameters": {"delta": 1.0}},
            "learner": {"kind": "kt", "start_distance": 10.0},
            "horizons": [RUN_LONG_HORIZON],
            "seed": seed,
        }

    def argv(self, seed, workdir):
        config_path = workdir / "run_long.json"
        config_path.write_text(json.dumps(self.config(seed)), encoding="utf-8")
        return ["run", "--config", str(config_path), "--out", str(workdir / "run_long")]

    def evaluate(self, seed, workdir, stderr, crashed):
        outcome = Outcome(attempted=1)
        summary = workdir / "run_long" / "summary.json"
        trajectory = workdir / "run_long" / f"trajectory_T{RUN_LONG_HORIZON}.csv"
        if crashed or not summary.exists() or not trajectory.exists():
            outcome.failed = 1
            outcome.notes.append("no run output")
            return outcome
        outcome.digests["summary.json"] = sha256_file(summary)
        outcome.digests[trajectory.name] = sha256_file(trajectory)
        records = json.loads(summary.read_text(encoding="utf-8"))["records"]
        record = records[0] if len(records) == 1 else None
        bad = (record is None or record["config"]["T"] != RUN_LONG_HORIZON
               or "bound violation" in stderr or not bounds_hold(record))
        if record is not None:
            outcome.work = int(record["steps_taken"])
        if seed == REFERENCE_SEED:
            ref = json.loads((REFERENCE_DIR / "run_long.json").read_text(encoding="utf-8"))
            same = (record == ref["record"]
                    and outcome.digests[trajectory.name] == ref["trajectory_sha256"])
            outcome.notes.append(f"reference: {int(same)}/1 horizons match")
            bad = bad or not same
        outcome.failed = int(bad)
        return outcome


WORKLOADS = {w.name: w for w in (SweepDefault(), CheckDefault(), RunLong())}
# the workloads BENCHMARK.json lists; run_long runs only when asked for, as
# its runs spread too widely on a shared host to gate a change (README, Noise)
GATED = ("sweep_default", "check_default")
