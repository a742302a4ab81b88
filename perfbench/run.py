"""Run the normgrad benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every job is a fresh child process (child.py) that imports normgrad from
the checkout's src/ and calls `normgrad.cli.main` once; jobs run one at a
time (closed loop, one client). The parent reads each child's peak RSS
from os.wait4 and checks its outputs (workloads.py).

With --trace 0 the run measures jobs for about --seconds: it starts
another job while that is expected to end closer to --seconds than stopping
now and before 1.15 x --seconds (at least one job). Setup-only children run before every job and after
the last one, so setup_s samples the host over the whole run. The run
reports the median of each end-to-end metric. With --trace 1 it runs one untraced job and one traced
job and reports the per-layer metrics of the traced one (spans.py). The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK_DIR = ".perfbench_work"
SETUP_PROBES = 3  # setup-only children before each job and after the last
MAX_OVERRUN = 1.15  # no job is started that would end after 1.15 x --seconds
TIME_LIMIT_S = 170.0
# wall_s is printed but not a metric: on sweep_default the seed changes the
# work by up to 17%, which work_per_s divides out
E2E_METRICS = (("work_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYER_UNITS = {name: unit for name, unit, _ in spans.LAYER_METRICS}


class SetupError(Exception):
    """The checkout cannot run the benchmark (exit code 2, no result)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed, taken modulo 2^32 (default 0)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measured time per workload with --trace 0 (default 50)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_info() -> dict:
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg": _read("/proc/loadavg").strip(), "python": platform.python_version()}


def check_checkout(root: Path) -> None:
    if not (root / "src" / "normgrad" / "cli.py").is_file():
        raise SetupError(f"no normgrad sources under {root / 'src'}")


def run_child(root: Path, workdir: Path, mode: str, job_argv: list, deadline: float) -> dict:
    """Start child.py, wait for it, and return its result with rss_mb and
    stderr added; result is None when the child wrote none."""
    result_path = workdir / f"child_{mode}.json"
    trace_path = workdir / "trace.json"
    for path in (result_path, trace_path):
        path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(CHILD), mode, str(result_path), str(trace_path), "--"] + job_argv
    with open(workdir / "child.out", "w") as out, open(workdir / "child.err", "w") as err:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=err)
        status = rusage = None
        while status is None:
            pid, st, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                status, rusage = st, ru
            elif time.monotonic() > deadline:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
            else:
                time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0 and result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        expected = (root / "src" / "normgrad" / "__init__.py").resolve()
        if Path(result["package"]).resolve() != expected:
            raise SetupError(f"normgrad was imported from {result['package']}, not {expected}")
    return {"result": result, "rss_mb": rusage.ru_maxrss / 1024.0,
            "cpu_s": rusage.ru_utime + rusage.ru_stime,
            "stderr": (workdir / "child.err").read_text(encoding="utf-8", errors="replace"),
            "trace_path": trace_path}


def another_job(measured: float, jobs: int, seconds: float, left: float) -> bool:
    """Whether to start one more job after `jobs` jobs took `measured`
    seconds: only if it is expected to end nearer to `seconds` than stopping
    now does, before MAX_OVERRUN x `seconds`, and with time for two jobs
    `left` before the run's time limit."""
    mean_job = measured / jobs
    return (measured + mean_job / 2 < seconds
            and measured + mean_job <= MAX_OVERRUN * seconds
            and 2 * mean_job < left)


def setup_probes(root, workdir, argv, deadline) -> list:
    """setup_s of SETUP_PROBES setup-only children."""
    out = []
    for _ in range(SETUP_PROBES):
        probe = run_child(root, workdir, "setup", argv, deadline)
        if probe["result"] is None:
            raise SetupError(f"setup child failed:\n{probe['stderr']}")
        out.append(probe["result"]["setup_s"])
    return out


def run_job(root, workdir, workload, seed, mode, deadline):
    """One job: a fresh output directory, the child, and its checked outputs."""
    out_dir = workdir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    job = run_child(root, workdir, mode, workload.argv(seed, out_dir), deadline)
    result = job["result"]
    crashed = (result is None or result["rc"] not in (0, 1)
               or "Traceback (most recent call last)" in job["stderr"])
    try:
        outcome = workload.evaluate(seed, out_dir, job["stderr"], crashed)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        outcome = workload.evaluate(seed, out_dir, "", True)
        outcome.notes.append(f"unreadable output: {exc!r}")
    if result is not None and result["rc"] == 1 and outcome.failed == 0:
        outcome.failed = 1
        outcome.notes.append("program reported a failure the outputs do not show")
    job["outcome"] = outcome
    job["output_bytes"] = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    return job


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int,
                 started: float) -> dict:
    """Run one workload and print its report; return the result object."""
    workload = WORKLOADS[name]
    deadline = started + TIME_LIMIT_S
    workdir = root / WORK_DIR / name
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    machine = machine_info()
    print(f"== {name}  seed={seed}  trace={trace}  why: {workload.why}", flush=True)
    setup_argv = workload.argv(seed, workdir / "out")

    jobs = []
    setups = []
    if trace:
        for mode in ("run", "trace"):
            jobs.append(run_job(root, workdir, workload, seed, mode, deadline))
    else:
        run_child(root, workdir, "setup", setup_argv, deadline)  # writes bytecode
        measured = 0.0
        while True:
            setups.extend(setup_probes(root, workdir, setup_argv, deadline))
            t0 = time.monotonic()
            jobs.append(run_job(root, workdir, workload, seed, "run", deadline))
            measured += time.monotonic() - t0
            if not another_job(measured, len(jobs), seconds, deadline - time.monotonic()):
                break
        setups.extend(setup_probes(root, workdir, setup_argv, deadline))

    attempted = failed = 0
    for i, job in enumerate(jobs, 1):
        res, outcome = job["result"] or {}, job["outcome"]
        attempted += outcome.attempted
        failed += outcome.failed
        if "setup_s" in res:
            setups.append(res["setup_s"])
        print(f"job {i}: wall {_fmt(res.get('wall_s', float('nan')))} s, "
              f"setup {_fmt(res.get('setup_s', float('nan')))} s, process cpu {job['cpu_s']:.3f} s, "
              f"rss {job['rss_mb']:.1f} MB, "
              f"rc {res.get('rc')}, {outcome.attempted - outcome.failed}/{outcome.attempted} ok, "
              f"{outcome.work} {workload.work[1]}"
              + "".join(f"; {note}" for note in outcome.notes), flush=True)
    last = jobs[-1]
    for fname, digest in sorted(last["outcome"].digests.items()):
        print(f"digest {fname} sha256 {digest}")
    machine["loadavg_end"] = _read("/proc/loadavg").strip()
    machine["numpy"] = (last["result"] or {}).get("numpy", "")
    print("machine " + json.dumps(machine))

    good = [j for j in jobs if j["result"] is not None and "wall_s" in j["result"]]
    metrics = {}
    if trace:
        if len(good) == 2:
            untraced, traced = (j["result"] for j in good)
            with open(good[1]["trace_path"], "r", encoding="utf-8") as fh:
                tree = json.load(fh)
            values = spans.layer_metrics(
                tree, traced["timer_inner_s"], traced["timer_outer_s"],
                good[1]["output_bytes"], traced["wall_s"] / untraced["wall_s"] - 1.0)
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}
            print(f"untraced wall {_fmt(untraced['wall_s'])} s, traced wall "
                  f"{_fmt(traced['wall_s'])} s")
    elif good:
        print(f"wall_s = {_fmt(statistics.median(j['result']['wall_s'] for j in good))} s")
        values = {
            "work_per_s": statistics.median(
                j["outcome"].work / j["result"]["wall_s"] for j in good),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(j["rss_mb"] for j in good),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in E2E_METRICS}
        print(f"medians of {len(good)} jobs and {len(setups)} setups; work_per_s is "
              f"{workload.work[0]}, {workload.work[1]} / wall_s")
    for key, entry in metrics.items():
        print(f"{key} = {_fmt(entry['value'])} {entry['unit']}")
    print(f"fail_ratio = {failed}/{attempted} = {_fmt(failed / attempted)}")
    correct = failed == 0 and len(good) == len(jobs)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None, root: Path = ROOT) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    try:
        check_checkout(root)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        seed = args.seed % 2 ** 32
        for name in names:
            if args.workload == "all":
                started = time.monotonic()
            result = run_workload(root, name, seed, args.seconds, args.trace, started)
            print(json.dumps(result), flush=True)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
