#!/usr/bin/env python3
"""Time-to-verdict benchmark for xmodcat.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 60 --trace 0

One process runs one workload. It imports xmodcat from ``src/`` and drives
``xmodcat.cli.main`` in process as a closed loop with one client: the next
job starts when the previous one has printed its output. A pass imports
xmodcat afresh, writes the workload's inputs, then runs every job once;
passes repeat while one more, as long as the mean so far, would end within
``--seconds``, and at least one pass runs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics from spans taken
around calls into each module (see tracing.py) plus kernel micro timings,
and writes the spans to ``.bench_build/perfbench/``.

Every job's exit code and set of failing ``suite/law`` names is compared with
``perfbench/reference.json``. The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the environment and print every metric with its unit,
including ``failed_share`` (failed over attempted).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer, sub

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".bench_build" / "perfbench"

# set-up runs before every pass and at least this often; its median is
# reported, so one slow import (the first run in a fresh checkout compiles
# bytecode) does not set setup_s
SETUP_REPEATS = 11
FIXTURES = ("xm1", "xm2", "xm3", "xm4")
SWEEP_ARGS = ("--samples", "1000", "--max-exhaustive", "10000")
SWEEP_MAX_PAIRS = 12
NEGATIVE_JOBS = (
    ("verify fixtures/actions/mutated.json", (str(ROOT / "fixtures" / "actions" / "mutated.json"),)),
    ("verify --adjoint bad-peiffer", ("--adjoint", "bad-peiffer")),
    ("verify --trivial bad-peiffer", ("--trivial", "bad-peiffer")),
)
GRID_JOBS = 40
GRID_SIZE = 32

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass(frozen=True)
class Job:
    name: str  # key into reference.json; does not depend on the seed
    argv: tuple[str, ...]


@dataclass
class Inputs:
    jobs: list[Job]
    kernel_xm: object  # the workload's largest crossed module
    enumerate_s: float = 0.0
    modules_found: int = 0
    enumerated_pairs: list = field(default_factory=list)


@dataclass(frozen=True)
class Outcome:
    code: object  # exit status, or a description of what was raised
    stdout: str
    stderr: str


# --- workloads ---------------------------------------------------------------

def fixtures_full(seed: int, work: Path) -> Inputs:
    """The four shipped modules at the default arguments (ROADMAP headline)."""
    jobs = [
        Job(f"verify --adjoint {n}", ("verify", "--adjoint", n, "--seed", str(seed)))
        for n in FIXTURES
    ]
    return Inputs(jobs, dict(sub("xmod").fixture_catalog())["xm2"])


def o12_double(seed: int, work: Path) -> Inputs:
    """The order-12 identity module S3 x Z2, double suite only."""
    groups, xmod, ser = sub("groups"), sub("xmod"), sub("serialize")
    xm = xmod.xmod_identity(groups.direct_product(groups.symmetric(3), groups.cyclic(2)))
    path = work / "o12.json"
    ser.write_json(ser.xmod_to_obj(xm), path)
    argv = ("verify", "--adjoint", str(path), "--suite", "double", "--seed", str(seed))
    return Inputs([Job("verify --adjoint o12 --suite double", argv)], xm)


def sweep(seed: int, work: Path) -> Inputs:
    """Every small crossed module, the negative inputs and seeded grids."""
    groups, xmod, ser = sub("groups"), sub("xmod"), sub("serialize")
    quintet, gridlang = sub("quintet"), sub("gridlang")
    catalog = groups.small_group_catalog()
    pairs = [
        (gn, g, hn, h)
        for gn, g in catalog
        for hn, h in catalog
        if g.order * h.order <= SWEEP_MAX_PAIRS
    ]
    start = time.perf_counter()
    found = [(gn, hn, xmod.enumerate_crossed_modules(g, h)) for gn, g, hn, h in pairs]
    enumerate_s = time.perf_counter() - start

    jobs, modules = [], []
    for gn, hn, xms in found:
        for k, xm in enumerate(xms):
            path = work / f"{gn}-{hn}-{k}.json"
            ser.write_json(ser.xmod_to_obj(xm), path)
            jobs.append(Job(
                f"verify --adjoint sweep/{gn}-{hn}-{k}",
                ("verify", "--adjoint", str(path), *SWEEP_ARGS, "--seed", str(seed)),
            ))
            modules.append(xm)
    for name, target in NEGATIVE_JOBS:
        jobs.append(Job(name, ("verify", *target, *SWEEP_ARGS, "--seed", str(seed))))

    xm2 = dict(xmod.fixture_catalog())["xm2"]
    ser.write_json(ser.xmod_to_obj(xm2), work / "xm2.json")
    rng = random.Random(seed)
    for i in range(GRID_JOBS):
        grid = quintet.random_grid(xm2, GRID_SIZE, GRID_SIZE, rng)
        path = work / f"grid-{i:02d}.xmg"
        path.write_text(gridlang.serialize_grid(grid, "xm2.json"))
        jobs.append(Job(f"eval --check-interchange grid-{i:02d}", ("eval", "--check-interchange", str(path))))

    largest = max(modules, key=lambda xm: xm.npairs)
    return Inputs(jobs, largest, enumerate_s, len(modules), [(g, h) for _, g, _, h in pairs])


WORKLOADS = {
    "fixtures-full": fixtures_full,
    "o12-double": o12_double,
    "sweep": sweep,
}


# --- set-up --------------------------------------------------------------------

def import_xmodcat():
    """Import xmodcat from scratch, dropping any copy imported earlier."""
    for name in [m for m in sys.modules if m == "xmodcat" or m.startswith("xmodcat.")]:
        del sys.modules[name]
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return importlib.import_module("xmodcat.cli")  # imports the whole package


def set_up(workload: str, seed: int, work: Path):
    """Import xmodcat and write the workload's inputs; returns (cli, inputs, seconds)."""
    if work.exists():
        shutil.rmtree(work)
    start = time.perf_counter()
    cli = import_xmodcat()
    work.mkdir(parents=True)
    inputs = WORKLOADS[workload](seed, work)
    return cli, inputs, time.perf_counter() - start


# --- running and checking jobs -------------------------------------------------

def run_job(main, job: Job, tracer=None) -> tuple[float, Outcome]:
    out, err = io.StringIO(), io.StringIO()
    span = tracer.job(job.name) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(job.argv))
        except (Exception, SystemExit) as exc:  # a job must never end the run
            code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, Outcome(code, out.getvalue(), err.getvalue())


def run_pass(main, jobs: list[Job], tracer=None):
    """One closed-loop pass: (wall seconds, per-job seconds, outcomes)."""
    gc.collect()  # earlier passes' garbage, their old modules too, is not this pass's cost
    latencies, outcomes = [], []
    start = time.perf_counter()
    for job in jobs:
        seconds, outcome = run_job(main, job, tracer)
        latencies.append(seconds)
        outcomes.append(outcome)
    return time.perf_counter() - start, latencies, outcomes


def verdict(outcome: Outcome) -> tuple[object, list[str], list[str]]:
    """(exit code, sorted failing suite/law names, problems) of one job."""
    problems = []
    if not isinstance(outcome.code, int):
        problems.append(str(outcome.code))
    failing = set()
    for line in outcome.stdout.splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            problems.append(f"unparsable output line {line[:80]!r}")
            continue
        if not (isinstance(rec, dict) and "law" in rec):
            continue
        if rec["law"].endswith("-error"):
            problems.append(f"{rec['suite']}/{rec['law']}: {rec.get('detail', '')}")
        if rec.get("status") == "fail":
            failing.add(f"{rec['suite']}/{rec['law']}")
    for line in outcome.stderr.splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            rec = {"error": line}
        if not isinstance(rec, dict) or "error" in rec:
            problems.append(f"error record {line[:120]!r}")
    return outcome.code, sorted(failing), problems


def wrong(job: Job, outcome: Outcome, reference: dict) -> str | None:
    """Why the job's output is wrong, or None when it matches the reference."""
    code, failing, problems = verdict(outcome)
    if problems:
        return "; ".join(problems)
    want = reference.get(job.name)
    if want is None:
        return "job missing from the reference"
    if code != want["exit"]:
        return f"exit {code}, reference {want['exit']}"
    if failing != sorted(want["fail"]):
        return f"failing laws {failing}, reference {sorted(want['fail'])}"
    return None


# --- measurement ---------------------------------------------------------------

def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: dict, log=print) -> dict:
    """Set the workload up, run it, check every job; returns the result object."""
    work = WORK / f"inputs-{os.getpid()}"
    tracer = Tracer() if trace else None
    setups, enumerations = [], []
    walls = {False: [], True: []}
    fastest: dict[str, float] = {}  # job name -> its fastest untraced run
    failures, attempted = [], 0
    cycles = []  # seconds of each set-up and pass
    loop_start = time.perf_counter()
    try:
        while True:
            # every pass starts from a fresh import and fresh inputs, so no
            # state cached by the program in one pass serves the next
            cycle_start = time.perf_counter()
            cli, inputs, setup_s = set_up(workload, seed, work)
            setups.append(setup_s)
            enumerations.append(inputs.enumerate_s)
            traced = trace and len(walls[False]) > len(walls[True])
            with tracer.installed() if traced else contextlib.nullcontext():
                wall, lat, outcomes = run_pass(cli.main, inputs.jobs, tracer if traced else None)
            walls[traced].append(wall)
            if not traced:
                for job, took in zip(inputs.jobs, lat):
                    fastest[job.name] = min(took, fastest.get(job.name, took))
            attempted += len(inputs.jobs)
            for job, outcome in zip(inputs.jobs, outcomes):
                why = wrong(job, outcome, reference)
                if why:
                    failures.append(f"{job.name}: {why}")
            now = time.perf_counter()
            cycles.append(now - cycle_start)
            enough = not trace or walls[True]
            if enough and now - loop_start + statistics.mean(cycles) > seconds:
                break
        while len(setups) < SETUP_REPEATS:
            cli, inputs, setup_s = set_up(workload, seed, work)
            setups.append(setup_s)
            enumerations.append(inputs.enumerate_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = tracer.layer_metrics(
            passes=len(walls[True]),
            inputs=inputs,
            enumerate_s=statistics.median(enumerations),
            overhead_s=min(walls[True]) - min(walls[False]),
            seed=seed,
        )
        tracer.write(WORK / f"trace-{workload}-seed{seed}.json")
    else:
        # On a shared 2-core box the machine's speed often swings by a fifth
        # from one pass to the next and noise only ever adds time, so each
        # job's fastest run is far steadier than a pass wall or a median;
        # wall_s is the pass wall rebuilt from them (perfbench/README.md
        # gives the figures).
        metrics = {
            "wall_s": sum(fastest.values()),
            "setup_s": statistics.median(setups),
            "job_p50_s": percentile(list(fastest.values()), 50),
            "job_p90_s": percentile(list(fastest.values()), 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    for failure in failures[:20]:
        log(f"# WRONG {failure}")
    log(
        f"# {workload}: {len(walls[False])} untraced and {len(walls[True])} traced passes "
        f"of {len(inputs.jobs)} jobs; job_p50_s and job_p90_s over {len(fastest)} jobs"
    )
    log(f"# pass walls (s): {' '.join(f'{w:.3f}' for w in walls[False])}")
    log(f"# failed_share {len(failures) / attempted:.4f} ratio ({len(failures)} of {attempted} jobs)")
    for name, m in metrics.items():
        log(f"# {name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "xmodcat" / "cli.py").is_file():
        print(f"no xmodcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the thread pool is slated for removal; measure the single-threaded path
    os.environ.pop("XMODCAT_THREADS", None)
    print(json.dumps({"env": {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }}))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), load_reference())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
