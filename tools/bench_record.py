#!/usr/bin/env python3
"""Record one point of the performance trajectory in BENCH_<pr>.json.

Run from the repository root:

    python3 tools/bench_record.py 11

It runs the benchmark declared in BENCHMARK.json once per workload, at
seed 1, for its declared ``run_seconds`` and with ``--trace 0``, and then
the tier-1 tests once, all in the checkout named by ``--root`` (default: the
one holding this file), one after the other. The record holds the
checkout's git revision, the machine line (Python version and nproc, as the
benchmark prints them), each workload's result line and the tier-1 wall
time. It is written to BENCH_<pr>.json in the current directory. Measure
the commits a speed claim compares on the same machine, one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SEED = 1
TIER1 = (
    "-W", "error::DeprecationWarning", "-W", "error::SyntaxWarning",
    "-m", "pytest", "-q", "--continue-on-collection-errors",
)


def last_json(stdout: str, key: str) -> dict:
    """The last stdout line that is a JSON object with `key`."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            obj = json.loads(line)
            if key in obj:
                return obj
    raise ValueError(f"no JSON line with {key!r} in the output")


def assemble(revision: str, dirty: bool, runs: dict[str, str], tier1_s: float, tier1_summary: str) -> dict:
    """The record from the benchmark's stdout per workload and the tier-1
    wall time. Every workload must have run with the same machine line,
    seed and run length."""
    envs = {name: last_json(out, "env")["env"] for name, out in runs.items()}
    shared = {(e["python"], e["nproc"], e["seed"], e["seconds"], e["trace"]) for e in envs.values()}
    if len(shared) != 1:
        raise ValueError(f"the workloads ran under different settings: {sorted(shared)}")
    ((python, nproc, seed, seconds, trace),) = shared
    return {
        "revision": revision,
        "dirty": dirty,
        "machine": {"python": python, "nproc": nproc},
        "benchmark": {"seed": seed, "seconds": seconds, "trace": trace},
        "workloads": {name: last_json(out, "correct") for name, out in runs.items()},
        "tier1": {"wall_s": round(tier1_s, 2), "summary": tier1_summary},
    }


def git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(root), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("pr", type=int, help="the number in BENCH_<pr>.json")
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = p.parse_args(argv)
    root = args.root.resolve()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    runs = {}
    for workload in declared["workloads"]:
        name = workload["name"]
        cmd = [*declared["command"], "--workload", name, "--seed", str(SEED),
               "--seconds", str(declared["run_seconds"]), "--trace", "0"]
        print(f"{name}: {' '.join(cmd)}", file=sys.stderr)
        runs[name] = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    print("tier-1 tests", file=sys.stderr)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True)
    tier1_s = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    record = assemble(
        git(root, "rev-parse", "HEAD"),
        bool(git(root, "status", "--porcelain", "--untracked-files=no")),
        runs, tier1_s, summary,
    )
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
