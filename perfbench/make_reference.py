#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: each job's exit code and failing laws.

Run from the repository root:  python3 perfbench/make_reference.py

Runs every job of every workload once at seed 0. The verdicts do not depend
on the seed: the valid modules pass every law, and the three negative inputs
fail the same laws at the sweep's budget as under --exhaustive (25, 12 and 8
laws). Refuses to write a reference from a run that printed an error.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    os.environ.pop("XMODCAT_THREADS", None)
    reference = {}
    work = run.WORK / f"reference-{os.getpid()}"
    for workload in run.WORKLOADS:
        cli, inputs, _ = run.set_up(workload, 0, work)
        _, _, outcomes = run.run_pass(cli.main, inputs.jobs)
        for job, outcome in zip(inputs.jobs, outcomes):
            code, failing, problems = run.verdict(outcome)
            if problems:
                print(f"{job.name}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            reference[job.name] = {"exit": code, "fail": failing}
        shutil.rmtree(work)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} jobs to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
