"""Self-test of the benchmark on a few small jobs.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL_JOBS = {
    "verify --adjoint sweep/S3-Z2-0",
    "verify --trivial bad-peiffer",
    "eval --check-interchange grid-00",
}


@pytest.fixture
def tiny(monkeypatch):
    """A workload of three sweep jobs: a valid module, a negative input, a grid."""

    def tiny_sweep(seed, work):
        inputs = run.sweep(seed, work)
        inputs.jobs = [j for j in inputs.jobs if j.name in SMALL_JOBS]
        return inputs

    monkeypatch.setitem(run.WORKLOADS, "tiny", tiny_sweep)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, trace, section):
    argv = ["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 3
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = last["metrics"]
    assert {name: m["unit"] for name, m in got.items()} == want
    assert all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]) for m in got.values())
    if trace:
        assert got["cli.law_lines_fail"]["value"] == 8  # the trivial bad-peiffer action
        assert got["gridlang.squares_parsed"]["value"] == run.GRID_SIZE**2


def test_passes_repeat_until_the_run_length_is_used(tiny):
    result = run.measure("tiny", 3, 6.0, False, run.load_reference(), log=lambda _: None)
    assert result["correct"]
    assert result["attempted"] >= 2 * len(SMALL_JOBS)


def test_altered_reference_drives_failed_share_above_zero(tiny):
    reference = run.load_reference()
    reference["verify --trivial bad-peiffer"]["fail"].pop()
    reference["eval --check-interchange grid-00"]["exit"] = 1
    result = run.measure("tiny", 3, 0.0, False, reference, log=lambda _: None)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] == pytest.approx(2 / 3)


@pytest.mark.parametrize("outcome, want", [
    (run.Outcome(2, "", '{"error": "FixtureFormatError", "message": "missing"}\n'), {"exit": 2, "fail": []}),
    (run.Outcome(1, '{"suite": "double", "law": "double-error", "status": "fail", "checked": 0}\n', ""),
     {"exit": 1, "fail": ["double/double-error"]}),
    (run.Outcome("raised ValueError: boom", "", ""), {"exit": 0, "fail": []}),
])
def test_errors_are_wrong_even_when_the_reference_agrees(outcome, want):
    assert run.wrong(run.Job("j", ()), outcome, {"j": want})


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
