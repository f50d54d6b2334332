"""The fixture generator reproduces the committed fixtures byte for byte,
every demo runs to completion, and the README's law-line count and grid
example are current."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_make_fixtures_reproduces_the_fixture_tree(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("make_fixtures", ROOT / "tools" / "make_fixtures.py")
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    make_fixtures.FIX = tmp_path
    make_fixtures.main()
    # mutated.json is the first corruption that verify_double_category catches
    assert "mutated.json: act_mor[" in capsys.readouterr().out
    assert tree(tmp_path) == tree(ROOT / "fixtures")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    if demo.name == "conjugation_double_category.py":
        classes = "[['(12)', '(13)', '(23)'], ['(123)', '(132)'], ['e']]"
        assert f"object-view components (= conjugacy classes of S3): {classes}" in done.stdout.splitlines()


def test_the_demos_are_found():
    assert ROOT / "demos" / "conjugation_double_category.py" in DEMOS


def test_the_readme_states_the_law_line_count(capsys):
    from xmodcat.cli import main

    found = re.findall(r"\((\d+) law lines over (\d+) suites\)", (ROOT / "README.md").read_text())
    assert len(found) == 1
    assert main(["verify", "--adjoint", "xm1"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()[1:]]
    assert (len(lines), len({o["suite"] for o in lines})) == tuple(map(int, found[0]))


def test_the_readme_grid_example_is_the_shipped_checkerboard():
    from xmodcat.gridlang import parse_grid, parse_grid_file

    example = (ROOT / "README.md").read_text().split("## Grid text format", 1)[1].split("```")[1]
    grids = ROOT / "fixtures" / "grids"
    assert parse_grid(example, base_dir=grids) == parse_grid_file(grids / "xm1_2x2.xmg")
