"""The fixture generator reproduces the committed fixtures byte for byte."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
