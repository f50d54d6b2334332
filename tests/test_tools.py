"""The fixture generator reproduces the committed fixtures byte for byte,
the bench recorder assembles its record, every demo runs to completion, the
README's law-line count and grid example are current, no module imports a
name it does not use, every public name of the package has a reader
outside the tests, every method of its classes has a reader, and only
serialize uses a checked constructor."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_fixtures_reproduces_the_fixture_tree(tmp_path, capsys):
    make_fixtures = load_tool("make_fixtures")
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
    from xmodcat.gridlang import load_grid, parse_document

    example = (ROOT / "README.md").read_text().split("## Grid text format", 1)[1].split("```")[1]
    grids = ROOT / "fixtures" / "grids"
    assert parse_document(example, base_dir=grids).grid == load_grid(grids / "xm1_2x2.xmg")


def bench_stdout(workload: str, nproc: int = 2) -> str:
    env = {"python": "3.11.7", "nproc": nproc, "workload": workload, "seed": 1, "seconds": 60.0, "trace": 0}
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"wall_s": 1.5}}
    return "\n".join([json.dumps({"env": env}), "wall_s 1.5 s", json.dumps(result)]) + "\n"


def test_the_bench_record_holds_the_revision_machine_results_and_tier1_time():
    bench_record = load_tool("bench_record")
    runs = {"o12-double": bench_stdout("o12-double"), "sweep": bench_stdout("sweep")}
    record = bench_record.assemble("f61b9d4", False, runs, 23.456, "342 passed in 22.9s")
    assert record == {
        "revision": "f61b9d4",
        "dirty": False,
        "machine": {"python": "3.11.7", "nproc": 2},
        "benchmark": {"seed": 1, "seconds": 60.0, "trace": 0},
        "workloads": {
            name: {"correct": True, "attempted": 3, "failed": 0, "metrics": {"wall_s": 1.5}}
            for name in runs
        },
        "tier1": {"wall_s": 23.46, "summary": "342 passed in 22.9s"},
    }
    json.dumps(record)  # it is written as JSON


def test_the_bench_record_refuses_mixed_machines_and_missing_results():
    bench_record = load_tool("bench_record")
    with pytest.raises(ValueError, match="different settings"):
        bench_record.assemble("r", False, {"a": bench_stdout("a"), "b": bench_stdout("b", nproc=4)}, 1.0, "")
    with pytest.raises(ValueError, match="'correct'"):
        bench_record.assemble("r", False, {"a": bench_stdout("a").rsplit("\n", 2)[0]}, 1.0, "")



# every module but the package's __init__, which imports names to re-export them
PACKAGE = [p for p in sorted((ROOT / "src" / "xmodcat").glob("*.py")) if p.name != "__init__.py"]
SCANNED = PACKAGE + [p for d in ("tests", "tools", "demos") for p in sorted((ROOT / d).glob("*.py"))]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name an import binds and no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in bound.items() if name not in read]


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport json, os.path\nfrom sys import argv as a, path\n\nos.path.join(*path)\n"
    assert unused_imports(source) == [(2, "json"), (3, "a")]


def test_no_module_imports_a_name_it_does_not_use():
    assert ROOT / "tests" / "test_tools.py" in SCANNED
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SCANNED for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def public_definitions(tree: ast.Module):
    """(name, node) for each top-level def, class and assignment whose name
    does not start with an underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def reads(tree: ast.AST) -> Counter:
    """How often each name is read in tree, as a bare name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def unread_public_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """"module:name" for each public definition of `modules` (name -> source)
    that nothing reads outside the definition itself: not the rest of its
    module, another module, or a reader's source."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read_in = {name: reads(tree) for name, tree in trees.items()}
    by_readers = set().union(*(reads(ast.parse(source)) for source in readers))
    out = []
    for module, tree in trees.items():
        elsewhere = by_readers.union(*(r for m, r in read_in.items() if m != module))
        for name, node in public_definitions(tree):
            if name not in elsewhere and read_in[module][name] == reads(node)[name]:
                out.append(f"{module}:{name}")
    return out


def test_an_unread_public_name_is_found():
    modules = {
        "a": "X = 1\n_hidden = 2\n\ndef f():\n    return f()\n\ndef g():\n    return X\n\nclass C:\n    pass\n",
        "b": "from a import g\n\ng()\n",
    }
    assert unread_public_names(modules, ["import a\n\na.C\n"]) == ["a:f"]


# public names that no code outside the tests reads, each with the reason it stays
KEPT_UNREAD = {
    # the check of a weak action's own compositor; verify checks only the
    # identity compositor, through coherence_laws
    "action:check_compositor_coherence",
}


def test_every_public_name_has_a_reader_outside_the_tests():
    modules = {p.stem: p.read_text() for p in PACKAGE}
    readers = [p.read_text() for d in ("tools", "demos", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    assert unread_public_names(modules, readers) == sorted(KEPT_UNREAD)


def methods(tree: ast.AST):
    """(class, name, node) for each method and property of each class in
    tree whose name is not a dunder."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__")):
                    yield cls.name, node.name, node


def attribute_reads(tree: ast.AST) -> Counter:
    """How often each name is read in tree as an attribute or is a string
    literal there, as getattr(tables, name) reads a condition."""
    return Counter(
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Constant) and isinstance(node.value, str)
    )


def unread_methods(modules: dict[str, str], readers: list[str]) -> list[str]:
    """"module:Class.name" for each method or property of the classes of
    `modules` (name -> source) that nothing reads outside its own body, in
    the modules or in a reader's source."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = sum(map(attribute_reads, [*trees.values(), *map(ast.parse, readers)]), Counter())
    return [
        f"{module}:{cls}.{name}"
        for module, tree in trees.items() for cls, name, node in methods(tree)
        if read[name] == attribute_reads(node)[name]
    ]


def test_an_unread_method_is_found():
    modules = {
        "a": (
            "class C:\n    def __eq__(self, o):\n        return self.f()\n\n    def f(self):\n        return 1\n\n"
            "    def g(self):\n        return self.g()\n\n    @property\n    def h(self):\n        return 2\n\n"
            "    def k(self):\n        pass\n"
        ),
        "b": "from a import C\n\nC().h\n",
    }
    assert unread_methods(modules, ["getattr(C(), 'k')\n"]) == ["a:C.g"]


def test_every_method_has_a_reader():
    modules = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "xmodcat").glob("*.py"))}
    readers = [p.read_text() for d in ("tests", "tools", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unread_methods(modules, readers) == []


# the checked constructors guard tables read from a file; a structure the
# package builds has its proof beside its code and is not re-checked
CHECKED_CONSTRUCTORS = {"category_from_tables", "make_strict_action"}


def checked_constructor_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) for each import or read of a checked constructor, so an
    alias or an attribute call is found too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in CHECKED_CONSTRUCTORS]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in CHECKED_CONSTRUCTORS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in CHECKED_CONSTRUCTORS:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_a_checked_constructor_use_is_found():
    source = (
        "from .fincat import category_from_tables as build\nfrom . import action\n\n"
        "def make_strict_action():\n    pass\n\nbuild(0, [], [], [])\naction.make_strict_action(xm, c, [], [])\n"
    )
    assert checked_constructor_uses(source) == [(1, "category_from_tables"), (8, "make_strict_action")]


def test_only_serialize_uses_a_checked_constructor():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in PACKAGE if path.name != "serialize.py"
        for line, name in checked_constructor_uses(path.read_text())
    ]
    assert found == []
    serialize = ROOT / "src" / "xmodcat" / "serialize.py"
    assert {name for _, name in checked_constructor_uses(serialize.read_text())} == CHECKED_CONSTRUCTORS
