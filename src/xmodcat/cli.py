"""Command line front end.

Verbs:

* validate -- run the validator matching --kind on a fixture file
* build    -- construct the transformation double category of an action
* eval     -- collapse a square grid (text or JSON form) to one square
* verify   -- run every law suite against an action
* export   -- re-emit a fixture (or a named built-in) as canonical JSON
* catalog  -- list the built-in groups and crossed modules

Output is one JSON object per line by default; --pretty switches to a
human-readable rendering. Runs with the same inputs, seed and sample count
produce byte-identical output. Exit status: 0 all checks passed, 1 at least
one law or validation failure, 2 unusable input (IO, JSON, grammar, usage).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .action import (
    adjoint_action,
    strict_action_laws,
    trivial_strict_action,
)
from .errors import InvalidAction, MalformedTable, UsageError, XmodcatError
from .fincat import terminal_category
from .gridlang import (
    DslError,
    grid_to_obj,
    load_document,
    load_grid,
    serialize_grid,
)
from .groups import small_group_catalog
from .quintet import evaluate_grid
from .report import DEFAULT_MAX_EXHAUSTIVE, DEFAULT_SAMPLES
from .serialize import (
    FixtureFormatError,
    action_to_obj,
    category_to_obj,
    group_to_obj,
    load_action,
    load_category,
    load_group,
    load_xmod,
    write_json,
    xmod_to_obj,
)
from .suites import SUITES, LawLine, run_all, run_lines
from .transform import (
    build_transformation_double,
    double_to_obj,
    groupoid_to_dot,
    horizontal_2category,
    vertical_2category,
)
from .xmod import check_components, crossed_module_laws, fixture_catalog, xm_peiffer_broken

BUILTIN_GROUPS = dict(small_group_catalog())
BUILTIN_XMODS = dict(fixture_catalog())
BUILTIN_XMODS["bad-peiffer"] = xm_peiffer_broken()


class _Out:
    def __init__(self, pretty: bool):
        self.pretty = pretty
        self.failed = False

    def law(self, line) -> None:
        if line.status == "fail":
            self.failed = True
        if self.pretty:
            msg = f"{line.status.upper():<5} {line.suite}/{line.law}  checked={line.checked}"
            if line.violations:
                msg += f" violations={line.violations}"
            if line.witness is not None:
                msg += f" witness={line.witness}"
            if line.detail:
                msg += f"  ({line.detail})"
            print(msg)
        else:
            print(json.dumps(line.to_obj(), sort_keys=True))

    def log(self, **fields) -> None:
        if self.pretty:
            print("# " + " ".join(f"{k}={v}" for k, v in fields.items()))
        else:
            print(json.dumps({"log": fields}, sort_keys=True))

    def data(self, obj) -> None:
        print(json.dumps(obj, indent=2 if self.pretty else None, sort_keys=True))

    def error(self, exc: Exception) -> None:
        obj = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, DslError):
            obj["line"] = exc.line
            obj["col"] = exc.col
        if self.pretty:
            pos = f" at line {exc.line}, col {exc.col}" if isinstance(exc, DslError) else ""
            print(f"error [{type(exc).__name__}]{pos}: {exc}", file=sys.stderr)
        else:
            print(json.dumps(obj, sort_keys=True), file=sys.stderr)


_SOURCES = {  # kind -> (built-ins by name, file loader)
    "group": (BUILTIN_GROUPS, load_group),
    "xmod": (BUILTIN_XMODS, load_xmod),
    "category": ({"terminal": terminal_category()}, load_category),
}


def _resolve(kind: str, token: str | None):
    """The group, xmod or category at a path, or else the built-in so named."""
    if token is None:
        raise UsageError(f"--kind {kind} needs a path or a built-in name")
    builtins, load = _SOURCES[kind]
    if not Path(token).exists() and token in builtins:
        return builtins[token]
    return load(token)


def _load_verb_action(args):
    """An action from a file, or built from a crossed module on demand."""
    if getattr(args, "adjoint", None):
        return adjoint_action(_resolve("xmod", args.adjoint))
    if getattr(args, "trivial", None):
        return trivial_strict_action(_resolve("xmod", args.trivial), terminal_category())
    if args.path is None:
        raise UsageError("an action file, --adjoint, or --trivial is required")
    return load_action(args.path)


# --- verbs -------------------------------------------------------------------

def cmd_validate(args, out: _Out) -> int:
    try:
        if args.kind == "group":
            _resolve("group", args.path)
            lines = [LawLine("validate", "group-tables", "pass", 1)]
        elif args.kind == "category":
            _resolve("category", args.path)
            lines = [LawLine("validate", "category-tables", "pass", 1)]
        elif args.kind == "xmod":
            xm = _resolve("xmod", args.path)
            check_components(xm)
            lines = run_lines("validate", crossed_module_laws(xm), 0, 0, math.inf)
        else:  # action: argparse restricts the choices
            lines = run_lines("validate", strict_action_laws(_load_verb_action(args)), 0, 0, math.inf)
    except XmodcatError as exc:
        # unusable input exits 2 through main; a law failure of the loaded
        # structure is a validation failure and exits 1
        if isinstance(exc, (FixtureFormatError, DslError, UsageError, MalformedTable)):
            raise
        out.error(exc)
        return 1
    for line in lines:
        out.law(line)
    return 1 if out.failed else 0


def cmd_build(args, out: _Out) -> int:
    act = _load_verb_action(args)
    try:
        d = build_transformation_double(act, validate=True)
    except InvalidAction as exc:
        out.error(exc)
        return 1
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(double_to_obj(d), outdir / "double.json")
    out.log(wrote=str(outdir / "double.json"))
    if args.h2cat:
        two = horizontal_2category(d)
        write_json(
            {
                "kernel": list(two.kernel),
                "cells": {str(f): [list(c) for c in cells] for f, cells in two.cells.items()},
            },
            outdir / "h2cat.json",
        )
        out.log(wrote=str(outdir / "h2cat.json"))
    if args.v2cat:
        two = vertical_2category(d)
        write_json(
            {
                "cells": {
                    f"{gamma},{x}": [list(c) for c in cells]
                    for (gamma, x), cells in two.cells.items()
                }
            },
            outdir / "v2cat.json",
        )
        out.log(wrote=str(outdir / "v2cat.json"))
    if args.dot:
        (outdir / "obj_groupoid.dot").write_text(groupoid_to_dot(d.obj_groupoid, "objects"))
        (outdir / "mor_groupoid.dot").write_text(groupoid_to_dot(d.mor_groupoid, "morphisms"))
        out.log(wrote=str(outdir / "obj_groupoid.dot"))
        out.log(wrote=str(outdir / "mor_groupoid.dot"))
    return 0


def cmd_eval(args, out: _Out) -> int:
    grid = load_grid(args.grid)
    sq = evaluate_grid(grid, "rows")
    result = {
        "left": sq.left,
        "top": sq.top,
        "right": sq.right,
        "bottom": sq.bottom,
        "face": sq.face,
    }
    if args.check_interchange:
        other = evaluate_grid(grid, "columns")
        result["ordersAgree"] = other == sq
    out.data(result)
    if args.check_interchange and not result["ordersAgree"]:
        return 1
    return 0


def cmd_verify(args, out: _Out) -> int:
    for flag, value in (("--samples", args.samples), ("--max-exhaustive", args.max_exhaustive)):
        if value < 0:
            raise UsageError(f"{flag} must be at least 0, got {value}")
    act = _load_verb_action(args)
    max_exhaustive = 10**18 if args.exhaustive else args.max_exhaustive
    only = args.suite or None
    if only:
        known = {name for name, _ in SUITES}
        for name in only:
            if name not in known:
                raise UsageError(f"unknown suite {name!r}")
    out.log(seed=args.seed, samples=args.samples, exhaustive=args.exhaustive)
    for line in run_all(
        act,
        samples=args.samples,
        seed=args.seed,
        max_exhaustive=max_exhaustive,
        only=only,
    ):
        out.law(line)
    return 1 if out.failed else 0


def cmd_export(args, out: _Out) -> int:
    kind = args.kind
    if kind == "group":
        obj = group_to_obj(_resolve("group", args.path))
    elif kind == "xmod":
        obj = xmod_to_obj(_resolve("xmod", args.path))
    elif kind == "category":
        obj = category_to_obj(_resolve("category", args.path))
    elif kind == "action":
        obj = action_to_obj(_load_verb_action(args))
    elif kind == "grid":
        if args.path is None:
            raise UsageError("--kind grid needs a path")
        doc = load_document(args.path)
        grid, ref = doc.grid, doc.xmod_ref
        if args.dsl:
            if not isinstance(ref, str):
                raise UsageError(
                    f"{args.path} holds its crossed module inline, and grid text names its"
                    ' module by a path: write the module to a file and name that file in "xmod"'
                )
            text = serialize_grid(grid, ref)
            if args.output:
                Path(args.output).write_text(text)
                out.log(wrote=args.output)
            else:
                sys.stdout.write(text)
            return 0
        obj = grid_to_obj(grid, ref)
    else:  # pragma: no cover
        raise FixtureFormatError(f"unknown kind {kind}")
    if args.output:
        write_json(obj, args.output)
        out.log(wrote=args.output)
    else:
        out.data(obj)
    return 0


def cmd_catalog(args, out: _Out) -> int:
    for name, g in small_group_catalog():
        out.data({"kind": "group", "name": name, "order": g.order})
    entries = list(fixture_catalog()) + [("bad-peiffer", BUILTIN_XMODS["bad-peiffer"])]
    for name, xm in entries:
        out.data(
            {
                "kind": "xmod",
                "name": name,
                "G": xm.g.order,
                "H": xm.h.order,
                "pairs": xm.npairs,
            }
        )
    return 0


# --- argument parsing ----------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing keeps no state in the parser: each parse_args call fills a new
    namespace, and the verb functions bound below by set_defaults are the
    same for every call. Nothing builds it at import.
    """
    p = argparse.ArgumentParser(
        prog="xmodcat",
        description="finite crossed modules, quintet squares, and "
        "transformation double categories",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--pretty", action="store_true", help="human-readable output")

    sp = sub.add_parser("validate", help="validate one fixture file")
    sp.add_argument("--kind", required=True, choices=["group", "xmod", "category", "action"])
    sp.add_argument("path", nargs="?", help="fixture path or built-in name")
    sp.add_argument("--adjoint", metavar="XMOD", help="validate the adjoint action of a crossed module")
    sp.add_argument("--trivial", metavar="XMOD", help="validate the trivial action of a crossed module")
    common(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("build", help="build the transformation double category")
    sp.add_argument("path", nargs="?", help="action fixture path")
    sp.add_argument("--adjoint", metavar="XMOD", help="build from the adjoint action")
    sp.add_argument("--trivial", metavar="XMOD", help="build from the trivial action")
    sp.add_argument("-o", "--outdir", default=".", help="output directory")
    sp.add_argument("--h2cat", action="store_true", help="also write the horizontal 2-category")
    sp.add_argument("--v2cat", action="store_true", help="also write the vertical 2-category")
    sp.add_argument("--dot", action="store_true", help="also write groupoid DOT graphs")
    common(sp)
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("eval", help="evaluate a grid file to one square")
    sp.add_argument("grid", help="grid file (.json or grid text)")
    sp.add_argument(
        "--check-interchange",
        action="store_true",
        help="also evaluate column-first and compare",
    )
    common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("verify", help="run all law suites against an action")
    sp.add_argument("path", nargs="?", help="action fixture path")
    sp.add_argument("--adjoint", metavar="XMOD", help="verify the adjoint action")
    sp.add_argument("--trivial", metavar="XMOD", help="verify the trivial action")
    sp.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="distinct instances checked per oversized law")
    sp.add_argument("--seed", type=int, default=0, help="seed for sampled laws")
    sp.add_argument("--exhaustive", action="store_true", help="never sample, enumerate everything")
    sp.add_argument(
        "--max-exhaustive",
        type=int,
        default=DEFAULT_MAX_EXHAUSTIVE,
        help="instance-space cutoff between enumeration and sampling",
    )
    sp.add_argument("--suite", action="append", help="run only this suite (repeatable)")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("export", help="re-emit a fixture as canonical JSON")
    sp.add_argument("--kind", required=True, choices=["group", "xmod", "category", "action", "grid"])
    sp.add_argument("path", nargs="?", help="fixture path or built-in name")
    sp.add_argument("--adjoint", metavar="XMOD", help="export the adjoint action of a crossed module")
    sp.add_argument("--trivial", metavar="XMOD", help="export the trivial action of a crossed module")
    sp.add_argument("--dsl", action="store_true", help="emit grid text instead of JSON (grids only)")
    sp.add_argument("-o", "--output", help="write to a file instead of stdout")
    common(sp)
    sp.set_defaults(fn=cmd_export)

    sp = sub.add_parser("catalog", help="list built-in groups and crossed modules")
    common(sp)
    sp.set_defaults(fn=cmd_catalog)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = _Out(args.pretty)
    try:
        return args.fn(args, out)
    except (XmodcatError, OSError) as exc:
        # unusable input, or data that does not satisfy its own laws
        out.error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
