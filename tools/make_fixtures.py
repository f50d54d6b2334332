#!/usr/bin/env python3
"""Regenerate every file under fixtures/ deterministically.

Run from the repository root:  python3 tools/make_fixtures.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from xmodcat import (  # noqa: E402
    adjoint_action,
    build_transformation_double,
    fixture_catalog,
    group_to_obj,
    make_strict_action,
    small_group_catalog,
    terminal_category,
    trivial_strict_action,
    verify_double_category,
    xm_peiffer_broken,
)
from xmodcat.gridlang import grid_to_obj, parse_document, serialize_grid  # noqa: E402
from xmodcat.quintet import random_grid  # noqa: E402
from xmodcat.serialize import action_to_obj, write_json, xmod_to_obj  # noqa: E402

FIX = ROOT / "fixtures"


def groups() -> None:
    out = FIX / "groups"
    out.mkdir(parents=True, exist_ok=True)
    for name, g in small_group_catalog():
        write_json(group_to_obj(g), out / f"{name.lower()}.json")


def xmods() -> None:
    FIX.mkdir(parents=True, exist_ok=True)
    by_name = dict(fixture_catalog())
    # xm1 exercises by-path group references; the rest are inline
    write_json(
        xmod_to_obj(by_name["xm1"], g_ref="groups/z2.json", h_ref="groups/z3.json"),
        FIX / "xm1.json",
    )
    for name in ("xm2", "xm3", "xm4"):
        write_json(xmod_to_obj(by_name[name]), FIX / f"{name}.json")
    write_json(xmod_to_obj(xm_peiffer_broken()), FIX / "bad_peiffer.json")


def categories() -> None:
    out = FIX / "categories"
    out.mkdir(parents=True, exist_ok=True)
    from xmodcat.serialize import category_to_obj

    write_json(category_to_obj(terminal_category()), out / "terminal.json")


def actions() -> None:
    out = FIX / "actions"
    out.mkdir(parents=True, exist_ok=True)
    by_name = dict(fixture_catalog())
    write_json(
        action_to_obj(trivial_strict_action(by_name["xm1"], terminal_category())),
        out / "trivial.json",
    )
    write_json(action_to_obj(adjoint_action(by_name["xm1"])), out / "adjoint_xm1.json")


def mutated_action() -> None:
    """Adjoint XM1 with the first single-entry corruption of the morphism
    table that breaks the interchange law."""
    by_name = dict(fixture_catalog())
    xm = by_name["xm1"]
    base = adjoint_action(xm)
    n_mor = base.category.n_morphisms
    for p in range(xm.npairs):
        for f in range(n_mor):
            for v in range(n_mor):
                if v == base.act_mor[p][f]:
                    continue
                table = [list(row) for row in base.act_mor]
                table[p][f] = v
                act = make_strict_action(xm, base.category, base.act_obj, table)
                d = build_transformation_double(act, validate=False)
                rep = verify_double_category(d)
                if rep.count("interchange"):
                    write_json(
                        action_to_obj(act), FIX / "actions" / "mutated.json"
                    )
                    print(
                        f"  mutated.json: act_mor[{p}][{f}] = {v} "
                        f"({rep.count('interchange')} interchange violations)"
                    )
                    return
    raise SystemExit("no single-entry mutation broke interchange")


GRID_XM1_2X2 = """\
# two half-twist squares tiled checkerboard-style; the whole grid
# collapses to the identity square on the identity edge
use "../xm1.json"
elem t = G 1
sq A = (t, 0, t, 0 ; 1)
sq B = (t, 0, t, 0 ; 2)
grid:
A B
B A
"""

GRID_IDENTITY_1X1 = """\
use "../xm1.json"
elem e = G 0
elem one = H 0
sq I = (e, e, e, e ; one)
grid:
I
"""

BAD_GRIDS = {
    # DslSyntaxError: '=' missing after the square name
    "syntax.xmg": 'use "../../xm1.json"\nsq A (1, 0, 1, 0 ; 1)\ngrid:\nA\n',
    # UnknownNameError: q is not an element, alias, or index
    "unknown_name.xmg": 'use "../../xm1.json"\nsq A = (q, 0, 1, 0 ; 1)\ngrid:\nA\n',
    # UnknownNameError: 7 is out of range for |G| = 2
    "out_of_range.xmg": 'use "../../xm1.json"\nsq A = (7, 0, 1, 0 ; 1)\ngrid:\nA\n',
    # GridBoundaryViolation: word around the square is not bnd(face)
    "boundary.xmg": 'use "../../xm1.json"\nsq A = (0, 0, 1, 0 ; 1)\ngrid:\nA\n',
    # GridAdjacencyViolation: C.left != A.right inside the row
    "adjacency.xmg": (
        'use "../../xm1.json"\nsq A = (1, 0, 1, 0 ; 1)\nsq C = (0, 0, 0, 0 ; 0)\n'
        "grid:\nA C\n"
    ),
    # DslSyntaxError: second row is shorter than the first
    "ragged.xmg": (
        'use "../../xm1.json"\nsq A = (1, 0, 1, 0 ; 1)\ngrid:\nA A\nA\n'
    ),
    # DslSyntaxError: a square is declared before any crossed module
    "sq_before_use.xmg": 'sq A = (0, 0, 0, 0 ; 0)\nuse "../../xm1.json"\ngrid:\nA\n',
    # DslSyntaxError: the grid section never starts
    "no_grid.xmg": 'use "../../xm1.json"\nsq A = (0, 0, 0, 0 ; 0)\n',
}


def grids() -> None:
    out = FIX / "grids"
    out.mkdir(parents=True, exist_ok=True)
    (out / "identity_1x1.xmg").write_text(GRID_IDENTITY_1X1)
    (out / "xm1_2x2.xmg").write_text(GRID_XM1_2X2)

    by_name = dict(fixture_catalog())
    grid = random_grid(by_name["xm2"], 3, 2, random.Random(7))
    (out / "xm2_3x2.xmg").write_text(serialize_grid(grid, "../xm2.json"))

    doc = parse_document(GRID_XM1_2X2, base_dir=out)
    write_json(grid_to_obj(doc.grid, "../xm1.json"), out / "xm1_2x2.json")

    bad = out / "bad"
    bad.mkdir(parents=True, exist_ok=True)
    for name, text in BAD_GRIDS.items():
        (bad / name).write_text(text)


def main() -> None:
    print("writing fixtures under", FIX)
    groups()
    xmods()
    categories()
    actions()
    mutated_action()
    grids()
    print("done")


if __name__ == "__main__":
    main()
