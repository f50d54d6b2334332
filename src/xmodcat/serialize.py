"""JSON readers/writers for groups, crossed modules, categories and actions.

File formats (all indices 0-based):

group:    {"order": n, "identity": i, "table": [[...]], "names": [...]? }
xmod:     {"G": group|path, "H": group|path, "boundary": [...], "action": [[...]]}
category: {"objects": n, "morphisms": [{"src": s, "tgt": t}, ...],
           "identity": [...], "comp": [[g, f, g_after_f], ...]}
action:   {"xmod": xmod|path, "category": category|path,
           "actObj": [[...]], "actMor": [[[gamma, chi], [f], result], ...]}

A string where a structure is expected is a path relative to the referring
file. Loaders run the checked constructors, so lawless tables raise their
usual witness-carrying errors; shape problems raise FixtureFormatError.
"""

from __future__ import annotations

import json
from pathlib import Path

from .action import StrictAction, make_strict_action
from .errors import XmodcatError
from .fincat import FiniteCategory, category_from_tables
from .groups import FiniteGroup, group_from_table, is_index, make_action, make_homomorphism
from .xmod import CrossedModule, make_crossed_module


class FixtureFormatError(XmodcatError):
    """An input file cannot be read or decoded, or a JSON fixture is not
    JSON, is missing keys or has the wrong shape."""


def read_json(path) -> object:
    """The JSON value in a file. A file that cannot be read or decoded, or
    that is not JSON or nests too deeply for the parser, raises
    FixtureFormatError."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FixtureFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FixtureFormatError(f"{path} is not valid JSON: {exc}") from exc


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise FixtureFormatError(f"{where}: missing key {key!r}")
    return obj[key]


def _need_list(obj: dict, key: str, where: str, rows: bool = False) -> list:
    """obj[key], when it is a list (of lists, when rows is true)."""
    value = _need(obj, key, where)
    if not isinstance(value, list) or rows and not all(isinstance(r, list) for r in value):
        raise FixtureFormatError(f"{where}: {key} must be a list{' of lists' if rows else ''}")
    return value


def _resolve(value, base: Path | None, loader, where: str):
    if isinstance(value, str):
        path = Path(value)
        if base is not None and not path.is_absolute():
            path = base / path
        return loader(read_json(path), base=path.parent, where=str(path))
    return loader(value, base=base, where=where)


# --- groups -----------------------------------------------------------------

def group_from_obj(obj, base: Path | None = None, where: str = "group") -> FiniteGroup:
    table = _need_list(obj, "table", where, rows=True)
    order = _need(obj, "order", where)
    identity = _need(obj, "identity", where)
    if len(table) != order:
        raise FixtureFormatError(f"{where}: table size disagrees with order")
    names = None if obj.get("names") is None else _need_list(obj, "names", where)
    return group_from_table(table, identity=identity, names=names)


def load_group(path) -> FiniteGroup:
    return group_from_obj(read_json(path), base=Path(path).parent, where=str(path))


def group_to_obj(g: FiniteGroup) -> dict:
    obj = {
        "order": g.order,
        "identity": g.identity,
        "table": [list(row) for row in g.table],
    }
    if g.names is not None:
        obj["names"] = list(g.names)
    return obj


# --- crossed modules --------------------------------------------------------

def xmod_from_obj(obj, base: Path | None = None, where: str = "xmod") -> CrossedModule:
    g = _resolve(_need(obj, "G", where), base, group_from_obj, f"{where}.G")
    h = _resolve(_need(obj, "H", where), base, group_from_obj, f"{where}.H")
    boundary = make_homomorphism(h, g, _need_list(obj, "boundary", where))
    action = make_action(g, h, _need_list(obj, "action", where, rows=True))
    return make_crossed_module(g, h, boundary, action)


def load_xmod(path) -> CrossedModule:
    return xmod_from_obj(read_json(path), base=Path(path).parent, where=str(path))


def xmod_to_obj(xm: CrossedModule, g_ref: str | None = None, h_ref: str | None = None) -> dict:
    return {
        "G": g_ref if g_ref is not None else group_to_obj(xm.g),
        "H": h_ref if h_ref is not None else group_to_obj(xm.h),
        "boundary": list(xm.boundary.map),
        "action": [list(row) for row in xm.action.table],
    }


# --- categories --------------------------------------------------------------

def category_from_obj(obj, base: Path | None = None, where: str = "category") -> FiniteCategory:
    n = _need(obj, "objects", where)
    mors = [
        (_need(m, "src", f"{where}.morphisms[{i}]"), _need(m, "tgt", f"{where}.morphisms[{i}]"))
        for i, m in enumerate(_need_list(obj, "morphisms", where))
    ]
    identity = _need_list(obj, "identity", where)
    comp = _need_list(obj, "comp", where)
    for entry in comp:
        if not isinstance(entry, list) or len(entry) != 3:
            raise FixtureFormatError(f"{where}: comp entries must be [g, f, result]")
    return category_from_tables(n, mors, identity, [tuple(e) for e in comp])


def load_category(path) -> FiniteCategory:
    return category_from_obj(read_json(path), base=Path(path).parent, where=str(path))


def category_to_obj(c: FiniteCategory) -> dict:
    return {
        "objects": c.n_objects,
        "morphisms": [{"src": c.src[f], "tgt": c.tgt[f]} for f in c.morphisms()],
        "identity": list(c.identity),
        "comp": sorted([g, f, r] for (g, f), r in c.comp.items()),
    }


# --- actions ------------------------------------------------------------------

def action_from_obj(obj, base: Path | None = None, where: str = "action") -> StrictAction:
    xm = _resolve(_need(obj, "xmod", where), base, xmod_from_obj, f"{where}.xmod")
    cat = _resolve(_need(obj, "category", where), base, category_from_obj, f"{where}.category")
    act_obj = _need_list(obj, "actObj", where, rows=True)
    triples = _need_list(obj, "actMor", where)
    table: list[list[int]] = [[-1] * cat.n_morphisms for _ in range(xm.npairs)]
    for entry in triples:
        try:
            pair, f, result = entry
            gamma, chi = pair
            if isinstance(f, list):
                (f,) = f
        except (TypeError, ValueError) as exc:
            raise FixtureFormatError(
                f"{where}: actMor entries must be [[gamma, chi], [f], result]"
            ) from exc
        if not (is_index(gamma, xm.g.order) and is_index(chi, xm.h.order)):
            raise FixtureFormatError(f"{where}: pair {(gamma, chi)} out of range")
        if not (is_index(f, cat.n_morphisms) and is_index(result, cat.n_morphisms)):
            raise FixtureFormatError(f"{where}: morphism index {(f, result)} out of range")
        row = table[xm.pair_index(gamma, chi)]
        if row[f] not in (-1, result):
            raise FixtureFormatError(
                f"{where}: actMor maps pair {(gamma, chi)} on morphism {f} to both {row[f]} and {result}"
            )
        row[f] = result
    for p, row in enumerate(table):
        for f, v in enumerate(row):
            if v < 0:
                raise FixtureFormatError(
                    f"{where}: actMor is missing pair {xm.pair_of(p)} on morphism {f}"
                )
    return make_strict_action(xm, cat, act_obj, table)


def load_action(path) -> StrictAction:
    return action_from_obj(read_json(path), base=Path(path).parent, where=str(path))


def action_to_obj(a: StrictAction) -> dict:
    xm = a.xm
    return {
        "xmod": xmod_to_obj(xm),
        "category": category_to_obj(a.category),
        "actObj": [list(row) for row in a.act_obj],
        "actMor": [
            [list(xm.pair_of(p)), [f], a.act_mor[p][f]]
            for p in range(xm.npairs)
            for f in range(a.category.n_morphisms)
        ],
    }
