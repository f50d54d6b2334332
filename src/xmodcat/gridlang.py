"""Line-oriented text format for quintet grids, plus a JSON twin.

    # comment            -- anywhere; blank lines ignored
    use "xm1.json"       -- crossed module, path relative to the file
    elem a = G 1         -- optional aliases, scoped to G or H
    elem w = H (12)      -- group element names from the JSON work too
    sq A = (a, 0, a, 0 ; 1)      -- (left, top, right, bottom ; face)
    grid:                -- rectangular block of declared square names
    A B
    B A

Parse errors carry 1-based .line/.col: DslSyntaxError for malformed lines,
UnknownNameError for unresolvable element or square references,
GridBoundaryViolation when a declared square breaks the boundary law, and
GridAdjacencyViolation when neighbouring cells disagree on a shared edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import BoundaryViolation, XmodcatError
from .groups import FiniteGroup
from .quintet import Quintet, QuintetGrid, make_grid, make_square
from .serialize import FixtureFormatError, read_json, xmod_from_obj
from .xmod import CrossedModule


class DslError(XmodcatError):
    def __init__(self, msg: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {msg}")


class DslSyntaxError(DslError):
    pass


class UnknownNameError(DslError):
    pass


class GridBoundaryViolation(DslError):
    pass


class GridAdjacencyViolation(DslError):
    pass


_PUNCT = "()=,;:"


@dataclass(frozen=True)
class _Tok:
    text: str
    kind: str  # "atom" | "string" | one of _PUNCT
    line: int
    col: int


def _tokenize(line: str, lineno: int) -> list[_Tok]:
    out: list[_Tok] = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch == '"':
            j = line.find('"', i + 1)
            if j < 0:
                raise DslSyntaxError("unterminated string", lineno, col)
            out.append(_Tok(line[i + 1 : j], "string", lineno, col))
            i = j + 1
            continue
        if ch in _PUNCT:
            out.append(_Tok(ch, ch, lineno, col))
            i += 1
            continue
        j = i
        while j < n and line[j] not in ' \t\r\n#"' + _PUNCT:
            j += 1
        out.append(_Tok(line[i:j], "atom", lineno, col))
        i = j
    return out


class _LineParser:
    def __init__(self, toks: list[_Tok], lineno: int):
        self.toks = toks
        self.pos = 0
        self.lineno = lineno

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, kind: str | None = None, what: str = "token") -> _Tok:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else None
            # one past the last token; a string's text leaves out its two quotes
            col = (last.col + len(last.text) + 2 * (last.kind == "string")) if last else 1
            raise DslSyntaxError(f"expected {what}", self.lineno, col)
        if kind is not None and t.kind != kind:
            raise DslSyntaxError(f"expected {what}, found {t.text!r}", t.line, t.col)
        self.pos += 1
        return t

    def take_ref(self, what: str) -> _Tok:
        """An element reference: a bare atom or a quoted name."""
        t = self.peek()
        if t is not None and t.kind == "string":
            self.pos += 1
            return t
        return self.take("atom", what)

    def done(self) -> None:
        t = self.peek()
        if t is not None:
            raise DslSyntaxError(f"trailing input {t.text!r}", t.line, t.col)


def _resolve_elem(
    tok: _Tok, group: FiniteGroup, aliases: dict[str, tuple[str, int]], scope: str
) -> int:
    """An element reference: bare index, alias, or (possibly quoted) name.

    Quoting is the only way to reference names containing punctuation, such
    as the cycle names of symmetric groups.
    """
    text = tok.text
    if tok.kind == "atom":
        if text.removeprefix("-").isdecimal():  # digits after at most one "-": int() reads it
            v = int(text)
            if not 0 <= v < group.order:
                raise UnknownNameError(
                    f"index {v} out of range for a group of order {group.order}",
                    tok.line,
                    tok.col,
                )
            return v
        if text in aliases:
            sc, v = aliases[text]
            if sc != scope:
                raise UnknownNameError(
                    f"alias {text!r} names a {sc} element, {scope} expected",
                    tok.line,
                    tok.col,
                )
            return v
    if group.names is not None and text in group.names:
        return group.names.index(text)
    raise UnknownNameError(f"unknown {scope} element {text!r}", tok.line, tok.col)


@dataclass
class GridDocument:
    grid: QuintetGrid
    xmod_ref: str
    square_names: tuple[str, ...]


def parse_document(text: str, base_dir=".") -> GridDocument:
    base = Path(base_dir)
    xm: CrossedModule | None = None
    xmod_ref: str | None = None
    aliases: dict[str, tuple[str, int]] = {}
    squares: dict[str, Quintet] = {}
    rows: list[list[tuple[Quintet, _Tok]]] = []
    in_grid = False
    lines = text.splitlines()

    for lineno, raw in enumerate(lines, start=1):
        toks = _tokenize(raw, lineno)
        if not toks:
            continue
        lp = _LineParser(toks, lineno)

        if in_grid:
            row: list[tuple[Quintet, _Tok]] = []
            while lp.peek() is not None:
                t = lp.take("atom", "square name")
                if t.text not in squares:
                    raise UnknownNameError(f"unknown square {t.text!r}", t.line, t.col)
                row.append((squares[t.text], t))
            if rows and len(row) != len(rows[0]):
                raise DslSyntaxError(
                    f"row has {len(row)} cells, expected {len(rows[0])}",
                    lineno,
                    toks[0].col,
                )
            for j, (sq, t) in enumerate(row):
                if j > 0 and row[j - 1][0].right != sq.left:
                    raise GridAdjacencyViolation(
                        f"left edge {sq.left} does not match neighbour's right "
                        f"edge {row[j - 1][0].right}",
                        t.line,
                        t.col,
                    )
                if rows and rows[-1][j][0].bottom != sq.top:
                    raise GridAdjacencyViolation(
                        f"top edge {sq.top} does not match the edge above "
                        f"{rows[-1][j][0].bottom}",
                        t.line,
                        t.col,
                    )
            rows.append(row)
            continue

        head = lp.take("atom", "directive")
        if head.text == "use":
            if xm is not None:
                raise DslSyntaxError("duplicate use directive", head.line, head.col)
            ref = lp.take("string", "quoted path")
            lp.done()
            try:
                xm = xmod_from_obj(read_json(base / ref.text), base=(base / ref.text).parent)
            except FixtureFormatError as exc:
                raise DslSyntaxError(str(exc), ref.line, ref.col) from exc
            xmod_ref = ref.text
            continue
        if xm is None:
            raise DslSyntaxError(
                f"{head.text!r} before the use directive", head.line, head.col
            )
        if head.text == "elem":
            name = lp.take("atom", "alias name")
            lp.take("=", "'='")
            scope = lp.take("atom", "G or H")
            if scope.text not in ("G", "H"):
                raise DslSyntaxError("scope must be G or H", scope.line, scope.col)
            group = xm.g if scope.text == "G" else xm.h
            val = _resolve_elem(lp.take_ref("element"), group, {}, scope.text)
            lp.done()
            if name.text in aliases:
                raise DslSyntaxError(f"duplicate alias {name.text!r}", name.line, name.col)
            aliases[name.text] = (scope.text, val)
            continue
        if head.text == "sq":
            name = lp.take("atom", "square name")
            if name.text in squares:
                raise DslSyntaxError(f"duplicate square {name.text!r}", name.line, name.col)
            lp.take("=", "'='")
            lp.take("(", "'('")
            edges = []
            for k in range(4):
                edges.append(_resolve_elem(lp.take_ref("edge"), xm.g, aliases, "G"))
                lp.take("," if k < 3 else ";", "',' or ';'")
            face_tok = lp.take_ref("face")
            face = _resolve_elem(face_tok, xm.h, aliases, "H")
            lp.take(")", "')'")
            lp.done()
            try:
                squares[name.text] = make_square(xm, *edges, face)
            except BoundaryViolation as exc:
                raise GridBoundaryViolation(
                    f"square {name.text!r}: {exc}", name.line, face_tok.col
                ) from exc
            continue
        if head.text == "grid":
            lp.take(":", "':'")
            lp.done()
            in_grid = True
            continue
        raise DslSyntaxError(f"unknown directive {head.text!r}", head.line, head.col)

    if not in_grid or not rows:
        raise DslSyntaxError("missing grid section", len(lines) + 1, 1)
    grid = make_grid([[sq for sq, _ in row] for row in rows])
    names = tuple(squares)
    return GridDocument(grid, xmod_ref or "", names)


def parse_grid(text: str, base_dir=".") -> QuintetGrid:
    return parse_document(text, base_dir).grid


def parse_grid_file(path) -> QuintetGrid:
    path = Path(path)
    return parse_grid(path.read_text(), base_dir=path.parent)


def serialize_grid(grid: QuintetGrid, xmod_ref: str) -> str:
    """Canonical text form: raw indices, squares named in first-use order."""
    names: dict[Quintet, str] = {}
    for row in grid.cells:
        for sq in row:
            if sq not in names:
                names[sq] = f"s{len(names)}"
    lines = [f'use "{xmod_ref}"']
    for sq, name in names.items():
        lines.append(
            f"sq {name} = ({sq.left}, {sq.top}, {sq.right}, {sq.bottom} ; {sq.face})"
        )
    lines.append("grid:")
    for row in grid.cells:
        lines.append(" ".join(names[sq] for sq in row))
    return "\n".join(lines) + "\n"


# --- JSON twin ---------------------------------------------------------------

def grid_from_obj(obj, base: Path | None = None, where: str = "grid") -> QuintetGrid:
    xm_val = obj.get("xmod") if isinstance(obj, dict) else None
    if xm_val is None:
        raise FixtureFormatError(f"{where}: missing key 'xmod'")
    if isinstance(xm_val, str):
        path = Path(xm_val) if base is None else base / xm_val
        xm = xmod_from_obj(read_json(path), base=path.parent)
    else:
        xm = xmod_from_obj(xm_val, base=base)
    cells = obj.get("cells")
    if not isinstance(cells, list) or not cells:
        raise FixtureFormatError(f"{where}: missing or empty 'cells'")
    built = []
    for i, row in enumerate(cells):
        out = []
        for j, cell in enumerate(row):
            try:
                out.append(
                    make_square(
                        xm, cell["l"], cell["t"], cell["r"], cell["b"], cell["e"]
                    )
                )
            except (KeyError, TypeError) as exc:
                raise FixtureFormatError(
                    f"{where}: cell ({i},{j}) needs keys l,t,r,b,e"
                ) from exc
        built.append(out)
    return make_grid(built)


def grid_to_obj(grid: QuintetGrid, xmod_ref: str) -> dict:
    return {
        "xmod": xmod_ref,
        "cells": [
            [
                {"l": sq.left, "t": sq.top, "r": sq.right, "b": sq.bottom, "e": sq.face}
                for sq in row
            ]
            for row in grid.cells
        ],
    }


def load_grid(path) -> QuintetGrid:
    """Dispatch on extension: .json for the JSON twin, anything else is DSL."""
    path = Path(path)
    if path.suffix == ".json":
        return grid_from_obj(read_json(path), base=path.parent, where=str(path))
    return parse_grid_file(path)
