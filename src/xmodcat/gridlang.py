"""Line-oriented text format for quintet grids, plus a JSON twin.

    # comment            -- anywhere; blank lines ignored
    use "xm1.json"       -- crossed module, path relative to the file
    elem a = G 1         -- optional aliases, scoped to G or H
    elem w = H "(12)"    -- quoted group element names from the JSON work too
    sq A = (a, 0, a, 0 ; 1)      -- (left, top, right, bottom ; face)
    grid:                -- rectangular block of declared square names
    A B
    B A

Parse errors carry 1-based .line/.col: DslSyntaxError for malformed lines,
UnknownNameError for unresolvable element or square references,
GridBoundaryViolation when a declared square breaks the boundary law, and
GridAdjacencyViolation when neighbouring cells disagree on a shared edge.

A well-formed sq line of canonical indices between use and grid: is read by
one match of _SQ_LINE, and a well-formed grid row of known names with no
punctuation, quote or comment by one split into _ATOMS (_read_row). Every
other line, and every syntax, name or adjacency error, goes through the
token walk (_tokenize, _LineParser, _walk_sq, _walk_row), which reports it.
The one-match path tests the boundary law inline on the kernel's tables, as
SquareKernel.checked does; a square that breaks it goes to the check that
the token walk's squares go through (_declare), which reports it. Rows are
checked as they are read, so the grid is built from them with no second
check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from .errors import BoundaryViolation, XmodcatError
from .groups import FiniteGroup
from .quintet import Quintet, QuintetGrid, Square, SquareKernel, _quintet, make_square
from .serialize import FixtureFormatError, load_xmod, read_json, xmod_from_obj, xmod_to_obj


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


# one token per match: a quoted name, a punctuation mark or an atom; a
# comment or an unmatched quote stops the scan. Spaces and tabs are the only
# characters no alternative matches, so finditer steps over them.
_ATOM = r'[^ \t"#()=,;:]+'
_ATOMS = re.compile(_ATOM)
_PLAIN = re.compile(r'[^"#()=,;:]*')  # a line that holds atoms alone
_TOKEN = re.compile(rf'"(?P<string>[^"]*)"|(?P<punct>[()=,;:])|(?P<atom>{_ATOM})|(?P<stop>[#"])')
# a whole sq line the token walk would accept: groups name, left, top, right,
# bottom, face; a reference keeps its quotes
_REF = rf'[ \t]*("[^"]*"|{_ATOM})[ \t]*'
_SQ_LINE = re.compile(
    rf"[ \t]*sq[ \t]+({_ATOM})[ \t]*=[ \t]*\({_REF},{_REF},{_REF},{_REF};{_REF}\)[ \t]*(?:#.*)?"
)

_Token = tuple  # (kind, text, col, end)
_LEFT, _TOP, _RIGHT, _BOTTOM = map(itemgetter, range(4))  # a square's edges


def _tokenize(line: str, lineno: int) -> list[_Token]:
    """The tokens of one line. kind is "atom", "string" or the punctuation
    mark itself; a string's text leaves out its quotes. col and end are the
    1-based columns of the token's first and last characters."""
    toks = []
    for m in _TOKEN.finditer(line):
        kind = m.lastgroup
        text = m[kind]
        if kind == "stop":
            if text == "#":
                break
            raise DslSyntaxError("unterminated string", lineno, m.start() + 1)
        toks.append((text if kind == "punct" else kind, text, m.start() + 1, m.end()))
    return toks


class _LineParser:
    def __init__(self, toks: list[_Token], lineno: int):
        self.toks = toks
        self.pos = 0
        self.lineno = lineno

    def peek(self) -> _Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, kind: str, what: str) -> _Token:
        if self.pos == len(self.toks):
            # one past the last token; blank lines never reach a parser
            raise DslSyntaxError(f"expected {what}", self.lineno, self.toks[-1][3] + 1)
        t = self.toks[self.pos]
        if t[0] != kind:
            raise DslSyntaxError(f"expected {what}, found {t[1]!r}", self.lineno, t[2])
        self.pos += 1
        return t

    def take_ref(self, what: str) -> _Token:
        """An element reference: a bare atom or a quoted name."""
        t = self.peek()
        if t is not None and t[0] == "string":
            self.pos += 1
            return t
        return self.take("atom", what)

    def done(self) -> None:
        t = self.peek()
        if t is not None:
            raise DslSyntaxError(f"trailing input {t[1]!r}", self.lineno, t[2])


def _reads_as_index(text: str) -> bool:
    """Digits after at most one "-": int() reads it."""
    return text.removeprefix("-").isdecimal()


def _resolve_elem(
    tok: _Token, lineno: int, group: FiniteGroup, aliases: dict[str, tuple[str, int]], scope: str
) -> int:
    """An element reference: bare index, alias, or (possibly quoted) name.

    Quoting is the only way to reference names containing punctuation, such
    as the cycle names of symmetric groups.
    """
    kind, text, col, _ = tok
    if kind == "atom":
        if _reads_as_index(text):
            v = int(text)
            if not 0 <= v < group.order:
                raise UnknownNameError(
                    f"index {v} out of range for a group of order {group.order}", lineno, col
                )
            return v
        if text in aliases:
            sc, v = aliases[text]
            if sc != scope:
                raise UnknownNameError(
                    f"alias {text!r} names a {sc} element, {scope} expected", lineno, col
                )
            return v
    if group.names is not None and text in group.names:
        return group.names.index(text)
    raise UnknownNameError(f"unknown {scope} element {text!r}", lineno, col)


def _declare(
    k: SquareKernel, squares: dict[str, Quintet], name: str, sq: Square, lineno: int, face_col: int
) -> None:
    """squares[name] = the Quintet of sq, once sq passes the boundary check."""
    try:
        squares[name] = _quintet(k.xm, k.checked(sq))
    except BoundaryViolation as exc:
        raise GridBoundaryViolation(f"square {name!r}: {exc}", lineno, face_col) from exc


def _walk_sq(
    lp: _LineParser, k: SquareKernel, aliases: dict[str, tuple[str, int]], squares: dict
) -> None:
    """The token walk of an sq line past its head: declares one square."""
    lineno = lp.lineno
    _, name, name_col, _ = lp.take("atom", "square name")
    if name in squares:
        raise DslSyntaxError(f"duplicate square {name!r}", lineno, name_col)
    lp.take("=", "'='")
    lp.take("(", "'('")
    edges = []
    for i in range(4):
        edges.append(_resolve_elem(lp.take_ref("edge"), lineno, k.xm.g, aliases, "G"))
        lp.take("," if i < 3 else ";", "',' or ';'")
    face_tok = lp.take_ref("face")
    face = _resolve_elem(face_tok, lineno, k.xm.h, aliases, "H")
    lp.take(")", "')'")
    lp.done()
    _declare(k, squares, name, (*edges, face), lineno, face_tok[2])


def _read_row(raw: str, squares: dict[str, Quintet], rows: list[list[Quintet]]) -> list[Quintet] | None:
    """The squares of a grid row of known names with no punctuation, quote or
    comment, whose length and shared edges fit the rows above; else None,
    and the token walk reads the row."""
    try:
        row = [squares[name] for name in _ATOMS.findall(raw)] if _PLAIN.fullmatch(raw) else None
    except KeyError:
        return None
    # equal edge lists above and below also mean equal row lengths
    if row and [*map(_RIGHT, row[:-1])] == [*map(_LEFT, row[1:])] and (
        not rows or [*map(_BOTTOM, rows[-1])] == [*map(_TOP, row)]
    ):
        return row
    return None


def _walk_row(lp: _LineParser, squares: dict[str, Quintet], rows: list[list[Quintet]]) -> list[Quintet]:
    """The token walk of a grid row: its squares, or the first error in it."""
    lineno, row = lp.lineno, []
    while lp.peek() is not None:
        _, name, col, _ = lp.take("atom", "square name")
        if name not in squares:
            raise UnknownNameError(f"unknown square {name!r}", lineno, col)
        row.append(squares[name])
    if rows and len(row) != len(rows[0]):
        raise DslSyntaxError(f"row has {len(row)} cells, expected {len(rows[0])}", lineno, lp.toks[0][2])
    for j, (sq, tok) in enumerate(zip(row, lp.toks)):  # one token a cell
        if j > 0 and row[j - 1][2] != sq[0]:
            msg = f"left edge {sq[0]} does not match neighbour's right edge {row[j - 1][2]}"
            raise GridAdjacencyViolation(msg, lineno, tok[2])
        if rows and rows[-1][j][3] != sq[1]:
            msg = f"top edge {sq[1]} does not match the edge above {rows[-1][j][3]}"
            raise GridAdjacencyViolation(msg, lineno, tok[2])
    return row


@dataclass
class GridDocument:
    grid: QuintetGrid
    xmod_ref: str | dict  # a module path, or an inline module's JSON object
    square_names: tuple[str, ...]


def parse_document(text: str, base_dir=".") -> GridDocument:
    base = Path(base_dir)
    k: SquareKernel | None = None  # set by the use directive
    xmod_ref: str | None = None
    aliases: dict[str, tuple[str, int]] = {}
    squares: dict[str, Quintet] = {}
    rows: list[list[Quintet]] = []
    in_grid = False
    lines = text.splitlines()

    for lineno, raw in enumerate(lines, start=1):
        if in_grid:
            row = _read_row(raw, squares, rows)
            if row is not None:
                rows.append(row)
                continue
        # one match reads a well-formed sq line of canonical indices; a
        # duplicate square, an alias, a name or any other index takes the
        # token walk, which resolves or reports it
        elif k is not None and (m := _SQ_LINE.fullmatch(raw)):
            name, left, top, right, bottom, face = m.groups()
            sq = (g_at.get(left), g_at.get(top), g_at.get(right), g_at.get(bottom), h_at.get(face))
            if None not in sq and name not in squares:
                left, top, right, bottom, face = sq
                if bnd[face] == gt[gt[gt[bottom][right]][gi[top]]][gi[left]]:  # k.checked's test
                    squares[name] = _quintet(xm, sq)
                else:
                    _declare(k, squares, name, sq, lineno, m.start(6) + 1)  # raises
                continue
        toks = _tokenize(raw, lineno)
        if not toks:
            continue
        lp = _LineParser(toks, lineno)

        if in_grid:
            rows.append(_walk_row(lp, squares, rows))
            continue

        _, head, head_col, _ = lp.take("atom", "directive")
        if head == "use":
            if k is not None:
                raise DslSyntaxError("duplicate use directive", lineno, head_col)
            _, ref, ref_col, _ = lp.take("string", "quoted path")
            lp.done()
            try:
                xm = load_xmod(base / ref)
            except FixtureFormatError as exc:
                raise DslSyntaxError(str(exc), lineno, ref_col) from exc
            k = xm.kernel
            gt, gi, bnd = k.gt, k.gi, k.bnd
            # canonical index text to index, for the edges and for the face
            g_at = {str(v): v for v in xm.g.elements()}
            h_at = {str(v): v for v in xm.h.elements()}
            xmod_ref = ref
            continue
        if k is None:
            raise DslSyntaxError(f"{head!r} before the use directive", lineno, head_col)
        if head == "elem":
            _, name, name_col, _ = lp.take("atom", "alias name")
            if _reads_as_index(name):  # a reference to it would read as the index
                raise DslSyntaxError(f"alias name {name!r} reads as an index", lineno, name_col)
            lp.take("=", "'='")
            _, scope, scope_col, _ = lp.take("atom", "G or H")
            if scope not in ("G", "H"):
                raise DslSyntaxError("scope must be G or H", lineno, scope_col)
            group = k.xm.g if scope == "G" else k.xm.h
            val = _resolve_elem(lp.take_ref("element"), lineno, group, {}, scope)
            lp.done()
            if name in aliases:
                raise DslSyntaxError(f"duplicate alias {name!r}", lineno, name_col)
            aliases[name] = (scope, val)
            continue
        if head == "sq":
            _walk_sq(lp, k, aliases, squares)
            continue
        if head == "grid":
            lp.take(":", "':'")
            lp.done()
            in_grid = True
            continue
        raise DslSyntaxError(f"unknown directive {head!r}", lineno, head_col)

    if not in_grid or not rows:
        raise DslSyntaxError("missing grid section", len(lines) + 1, 1)
    # every square is over xm, and the row readers checked the shape and
    # the shared edges
    return GridDocument(QuintetGrid._of_checked_rows(rows), xmod_ref or "", tuple(squares))


def serialize_grid(grid: QuintetGrid, xmod_ref: str) -> str:
    """Canonical text form: raw indices, squares named in first-use order."""
    # keyed by the square's tuple: a Quintet hashes its whole crossed module,
    # and the grid has one module for every cell
    cells = [[sq[:5] for sq in row] for row in grid.cells]
    names: dict[Square, str] = {}
    for row in cells:
        for sq in row:
            if sq not in names:
                names[sq] = f"s{len(names)}"
    lines = [f'use "{xmod_ref}"']
    for (left, top, right, bottom, face), name in names.items():
        lines.append(f"sq {name} = ({left}, {top}, {right}, {bottom} ; {face})")
    lines.append("grid:")
    for row in cells:
        lines.append(" ".join(names[sq] for sq in row))
    return "\n".join(lines) + "\n"


# --- JSON twin ---------------------------------------------------------------

def grid_from_obj(obj, base: Path | None = None, where: str = "grid") -> QuintetGrid:
    xm_val = obj.get("xmod") if isinstance(obj, dict) else None
    if xm_val is None:
        raise FixtureFormatError(f"{where}: missing key 'xmod'")
    if isinstance(xm_val, str):
        xm = load_xmod(xm_val if base is None else base / xm_val)
    else:
        xm = xmod_from_obj(xm_val, base=base)
    cells = obj.get("cells")
    if not isinstance(cells, list) or not cells:
        raise FixtureFormatError(f"{where}: missing or empty 'cells'")
    built = []
    for i, row in enumerate(cells):
        if not isinstance(row, list):
            raise FixtureFormatError(f"{where}: row {i} is not a list of cells")
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
    return QuintetGrid(built)


def grid_to_obj(grid: QuintetGrid, xmod_ref: str | dict) -> dict:
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


def load_document(path) -> GridDocument:
    """The grid in a file and its module reference. A .json path holds the
    JSON twin, whose reference is its "xmod" string, or for an inline module
    that module's JSON object, written out in full so that it loads from any
    directory; any other path holds grid text."""
    path = Path(path)
    if path.suffix != ".json":
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise FixtureFormatError(f"cannot read {path}: {exc}") from exc
        return parse_document(text, base_dir=path.parent)
    obj = read_json(path)
    grid = grid_from_obj(obj, base=path.parent, where=str(path))
    ref = obj["xmod"]
    return GridDocument(grid, ref if isinstance(ref, str) else xmod_to_obj(grid.xm), ())


def load_grid(path) -> QuintetGrid:
    return load_document(path).grid
