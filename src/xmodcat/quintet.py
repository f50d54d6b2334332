"""Squares over a crossed module and their two pasting directions.

A square carries four G-edges and an H-face:

        top
    +--------+
  left      right        boundary law:
    +--------+           bnd(face) = bottom * right * top^-1 * left^-1
       bottom

Same-row squares paste with compose_h(a, b) when a.right == b.left; stacked
squares paste with compose_v(upper, lower) when upper.bottom == lower.top.
Both directions have strict inverses and satisfy the interchange law, so a
rectangular grid of adjacent squares has one well-defined value; see
evaluate_grid.

The arithmetic lives in one integer kernel, SquareKernel(xm), which reads
the crossed module's g, h, action and boundary tables and works on plain
(left, top, right, bottom, face) tuples. It holds the only copy of the forced
bottom edge, the two pastings and the two inverses. Every square it pastes or
inverts is re-checked against the boundary law by table lookups; on a
mismatch it calls make_square, which raises the BoundaryViolation the checked
layer would. It does not check adjacency: its callers do, wherever adjacency
is not true by construction. Making one costs a few attribute reads, so a
law loop makes one per crossed module and a checked call one per call.

Quintet, make_square, square_from_edges, compose_h, compose_v and invert are
the checked layer on top: they reject squares over different crossed modules
and non-adjacent pastes, and return Quintets. A QuintetGrid checks its shape,
crossed module and adjacency once, when it is built, so evaluate_grid folds
its cells on the kernel with no check of its own. The verification suite's
law loops run on the kernel; its embed-compose law and the five-square-strip
oracle go through the checked layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import product

from .catgroup import Mor2G
from .errors import BoundaryViolation, MixedStructures, NotAdjacent
from .groups import is_index
from .xmod import CrossedModule

Square = tuple  # (left, top, right, bottom, face)


@dataclass(frozen=True)
class Quintet:
    xm: CrossedModule
    left: int
    top: int
    right: int
    bottom: int
    face: int

    def edges(self) -> tuple[int, int, int, int]:
        return self.left, self.top, self.right, self.bottom

    def as_tuple(self) -> Square:
        return self.left, self.top, self.right, self.bottom, self.face


def make_square(
    xm: CrossedModule, left: int, top: int, right: int, bottom: int, face: int
) -> Quintet:
    """Checked constructor enforcing the boundary law."""
    for e in (left, top, right, bottom):
        if not is_index(e, xm.g.order):
            raise BoundaryViolation(f"edge {e!r} out of range", (left, top, right, bottom, face))
    if not is_index(face, xm.h.order):
        raise BoundaryViolation(f"face {face!r} out of range", (left, top, right, bottom, face))
    g = xm.g
    word = g.prod(bottom, right, g.inverse[top], g.inverse[left])
    if xm.bnd(face) != word:
        raise BoundaryViolation(
            f"bnd(face)={xm.bnd(face)} but bottom*right*top^-1*left^-1={word}",
            (left, top, right, bottom, face),
        )
    return Quintet(xm, left, top, right, bottom, face)


# --- the integer kernel -----------------------------------------------------


class SquareKernel:
    """Square arithmetic on plain (left, top, right, bottom, face) tuples over
    one crossed module, read straight from its g, h, action and boundary
    tables. hcomp(a, b) needs a.right == b.left and vcomp(upper, lower)
    needs upper.bottom == lower.top; neither checks it."""

    __slots__ = ("xm", "gt", "gi", "ht", "hi", "act", "bnd")

    def __init__(self, xm: CrossedModule):
        self.xm = xm
        self.gt, self.gi, self.ht, self.hi = xm.g.table, xm.g.inverse, xm.h.table, xm.h.inverse
        self.act, self.bnd = xm.action.table, xm.boundary.map

    def checked(self, sq: Square) -> Square:
        """sq, once it satisfies the boundary law; else make_square raises."""
        gt, gi = self.gt, self.gi
        left, top, right, bottom, face = sq
        if self.bnd[face] != gt[gt[gt[bottom][right]][gi[top]]][gi[left]]:
            make_square(self.xm, *sq)  # raises the checked layer's BoundaryViolation
        return sq

    def square(self, left: int, top: int, right: int, face: int) -> Square:
        """The square with these edges and face: bottom = bnd(face) * left * top * right^-1."""
        gt = self.gt
        return left, top, right, gt[gt[gt[self.bnd[face]][left]][top]][self.gi[right]], face

    def hcomp(self, a: Square, b: Square) -> Square:
        """b pasted right of a; face a.face * ((a.left * a.top * a.right^-1) |> b.face)."""
        gt = self.gt
        left, top, right, bottom, face = a
        w = gt[gt[left][top]][self.gi[right]]
        return self.checked(
            (left, gt[top][b[1]], b[2], gt[bottom][b[3]], self.ht[face][self.act[w][b[4]]])
        )

    def vcomp(self, upper: Square, lower: Square) -> Square:
        """lower pasted under upper; face lower.face * (lower.left |> upper.face)."""
        gt = self.gt
        left, top, right, bottom, face = lower
        return self.checked((
            gt[left][upper[0]], upper[1], gt[right][upper[2]], bottom,
            self.ht[face][self.act[left][upper[4]]],
        ))

    def hinv(self, sq: Square) -> Square:
        """The inverse of sq under hcomp."""
        left, top, right, bottom, face = sq
        w = self.gi[bottom]
        return self.checked((right, self.gi[top], left, w, self.act[w][self.hi[face]]))

    def vinv(self, sq: Square) -> Square:
        """The inverse of sq under vcomp."""
        left, top, right, bottom, face = sq
        w = self.gi[left]
        return self.checked((w, bottom, self.gi[right], top, self.act[w][self.hi[face]]))

    def hface_alt(self, a: Square, b: Square) -> int:
        """The face of hcomp(a, b) by the other formula, (a.bottom |> b.face) * a.face."""
        return self.ht[self.act[a[3]][b[4]]][a[4]]


# --- the checked layer ------------------------------------------------------


def square_from_edges(
    xm: CrossedModule, left: int, top: int, right: int, face: int
) -> Quintet:
    """The unique square with the given left/top/right edges and face.

    The bottom edge is forced: bottom = bnd(face) * left * top * right^-1.
    """
    return Quintet(xm, *SquareKernel(xm).square(left, top, right, face))


def _same_xm(xa: CrossedModule, xb: CrossedModule) -> CrossedModule:
    if xa is not xb and xa != xb:
        raise MixedStructures("squares over different crossed modules")
    return xa


def compose_h(a: Quintet, b: Quintet) -> Quintet:
    """Paste b to the right of a; requires a.right == b.left."""
    xm = _same_xm(a.xm, b.xm)
    if a.right != b.left:
        raise NotAdjacent(f"a.right={a.right} but b.left={b.left}")
    return Quintet(xm, *SquareKernel(xm).hcomp(a.as_tuple(), b.as_tuple()))


def compose_v(upper: Quintet, lower: Quintet) -> Quintet:
    """Paste lower underneath upper; requires upper.bottom == lower.top."""
    xm = _same_xm(upper.xm, lower.xm)
    if upper.bottom != lower.top:
        raise NotAdjacent(f"upper.bottom={upper.bottom} but lower.top={lower.top}")
    return Quintet(xm, *SquareKernel(xm).vcomp(upper.as_tuple(), lower.as_tuple()))


def invert(sq: Quintet, axis: str) -> Quintet:
    """Inverse square along "horizontal" or "vertical" (aliases "h"/"v")."""
    k = SquareKernel(sq.xm)
    if axis in ("h", "horizontal"):
        return Quintet(sq.xm, *k.hinv(sq.as_tuple()))
    if axis in ("v", "vertical"):
        return Quintet(sq.xm, *k.vinv(sq.as_tuple()))
    raise ValueError(f"unknown axis {axis!r}")


def embed_morphism(m: Mor2G) -> Quintet:
    """A 2-group pair (g, eta) as the square with identity top/bottom edges.

    Under this identification compose_h realises categorical-group
    composition: adjacency left-to-right is exactly src/tgt matching.
    """
    xm = m.xm
    e = xm.g.identity
    return make_square(xm, m.g, e, xm.pair_target((m.g, m.eta)), e, m.eta)


@dataclass(frozen=True)
class QuintetGrid:
    """A rectangular grid of squares over one crossed module, whose
    neighbours agree on their shared edges. It checks that when it is built:
    an empty or ragged grid, or a shared edge that differs, raises
    NotAdjacent, and a square over another crossed module raises
    MixedStructures. Rows may be given as any iterables; they are kept as
    tuples."""

    cells: tuple[tuple[Quintet, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.cells)
        object.__setattr__(self, "cells", rows)
        if not rows or not rows[0]:
            raise NotAdjacent("grid must have at least one row and column")
        xm = rows[0][0].xm
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise NotAdjacent(f"row {i} has {len(row)} cells, expected {len(rows[0])}")
            for j, sq in enumerate(row):
                if sq.xm is not xm and sq.xm != xm:
                    raise MixedStructures(f"cell ({i},{j}) uses a different crossed module")
                if j > 0 and row[j - 1].right != sq.left:
                    raise NotAdjacent(
                        f"cells ({i},{j - 1})|({i},{j}): right edge "
                        f"{row[j - 1].right} != left edge {sq.left}"
                    )
                if i > 0 and rows[i - 1][j].bottom != sq.top:
                    raise NotAdjacent(
                        f"cells ({i - 1},{j})/({i},{j}): bottom edge "
                        f"{rows[i - 1][j].bottom} != top edge {sq.top}"
                    )

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def n_cols(self) -> int:
        return len(self.cells[0])

    @property
    def xm(self) -> CrossedModule:
        return self.cells[0][0].xm


def evaluate_grid(grid: QuintetGrid, order: str = "rows") -> Quintet:
    """Collapse a grid to one square.

    order="rows" folds each row left-to-right, then the row results top to
    bottom; order="columns" folds each column first. The interchange law
    makes both orders agree, which the verification suite exercises. The
    grid checked its shape, crossed module and adjacency when it was built,
    so the fold pastes kernel tuples with no check of its own; the kernel
    still re-checks every paste against the boundary law.
    """
    k = SquareKernel(grid.xm)
    cells = [[sq.as_tuple() for sq in row] for row in grid.cells]
    if order == "rows":
        out = reduce(k.vcomp, [reduce(k.hcomp, row) for row in cells])
    elif order == "columns":
        out = reduce(k.hcomp, [reduce(k.vcomp, col) for col in zip(*cells)])
    else:
        raise ValueError(f"unknown evaluation order {order!r}")
    return Quintet(grid.xm, *out)


def enumerate_squares(xm: CrossedModule) -> list[Quintet]:
    """All squares: left/top/right edges and face are free, bottom is forced."""
    square = SquareKernel(xm).square
    gs = xm.g.elements()
    return [Quintet(xm, *square(*free)) for free in product(gs, gs, gs, xm.h.elements())]


def random_grid(
    xm: CrossedModule, n_rows: int, n_cols: int, rng: random.Random
) -> QuintetGrid:
    """A uniformly random adjacency-valid grid (free edges drawn uniformly)."""
    square = SquareKernel(xm).square
    n_g, n_h = xm.g.order, xm.h.order
    cells: list[list[Square]] = []
    for i in range(n_rows):
        row: list[Square] = []
        for j in range(n_cols):
            left = row[j - 1][2] if j > 0 else rng.randrange(n_g)
            top = cells[i - 1][j][3] if i > 0 else rng.randrange(n_g)
            row.append(square(left, top, rng.randrange(n_g), rng.randrange(n_h)))
        cells.append(row)
    return QuintetGrid([[Quintet(xm, *sq) for sq in row] for row in cells])
