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
the crossed module's g, h, action and boundary tables and works on
(left, top, right, bottom, face) tuples. It holds the only copy of the forced
bottom edge, the two pastings, the two inverses and the boundary check. Over
a lawful module (CrossedModule.lawful) a paste or inverse of lawful squares
is lawful, as the kernel's docstring derives, so it returns the result as
computed; over any other module it re-checks every square it pastes or
inverts by table lookups and raises the BoundaryViolation of the checked
layer. It does not check adjacency: its callers do, wherever adjacency is
not true by construction. Each crossed module builds one,
CrossedModule.kernel, on first use.

Quintet, square_from_edges, compose_h, compose_v and invert are the checked
layer on top: Quintet(xm, ...), also named make_square, rejects out-of-range
squares and squares that break the boundary law, the pastes reject squares
over different crossed modules and non-adjacent pastes, and all return
Quintets; _quintet wraps a kernel output, or a square checked as `checked`
checks it, with no check of its own. A Quintet is the tuple (left, top,
right, bottom, face, xm), so the kernel reads it as it is. A QuintetGrid
checks its shape, crossed module and adjacency once, when it is built, so
evaluate_grid folds its cells on the kernel with no check of its own. The
verification suite's law loops, the five-square-strip oracle among them,
run on the kernel; its embed-compose law goes through the checked layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import itemgetter

from .catgroup import Mor2G
from .errors import BoundaryViolation, MixedStructures, NotAdjacent
from .groups import is_index
from .xmod import CrossedModule

Square = tuple  # (left, top, right, bottom, face)


class Quintet(tuple):
    """A square over xm: the tuple (left, top, right, bottom, face, xm) with
    named fields. Building one checks that its edges and face are in range
    and that it satisfies the boundary law, else raises BoundaryViolation.
    It equals only another Quintet with equal entries (xm by identity
    first), hashes as its tuple, and cannot be changed."""

    __slots__ = ()
    left, top, right, bottom, face, xm = (property(itemgetter(i)) for i in range(6))

    def __new__(cls, xm: CrossedModule, left: int, top: int, right: int, bottom: int, face: int):
        sq, n_g = (left, top, right, bottom, face), xm.g.order
        for e in (left, top, right, bottom):
            if not is_index(e, n_g):
                raise BoundaryViolation(f"edge {e!r} out of range", sq)
        if not is_index(face, xm.h.order):
            raise BoundaryViolation(f"face {face!r} out of range", sq)
        return tuple.__new__(cls, xm.kernel.checked(sq) + (xm,))

    def __eq__(self, other) -> bool:
        return isinstance(other, Quintet) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __getnewargs__(self):  # copy and pickle call __new__ with these
        return self[5], *self[:5]

    def __repr__(self) -> str:
        return "Quintet(xm={5!r}, left={0!r}, top={1!r}, right={2!r}, bottom={3!r}, face={4!r})".format(*self)

    def edges(self) -> tuple[int, int, int, int]:
        return self[:4]

    def as_tuple(self) -> Square:
        return self[:5]


def _quintet(xm: CrossedModule, sq: Square) -> Quintet:
    """The Quintet of sq over xm, with no checks: sq is a kernel output, or
    has passed the test of SquareKernel.checked."""
    return tuple.__new__(Quintet, sq + (xm,))


make_square = Quintet  # the checked constructor, called as a function


# --- the integer kernel -----------------------------------------------------


class SquareKernel:
    """Square arithmetic on plain (left, top, right, bottom, face) tuples over
    one crossed module, read straight from its g, h, action and boundary
    tables; an operand may also be a Quintet, read as its tuple. hcomp(a, b)
    needs a.right == b.left and vcomp(upper, lower) needs upper.bottom ==
    lower.top; neither checks it. Every operand must satisfy the boundary
    law bnd(face) = bottom * right * top^-1 * left^-1, as every square of
    `square` and every Quintet does.

    The kernel reads xm.lawful once, when it is built. When it holds, the
    boundary is a homomorphism and equivariant, and hcomp, vcomp, hinv and
    vinv return their result with no check, since it satisfies the boundary
    law too. Write w_s = s.left * s.top * s.right^-1, so s.bottom =
    bnd(s.face) * w_s:
    - hcomp(a, b), with b.left = a.right, has the boundary word a.bottom *
      b.bottom * b.right * b.top^-1 * a.top^-1 * a.left^-1 = bnd(a.face) *
      w_a * bnd(b.face) * w_a^-1 (as b.bottom * b.right * b.top^-1 =
      bnd(b.face) * a.right), bnd of its face a.face * (w_a |> b.face) by
      homomorphism and equivariance;
    - vcomp(u, l), with l.top = u.bottom, has the word bnd(l.face) * l.left
      * bnd(u.face) * l.left^-1 the same way, bnd of l.face * (l.left |>
      u.face);
    - hinv(s) has the word s.bottom^-1 * s.left * s.top * s.right^-1 =
      s.bottom^-1 * bnd(s.face)^-1 * s.bottom, bnd of its face
      s.bottom^-1 |> s.face^-1;
    - vinv(s) has the word s.top * s.right^-1 * s.bottom^-1 * s.left =
      s.left^-1 * bnd(s.face)^-1 * s.left, bnd of its face s.left^-1 |>
      s.face^-1.
    Over a module that is not lawful the kernel becomes a _CheckingKernel,
    whose pastes and inverses pass their result through `checked`."""

    __slots__ = ("xm", "gt", "gi", "ht", "hi", "act", "bnd")

    def __init__(self, xm: CrossedModule):
        self.xm = xm
        self.gt, self.gi, self.ht, self.hi = xm.g.table, xm.g.inverse, xm.h.table, xm.h.inverse
        self.act, self.bnd = xm.action.table, xm.boundary.map
        if not xm.lawful:
            self.__class__ = _CheckingKernel

    def checked(self, sq: Square) -> Square:
        """sq, an in-range tuple, once it satisfies the boundary law; else
        BoundaryViolation."""
        gt, gi = self.gt, self.gi
        left, top, right, bottom, face = sq
        word = gt[gt[gt[bottom][right]][gi[top]]][gi[left]]
        if self.bnd[face] != word:
            raise BoundaryViolation(
                f"bnd(face)={self.bnd[face]} but bottom*right*top^-1*left^-1={word}", sq
            )
        return sq

    def square(self, left: int, top: int, right: int, face: int) -> Square:
        """The square with these edges and face: bottom = bnd(face) * left * top * right^-1."""
        gt = self.gt
        return left, top, right, gt[gt[gt[self.bnd[face]][left]][top]][self.gi[right]], face

    def hcomp(self, a: Square, b: Square) -> Square:
        """b pasted right of a; face a.face * ((a.left * a.top * a.right^-1) |> b.face)."""
        gt, left, top = self.gt, a[0], a[1]
        w = gt[gt[left][top]][self.gi[a[2]]]
        return left, gt[top][b[1]], b[2], gt[a[3]][b[3]], self.ht[a[4]][self.act[w][b[4]]]

    def vcomp(self, upper: Square, lower: Square) -> Square:
        """lower pasted under upper; face lower.face * (lower.left |> upper.face)."""
        gt, left = self.gt, lower[0]
        return (
            gt[left][upper[0]], upper[1], gt[lower[2]][upper[2]], lower[3],
            self.ht[lower[4]][self.act[left][upper[4]]],
        )

    def hinv(self, sq: Square) -> Square:
        """The inverse of sq under hcomp."""
        w = self.gi[sq[3]]
        return sq[2], self.gi[sq[1]], sq[0], w, self.act[w][self.hi[sq[4]]]

    def vinv(self, sq: Square) -> Square:
        """The inverse of sq under vcomp."""
        w = self.gi[sq[0]]
        return w, sq[3], self.gi[sq[2]], sq[1], self.act[w][self.hi[sq[4]]]

    def hface_alt(self, a: Square, b: Square) -> int:
        """The face of hcomp(a, b) by the other formula, (a.bottom |> b.face) * a.face."""
        return self.ht[self.act[a[3]][b[4]]][a[4]]


class _CheckingKernel(SquareKernel):
    """The kernel of a module that is not lawful: a paste or an inverse may
    break the boundary law there, so each result goes through `checked`."""

    __slots__ = ()

    def hcomp(self, a: Square, b: Square) -> Square:
        return self.checked(SquareKernel.hcomp(self, a, b))

    def vcomp(self, upper: Square, lower: Square) -> Square:
        return self.checked(SquareKernel.vcomp(self, upper, lower))

    def hinv(self, sq: Square) -> Square:
        return self.checked(SquareKernel.hinv(self, sq))

    def vinv(self, sq: Square) -> Square:
        return self.checked(SquareKernel.vinv(self, sq))


# --- the checked layer ------------------------------------------------------


def square_from_edges(
    xm: CrossedModule, left: int, top: int, right: int, face: int
) -> Quintet:
    """The unique square with the given left/top/right edges and face.

    The bottom edge is forced: bottom = bnd(face) * left * top * right^-1.
    """
    return _quintet(xm, xm.kernel.square(left, top, right, face))


def _same_xm(xa: CrossedModule, xb: CrossedModule) -> CrossedModule:
    if xa is not xb and xa != xb:
        raise MixedStructures("squares over different crossed modules")
    return xa


def compose_h(a: Quintet, b: Quintet) -> Quintet:
    """Paste b to the right of a; requires a.right == b.left."""
    xm = _same_xm(a.xm, b.xm)
    if a.right != b.left:
        raise NotAdjacent(f"a.right={a.right} but b.left={b.left}")
    return _quintet(xm, xm.kernel.hcomp(a, b))


def compose_v(upper: Quintet, lower: Quintet) -> Quintet:
    """Paste lower underneath upper; requires upper.bottom == lower.top."""
    xm = _same_xm(upper.xm, lower.xm)
    if upper.bottom != lower.top:
        raise NotAdjacent(f"upper.bottom={upper.bottom} but lower.top={lower.top}")
    return _quintet(xm, xm.kernel.vcomp(upper, lower))


def invert(sq: Quintet, axis: str) -> Quintet:
    """Inverse square along "horizontal" or "vertical" (aliases "h"/"v")."""
    xm = sq.xm
    if axis in ("h", "horizontal"):
        return _quintet(xm, xm.kernel.hinv(sq))
    if axis in ("v", "vertical"):
        return _quintet(xm, xm.kernel.vinv(sq))
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
            for j, sq in enumerate(row):  # (left, top, right, bottom, face, xm)
                if sq[5] is not xm and sq[5] != xm:
                    raise MixedStructures(f"cell ({i},{j}) uses a different crossed module")
                if j > 0 and row[j - 1][2] != sq[0]:
                    raise NotAdjacent(
                        f"cells ({i},{j - 1})|({i},{j}): right edge {row[j - 1][2]} != left edge {sq[0]}"
                    )
                if i > 0 and rows[i - 1][j][3] != sq[1]:
                    raise NotAdjacent(
                        f"cells ({i - 1},{j})/({i},{j}): bottom edge {rows[i - 1][j][3]} != top edge {sq[1]}"
                    )

    @classmethod
    def _of_checked_rows(cls, rows: list[list[Quintet]]) -> QuintetGrid:
        """The grid of rows whose shape, crossed module and adjacency the
        caller has checked as __post_init__ does, built without checking
        them again."""
        grid = object.__new__(cls)
        object.__setattr__(grid, "cells", tuple(map(tuple, rows)))
        return grid

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
    and each cell the boundary law, so the fold pastes kernel tuples with no
    check of its own; only over a module that is not lawful does the kernel
    re-check each paste against the boundary law (see SquareKernel).
    """
    xm = grid.xm
    k, cells = xm.kernel, grid.cells
    if order == "rows":
        out = reduce(k.vcomp, [reduce(k.hcomp, row) for row in cells])
    elif order == "columns":
        out = reduce(k.hcomp, [reduce(k.vcomp, col) for col in zip(*cells)])
    else:
        raise ValueError(f"unknown evaluation order {order!r}")
    return _quintet(xm, out[:5])  # a 1x1 grid folds to its Quintet


def enumerate_squares(xm: CrossedModule) -> list[Quintet]:
    """All squares: left/top/right edges and face are free, bottom is forced."""
    square = xm.kernel.square
    gs = xm.g.elements()
    return [_quintet(xm, square(*free)) for free in product(gs, gs, gs, xm.h.elements())]


def random_grid(
    xm: CrossedModule, n_rows: int, n_cols: int, rng: random.Random
) -> QuintetGrid:
    """A uniformly random adjacency-valid grid (free edges drawn uniformly)."""
    square = xm.kernel.square
    n_g, n_h = xm.g.order, xm.h.order
    cells: list[list[Quintet]] = []
    for i in range(n_rows):
        row: list[Quintet] = []
        for j in range(n_cols):
            left = row[j - 1][2] if j > 0 else rng.randrange(n_g)
            top = cells[i - 1][j][3] if i > 0 else rng.randrange(n_g)
            row.append(_quintet(xm, square(left, top, rng.randrange(n_g), rng.randrange(n_h))))
        cells.append(row)
    return QuintetGrid(cells)
