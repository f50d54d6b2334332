"""Transformation double categories of strict 2-group actions.

Given an action on a category C, a square

            f
       x -------> y
       |          |
 (gamma,x)   (bnd(chi)*gamma, y)
       v          v
  gamma|>x ---> bnd(chi)*gamma |> y
        (gamma,chi) |> f

is the triple (gamma, chi, f): top edge f, bottom edge the acted morphism,
vertical edges given by object translation. Horizontal pasting composes the
top edges, vertical pasting multiplies the pairs in the semidirect product.

Read vertically, the same cells form two action groupoids, C0//G and
C1//(G x| H): the transpose of the double category. TransDoubleCat builds
them on the index schemes of its vertical morphisms and squares, so that
reading holds by construction and no law re-checks it.

Every law and construction here reads translations, components and
composites from the action's tables (StrictAction.tables), and builds none.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, groupby
from operator import itemgetter

from .action import StrictAction, validate_strict_action
from .errors import InvalidAction, MixedStructures, NotAdjacent
from .fincat import FiniteCategory
from .report import DEFAULT_CAP, DEFAULT_MAX_EXHAUSTIVE, DEFAULT_SAMPLES, Law, Report, product_law, ragged, run_laws
from .xmod import semidirect_group


class TransDoubleCat:
    """All four cell kinds of the double category, computed on demand.

    objects:    objects of C
    horizontal: morphisms of C
    vertical:   pairs (gamma, x), index gamma * n_objects + x
    squares:    triples (gamma, chi, f), index pair_index(gamma,chi) * n_mor + f

    Its transpose is a pair of action groupoids on the same indices:
    vertical morphism i is morphism i of obj_groupoid (C0//G), square i is
    morphism i of mor_groupoid (C1//(G x| H)), and vertical pasting and
    vertical inverses are composition and inverse there. Both are built
    once, on first use, and shared by the nested inclusions.
    """

    def __init__(self, act: StrictAction):
        self.act = act
        self.xm = act.xm
        self.category = act.category

    @cached_property
    def obj_groupoid(self) -> FiniteGroupoid:
        """C0//G: the objects of C under the 1-morphism translations."""
        return transformation_groupoid(self.xm.g, self.n_objects, self.act.act_obj)

    @cached_property
    def mor_groupoid(self) -> FiniteGroupoid:
        """C1//(G x| H): the morphisms of C under the semidirect pair group.
        semidirect_group checks that the pair table is a group's, by the
        action laws or else by the table, so one that is not raises here."""
        return transformation_groupoid(semidirect_group(self.xm), self.n_horizontal, self.act.act_mor)

    @property
    def n_objects(self) -> int:
        return self.category.n_objects

    @property
    def n_horizontal(self) -> int:
        return self.category.n_morphisms

    @property
    def n_vertical(self) -> int:
        return self.xm.g.order * self.category.n_objects

    @property
    def n_squares(self) -> int:
        return self.xm.npairs * self.category.n_morphisms

    def vertical_index(self, gamma: int, x: int) -> int:
        return gamma * self.category.n_objects + x

    def vertical_of(self, i: int) -> tuple[int, int]:
        return divmod(i, self.category.n_objects)

    def square_index(self, gamma: int, chi: int, f: int) -> int:
        return self.xm.pair_index(gamma, chi) * self.category.n_morphisms + f

    def square_of(self, i: int) -> tuple[int, int, int]:
        p, f = divmod(i, self.category.n_morphisms)
        return (*self.xm.pair_of(p), f)

    def squares(self):
        for i in range(self.n_squares):
            yield TDSquare(self.act, *self.square_of(i))

    def __repr__(self) -> str:
        return (
            f"TransDoubleCat({self.n_objects} objects, {self.n_horizontal} horizontal, "
            f"{self.n_vertical} vertical, {self.n_squares} squares)"
        )


def build_transformation_double(act: StrictAction, validate: bool = True) -> TransDoubleCat:
    if validate:
        rep = validate_strict_action(act)
        if not rep.ok:
            raise InvalidAction(f"action fails its laws: {rep.violations[0]}")
    return TransDoubleCat(act)


@dataclass(frozen=True, eq=False)
class TDSquare:
    act: StrictAction
    gamma: int
    chi: int
    f: int

    def top(self) -> int:
        return self.f

    def bottom(self) -> int:
        return self.act.on_mor_pair(self.gamma, self.chi, self.f)

    def left(self) -> tuple[int, int]:
        return self.gamma, self.act.category.src[self.f]

    def right(self) -> tuple[int, int]:
        return self.act.xm.pair_target((self.gamma, self.chi)), self.act.category.tgt[self.f]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TDSquare)
            and self.gamma == other.gamma
            and self.chi == other.chi
            and self.f == other.f
            and (self.act is other.act or self.act == other.act)
        )

    def __repr__(self) -> str:
        return f"TDSquare(gamma={self.gamma}, chi={self.chi}, f={self.f})"


def compose_squares(s1: TDSquare, s2: TDSquare, axis: str) -> TDSquare:
    """Paste two squares.

    axis="h": s1 is the left square, s2 the right one; s1's right edge must
    equal s2's left edge. Result: (gamma1, chi2 * chi1, s2.f after s1.f).

    axis="v": s1 extends s2 downward (s1 is applied after s2), so s1's top
    edge must be s2's bottom edge (gamma3,chi2) |> f. Result carries the
    semidirect product pair (gamma1*gamma3, chi1 * (gamma1 |> chi2)) over
    s2's top edge.
    """
    if not (s1.act is s2.act or s1.act == s2.act):
        raise MixedStructures("squares from different actions")
    act = s1.act
    xm, c = act.xm, act.category
    if axis in ("h", "horizontal"):
        if s1.right() != s2.left():
            raise NotAdjacent(f"right edge {s1.right()} != left edge {s2.left()}")
        return TDSquare(act, *xm.pair_stack((s1.gamma, s1.chi), s2.chi), c.comp[(s2.f, s1.f)])
    if axis in ("v", "vertical"):
        if s1.f != s2.bottom():
            raise NotAdjacent(
                f"top edge {s1.f} != acted bottom edge {s2.bottom()}"
            )
        return TDSquare(act, *xm.pair_mul((s1.gamma, s1.chi), (s2.gamma, s2.chi)), s2.f)
    raise ValueError(f"unknown axis {axis!r}")


# --- verification ----------------------------------------------------------

def double_laws(d: TransDoubleCat) -> list[Law]:
    """The vertical pasting unit and associativity, boundary bookkeeping of
    both pastings, the 2x2 interchange law, and equality of the six
    equivalent composites filling a vertically stacked pair of squares.

    Horizontal pasting multiplies labels in H and composes tops in C, so its
    unit and associativity laws are those of H's table and C's composition,
    which hold as H is a group and C a category (see fincat)."""
    xm, c, t = d.xm, d.category, d.act.tables
    g, src, tgt, n_h, npairs = xm.g, c.src, c.tgt, xm.h.order, xm.npairs
    act_m, act_o, natc, by_g, ct, after = t.act_m, t.act_o, t.natc, t.by_g, t.ct, t.after
    pairs, mors, hs, unit_p = range(npairs), c.morphisms(), range(n_h), xm.pair_unit
    # the pair arithmetic on pair indices: pt[p1][p2] is the product p1 * p2,
    # stacks[p][c] is the label c stacked on p, pair_tgt[p] is p's target in G
    pt, stacks, pair_tgt = xm.pair_products, xm.pair_stacks, xm.pair_targets

    def v_unit(insts, fail) -> None:
        for p, f in insts:
            w = (p // n_h, p % n_h, f)
            # unit above: s pastes under the unit square at f only if the
            # unit pair fixes f, and the pair product must return p
            if act_m[unit_p][f] != f or pt[p][unit_p] != p:
                fail(w, "unit above")
            # unit below: the unit square at s's bottom edge pastes under s
            if pt[unit_p][p] != p:
                fail(w, "unit below")

    # a row (p1, f1, p2, f2): square s1 and a square s2 to its right, p1
    # slowest, then f1, then the label of p2, then f2 out of f1's target
    def rows_of(p1):
        first_p2 = pair_tgt[p1] * n_h
        for f1 in mors:
            for c2 in hs:
                p2 = first_p2 + c2
                for f2 in after[f1]:
                    yield p1, f1, p2, f2

    def rows():
        return chain.from_iterable(map(rows_of, pairs))

    row_block, row_locate = ragged(n_h * len(after[f1]) for f1 in mors)  # rows of one p1

    def row_at(i):
        p1, i = divmod(i, row_block)
        f1, i = row_locate(i)
        c2, k = divmod(i, len(after[f1]))
        return p1, f1, pair_tgt[p1] * n_h + c2, after[f1][k]

    def h_boundary(insts, fail) -> None:
        for p1, f1, p2, f2 in insts:
            top = ct[f2][f1]  # the composite of the tops
            if top < 0:
                fail((p1, f1, p2, f2), "tops do not compose")
                continue
            p = stacks[p1][p2 % n_h]
            # bottoms that do not compose give -1, which no morphism equals
            if act_m[p][top] != ct[act_m[p2][f2]][act_m[p1][f1]]:
                fail((p1, f1, p2, f2))

    def v_boundary(insts, fail) -> None:
        for p2, f2, p1 in insts:
            pv = pt[p1][p2]
            if (
                pair_tgt[pv] != g.table[pair_tgt[p1]][pair_tgt[p2]]
                or act_m[pv][f2] != act_m[p1][act_m[p2][f2]]
            ):
                fail((p1, p2, f2))

    # associativity, vertical: s3 on top, then s2, then s1
    def v_assoc(insts, fail) -> None:
        for p1, p2, p3, f3 in insts:
            f2 = act_m[p3][f3]
            p23 = pt[p2][p3]
            if pt[pt[p1][p2]][p3] != pt[p1][p23] or act_m[p2][f2] != act_m[p23][f3]:
                fail((p1, p2, p3, f3))

    # interchange on 2x2 blocks:  A B   rows-then-columns equals
    #                             C D   columns-then-rows
    # each row (pa, fa, pb, fb) followed by every pair pc and label of pd
    def grids():
        return ((*row, pc, cd) for row in rows() for pc in pairs for cd in hs)

    def grid_at(i):
        row, i = divmod(i, npairs * n_h)
        return (*row_at(row), *divmod(i, n_h))

    # a row pastes by stacking the right label on the left pair; both
    # composites have the top row's top edge, so only their pairs can differ
    def interchange(insts, fail) -> None:
        for pa, fa, pb, fb, pc, cd in insts:
            w = (pa, fa, pb % n_h, fb, pc, cd)
            top, bottom = ct[fb][fa], ct[act_m[pb][fb]][act_m[pa][fa]]  # the rows' tops
            if top < 0 or bottom < 0:
                fail(w, "rows not composable")
                continue
            p_top = stacks[pa][pb % n_h]
            if act_m[p_top][top] != bottom:
                fail(w, "rows not stackable")
                continue
            pd = pair_tgt[pc] * n_h + cd
            if pt[stacks[pc][cd]][p_top] != stacks[pt[pc][pa]][pt[pd][pb] % n_h]:
                fail(w)

    # six equivalent composites filling a stacked pair of squares; the
    # instances come grouped by pair (g1, c1, g2, c2), f varying fastest
    def six_composites(insts, fail) -> None:
        for (g1, c1, g2, c2), group in groupby(insts, itemgetter(0, 1, 2, 3)):
            p1, p2 = g1 * n_h + c1, g2 * n_h + c2
            b1, b2 = pair_tgt[p1], pair_tgt[p2]  # bnd(c1) * g1, bnd(c2) * g2
            to_exp = act_m[pt[p2][p1]]
            w2, wb2 = by_g[g2], by_g[b2]  # g2 |> -, bnd(c2)g2 |> -
            to_21, to_2b1 = by_g[g.table[g2][g1]], by_g[g.table[g2][b1]]
            to_b21, to_b2b1 = by_g[g.table[b2][g1]], by_g[g.table[b2][b1]]
            nat1, nat2 = natc[p1], natc[p2]  # components of p1 and of p2
            o_1, o_b1 = act_o[g1], act_o[b1]
            for _, _, _, _, f in group:
                x, y = src[f], tgt[f]
                exp = to_exp[f]
                w2y, w2x = w2[nat1[y]], w2[nat1[x]]
                wb2y, wb2x = wb2[nat1[y]], wb2[nat1[x]]
                f_21, f_b2b1 = to_21[f], to_b2b1[f]
                n2_yb1, n2_x1 = nat2[o_b1[y]], nat2[o_1[x]]
                composites = (
                    ct[n2_yb1][ct[w2y][f_21]],
                    ct[wb2y][ct[nat2[o_1[y]]][f_21]],
                    ct[n2_yb1][ct[to_2b1[f]][w2x]],
                    ct[f_b2b1][ct[nat2[o_b1[x]]][w2x]],
                    ct[wb2y][ct[to_b21[f]][n2_x1]],
                    ct[f_b2b1][ct[wb2x][n2_x1]],
                )
                if composites != (exp, exp, exp, exp, exp, exp):
                    shown = tuple(None if v < 0 else v for v in composites)
                    fail((g2, c2, g1, c1, f), f"composites {shown} expected {exp}")

    # The proofs (see report.Law), sufficient and not necessary, from
    # xm.lawful and the conditions 1-5 of action.ActionTables; lawful comes
    # first in each, as it is cached and cheap. When xm.lawful, by its
    # docstring: (L1) the target of p1 p2 is b1 b2, for p1, p2 with targets
    # b1, b2; (L2) (k, 1) (j, 1) = (k j, 1); (L3) the pair product is
    # associative. C's table is typed, complete and associative (C is a
    # category, see fincat), so a chain whose neighbours compose has one
    # composite however grouped; each step below turns a composite that
    # exists (act_m has no -1) into one that exists. (g1, h1) (g2, h2) =
    # (g1 g2, h1 (g1 |> h2)); the label c stacks on (g, h) as (g, c h).
    #
    # h-boundary, from 1, 2 and 3 (the bifunctor lemma): at a row
    # (p1, f1, p2, f2), f1: x -> y and f2: y -> z compose by 2, and with
    # p2 = (b1, c) and p = stack(p1, c), whose source is g1,
    #   p|>(f2.f1) = n_p(z).W(g1)(f2).W(g1)(f1)          by 1 at p, then 2
    #              = n_p2(z).n_p1(z).W(g1)(f2).W(g1)(f1)  by 3
    #              = n_p2(z).W(b1)(f2).W(b1)(f1).n_p1(x)  by 1 at (p1, f2), (p1, f1)
    #              = (p2|>f2).(p1|>f1)                    by 1 at p2 and p1.
    #
    # v-boundary, from xm.lawful and 4: clause 1 is L1. Clause 2,
    # (p q)|> = p|> o q|>, holds at every generator q of xm.pair_generators
    # by 4, and if at d for every p, then at q = d s for every generator s,
    # by L3 and 4:
    #   (p q)|> = ((p d) s)|> = (p d)|> o s|> = p|> o d|> o s|> = p|> o q|>,
    # so at every pair, by induction on the positive words in the
    # generators, which reach every pair.
    #
    # v-assoc, from xm.lawful and 4: clause 2 is v-boundary's at (p2, p3),
    # and clause 1, (p1 p2) p3 = p1 (p2 p3), is L3.
    #
    # interchange, from xm.lawful and h-boundary's proof: "rows not
    # composable" and "rows not stackable" at a row (pa, fa, pb, fb) fail
    # h-boundary's equation at it. Write pa = (ga, ha), hb for pb's label,
    # pc = (gc, hc) and pd = (bnd(hc) gc, cd). The two sides of the pair
    # equation have G part gc ga, and H parts
    #   stack(pc, cd) (ga, hb ha):      cd hc (gc |> hb) (gc |> ha)
    #   stack(pc pa, label of pd pb):   cd ((bnd(hc) gc) |> hb) hc (gc |> ha)
    # by respects-product; they agree by composition and peiffer at
    # (hc, gc |> hb).
    #
    # six-composites, from xm.lawful, 1, 2, 4 and 5: at (p2, p1, f), f: x -> y,
    # p = p2 p1 has source g2 g1, and b1, b2, b are the targets of p1, p2, p.
    # The composites, each of which must be exp = p|>f, are
    #   c1 = n_p2(b1|>y).(W(g2)(n_p1(y)).W(g2 g1)(f))
    #   c2 = W(b2)(n_p1(y)).(n_p2(g1|>y).W(g2 g1)(f))
    #   c3 = n_p2(b1|>y).(W(g2 b1)(f).W(g2)(n_p1(x)))
    #   c4 = W(b2 b1)(f).(n_p2(b1|>x).W(g2)(n_p1(x)))
    #   c5 = W(b2)(n_p1(y)).(W(b2 g1)(f).n_p2(g1|>x))
    #   c6 = W(b2 b1)(f).(W(b2)(n_p1(x)).n_p2(g1|>x))
    # (a) 1 at p: p|>f = W(b)(f).n_p(x) = n_p(y).W(g2 g1)(f).
    # (b) W(k)(n_p1(y)).W(k g1)(f) = W(k b1)(f).W(k)(n_p1(x)) for every k,
    #     as W(k) o W(j) = W(k j) by clause 2 and L2, so by 2, W(k) takes the
    #     two sides of 1 at (p1, f) to these.
    # (c) n_p(x) = p2|>n_p1(x) = n_p2(b1|>x).W(g2)(n_p1(x)) = W(b2)(n_p1(x)).
    #     n_p2(g1|>x), by clause 2, then 1 at (p2, n_p1(x)): g1|>x -> b1|>x (5).
    # (d) b = b2 b1 by L1.
    # Regrouping, c1 = n_p(y).W(g2 g1)(f) = exp by (c) and (a), and c3 = c1
    # by (b) at g2; c2 = exp the same way; c6 = W(b)(f).n_p(x) = exp by (c),
    # (d) and (a), and c4 = c6 by (c); c5 = c6 by (b) at b2.
    return [
        product_law("v-unit", v_unit, pairs, mors),
        Law(
            "h-boundary", npairs * row_block, row_at, h_boundary, rows,
            proved=lambda: t.split and t.functorial and t.stacking,
        ),
        replace(
            product_law("v-boundary", v_boundary, pairs, mors, pairs),
            proved=lambda: xm.lawful and t.multiplicative,
        ),
        replace(
            product_law("v-assoc", v_assoc, pairs, pairs, pairs, mors),
            proved=lambda: xm.lawful and t.multiplicative,
        ),
        Law(
            "interchange", npairs * row_block * npairs * n_h, grid_at, interchange, grids,
            proved=lambda: xm.lawful and t.split and t.functorial and t.stacking,
        ),
        replace(
            product_law("six-composites", six_composites, g.elements(), hs, g.elements(), hs, mors),
            proved=lambda: xm.lawful and t.split and t.functorial and t.multiplicative and t.components_typed,
        ),
    ]


def verify_double_category(
    d: TransDoubleCat,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
) -> Report:
    """Check every law of double_laws(d), each enumerated when its size is at
    most max_exhaustive and otherwise on `samples` distinct instances."""
    return run_laws(Report(), "double", double_laws(d), samples, seed, max_exhaustive)


# --- transformation groupoids -----------------------------------------------

class FiniteGroupoid(FiniteCategory):
    """A finite category with a chosen inverse for every morphism. An action
    groupoid's comp is an ActionComposition, computed from the group and
    action tables on each lookup."""

    def __init__(self, n_objects, src, tgt, identity, comp, inverse):
        super().__init__(n_objects, src, tgt, identity, comp)
        self.inverse = tuple(inverse)


class ActionComposition(Mapping):
    """The composition of an action groupoid, computed from the group table
    and the action table instead of stored: (g2*n + q) after (g1*n + p) is
    (g2 g1)*n + p when g1 moves p to q, and undefined otherwise. Keys run
    over g1, then p, then g2, the last fastest."""

    def __init__(self, group, n_points: int, table):
        self.group_table = group.table
        self.n = n_points
        self.table = table
        self.n_morphisms = group.order * n_points

    def get(self, key, default=None):
        m2, m1 = key
        size = self.n_morphisms
        if 0 <= m1 < size and 0 <= m2 < size:
            n = self.n
            g1, p = divmod(m1, n)
            g2, q = divmod(m2, n)
            if self.table[g1][p] == q:
                return self.group_table[g2][g1] * n + p
        return default

    def __getitem__(self, key) -> int:
        r = self.get(key)
        if r is None:
            raise KeyError(key)
        return r

    def __iter__(self):
        n, gs = self.n, range(len(self.group_table))
        for g1 in gs:
            row = self.table[g1]
            for p in range(n):
                for g2 in gs:
                    yield g2 * n + row[p], g1 * n + p

    def __len__(self) -> int:
        return len(self.group_table) * self.n_morphisms


def transformation_groupoid(group, n_points: int, table) -> FiniteGroupoid:
    """The action groupoid of a group acting on points by a lookup table.

    Morphism g*n_points + p runs from p to table[g][p]; composition
    multiplies the group labels and is computed from the two tables on each
    lookup (see ActionComposition), so nothing of size |G|^2 * n is stored.
    """
    n = n_points
    gs = group.elements()
    src = [p for _ in gs for p in range(n)]
    tgt = [table[gm][p] for gm in gs for p in range(n)]
    identity = [group.identity * n + p for p in range(n)]
    inverse = [group.inverse[gm] * n + table[gm][p] for gm in gs for p in range(n)]
    comp = ActionComposition(group, n, table)
    return FiniteGroupoid(n, src, tgt, identity, comp, inverse)


def connected_components(gpd: FiniteCategory) -> list[list[int]]:
    """Objects grouped by zig-zag connectivity, each group sorted."""
    parent = list(range(gpd.n_objects))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in gpd.morphisms():
        a, b = find(gpd.src[f]), find(gpd.tgt[f])
        if a != b:
            parent[a] = b
    groups: dict[int, list[int]] = {}
    for x in range(gpd.n_objects):
        groups.setdefault(find(x), []).append(x)
    return sorted((sorted(v) for v in groups.values()), key=lambda c: c[0])


# --- nested inclusions -----------------------------------------------------

@dataclass
class NestedInclusions:
    """C0//G inside C1//G inside C1//(G x| H), with fullness bookkeeping.

    The first inclusion sends (gamma, x) to (gamma, id_x), the second sends
    (gamma, f) to ((gamma, 1), f). Only the first one's typing and
    composition depend on the action; the rest of both, and fullness of the
    first, hold by construction. The second is full exactly when H is
    trivial or C has no morphism.
    """

    objects_over_g: FiniteGroupoid       # action on objects by G
    morphisms_over_g: FiniteGroupoid     # action on morphisms by G alone
    morphisms_over_pairs: FiniteGroupoid # action on morphisms by G x| H
    first_obj_map: tuple[int, ...]
    first_mor_map: tuple[int, ...]
    second_mor_map: tuple[int, ...]
    second_full: bool
    second_nonfull_witnesses: list[tuple[int, int]]


def nested_inclusions(d: TransDoubleCat) -> NestedInclusions:
    xm, c, n_mor, gs = d.xm, d.category, d.category.n_morphisms, d.xm.g.elements()
    gpd0, gpd2 = d.obj_groupoid, d.mor_groupoid
    gpd1 = transformation_groupoid(xm.g, n_mor, d.act.tables.by_g)
    first_mor = tuple(gamma * n_mor + c.identity[x] for gamma in gs for x in c.objects())
    second_mor = tuple(xm.pair_index(gamma, xm.h.identity) * n_mor + f for gamma in gs for f in range(n_mor))
    second_image = set(second_mor)
    nonfull = [divmod(m, n_mor) for m in gpd2.morphisms() if m not in second_image]
    return NestedInclusions(
        gpd0, gpd1, gpd2,
        tuple(c.identity), first_mor, second_mor,
        not nonfull, nonfull[:DEFAULT_CAP],
    )


def nested_laws(inc: NestedInclusions) -> list[Law]:
    """Typing and composition of the first inclusion, the two laws of the
    nested inclusions that an action can break (see NestedInclusions)."""
    gpd0, gpd1 = inc.objects_over_g, inc.morphisms_over_g
    first_obj, first_mor = inc.first_obj_map, inc.first_mor_map

    def first_typing(insts, fail) -> None:
        for (i,) in insts:
            m = first_mor[i]
            if (
                gpd1.src[m] != first_obj[gpd0.src[i]]
                or gpd1.tgt[m] != first_obj[gpd0.tgt[i]]
            ):
                fail((i,))

    def first_composition(insts, fail) -> None:
        for ((g2, g1),) in insts:
            if gpd1.comp.get((first_mor[g2], first_mor[g1])) != first_mor[gpd0.comp[(g2, g1)]]:
                fail((g2, g1))

    return [
        product_law("first-typing", first_typing, gpd0.morphisms()),
        product_law("first-composition", first_composition, tuple(gpd0.comp)),
    ]


# --- degenerate-square 2-categories ---------------------------------------

@dataclass
class H2Cat:
    """2-cells between parallel horizontal morphisms.

    A label chi in ker(bnd) rewrites f into f after the (1, chi) component
    at src(f); labels do not depend on f, and stacking multiplies them in
    ker(bnd) (a central subgroup of H).
    """

    kernel: tuple[int, ...]
    cells: dict[int, tuple[tuple[int, int], ...]]  # f -> ((chi, target f'), ...)


def horizontal_2category(d: TransDoubleCat) -> H2Cat:
    xm, c, t = d.xm, d.category, d.act.tables
    nats = [(chi, t.natc[xm.pair_index(xm.g.identity, chi)]) for chi in xm.boundary_kernel]  # of (1, chi)
    cells: dict[int, tuple[tuple[int, int], ...]] = {}
    for f, x in enumerate(c.src):
        for _, nat in nats:
            if t.ct[f][nat[x]] < 0:
                raise KeyError((f, nat[x]))  # as c.comp[(f, nat[x])] would
        cells[f] = tuple((chi, t.ct[f][nat[x]]) for chi, nat in nats)
    return H2Cat(xm.boundary_kernel, cells)


@dataclass
class V2Cat:
    """2-cells between parallel vertical morphisms (gamma, x) -> (gamma', x).

    A label chi with bnd(chi)*gamma = gamma' qualifies exactly when the
    (gamma, chi) component at x is the identity of gamma |> x.
    """

    cells: dict[tuple[int, int], tuple[tuple[int, int], ...]]  # (gamma,x) -> ((chi, gamma'), ...)


def vertical_2category(d: TransDoubleCat) -> V2Cat:
    xm, c, natc = d.xm, d.category, d.act.tables.natc
    cells: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for gamma in xm.g.elements():
        for x in c.objects():
            target_id = c.identity[d.act.act_obj[gamma][x]]
            cells[(gamma, x)] = tuple(
                (chi, xm.pair_target((gamma, chi)))
                for chi in xm.h.elements() if natc[xm.pair_index(gamma, chi)][x] == target_id
            )
    return V2Cat(cells)


# --- exports ---------------------------------------------------------------

def double_to_obj(d: TransDoubleCat) -> dict:
    """Plain-JSON description of all four cell kinds with their boundaries."""
    act = d.act
    c = d.category
    xm = d.xm
    return {
        "objects": d.n_objects,
        "horizontal": [
            {"src": c.src[f], "tgt": c.tgt[f]} for f in c.morphisms()
        ],
        "vertical": [
            {"gamma": gamma, "src": x, "tgt": act.act_obj[gamma][x]}
            for gamma in xm.g.elements()
            for x in c.objects()
        ],
        "squares": [
            {
                "gamma": gamma,
                "chi": chi,
                "top": f,
                "bottom": act.on_mor_pair(gamma, chi, f),
                "left": list(TDSquare(act, gamma, chi, f).left()),
                "right": list(TDSquare(act, gamma, chi, f).right()),
            }
            for gamma, chi in xm.pairs()
            for f in c.morphisms()
        ],
    }


def groupoid_to_dot(gpd: FiniteGroupoid, name: str, label_of=None) -> str:
    """DOT digraph with one cluster per connected component.

    Identity morphisms are omitted; every other morphism becomes an edge
    labelled by label_of(index).
    """
    if label_of is None:
        label_of = str
    lines = [f"digraph {name} {{"]
    for k, comp_objs in enumerate(connected_components(gpd)):
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f'    label="component {k}";')
        for x in comp_objs:
            lines.append(f'    n{x} [label="{x}"];')
        lines.append("  }")
    for m in gpd.morphisms():
        if gpd.identity[gpd.src[m]] == m:
            continue
        lines.append(
            f'  n{gpd.src[m]} -> n{gpd.tgt[m]} [label="{label_of(m)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
