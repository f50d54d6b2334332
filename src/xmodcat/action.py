"""Strict actions of the 2-group of a crossed module on a finite category.

An action is stored as two complete lookup tables:

* act_obj[gamma][x]          -- object translation by a 1-morphism
* act_mor[pair][f]           -- morphism translation by a 2-group pair,
                                indexed by pair_index(gamma, chi)

A pair (gamma, chi) sends f : x -> y to a morphism
gamma |> x  ->  bnd(chi)*gamma |> y. The validator checks the same data
against both equivalent presentations: a family of endofunctors with
natural transformations between them, and a single functorial action of
pairs on morphisms. Both are read off the two tables and the tables
derived from them once per action (StrictAction.tables), which transform
reads too; an equation the presentations share is one predicate. The
tests check the first presentation independently, on functor and
natural-transformation values built from the same tables.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from itertools import product
from operator import getitem, itemgetter

from .catgroup import underlying_category
from .errors import MalformedTable
from .fincat import FiniteCategory
from .groups import is_index
from .report import Law, Report, holds, list_law, product_law, run_laws
from .xmod import CrossedModule


class StrictAction:
    def __init__(self, xm: CrossedModule, category: FiniteCategory, act_obj, act_mor,
                 is_adjoint: bool = False):
        self.xm = xm
        self.category = category
        self.act_obj = tuple(tuple(r) for r in act_obj)
        self.act_mor = tuple(tuple(r) for r in act_mor)
        self.is_adjoint = is_adjoint

    def on_obj(self, gamma: int, x: int) -> int:
        return self.act_obj[gamma][x]

    def on_mor(self, gamma: int, f: int) -> int:
        """Translation by a 1-morphism: the pair (gamma, identity)."""
        return self.act_mor[self.xm.pair_index(gamma, self.xm.h.identity)][f]

    def on_mor_pair(self, gamma: int, chi: int, f: int) -> int:
        return self.act_mor[self.xm.pair_index(gamma, chi)][f]

    @cached_property
    def tables(self) -> ActionTables:
        """The lookup tables of the action's laws, built on first use."""
        return ActionTables(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StrictAction)
            and self.xm == other.xm
            and self.category == other.category
            and self.act_obj == other.act_obj
            and self.act_mor == other.act_mor
        )

    def __repr__(self) -> str:
        return (
            f"StrictAction(|G|={self.xm.g.order}, |H|={self.xm.h.order}, "
            f"{self.category.n_objects} objects)"
        )


def _check_row(name: str, i: int, row: tuple, n: int) -> None:
    """Raise MalformedTable unless row holds n indices below n, naming its
    length or its first bad entry: make_strict_action's check of a file."""
    if len(row) != n:
        raise MalformedTable(f"{name} row {i} has length {len(row)}")
    for x, v in enumerate(row):
        if not is_index(v, n):
            raise MalformedTable(f"{name}[{i}][{x}] = {v!r} out of range")


def make_strict_action(xm: CrossedModule, category: FiniteCategory, act_obj, act_mor) -> StrictAction:
    """Checked constructor, for tables read from a file: act_obj has a row
    of object indices per element of G and act_mor a row of morphism
    indices per pair, each as long as the category has objects or
    morphisms. The first failure raises MalformedTable; no law is checked
    here (see validate_strict_action)."""
    act_obj = tuple(tuple(r) for r in act_obj)
    act_mor = tuple(tuple(r) for r in act_mor)
    for name, rows, count, n in (
        ("act_obj", act_obj, xm.g.order, category.n_objects),
        ("act_mor", act_mor, xm.npairs, category.n_morphisms),
    ):
        if len(rows) != count:
            raise MalformedTable(f"{name} has {len(rows)} rows, expected {count}")
        for i, row in enumerate(rows):
            _check_row(name, i, row, n)
    return StrictAction(xm, category, act_obj, act_mor)


def picker(idx):
    """row -> (row[i] for i in idx) as a tuple: one itemgetter call when idx
    has two entries or more (itemgetter() raises, itemgetter(i) gives row[i])."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda row: tuple(row[i] for i in idx)


class ActionTables:
    """The lookup tables that the laws of an action read, and five
    conditions on them, each decided once, on first use; each reads the
    action, and facts of the crossed module alone are CrossedModule.lawful's.
    natc[p][x] is the component at x of pair p, by_g[g] the row of g |> -,
    after[f] the morphisms that compose after f, and ct[a][b] is a after b,
    or -1 when they do not compose; its last column (index -1) is all -1,
    so composing with a miss is again a miss. Write W(g) = by_g[g], n_p(x)
    = natc[p][x], u.v = ct[u][v], and g, b for a pair p's ends in G.
    transform.double_laws proves five laws from the conditions and
    xm.lawful, and strict_action_laws three more, which restate double laws;
    1, 2, 3 and 5 are the bulk form of the action laws whisker-agreement,
    endofunctor-composition, component-stacking and
    transformation-component-typing."""

    def __init__(self, a: StrictAction):
        c, xm, n_h = a.category, a.xm, a.xm.h.order
        self.act_m, self.act_o, self.c, self.xm = a.act_mor, a.act_obj, c, xm
        self.natc = tuple(map(picker(c.identity), a.act_mor))
        self.by_g = a.act_mor[xm.h.identity::n_h]  # the rows of the pairs (g, 1)
        self.ct = [[-1] * (c.n_morphisms + 1) for _ in c.morphisms()]
        for (f2, f1), f21 in c.comp.items():
            self.ct[f2][f1] = f21
        by_src = [[] for _ in c.objects()]
        for f, x in enumerate(c.src):
            by_src[x].append(f)
        self.after = [by_src[y] for y in c.tgt]
        self.ends = [(p, p // n_h, b) for p, b in enumerate(xm.pair_targets)]  # (p, g, b)

    @cached_property
    def split(self) -> bool:
        """1: p|>f = W(b)(f).n_p(x) = n_p(y).W(g)(f) for every p and f: x -> y."""
        row, at_src, at_tgt = self.ct.__getitem__, picker(self.c.src), picker(self.c.tgt)
        return all(
            self.act_m[p] == tuple(map(getitem, map(row, self.by_g[b]), at_src(self.natc[p])))
            == tuple(map(getitem, map(row, at_tgt(self.natc[p])), self.by_g[g]))
            for p, g, b in self.ends
        )

    @cached_property
    def functorial(self) -> bool:
        """2: every composable (f1, f2) has a composite, and W(g)(f2.f1) =
        W(g)(f2).W(g)(f1) for every g."""
        f1s = [f1 for f1, f2s in enumerate(self.after) for _ in f2s]
        f2s = [f2 for f2s in self.after for f2 in f2s]
        tops = list(map(getitem, map(self.ct.__getitem__, f2s), f1s))
        at_f1, at_f2, at_top, row = picker(f1s), picker(f2s), picker(tops), self.ct.__getitem__
        return -1 not in tops and all(
            at_top(w) == tuple(map(getitem, map(row, at_f2(w)), at_f1(w))) for w in self.by_g
        )

    @cached_property
    def stacking(self) -> bool:
        """3: n_stack(p1,c)(z) = n_p2(z).n_p1(z), where p2 = (b1, c), for
        every p1, label c and object z."""
        natc, row, n_h = self.natc, self.ct.__getitem__, self.xm.h.order
        return all(
            natc[stack[c]] == tuple(map(getitem, map(row, natc[b1 * n_h + c]), natc[p1]))
            for (p1, _, b1), stack in zip(self.ends, self.xm.pair_stacks) for c in self.xm.h.elements()
        )

    @cached_property
    def multiplicative(self) -> bool:
        """4: (p s)|> = p|> o s|> for every p and generator s of
        xm.pair_generators."""
        act_m, pt, pairs = self.act_m, self.xm.pair_products, range(self.xm.npairs)
        return all(
            act_m[pt[p][s]] == then_s(act_m[p])
            for s in self.xm.pair_generators for then_s in [picker(act_m[s])] for p in pairs
        )

    @cached_property
    def components_typed(self) -> bool:
        """5: n_p(x) runs from g|>x to b|>x, for every p and object x."""
        at_src, at_tgt, act_o = self.c.src.__getitem__, self.c.tgt.__getitem__, self.act_o
        return all(
            tuple(map(at_src, nat)) == act_o[g] and tuple(map(at_tgt, nat)) == act_o[b]
            for nat, (_, g, b) in zip(self.natc, self.ends)
        )


def strict_action_laws(a: StrictAction) -> list[Law]:
    """Both presentations of the action laws, read off the act_obj/act_mor
    tables and a.tables (see validate_strict_action)."""
    xm, c, t = a.xm, a.category, a.tables
    g, h = xm.g, xm.h
    gs, hs, objs, mors = g.elements(), h.elements(), c.objects(), c.morphisms()
    e_g, e_h = g.identity, h.identity
    src, tgt, ident = c.src, c.tgt, c.identity
    gt, ao, am, nh = g.table, a.act_obj, a.act_mor, h.order
    # every operand of ct below is an act_mor entry or a composable pair
    by_g, natc, ct, after = t.by_g, t.natc, t.ct, t.after
    # the pair arithmetic, on pair indices gamma*|H| + chi
    pt, pair_tgt, stacks = xm.pair_products, xm.pair_targets, xm.pair_stacks

    # the unit pair has identity components, so each endofunctor keeps
    # identities
    def unit_component(gamma, x) -> bool:
        return natc[gamma * nh + e_h][x] == ident[ao[gamma][x]]

    def pair_typing(gamma, chi, f) -> bool:
        p = gamma * nh + chi
        ff = am[p][f]
        return src[ff] == ao[gamma][src[f]] and tgt[ff] == ao[pair_tgt[p]][tgt[f]]

    # the two sides of (gamma, chi)'s naturality square at f: the component
    # at tgt f after gamma |> f, and bnd(chi)*gamma |> f after the component
    # at src f
    def naturality_sides(gamma, chi, f) -> tuple:
        nat = natc[gamma * nh + chi]
        return ct[nat[tgt[f]]][by_g[gamma][f]], ct[by_g[pair_tgt[gamma * nh + chi]][f]][nat[src[f]]]

    # --- presentation 1: endofunctors and natural transformations

    def endofunctor_typing(gamma, f) -> bool:
        ff = by_g[gamma][f]
        return src[ff] == ao[gamma][src[f]] and tgt[ff] == ao[gamma][tgt[f]]

    def endofunctor_composition(insts, fail) -> None:
        for gamma, (fg, ff) in insts:
            row = by_g[gamma]
            if row[ct[fg][ff]] != ct[row[fg]][row[ff]]:
                fail((gamma, fg, ff))

    # a transformation with an ill-typed component has no naturality instances
    natural_keys = [k for k in product(gs, hs) if all(pair_typing(*k, ident[x]) for x in objs)]

    def transformation_naturality(insts, fail) -> None:
        for (gamma, chi), f in insts:
            via_tgt, via_src = naturality_sides(gamma, chi, f)
            if via_tgt < 0 or via_tgt != via_src:
                fail((gamma, chi, f))

    # components stack: (bnd(c1)*g1, c2) after (g1, c1) is (g1, c2*c1)
    def component_stacking(g1, c1, c2, x) -> bool:
        p1 = g1 * nh + c1
        return ct[natc[pair_tgt[p1] * nh + c2][x]][natc[p1][x]] == natc[stacks[p1][c2]][x]

    # translating by g3, then by g1, is translating by g1*g3
    def translation_composition(g1, g3) -> bool:
        o1, m1, g13 = ao[g1], by_g[g1], gt[g1][g3]
        return tuple(o1[x] for x in ao[g3]) == ao[g13] and tuple(m1[f] for f in by_g[g3]) == by_g[g13]

    # components multiply horizontally: (g1,c1)'s component at
    # (bnd(c2)g3 |> x), after the g1-translate of (g3,c2)'s component at x,
    # is the component of the product pair at x
    def component_product(g1, c1, g3, c2, x) -> bool:
        p1, p3 = g1 * nh + c1, g3 * nh + c2
        return ct[natc[p1][ao[pair_tgt[p3]][x]]][by_g[g1][natc[p3][x]]] == natc[pt[p1][p3]][x]

    # --- presentation 2: functorial pair action

    def pair_functoriality(insts, fail) -> None:
        for g1, c1, c2, (fg, ff) in insts:
            p1 = g1 * nh + c1
            if ct[am[pair_tgt[p1] * nh + c2][fg]][am[p1][ff]] != am[stacks[p1][c2]][ct[fg][ff]]:
                fail((g1, c1, c2, fg, ff))

    def morphism_associativity(g1, c1, g3, c2, f) -> bool:
        p1, p3 = g1 * nh + c1, g3 * nh + c2
        return am[pt[p1][p3]][f] == am[p1][am[p3][f]]

    # the two presentations agree: a pair acting on f factors either side
    # of the naturality square
    def whisker_agreement(gamma, chi, f) -> bool:
        via_tgt, via_src = naturality_sides(gamma, chi, f)
        return am[gamma * nh + chi][f] == via_tgt == via_src

    # The proofs (see report.Law), from xm.lawful and the conditions of
    # ActionTables, as transform.double_laws writes them out; lawful comes
    # first where it is read, as it is cached and cheap.
    # pair-functoriality, from 1, 2 and 3: at (g1, c1, c2, (f2, f1)) it is
    # double h-boundary's equation at its row (p1, f1, (b1, c2), f2), the
    # same instances, and 2 makes the composite f2.f1 exist.
    # morphism-associativity, from xm.lawful and 4: it is double
    # v-boundary's clause 2, (p1 p3)|> = p1|> o p3|>, at f.
    # component-product, from xm.lawful, 1, 4 and 5: it is six-composites'
    # step (c), n_{p1 p3}(x) = p1|>n_p3(x) by clause 2 at id_x, which is
    # n_p1(b3|>x).W(g1)(n_p3(x)) by 1 at (p1, n_p3(x)), as n_p3(x) runs to
    # b3|>x by 5.
    composable = [(f2, f1) for f1 in mors for f2 in after[f1]]
    return [
        product_law("endofunctor-typing", holds(endofunctor_typing), gs, mors),
        product_law("endofunctor-identities", holds(unit_component), gs, objs),
        product_law("endofunctor-composition", endofunctor_composition, gs, composable),
        product_law(
            "transformation-component-typing",
            holds(lambda gamma, chi, x: pair_typing(gamma, chi, ident[x])),
            gs, hs, objs,
        ),
        product_law("transformation-naturality", transformation_naturality, natural_keys, mors),
        product_law("component-stacking", holds(component_stacking), gs, hs, hs, objs),
        product_law("unit-component", holds(unit_component), gs, objs),
        product_law("translation-composition", holds(translation_composition), gs, gs),
        replace(
            product_law("component-product", holds(component_product), gs, hs, gs, hs, objs),
            proved=lambda: xm.lawful and t.split and t.multiplicative and t.components_typed,
        ),
        product_law("pair-typing", holds(pair_typing), gs, hs, mors),
        replace(
            product_law("pair-functoriality", pair_functoriality, gs, hs, hs, composable),
            proved=lambda: t.split and t.functorial and t.stacking,
        ),
        product_law("pair-identity", holds(unit_component), gs, objs),
        product_law(
            "object-associativity",
            holds(lambda g1, g3, x: ao[gt[g1][g3]][x] == ao[g1][ao[g3][x]]),
            gs, gs, objs,
        ),
        replace(
            product_law("morphism-associativity", holds(morphism_associativity), gs, hs, gs, hs, mors),
            proved=lambda: xm.lawful and t.multiplicative,
        ),
        # the explicit unit law of the acting 2-group
        product_law("unit-object", holds(lambda x: ao[e_g][x] == x), objs),
        product_law("unit-morphism", holds(lambda f: by_g[e_g][f] == f), mors),
        product_law("whisker-agreement", holds(whisker_agreement), gs, hs, mors),
    ]


def validate_strict_action(a: StrictAction) -> Report:
    """Check both presentations of the action laws, every instance.

    Functor/transformation presentation: each translation is a functor,
    each pair gives a natural transformation, components compose vertically
    and horizontally, object translations compose strictly.

    Pair presentation: the action is functorial on composable pairs, sends
    unit pairs to identities, and is associative on objects and morphisms.
    The unit law of the acting 2-group is enforced explicitly.
    """
    return run_laws(Report(), "action", strict_action_laws(a))


def adjoint_action(xm: CrossedModule) -> StrictAction:
    """The 2-group acting on its own underlying category by conjugation.

    A pair (gamma, chi) sends (g, eta) to
    (gamma g gamma^-1, chi * (gamma |> eta) * ((gamma g gamma^-1) |> chi^-1)).
    The formula is read off the G, H and action tables, and each row
    tabulates its two H factors once: chi * (gamma |> eta) over eta and
    (gamma g gamma^-1) |> chi^-1 over g. It is not derived from the pair
    arithmetic, which the five-square oracle checks against it.

    Built in range, so not checked: act_obj has |G| rows of |G| elements of
    G, and act_mor |G| |H| rows of |G| |H| pair indices (gamma g gamma^-1) |H| + t.
    """
    c = underlying_category(xm)
    g, h = xm.g, xm.h
    gt, ginv, ht, hinv, at, n_h = g.table, g.inverse, h.table, h.inverse, xm.action.table, h.order
    act_obj = tuple(tuple(gt[gt_row[x]][ginv[gamma]] for x in g.elements())
                    for gamma, gt_row in enumerate(gt))
    act_mor = []
    for gamma, conj_row in enumerate(act_obj):
        bases = [cg * n_h for cg in conj_row]  # pair index of (gamma g gamma^-1, eta) less eta
        for chi_row, ichi in zip(ht, hinv):
            # the H table rows of chi * (gamma |> eta), over eta
            lefts = [ht[chi_row[a]] for a in at[gamma]]
            tails = [at[cg][ichi] for cg in conj_row]
            act_mor.append([base + left[t] for base, t in zip(bases, tails) for left in lefts])
    return StrictAction(xm, c, act_obj, act_mor, is_adjoint=True)


def trivial_strict_action(xm: CrossedModule, c: FiniteCategory) -> StrictAction:
    """Every 1- and 2-morphism acts as the identity, so each row is in range."""
    obj_row = tuple(c.objects())
    mor_row = tuple(c.morphisms())
    return StrictAction(xm, c, (obj_row,) * xm.g.order, (mor_row,) * xm.npairs)


# --- weak actions: compositor data and its coherence ----------------------

class WeakActionData:
    """StrictAction-shaped tables plus a compositor.

    compositor[g1][g2][x] is a chosen morphism g1 |> (g2 |> x) -> (g1 g2) |> x
    in the category. The tables themselves may fail strictness; coherence of
    the compositor is what check_compositor_coherence decides. An entry that
    is not a morphism index raises MalformedTable, naming the first.
    """

    def __init__(self, base: StrictAction, compositor):
        self.base = base
        self.compositor = tuple(
            tuple(tuple(row) for row in plane) for plane in compositor
        )
        n_g = base.xm.g.order
        if len(self.compositor) != n_g or any(
            len(p) != n_g or any(len(r) != base.category.n_objects for r in p)
            for p in self.compositor
        ):
            raise MalformedTable("compositor must be indexed by G x G x objects")
        n = base.category.n_morphisms
        for g1, plane in enumerate(self.compositor):
            for g2, row in enumerate(plane):
                for x, m in enumerate(row):
                    if not is_index(m, n):
                        raise MalformedTable(f"compositor[{g1}][{g2}][{x}] = {m!r} out of range")


def identity_compositor(a: StrictAction) -> WeakActionData:
    """The trivial compositor; coherent exactly when the action is strict."""
    c = a.category
    comp = [
        [
            [c.identity[a.act_obj[a.xm.g.table[g1][g2]][x]] for x in c.objects()]
            for g2 in a.xm.g.elements()
        ]
        for g1 in a.xm.g.elements()
    ]
    return WeakActionData(a, comp)


def coherence_laws(w: WeakActionData) -> list[Law]:
    """The compositor laws (see check_compositor_coherence); invertibility
    is asked only of compositors that passed compositor-typing."""
    a = w.base
    c, gt, cw, ao, by_g, ct = a.category, a.xm.g.table, w.compositor, a.act_obj, a.tables.by_g, a.tables.ct
    gs, objs, ident = a.xm.g.elements(), c.objects(), c.identity
    e = a.xm.g.identity

    def typed(g1, g2, x) -> bool:
        m = cw[g1][g2][x]
        return c.src[m] == ao[g1][ao[g2][x]] and c.tgt[m] == ao[gt[g1][g2]][x]

    def invertible(g1, g2, x) -> bool:
        m = cw[g1][g2][x]
        s, t = c.src[m], c.tgt[m]
        return any(ct[n][m] == ident[s] and ct[m][n] == ident[t] for n in c.hom(t, s))

    def natural(g1, g2, f) -> bool:
        lhs = ct[cw[g1][g2][c.tgt[f]]][by_g[g1][by_g[g2][f]]]
        return lhs >= 0 and lhs == ct[by_g[gt[g1][g2]][f]][cw[g1][g2][c.src[f]]]

    # two triangles per (gamma, x): the compositors with the unit on either side
    def unit_triangle(insts, fail) -> None:
        for gamma, x, side in insts:
            g1, g2 = (e, gamma) if side == "left" else (gamma, e)
            if not c.is_identity(cw[g1][g2][x]):
                fail((g1, g2, x))

    def pentagon(f1, g1, h1, x) -> bool:
        lhs = ct[cw[gt[f1][g1]][h1][x]][cw[f1][g1][ao[h1][x]]]
        return lhs >= 0 and lhs == ct[cw[f1][gt[g1][h1]][x]][by_g[f1][cw[g1][h1][x]]]

    typed_triples = [t for t in product(gs, gs, objs) if typed(*t)]
    return [
        product_law("compositor-typing", holds(typed), gs, gs, objs),
        list_law("compositor-invertible", holds(invertible), typed_triples),
        product_law("compositor-naturality", holds(natural), gs, gs, c.morphisms()),
        product_law("unit-triangle", unit_triangle, gs, objs, ("left", "right")),
        product_law("pentagon", holds(pentagon), gs, gs, gs, objs),
    ]


def check_compositor_coherence(w: WeakActionData) -> Report:
    """Typing, invertibility, naturality, unit triangles and the pentagon.

    The pentagon compares the two rewrites of f |> (g |> (h |> x)) into
    (f g) h |> x:

        compositor[f*g][h][x] after compositor[f][g][h |> x]
      = compositor[f][g*h][x] after (f |> compositor[g][h][x])

    Witnesses are (f, g, h, x) quadruples.
    """
    return run_laws(Report(), "pentagon", coherence_laws(w))
