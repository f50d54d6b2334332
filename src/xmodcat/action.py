"""Strict actions of the 2-group of a crossed module on a finite category.

An action is stored as two complete lookup tables:

* act_obj[gamma][x]          -- object translation by a 1-morphism
* act_mor[pair][f]           -- morphism translation by a 2-group pair,
                                indexed by pair_index(gamma, chi)

A pair (gamma, chi) sends f : x -> y to a morphism
gamma |> x  ->  bnd(chi)*gamma |> y. The validator checks the same data
against both equivalent presentations: a family of endofunctors with
natural transformations between them, and a single functorial action of
pairs on morphisms. Both are read straight off the two tables, and an
equation the presentations share is one predicate. The tests check the
first presentation independently, on functor and natural-transformation
values built from the same tables.
"""

from __future__ import annotations

from itertools import product

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
    """Raise MalformedTable naming the first entry of row that is not an
    index below n. A row of ints only, with its least entry at least 0 and
    its largest below n, is checked at once; any other row, and so every
    row with a bad entry, takes the per-entry walk that names it."""
    if set(map(type, row)) == {int} and min(row) >= 0 and max(row) < n:
        return
    for x, v in enumerate(row):
        if not is_index(v, n):
            raise MalformedTable(f"{name}[{i}][{x}] = {v!r} out of range")


def make_strict_action(xm: CrossedModule, category: FiniteCategory, act_obj, act_mor,
                       is_adjoint: bool = False) -> StrictAction:
    """Checked constructor: act_obj has a row of object indices per element
    of G and act_mor a row of morphism indices per pair, each as long as
    the category has objects or morphisms. The first failure raises
    MalformedTable; no law is checked here (see validate_strict_action)."""
    act_obj = tuple(tuple(r) for r in act_obj)
    act_mor = tuple(tuple(r) for r in act_mor)
    n_obj, n_mor = category.n_objects, category.n_morphisms
    if len(act_obj) != xm.g.order:
        raise MalformedTable(f"act_obj has {len(act_obj)} rows, expected {xm.g.order}")
    for g, row in enumerate(act_obj):
        if len(row) != n_obj:
            raise MalformedTable(f"act_obj row {g} has length {len(row)}")
        _check_row("act_obj", g, row, n_obj)
    if len(act_mor) != xm.npairs:
        raise MalformedTable(f"act_mor has {len(act_mor)} rows, expected {xm.npairs}")
    for p, row in enumerate(act_mor):
        if len(row) != n_mor:
            raise MalformedTable(f"act_mor row {p} has length {len(row)}")
        _check_row("act_mor", p, row, n_mor)
    return StrictAction(xm, category, act_obj, act_mor, is_adjoint)


def nat_component(a: StrictAction, gamma: int, chi: int, x: int) -> int:
    """Component at x of the transformation attached to (gamma, chi)."""
    return a.act_mor[a.xm.pair_index(gamma, chi)][a.category.identity[x]]


def strict_action_laws(a: StrictAction) -> list[Law]:
    """Both presentations of the action laws, read off the act_obj/act_mor
    tables (see validate_strict_action)."""
    xm, c = a.xm, a.category
    g, h = xm.g, xm.h
    gs, hs, objs, mors = g.elements(), h.elements(), c.objects(), c.morphisms()
    e_g, e_h = g.identity, h.identity
    comp, src, tgt, ident = c.comp, c.src, c.tgt, c.identity
    gt, ao, am, nh = g.table, a.act_obj, a.act_mor, h.order
    # the pair arithmetic, on pair indices gamma*|H| + chi
    pt, pair_tgt, stacks = xm.pair_products, xm.pair_targets, xm.pair_stacks

    # a.on_mor_pair and nat_component without their method calls, which
    # would dominate the per-instance cost; p is a pair index
    def on(gamma: int, chi: int, f: int) -> int:
        return am[gamma * nh + chi][f]

    def nat(p: int, x: int) -> int:
        return am[p][ident[x]]

    # the unit pair has identity components, so each endofunctor keeps
    # identities
    def unit_component(gamma, x) -> bool:
        return on(gamma, e_h, ident[x]) == ident[ao[gamma][x]]

    def pair_typing(gamma, chi, f) -> bool:
        p = gamma * nh + chi
        ff = am[p][f]
        return src[ff] == ao[gamma][src[f]] and tgt[ff] == ao[pair_tgt[p]][tgt[f]]

    # the two sides of (gamma, chi)'s naturality square at f: the component
    # at tgt f after gamma |> f, and bnd(chi)*gamma |> f after the component
    # at src f
    def naturality_sides(gamma, chi, f) -> tuple:
        p = gamma * nh + chi
        return (
            comp.get((nat(p, tgt[f]), on(gamma, e_h, f))),
            comp.get((on(pair_tgt[p], e_h, f), nat(p, src[f]))),
        )

    # --- presentation 1: endofunctors and natural transformations

    def endofunctor_typing(gamma, f) -> bool:
        ff = on(gamma, e_h, f)
        return src[ff] == ao[gamma][src[f]] and tgt[ff] == ao[gamma][tgt[f]]

    def endofunctor_composition(insts, fail) -> None:
        for gamma, (fg, ff) in insts:
            row = am[gamma * nh + e_h]
            if row[comp[(fg, ff)]] != comp.get((row[fg], row[ff])):
                fail((gamma, fg, ff))

    # a transformation with an ill-typed component has no naturality instances
    natural_keys = [k for k in product(gs, hs) if all(pair_typing(*k, ident[x]) for x in objs)]

    def transformation_naturality(insts, fail) -> None:
        for (gamma, chi), f in insts:
            via_tgt, via_src = naturality_sides(gamma, chi, f)
            if via_tgt is None or via_tgt != via_src:
                fail((gamma, chi, f))

    # components stack: (bnd(c1)*g1, c2) after (g1, c1) is (g1, c2*c1)
    def component_stacking(g1, c1, c2, x) -> bool:
        p1 = g1 * nh + c1
        return comp.get((nat(pair_tgt[p1] * nh + c2, x), nat(p1, x))) == nat(stacks[p1][c2], x)

    # translating by g3, then by g1, is translating by g1*g3
    def translation_composition(g1, g3) -> bool:
        o1, m1, g13 = ao[g1], am[g1 * nh + e_h], gt[g1][g3]
        return tuple(o1[x] for x in ao[g3]) == ao[g13] and (
            tuple(m1[f] for f in am[g3 * nh + e_h]) == am[g13 * nh + e_h]
        )

    # components multiply horizontally: (g1,c1)'s component at
    # (bnd(c2)g3 |> x), after the g1-translate of (g3,c2)'s component at x,
    # is the component of the product pair at x
    def component_product(g1, c1, g3, c2, x) -> bool:
        p1, p3 = g1 * nh + c1, g3 * nh + c2
        got = comp.get((nat(p1, ao[pair_tgt[p3]][x]), on(g1, e_h, nat(p3, x))))
        return got == nat(pt[p1][p3], x)

    # --- presentation 2: functorial pair action

    def pair_functoriality(insts, fail) -> None:
        for g1, c1, c2, (fg, ff) in insts:
            p1 = g1 * nh + c1
            got = comp.get((on(pair_tgt[p1], c2, fg), am[p1][ff]))
            if got != am[stacks[p1][c2]][comp[(fg, ff)]]:
                fail((g1, c1, c2, fg, ff))

    def morphism_associativity(g1, c1, g3, c2, f) -> bool:
        p1, p3 = g1 * nh + c1, g3 * nh + c2
        return am[pt[p1][p3]][f] == am[p1][am[p3][f]]

    # the two presentations agree: a pair acting on f factors either side
    # of the naturality square
    def whisker_agreement(gamma, chi, f) -> bool:
        via_tgt, via_src = naturality_sides(gamma, chi, f)
        return on(gamma, chi, f) == via_tgt == via_src

    composable = list(c.composable_pairs())
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
        product_law("component-product", holds(component_product), gs, hs, gs, hs, objs),
        product_law("pair-typing", holds(pair_typing), gs, hs, mors),
        product_law("pair-functoriality", pair_functoriality, gs, hs, hs, composable),
        product_law("pair-identity", holds(unit_component), gs, objs),
        product_law(
            "object-associativity",
            holds(lambda g1, g3, x: ao[gt[g1][g3]][x] == ao[g1][ao[g3][x]]),
            gs, gs, objs,
        ),
        product_law("morphism-associativity", holds(morphism_associativity), gs, hs, gs, hs, mors),
        # the explicit unit law of the acting 2-group
        product_law("unit-object", holds(lambda x: ao[e_g][x] == x), objs),
        product_law("unit-morphism", holds(lambda f: on(e_g, e_h, f) == f), mors),
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
    return make_strict_action(xm, c, act_obj, act_mor, is_adjoint=True)


def trivial_strict_action(xm: CrossedModule, c: FiniteCategory) -> StrictAction:
    """Every 1- and 2-morphism acts as the identity translation."""
    obj_row = tuple(c.objects())
    mor_row = tuple(c.morphisms())
    return make_strict_action(
        xm, c, (obj_row,) * xm.g.order, (mor_row,) * xm.npairs
    )


# --- weak actions: compositor data and its coherence ----------------------

class WeakActionData:
    """StrictAction-shaped tables plus a compositor.

    compositor[g1][g2][x] is a chosen morphism g1 |> (g2 |> x) -> (g1 g2) |> x
    in the category. The tables themselves may fail strictness; coherence of
    the compositor is what check_compositor_coherence decides.
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
    c, gt, cw, ao = a.category, a.xm.g.table, w.compositor, a.act_obj
    gs, objs, comp, ident = a.xm.g.elements(), c.objects(), c.comp, c.identity
    e = a.xm.g.identity

    def typed(g1, g2, x) -> bool:
        m = cw[g1][g2][x]
        return c.src[m] == ao[g1][ao[g2][x]] and c.tgt[m] == ao[gt[g1][g2]][x]

    def invertible(g1, g2, x) -> bool:
        m = cw[g1][g2][x]
        s, t = c.src[m], c.tgt[m]
        return any(
            comp.get((n, m)) == ident[s] and comp.get((m, n)) == ident[t] for n in c.hom(t, s)
        )

    def natural(g1, g2, f) -> bool:
        lhs = comp.get((cw[g1][g2][c.tgt[f]], a.on_mor(g1, a.on_mor(g2, f))))
        return lhs is not None and lhs == comp.get((a.on_mor(gt[g1][g2], f), cw[g1][g2][c.src[f]]))

    # two triangles per (gamma, x): the compositors with the unit on either side
    def unit_triangle(insts, fail) -> None:
        for gamma, x, side in insts:
            g1, g2 = (e, gamma) if side == "left" else (gamma, e)
            if not c.is_identity(cw[g1][g2][x]):
                fail((g1, g2, x))

    def pentagon(f1, g1, h1, x) -> bool:
        lhs = comp.get((cw[gt[f1][g1]][h1][x], cw[f1][g1][ao[h1][x]]))
        rhs = comp.get((cw[f1][gt[g1][h1]][x], a.on_mor(f1, cw[g1][h1][x])))
        return lhs is not None and lhs == rhs

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
