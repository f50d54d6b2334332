"""Strict actions of the 2-group of a crossed module on a finite category.

An action is stored as two complete lookup tables:

* act_obj[gamma][x]          -- object translation by a 1-morphism
* act_mor[pair][f]           -- morphism translation by a 2-group pair,
                                indexed by pair_index(gamma, chi)

A pair (gamma, chi) sends f : x -> y to a morphism
gamma |> x  ->  bnd(chi)*gamma |> y. The validator checks the same data
against both equivalent presentations: a family of endofunctors with
natural transformations between them, and a single functorial action of
pairs on morphisms.
"""

from __future__ import annotations

from .catgroup import underlying_category
from .errors import MalformedTable, MixedStructures
from .fincat import FiniteCategory, Functor, NatTrans, functor_compose, validate_functor, validate_nat_trans
from .report import DEFAULT_CAP, Report
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


def make_strict_action(xm: CrossedModule, category: FiniteCategory, act_obj, act_mor,
                       is_adjoint: bool = False) -> StrictAction:
    act_obj = tuple(tuple(r) for r in act_obj)
    act_mor = tuple(tuple(r) for r in act_mor)
    if len(act_obj) != xm.g.order:
        raise MalformedTable(f"act_obj has {len(act_obj)} rows, expected {xm.g.order}")
    for g, row in enumerate(act_obj):
        if len(row) != category.n_objects:
            raise MalformedTable(f"act_obj row {g} has length {len(row)}")
        for x, v in enumerate(row):
            if not 0 <= v < category.n_objects:
                raise MalformedTable(f"act_obj[{g}][{x}] = {v} out of range")
    if len(act_mor) != xm.npairs:
        raise MalformedTable(f"act_mor has {len(act_mor)} rows, expected {xm.npairs}")
    for p, row in enumerate(act_mor):
        if len(row) != category.n_morphisms:
            raise MalformedTable(f"act_mor row {p} has length {len(row)}")
        for f, v in enumerate(row):
            if not 0 <= v < category.n_morphisms:
                raise MalformedTable(f"act_mor[{p}][{f}] = {v} out of range")
    return StrictAction(xm, category, act_obj, act_mor, is_adjoint)


def functor_of(a: StrictAction, gamma: int) -> Functor:
    """The endofunctor "translate by gamma"."""
    e_h = a.xm.h.identity
    return Functor(
        a.category,
        a.category,
        tuple(a.act_obj[gamma]),
        tuple(a.act_mor[a.xm.pair_index(gamma, e_h)]),
    )


def nat_component(a: StrictAction, gamma: int, chi: int, x: int) -> int:
    """Component at x of the transformation attached to (gamma, chi)."""
    return a.act_mor[a.xm.pair_index(gamma, chi)][a.category.identity[x]]


def nat_trans_of(a: StrictAction, gamma: int, chi: int) -> NatTrans:
    xm = a.xm
    tgt_gamma = xm.g.table[xm.bnd(chi)][gamma]
    return NatTrans(
        functor_of(a, gamma),
        functor_of(a, tgt_gamma),
        tuple(nat_component(a, gamma, chi, x) for x in a.category.objects()),
    )


def validate_strict_action(a: StrictAction, cap: int = DEFAULT_CAP) -> Report:
    """Check both presentations of the action laws, every instance.

    Functor/transformation presentation: each translation is a functor,
    each pair gives a natural transformation, components compose vertically
    and horizontally, object translations compose strictly.

    Pair presentation: the action is functorial on composable pairs, sends
    unit pairs to identities, and is associative on objects and morphisms.
    The unit law of the acting 2-group is enforced explicitly.
    """
    xm, c = a.xm, a.category
    g, h = xm.g, xm.h
    e_g, e_h = g.identity, h.identity
    rep = Report(cap=cap)
    comp = c.comp

    # --- presentation 1: endofunctors and natural transformations
    for gamma in g.elements():
        frep = validate_functor(functor_of(a, gamma))
        for law, n in frep.instances.items():
            rep.tick("endofunctor-" + law, n)
        for v in frep.violations:
            rep.add("endofunctor-" + v.law, (gamma,) + v.witness)
    for gamma in g.elements():
        for chi in h.elements():
            nrep = validate_nat_trans(nat_trans_of(a, gamma, chi))
            for law, n in nrep.instances.items():
                rep.tick("transformation-" + law, n)
            for v in nrep.violations:
                rep.add("transformation-" + v.law, (gamma, chi) + v.witness)

    # components stack: (bnd(c1)*g1, c2) after (g1, c1) is (g1, c2*c1)
    for g1 in g.elements():
        for c1 in h.elements():
            g2 = g.table[xm.bnd(c1)][g1]
            for c2 in h.elements():
                c21 = h.table[c2][c1]
                for x in c.objects():
                    rep.tick("component-stacking")
                    got = comp.get(
                        (nat_component(a, g2, c2, x), nat_component(a, g1, c1, x))
                    )
                    if got != nat_component(a, g1, c21, x):
                        rep.add("component-stacking", (g1, c1, c2, x))

    # unit pair has identity components
    for gamma in g.elements():
        for x in c.objects():
            rep.tick("unit-component")
            if nat_component(a, gamma, e_h, x) != c.identity[a.act_obj[gamma][x]]:
                rep.add("unit-component", (gamma, x))

    # object translations compose strictly
    for g1 in g.elements():
        f1 = functor_of(a, g1)
        for g3 in g.elements():
            rep.tick("translation-composition")
            if functor_compose(f1, functor_of(a, g3)) != functor_of(a, g.table[g1][g3]):
                rep.add("translation-composition", (g1, g3))

    # components multiply horizontally:
    # (g1,c1) component at (bnd(c2)g3 |> x), after g1-translate of (g3,c2)'s
    # component at x, equals the component of the product pair at x
    for g1 in g.elements():
        mor_g1 = a.act_mor[xm.pair_index(g1, e_h)]
        for c1 in h.elements():
            for g3 in g.elements():
                g13 = g.table[g1][g3]
                for c2 in h.elements():
                    g4 = g.table[xm.bnd(c2)][g3]
                    c12 = h.table[c1][xm.act(g1, c2)]
                    for x in c.objects():
                        rep.tick("component-product")
                        got = comp.get(
                            (
                                nat_component(a, g1, c1, a.act_obj[g4][x]),
                                mor_g1[nat_component(a, g3, c2, x)],
                            )
                        )
                        if got != nat_component(a, g13, c12, x):
                            rep.add("component-product", (g1, c1, g3, c2, x))

    # --- presentation 2: functorial pair action
    src, tgt = c.src, c.tgt
    for gamma in g.elements():
        for chi in h.elements():
            row = a.act_mor[xm.pair_index(gamma, chi)]
            tg = g.table[xm.bnd(chi)][gamma]
            for f in c.morphisms():
                rep.tick("pair-typing")
                ff = row[f]
                if (
                    src[ff] != a.act_obj[gamma][src[f]]
                    or tgt[ff] != a.act_obj[tg][tgt[f]]
                ):
                    rep.add("pair-typing", (gamma, chi, f))

    for g1 in g.elements():
        for c1 in h.elements():
            row1 = a.act_mor[xm.pair_index(g1, c1)]
            g2 = g.table[xm.bnd(c1)][g1]
            for c2 in h.elements():
                row2 = a.act_mor[xm.pair_index(g2, c2)]
                row21 = a.act_mor[xm.pair_index(g1, h.table[c2][c1])]
                for fg, ff in c.composable_pairs():
                    rep.tick("pair-functoriality")
                    got = comp.get((row2[fg], row1[ff]))
                    if got != row21[comp[(fg, ff)]]:
                        rep.add("pair-functoriality", (g1, c1, c2, fg, ff))

    for gamma in g.elements():
        row = a.act_mor[xm.pair_index(gamma, e_h)]
        orow = a.act_obj[gamma]
        for x in c.objects():
            rep.tick("pair-identity")
            if row[c.identity[x]] != c.identity[orow[x]]:
                rep.add("pair-identity", (gamma, x))

    for g1 in g.elements():
        for g3 in g.elements():
            row13 = a.act_obj[g.table[g1][g3]]
            row1, row3 = a.act_obj[g1], a.act_obj[g3]
            for x in c.objects():
                rep.tick("object-associativity")
                if row13[x] != row1[row3[x]]:
                    rep.add("object-associativity", (g1, g3, x))

    for g1 in g.elements():
        for c1 in h.elements():
            row1 = a.act_mor[xm.pair_index(g1, c1)]
            for g3 in g.elements():
                g13 = g.table[g1][g3]
                for c2 in h.elements():
                    row3 = a.act_mor[xm.pair_index(g3, c2)]
                    row13 = a.act_mor[xm.pair_index(g13, h.table[c1][xm.act(g1, c2)])]
                    for f in c.morphisms():
                        rep.tick("morphism-associativity")
                        if row13[f] != row1[row3[f]]:
                            rep.add("morphism-associativity", (g1, c1, g3, c2, f))

    # explicit unit law
    for x in c.objects():
        rep.tick("unit-object")
        if a.act_obj[e_g][x] != x:
            rep.add("unit-object", (x,))
    unit_row = a.act_mor[xm.pair_index(e_g, e_h)]
    for f in c.morphisms():
        rep.tick("unit-morphism")
        if unit_row[f] != f:
            rep.add("unit-morphism", (f,))

    # the two presentations agree: a pair acting on f factors either side
    # of the naturality square
    for gamma in g.elements():
        mor_g = a.act_mor[xm.pair_index(gamma, e_h)]
        for chi in h.elements():
            row = a.act_mor[xm.pair_index(gamma, chi)]
            tg = g.table[xm.bnd(chi)][gamma]
            mor_tg = a.act_mor[xm.pair_index(tg, e_h)]
            for f in c.morphisms():
                rep.tick("whisker-agreement")
                via_tgt = comp.get((nat_component(a, gamma, chi, tgt[f]), mor_g[f]))
                via_src = comp.get((mor_tg[f], nat_component(a, gamma, chi, src[f])))
                if row[f] != via_tgt or row[f] != via_src:
                    rep.add("whisker-agreement", (gamma, chi, f))

    return rep


def adjoint_action(xm: CrossedModule) -> StrictAction:
    """The 2-group acting on its own underlying category by conjugation.

    A pair (gamma, chi) sends (g, eta) to
    (gamma g gamma^-1, chi * (gamma |> eta) * ((gamma g gamma^-1) |> chi^-1)).
    """
    c = underlying_category(xm)
    g, h = xm.g, xm.h
    act_obj = [[g.conj(gamma, x) for x in g.elements()] for gamma in g.elements()]
    act_mor = []
    for gamma in g.elements():
        for chi in h.elements():
            ichi = h.inverse[chi]
            row = []
            for i in range(xm.npairs):
                gg, eta = xm.pair_of(i)
                cg = g.conj(gamma, gg)
                new_eta = h.table[h.table[chi][xm.act(gamma, eta)]][xm.act(cg, ichi)]
                row.append(xm.pair_index(cg, new_eta))
            act_mor.append(row)
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


def check_compositor_coherence(w: WeakActionData, cap: int = DEFAULT_CAP) -> Report:
    """Typing, invertibility, naturality, unit triangles and the pentagon.

    The pentagon compares the two rewrites of f |> (g |> (h |> x)) into
    (f g) h |> x:

        compositor[f*g][h][x] after compositor[f][g][h |> x]
      = compositor[f][g*h][x] after (f |> compositor[g][h][x])

    Witnesses are (f, g, h, x) quadruples.
    """
    a = w.base
    xm, c = a.xm, a.category
    g = xm.g
    rep = Report(cap=cap)
    comp = c.comp

    for g1 in g.elements():
        for g2 in g.elements():
            for x in c.objects():
                rep.tick("compositor-typing")
                m = w.compositor[g1][g2][x]
                want_src = a.act_obj[g1][a.act_obj[g2][x]]
                want_tgt = a.act_obj[g.table[g1][g2]][x]
                if c.src[m] != want_src or c.tgt[m] != want_tgt:
                    rep.add("compositor-typing", (g1, g2, x))
                    continue
                rep.tick("compositor-invertible")
                if not any(
                    comp.get((n, m)) == c.identity[want_src]
                    and comp.get((m, n)) == c.identity[want_tgt]
                    for n in c.hom(want_tgt, want_src)
                ):
                    rep.add("compositor-invertible", (g1, g2, x))

    for g1 in g.elements():
        for g2 in g.elements():
            g12 = g.table[g1][g2]
            for f in c.morphisms():
                rep.tick("compositor-naturality")
                x, y = c.src[f], c.tgt[f]
                lhs = comp.get(
                    (w.compositor[g1][g2][y], a.on_mor(g1, a.on_mor(g2, f)))
                )
                rhs = comp.get((a.on_mor(g12, f), w.compositor[g1][g2][x]))
                if lhs is None or lhs != rhs:
                    rep.add("compositor-naturality", (g1, g2, f))

    e = g.identity
    for gamma in g.elements():
        for x in c.objects():
            rep.tick("unit-triangle", 2)
            if not c.is_identity(w.compositor[e][gamma][x]):
                rep.add("unit-triangle", (e, gamma, x))
            if not c.is_identity(w.compositor[gamma][e][x]):
                rep.add("unit-triangle", (gamma, e, x))

    for f1 in g.elements():
        for g1 in g.elements():
            f1g1 = g.table[f1][g1]
            for h1 in g.elements():
                g1h1 = g.table[g1][h1]
                for x in c.objects():
                    rep.tick("pentagon")
                    lhs = comp.get(
                        (w.compositor[f1g1][h1][x], w.compositor[f1][g1][a.act_obj[h1][x]])
                    )
                    rhs = comp.get(
                        (w.compositor[f1][g1h1][x], a.on_mor(f1, w.compositor[g1][h1][x]))
                    )
                    if lhs is None or lhs != rhs:
                        rep.add("pentagon", (f1, g1, h1, x))
    return rep
