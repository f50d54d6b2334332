"""Reference implementations the tests compare the package against.

Nothing in xmodcat calls these. They state the objects of the paper the
slow, direct way, on the package's public types, so a test can check the
table-level code against them:

* functors and natural transformations between finite categories, with
  their validators: the first presentation of an action (endofunctors and
  natural transformations), read off an action by functor_of and
  nat_trans_of, checked independently of strict_action_laws;
* the groupoid laws, re-run on an action groupoid by the checked
  constructor category_from_tables;
* the unit and inverse squares of a transformation double category, and
  the multiplicativity of its vertical pasting in the pair at every pair of
  pairs (clause 2 of the law v-boundary);
* the unit squares of the quintet calculus, the second face formula of
  horizontal pasting, and the inverse of embed_morphism;
* the pair index and identity morphisms of the categorical group, and its
  underlying category, composites listed by the all-pairs scan and passed
  through the checked constructor category_from_tables;
* the adjoint action by its method-call formula, against which the
  table-level adjoint_action is checked;
* the crossed modules on small catalogue groups that the benchmark sweep
  verifies.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from xmodcat.action import StrictAction
from xmodcat.catgroup import Mor2G, underlying_category
from xmodcat.errors import BoundaryViolation, MalformedTable, MixedStructures
from xmodcat.fincat import FiniteCategory, category_from_tables
from xmodcat.groups import small_group_catalog
from xmodcat.quintet import Quintet, SquareKernel, _same_xm, square_from_edges
from xmodcat.report import DEFAULT_CAP, Law, Report, holds, list_law, product_law, run_laws
from xmodcat.transform import FiniteGroupoid, TDSquare
from xmodcat.xmod import CrossedModule, enumerate_crossed_modules


# --- functors and natural transformations -----------------------------------

@dataclass(frozen=True, eq=False)
class Functor:
    source: FiniteCategory
    target: FiniteCategory
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]

    def on_obj(self, x: int) -> int:
        return self.obj_map[x]

    def on_mor(self, f: int) -> int:
        return self.mor_map[f]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Functor)
            and self.obj_map == other.obj_map
            and self.mor_map == other.mor_map
            and self.source == other.source
            and self.target == other.target
        )


def identity_functor(c: FiniteCategory) -> Functor:
    return Functor(c, c, tuple(c.objects()), tuple(c.morphisms()))


def functor_compose(g: Functor, f: Functor) -> Functor:
    """g after f."""
    if f.target != g.source:
        raise MixedStructures("functors not composable")
    return Functor(
        f.source,
        g.target,
        tuple(g.obj_map[x] for x in f.obj_map),
        tuple(g.mor_map[m] for m in f.mor_map),
    )


def functor_laws(fun: Functor) -> list[Law]:
    """Typing on every morphism, identities on every object, composition on
    every composable pair."""
    c, d, om, mm = fun.source, fun.target, fun.obj_map, fun.mor_map

    def typed(f) -> bool:
        ff = mm[f]
        return d.src[ff] == om[c.src[f]] and d.tgt[ff] == om[c.tgt[f]]

    return [
        product_law("typing", holds(typed), c.morphisms()),
        product_law("identities", holds(lambda x: mm[c.identity[x]] == d.identity[om[x]]), c.objects()),
        list_law(
            "composition", holds(lambda g, f: mm[c.comp[(g, f)]] == d.comp.get((mm[g], mm[f]))),
            [(g, f) for f in c.morphisms() for g in c.morphisms() if c.src[g] == c.tgt[f]],
        ),
    ]


def validate_functor(fun: Functor, cap: int = DEFAULT_CAP) -> Report:
    if len(fun.obj_map) != fun.source.n_objects or len(fun.mor_map) != fun.source.n_morphisms:
        raise MalformedTable("functor tables have the wrong lengths")
    return run_laws(Report(cap=cap), "functor", functor_laws(fun))


@dataclass(frozen=True, eq=False)
class NatTrans:
    """Components indexed by objects of the shared source category."""

    source: Functor
    target: Functor
    components: tuple[int, ...]

    def at(self, x: int) -> int:
        return self.components[x]


def nat_trans_laws(t: NatTrans) -> list[Law]:
    """Typing of every component, then naturality on every morphism; a
    transformation with an ill-typed component has no naturality instances."""
    c, d = t.source.source, t.source.target
    comps, s, u = t.components, t.source, t.target

    def typed(x) -> bool:
        a = comps[x]
        return d.src[a] == s.obj_map[x] and d.tgt[a] == u.obj_map[x]

    def natural(f) -> bool:
        lhs = d.comp.get((comps[c.tgt[f]], s.mor_map[f]))
        return lhs is not None and lhs == d.comp.get((u.mor_map[f], comps[c.src[f]]))

    natural_space = c.morphisms() if all(map(typed, c.objects())) else ()
    return [
        product_law("component-typing", holds(typed), c.objects()),
        product_law("naturality", holds(natural), natural_space),
    ]


def validate_nat_trans(t: NatTrans, cap: int = DEFAULT_CAP) -> Report:
    if t.source.source != t.target.source or t.source.target != t.target.target:
        raise MixedStructures("natural transformation needs parallel functors")
    return run_laws(Report(cap=cap), "nat-trans", nat_trans_laws(t))


# --- the first presentation of an action ------------------------------------

def functor_of(a: StrictAction, gamma: int) -> Functor:
    """The endofunctor "translate by gamma"."""
    e_h = a.xm.h.identity
    return Functor(
        a.category,
        a.category,
        tuple(a.act_obj[gamma]),
        tuple(a.act_mor[a.xm.pair_index(gamma, e_h)]),
    )


def nat_trans_of(a: StrictAction, gamma: int, chi: int) -> NatTrans:
    """The transformation of the pair (gamma, chi), its components read
    from the action's table of components, a.tables.natc."""
    return NatTrans(
        functor_of(a, gamma),
        functor_of(a, a.xm.pair_target((gamma, chi))),
        a.tables.natc[a.xm.pair_index(gamma, chi)],
    )


# --- groupoids and the transformation double category -----------------------

def groupoid_laws(gpd: FiniteGroupoid) -> list[Law]:
    """The category laws, decided by the checked constructor
    category_from_tables, then both inverse laws on every morphism."""
    comp, inv, src, tgt, ident = gpd.comp, gpd.inverse, gpd.src, gpd.tgt, gpd.identity

    def category_laws(insts, fail) -> None:
        for _ in insts:
            try:
                category_from_tables(
                    gpd.n_objects,
                    list(zip(src, tgt)),
                    ident,
                    [(g, f, r) for (g, f), r in comp.items()],
                )
            except Exception as exc:  # witness carried in the message
                fail((), str(exc))

    mors = gpd.morphisms()
    return [
        product_law("category-laws", category_laws),
        product_law("inverse-left", holds(lambda f: comp.get((inv[f], f)) == ident[src[f]]), mors),
        product_law("inverse-right", holds(lambda f: comp.get((f, inv[f])) == ident[tgt[f]]), mors),
    ]


def validate_groupoid(gpd: FiniteGroupoid, cap: int = DEFAULT_CAP) -> Report:
    """Re-run the category laws and check both inverse laws."""
    return run_laws(Report(cap=cap), "groupoid", groupoid_laws(gpd))


def h_identity_square(act: StrictAction, gamma: int, x: int) -> TDSquare:
    """Horizontal unit at the vertical morphism (gamma, x)."""
    return TDSquare(act, gamma, act.xm.h.identity, act.category.identity[x])


def v_identity_square(act: StrictAction, f: int) -> TDSquare:
    """Vertical unit at the horizontal morphism f."""
    return TDSquare(act, act.xm.g.identity, act.xm.h.identity, f)


def vertical_inverse_square(s: TDSquare) -> TDSquare:
    """Inverse for vertical pasting: the pair inverse over the acted edge."""
    return TDSquare(s.act, *s.act.xm.pair_inv((s.gamma, s.chi)), s.bottom())


def pairs_act_multiplicatively(act: StrictAction) -> bool:
    """(p1 p2) |> f = p1 |> (p2 |> f) for every pair of pairs and every
    morphism f, the pairs multiplied by pair_mul."""
    xm, am = act.xm, act.act_mor
    for p1 in xm.pairs():
        for p2 in xm.pairs():
            row = am[xm.pair_index(*xm.pair_mul(p1, p2))]
            if row != tuple(am[xm.pair_index(*p1)][m] for m in am[xm.pair_index(*p2)]):
                return False
    return True


# --- quintet squares ----------------------------------------------------------

def h_identity(xm: CrossedModule, edge: int) -> Quintet:
    """Identity for compose_h on the vertical edge `edge`."""
    e = xm.g.identity
    return Quintet(xm, edge, e, edge, e, xm.h.identity)


def v_identity(xm: CrossedModule, edge: int) -> Quintet:
    """Identity for compose_v on the horizontal edge `edge`."""
    e = xm.g.identity
    return Quintet(xm, e, edge, e, edge, xm.h.identity)


def compose_h_face_alt(a: Quintet, b: Quintet) -> int:
    """Equivalent face formula (a.bottom |> b.face) * a.face, for cross-checks."""
    xm = _same_xm(a.xm, b.xm)
    return SquareKernel(xm).hface_alt(a.as_tuple(), b.as_tuple())


def extract_morphism(sq: Quintet) -> Mor2G:
    e = sq.xm.g.identity
    if sq.top != e or sq.bottom != e:
        raise BoundaryViolation("square does not have identity top/bottom edges")
    return Mor2G(sq.xm, sq.left, sq.face)


def random_square(xm: CrossedModule, rng: random.Random) -> Quintet:
    return square_from_edges(
        xm,
        rng.randrange(xm.g.order),
        rng.randrange(xm.g.order),
        rng.randrange(xm.g.order),
        rng.randrange(xm.h.order),
    )


# --- the categorical group ----------------------------------------------------

def mor_index(m: Mor2G) -> int:
    """Position of (g, eta) in the fixed pair indexing g*|H| + eta."""
    return m.xm.pair_index(m.g, m.eta)


def identity_morphism(xm: CrossedModule, g: int) -> Mor2G:
    return Mor2G(xm, g, xm.h.identity)


def underlying_category_reference(xm: CrossedModule) -> FiniteCategory:
    """The underlying category, its composites (j, i, j after i)
    found by scanning all npairs^2 pairs, j outer and i inner, and its
    axioms checked by category_from_tables, which raises on a boundary that
    is not a homomorphism."""
    n_h, stacks = xm.h.order, xm.pair_stacks
    mors = [(i // n_h, t) for i, t in enumerate(xm.pair_targets)]
    identity = [xm.pair_index(x, xm.h.identity) for x in xm.g.elements()]
    comp = [
        (j, i, stacks[i][j % n_h])
        for j, (s2, _) in enumerate(mors)
        for i, (_, t1) in enumerate(mors)
        if s2 == t1
    ]
    return category_from_tables(xm.g.order, mors, identity, comp)


# --- the adjoint action -------------------------------------------------------

def adjoint_action_reference(xm: CrossedModule) -> StrictAction:
    """The adjoint action by its formula, one pair at a time through conj,
    act and pair_index: (gamma, chi) sends (g, eta) to
    (gamma g gamma^-1, chi * (gamma |> eta) * ((gamma g gamma^-1) |> chi^-1))."""
    c = underlying_category(xm)
    g, h = xm.g, xm.h
    act_obj = [[g.conj(gamma, x) for x in g.elements()] for gamma in g.elements()]
    act_mor = []
    for gamma, chi in xm.pairs():
        ichi = h.inverse[chi]
        row = []
        for gg, eta in xm.pairs():
            cg = g.conj(gamma, gg)
            new_eta = h.table[h.table[chi][xm.act(gamma, eta)]][xm.act(cg, ichi)]
            row.append(xm.pair_index(cg, new_eta))
        act_mor.append(row)
    return StrictAction(xm, c, act_obj, act_mor, is_adjoint=True)


# --- the benchmark sweep's crossed modules --------------------------------------

@functools.cache
def small_crossed_modules() -> tuple[tuple[str, CrossedModule], ...]:
    """(name, xm) for every crossed module on a pair of catalogue groups with
    |G| |H| <= 12, named G-H-k as in the benchmark sweep."""
    catalog = small_group_catalog()
    return tuple(
        (f"{gn}-{hn}-{k}", xm)
        for gn, g in catalog
        for hn, h in catalog
        if g.order * h.order <= 12
        for k, xm in enumerate(enumerate_crossed_modules(g, h))
    )
