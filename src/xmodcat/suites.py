"""Named verification suites over one strict action.

Each suite checks a family of laws and returns one LawLine per law, in a
fixed order, so two runs with the same inputs and seed produce identical
output. Every law goes through report.run_laws, which enumerates a law
whose instance space fits in `max_exhaustive` and otherwise checks
`samples` distinct seeded instances, in enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import product

from . import catgroup
from .action import StrictAction, coherence_laws, identity_compositor, strict_action_laws
from .catgroup import Mor2G
from .errors import NotComposable, XmodcatError
from .quintet import compose_h, embed_morphism, square_from_edges
from .groups import automorphism_action_laws, homomorphism_laws
from .report import DEFAULT_MAX_EXHAUSTIVE, DEFAULT_SAMPLES, Law, Report, list_law, product_law, ragged, run_laws
from .transform import (
    TransDoubleCat,
    build_transformation_double,
    double_laws,
    horizontal_2category,
    nested_inclusions,
    nested_laws,
    vertical_2category,
)
from .xmod import crossed_module_laws


@dataclass(frozen=True)
class LawLine:
    suite: str
    law: str
    status: str  # "pass" | "fail" | "skip"
    checked: int
    violations: int = 0
    witness: tuple | None = None
    detail: str = ""

    def to_obj(self) -> dict:
        out = {
            "suite": self.suite,
            "law": self.law,
            "status": self.status,
            "checked": self.checked,
        }
        if self.violations:
            out["violations"] = self.violations
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.detail:
            out["detail"] = self.detail
        return out


def law_lines(suite: str, rep: Report, laws: list[str]) -> list[LawLine]:
    """One line per law with its own instance and violation counts; a law
    with no instances is a skip."""
    out = []
    for law in laws:
        n = rep.instances.get(law, 0)
        found = rep.count(law)
        if found:
            first = next(v for v in rep.violations if v.law == law)
            out.append(LawLine(suite, law, "fail", n, found, first.witness, first.detail))
        elif n:
            out.append(LawLine(suite, law, "pass", n))
        else:
            out.append(LawLine(suite, law, "skip", 0, detail="no instances checked"))
    return out


def skip_lines(suite: str, laws: list[str], why: str) -> list[LawLine]:
    return [LawLine(suite, law, "skip", 0, detail=why) for law in laws]


def run_lines(suite, laws, samples, seed, max_exhaustive) -> list[LawLine]:
    """Run the laws through run_laws, one line per law."""
    rep = run_laws(Report(), suite, laws, samples, seed, max_exhaustive)
    return law_lines(suite, rep, [law.name for law in laws])


def run_suite(suite, laws_of, d, samples, seed, max_exhaustive) -> list[LawLine]:
    """Run laws_of(d), d the action's double category, through run_laws."""
    return run_lines(suite, laws_of(d), samples, seed, max_exhaustive)


# --- crossed module ---------------------------------------------------------


def suite_xmod(d, samples, seed, max_exhaustive) -> list[LawLine]:
    """The laws of the boundary and the action, then the two axioms unless
    one of those failed."""
    xm = d.xm
    components = homomorphism_laws(xm.boundary) + automorphism_action_laws(xm.action)
    out = run_lines("xmod", components, samples, seed, max_exhaustive)
    axioms = crossed_module_laws(xm)
    if any(line.status == "fail" for line in out):
        return out + skip_lines("xmod", [law.name for law in axioms], "components invalid")
    return out + run_lines("xmod", axioms, samples, seed, max_exhaustive)


# --- categorical group ------------------------------------------------------

def catgroup_laws(d: TransDoubleCat) -> list[Law]:
    xm = d.xm
    g, h, kernel = xm.g, xm.h, xm.boundary_kernel
    # every law runs on pair indices g*|H| + eta and the crossed module's pair tables
    n_h, gt, ht = h.order, g.table, h.table
    pt, tgt, stack = xm.pair_products, xm.pair_targets, xm.pair_stacks
    inv, unit = xm.pair_inverses, xm.pair_unit
    pairs = range(xm.npairs)
    src, label = zip(*xm.pairs())

    def tensor_typing(insts, fail) -> None:
        for p1, p2 in insts:
            t = pt[p1][p2]
            if src[t] != gt[src[p1]][src[p2]] or tgt[t] != gt[tgt[p1]][tgt[p2]]:
                fail((src[p1], label[p1], src[p2], label[p2]))

    # (m2 . m1) x (n2 . n1) == (m2 x n2) . (m1 x n1) on composable columns
    def interchange(insts, fail) -> None:
        for m1, c2, n1, d2 in insts:
            m2, n2 = tgt[m1] * n_h + c2, tgt[n1] * n_h + d2
            lhs = pt[stack[m1][c2]][stack[n1][d2]]
            upper, lower = pt[m2][n2], pt[m1][n1]
            if src[upper] != tgt[lower]:
                raise NotComposable(f"tgt {tgt[lower]} != src {src[upper]}")
            if lhs != stack[lower][label[upper]]:
                fail((src[m1], label[m1], c2, src[n1], label[n1], d2))

    def tensor_inverse(insts, fail) -> None:
        for (p,) in insts:
            if pt[p][inv[p]] != unit or pt[inv[p]][p] != unit:
                fail((src[p], label[p]))

    def eckmann_hilton(insts, fail) -> None:
        e_row = g.identity * n_h  # (1, a) is e_row + a
        for a, b in insts:
            tab = pt[e_row + a][e_row + b]
            if (
                tab != pt[e_row + b][e_row + a]
                or label[tab] != ht[a][b]
                or ht[a][b] != ht[b][a]
            ):
                fail((a, b))

    # The proof of interchange reads xm.lawful (see CrossedModule.lawful).
    # At (m1, c2, n1, d2) write m1 = (gm, hm) and n1 = (gn, hn), with targets
    # bm = bnd(hm) gm and bn. upper = (bm, c2) (bn, d2) has source bm bn,
    # and lower = m1 n1 has target bm bn, as pair targets multiply, so
    # NotComposable is not raised. Both sides have G part gm gn, and H parts
    #   stack(m1, c2) stack(n1, d2):   c2 hm (gm |> d2) (gm |> hn)
    #   stack(lower, label of upper):  c2 ((bnd(hm) gm) |> d2) hm (gm |> hn)
    # by respects-product; they agree by composition and peiffer at
    # (hm, gm |> d2).
    return [
        product_law("tensor-typing", tensor_typing, pairs, pairs),
        replace(
            product_law("interchange", interchange, pairs, h.elements(), pairs, h.elements()),
            proved=lambda: xm.lawful,
        ),
        product_law("tensor-inverse", tensor_inverse, pairs),
        product_law("eckmann-hilton", eckmann_hilton, kernel, kernel),
    ]


# --- quintet squares --------------------------------------------------------

def quintet_laws(d: TransDoubleCat) -> list[Law]:
    """Every law but embed-compose runs on the square kernel, on
    (left, top, right, bottom, face) tuples; embed-compose cross-checks the
    checked Quintet/Mor2G layer."""
    xm = d.xm
    g, h = xm.g, xm.h
    k = xm.kernel
    square, hcomp, vcomp, hinv, vinv, hface_alt = (
        k.square, k.hcomp, k.vcomp, k.hinv, k.vinv, k.hface_alt
    )
    e, one = g.identity, h.identity
    gs, hs = g.elements(), h.elements()
    squares = [square(*free) for free in product(gs, gs, gs, hs)]

    def h_id(edge):  # the identity for hcomp on a vertical edge
        return edge, e, edge, e, one

    def v_id(edge):  # the identity for vcomp on a horizontal edge
        return e, edge, e, edge, one

    # a square a, and the top, right edge and face of a square b whose left
    # edge is a's right edge
    def faces_agree(insts, fail) -> None:
        for a, top, right, face in insts:
            b = square(a[2], top, right, face)
            if hcomp(a, b)[4] != hface_alt(a, b):
                fail(a + (top, right, face))

    def h_inverse(insts, fail) -> None:
        for (sq,) in insts:
            ih = hinv(sq)
            if (
                hcomp(sq, ih) != h_id(sq[0])
                or hcomp(ih, sq) != h_id(sq[2])
            ):
                fail(sq)

    def v_inverse(insts, fail) -> None:
        for (sq,) in insts:
            iv = vinv(sq)
            if (
                vcomp(sq, iv) != v_id(sq[1])
                or vcomp(iv, sq) != v_id(sq[3])
            ):
                fail(sq)

    def h_identities(insts, fail) -> None:
        for (sq,) in insts:
            if (
                hcomp(h_id(sq[0]), sq) != sq
                or hcomp(sq, h_id(sq[2])) != sq
            ):
                fail(sq)

    def v_identities(insts, fail) -> None:
        for (sq,) in insts:
            if (
                vcomp(v_id(sq[1]), sq) != sq
                or vcomp(sq, v_id(sq[3])) != sq
            ):
                fail(sq)

    # interchange: the 2x2 grid [[a, b], [c, d]] evaluates the same by rows
    # and by columns; its free coordinates are the four faces, a's left, top
    # and right edges, b's top and right, c's left and right, and d's right
    def grid_interchange(insts, fail) -> None:
        for l0, t0, r0, e0, t1, r1, e1, l2, r2, e2, r3, e3 in insts:
            a = square(l0, t0, r0, e0)
            b = square(r0, t1, r1, e1)
            c = square(l2, a[3], r2, e2)
            d = square(r2, b[3], r3, e3)
            if vcomp(hcomp(a, b), hcomp(c, d)) != hcomp(vcomp(a, c), vcomp(b, d)):
                fail((a, b, c, d))

    # embedding as squares respects categorical-group composition
    def embed_compose(insts, fail) -> None:
        for gg, eta, eta2 in insts:
            m1 = Mor2G(xm, gg, eta)
            m2 = Mor2G(xm, catgroup.boundary(m1)[1], eta2)
            lhs = compose_h(embed_morphism(m1), embed_morphism(m2))
            if lhs != embed_morphism(catgroup.compose(m2, m1)):
                fail((gg, eta, eta2))

    # The proofs of every law but embed-compose read xm.lawful (see
    # CrossedModule.lawful) and the boundary law bnd(face) = bottom *
    # right * top^-1 * left^-1, which every square of `square` satisfies.
    # Write w_s = s.left * s.top * s.right^-1, so s.bottom = bnd(s.face) * w_s.
    #
    # When xm.lawful, the kernel re-checks no paste or inverse (see
    # SquareKernel), so no proved law here raises.
    #
    # face-formulas-agree: a.bottom |> b.face = bnd(a.face) |> (w_a |> b.face)
    # by the composition law of the action, which peiffer at (a.face,
    # w_a |> b.face) makes a.face * (w_a |> b.face) * a.face^-1; times a.face
    # it is hcomp's face.
    #
    # grid-interchange: rows-first and columns-first read the same edge
    # lookups (left gt[c.left][a.left], top gt[a.top][b.top], right
    # gt[d.right][b.right], bottom gt[c.bottom][d.bottom]). Their faces are
    #   rows:    c.face * Y * X * ((c.left * w_a) |> b.face)
    #   columns: c.face * X * Z * ((w_v * d.left) |> b.face)
    # with X = c.left |> a.face, Y = w_c |> d.face, w_v = c.left * w_a *
    # c.right^-1 the w of vcomp(a, c), and Z = w_v |> d.face; respects-product
    # and composition split each action on a product. d.left = c.right, so
    # the last factors agree. c.top = a.bottom gives w_c = c.left *
    # bnd(a.face) * w_a * c.right^-1 = bnd(X) * w_v by equivariance, so
    # Y = bnd(X) |> Z = X * Z * X^-1 by peiffer at (X, Z), and Y * X = X * Z.
    #
    # The identity and inverse laws, at a square s = (l, t, r, b, f) with
    # w = w_s, so b = bnd(f) * w. In each clause the edges agree by G's
    # table alone (t * t^-1 = 1, 1 * b = b, ...), so only the faces are
    # derived.
    #
    # h-inverse: hinv(s) = (r, t^-1, l, b^-1, b^-1 |> f^-1), and its w is
    # w^-1. hcomp(s, hinv(s)) has the face f * ((w * b^-1) |> f^-1) by
    # composition, and w * b^-1 = bnd(f)^-1 = bnd(f^-1) by homomorphism, so
    # it is f * (bnd(f^-1) |> f^-1) = f * f^-1 = 1 by peiffer at (f^-1, f^-1).
    # hcomp(hinv(s), s) has the face (b^-1 |> f^-1) * (w^-1 |> f) =
    # w^-1 |> ((bnd(f^-1) |> f^-1) * f) by composition and respects-product,
    # which is w^-1 |> 1 = 1 by the same peiffer instance.
    #
    # The other three laws read the automorphism laws only (respects-product,
    # and with it g |> 1 = 1, unit and composition), so they can fail only
    # on a module on which G does not act by automorphisms.
    # v-inverse: vinv(s) = (l^-1, b, r^-1, t, l^-1 |> f^-1). vcomp(s,
    # vinv(s)) has the face (l^-1 |> f^-1) * (l^-1 |> f) = l^-1 |> 1 = 1,
    # and vcomp(vinv(s), s) the face f * (l |> (l^-1 |> f^-1)) = f * f^-1 = 1
    # by composition and unit.
    # h-identity: hcomp(h_id(l), s) has the face 1 * ((l * l^-1) |> f) = f by
    # unit, and hcomp(s, h_id(r)) the face f * (w |> 1) = f.
    # v-identity: vcomp(v_id(t), s) has the face f * (l |> 1) = f, and
    # vcomp(s, v_id(b)) the face 1 * (1 |> f) = f by unit.
    lawful = lambda: xm.lawful
    return [
        replace(product_law("face-formulas-agree", faces_agree, squares, gs, gs, hs), proved=lawful),
        replace(product_law("h-inverse", h_inverse, squares), proved=lawful),
        replace(product_law("v-inverse", v_inverse, squares), proved=lawful),
        replace(product_law("h-identity", h_identities, squares), proved=lawful),
        replace(product_law("v-identity", v_identities, squares), proved=lawful),
        replace(
            product_law("grid-interchange", grid_interchange, gs, gs, gs, hs, gs, gs, hs, gs, gs, hs, gs, hs),
            proved=lawful,
        ),
        product_law("embed-compose", embed_compose, gs, hs, hs),
    ]


# --- strict action, both presentations --------------------------------------

def action_laws(d: TransDoubleCat) -> list[Law]:
    return strict_action_laws(d.act)


# --- adjoint oracle: morphism action as a five-square row -------------------

def five_square_strip(act: StrictAction, gamma: int, chi: int, f: int):
    """Fold the width-5 witness row for (gamma, chi) acting on morphism f.

    The row has identity left/right edges throughout; its tops read
    e, gamma, src(f), gamma^-1, e and its faces read chi, 1, face(f), 1,
    chi^-1. The horizontal composite's top edge and face must be the source
    and face of the image morphism. adjoint_laws folds the same row on the
    kernel (_kernel_strips); this is its checked-layer form.
    """
    xm = act.xm
    g, h = xm.g, xm.h
    e = g.identity
    gg, eta = xm.pair_of(f)
    ig = g.inverse[gamma]
    strip = [
        square_from_edges(xm, e, e, e, chi),
        square_from_edges(xm, e, gamma, e, h.identity),
        square_from_edges(xm, e, gg, e, eta),
        square_from_edges(xm, e, ig, e, h.identity),
        square_from_edges(xm, e, e, e, h.inverse[chi]),
    ]
    out = strip[0]
    for sq in strip[1:]:
        out = compose_h(out, sq)
    return out


def _kernel_strips(act: StrictAction, insts):
    """(gamma, chi, f, out) for each (gamma, chi, f) of insts, where out is
    five_square_strip(act, gamma, chi, f) folded on the kernel: the same
    squares, pasted left to right as it pastes them, as a plain tuple. The
    first paste and the last two squares depend only on (gamma, chi), so a
    run of instances in one (gamma, chi) row makes them once."""
    xm = act.xm
    g, h = xm.g, xm.h
    square, hcomp = xm.kernel.square, xm.kernel.hcomp
    e, one, n_h = g.identity, h.identity, h.order
    row = None
    for gamma, chi, f in insts:
        if row != (gamma, chi):
            row = gamma, chi
            head = hcomp(square(e, e, e, chi), square(e, gamma, e, one))
            fourth, fifth = square(e, g.inverse[gamma], e, one), square(e, e, e, h.inverse[chi])
        gg, eta = divmod(f, n_h)  # xm.pair_of(f)
        yield gamma, chi, f, hcomp(hcomp(hcomp(head, square(e, gg, e, eta)), fourth), fifth)


def adjoint_laws(d: TransDoubleCat) -> list[Law]:
    act, xm = d.act, d.xm
    g, h = xm.g, xm.h
    e, n_h, act_mor = g.identity, h.order, act.act_mor

    def strip(insts, fail) -> None:
        for gamma, chi, f, out in _kernel_strips(act, insts):
            # xm.pair_of(act.on_mor_pair(gamma, chi, f))
            want_g, want_eta = divmod(act_mor[gamma * n_h + chi][f], n_h)
            if out[0] != e or out[2] != e or out[1] != want_g or out[4] != want_eta:
                fail((gamma, chi, f))

    mors = d.category.morphisms()
    return [product_law("five-square-strip", strip, g.elements(), h.elements(), mors)]


def suite_adjoint_oracle(d, samples, seed, max_exhaustive) -> list[LawLine]:
    if not d.act.is_adjoint:
        why = "action was not built as adjoint"
        return skip_lines("adjoint-oracle", ["five-square-strip"], why)
    return run_suite("adjoint-oracle", adjoint_laws, d, samples, seed, max_exhaustive)


# --- nested sub-double-categories --------------------------------------------

def nested_suite_laws(d: TransDoubleCat) -> list[Law]:
    return nested_laws(nested_inclusions(d))


# --- degenerate-square 2-categories ------------------------------------------

def h2_laws(d: TransDoubleCat) -> list[Law]:
    h = d.xm.h
    two = horizontal_2category(d)
    lookup = {f: dict(cells) for f, cells in two.cells.items()}  # f -> chi -> f'
    mors = tuple(two.cells)

    def kernel_central(insts, fail) -> None:
        for chi, b in insts:
            if h.table[chi][b] != h.table[b][chi]:
                fail((chi, b))

    def h2_identity(insts, fail) -> None:
        for (f,) in insts:
            if lookup[f].get(h.identity) != f:
                fail((f,))

    # a cell labelled c1 out of f, then one labelled c2 out of its target
    def h2_stacking(insts, fail) -> None:
        for f, c1, c2 in insts:
            if lookup[f].get(h.table[c1][c2]) != lookup[lookup[f][c1]][c2]:
                fail((f, c1, c2))

    return [
        product_law("kernel-central", kernel_central, two.kernel, h.elements()),
        product_law("h2-identity", h2_identity, mors),
        product_law("h2-stacking", h2_stacking, mors, two.kernel, two.kernel),
    ]


def v2_laws(d: TransDoubleCat) -> list[Law]:
    act, xm, h = d.act, d.xm, d.xm.h
    two = vertical_2category(d)
    labels = {key: dict(cells) for key, cells in two.cells.items()}  # chi -> gamma'
    keys = tuple(two.cells)  # vertical morphisms (gamma, x)

    def identity_cell(insts, fail) -> None:
        for (key,) in insts:
            if h.identity not in labels[key]:
                fail(key)

    # (gamma, x, chi, gamma'): each cell out of (gamma, x)
    cells = [(gamma, x, chi, tg) for (gamma, x), out in two.cells.items() for chi, tg in out]
    # (gamma, x, chi, chi2): a cell, then one out of its target
    n_stacked, locate = ragged(len(two.cells[(tg, x)]) for _, x, _, tg in cells)

    def stacked_at(i):
        j, r = locate(i)
        gamma, x, chi, tg = cells[j]
        return gamma, x, chi, two.cells[(tg, x)][r][0]

    def stacking(insts, fail) -> None:
        for gamma, x, chi, chi2 in insts:
            if h.table[chi2][chi] not in labels[(gamma, x)]:
                fail((gamma, x, chi, chi2))

    def inverse(insts, fail) -> None:
        for gamma, x, chi, tg in insts:
            if h.inverse[chi] not in labels[(tg, x)]:
                fail((gamma, x, chi))

    # on an adjoint action chi labels a cell out of (gamma, x) exactly when
    # the object gamma |> x, an element of G, fixes chi^-1 in H
    def adjoint_closed_form(insts, fail) -> None:
        for (key,) in insts:
            y = act.act_obj[key[0]][key[1]]
            want = [chi for chi in h.elements() if xm.act(y, h.inverse[chi]) == h.inverse[chi]]
            got = sorted(labels[key])
            if got != want:
                fail(key, f"labels {got}, closed form {want}")

    return [
        product_law("v2-identity-cell", identity_cell, keys),
        Law("v2-stacking", n_stacked, stacked_at, stacking),
        list_law("v2-inverse", inverse, cells),
        # no instances, hence a skip, unless the action was built as adjoint
        product_law("v2-adjoint-closed-form", adjoint_closed_form, keys if act.is_adjoint else ()),
    ]


# --- coherence of the identity compositor ------------------------------------

def pentagon_laws(d: TransDoubleCat) -> list[Law]:
    return coherence_laws(identity_compositor(d.act))


# --- registry ----------------------------------------------------------------

SUITES: list[tuple[str, object]] = [
    ("xmod", suite_xmod),
    ("catgroup", partial(run_suite, "catgroup", catgroup_laws)),
    ("quintet", partial(run_suite, "quintet", quintet_laws)),
    ("action", partial(run_suite, "action", action_laws)),
    ("adjoint-oracle", suite_adjoint_oracle),
    ("double", partial(run_suite, "double", double_laws)),
    ("nested", partial(run_suite, "nested", nested_suite_laws)),
    ("h2cat", partial(run_suite, "h2cat", h2_laws)),
    ("v2cat", partial(run_suite, "v2cat", v2_laws)),
    ("pentagon", partial(run_suite, "pentagon", pentagon_laws)),
]


def _guarded(name, fn, d, samples, seed, max_exhaustive) -> list[LawLine]:
    try:
        return fn(d, samples, seed, max_exhaustive)
    except (XmodcatError, RuntimeError, KeyError, IndexError, TypeError, ValueError) as exc:
        return [
            LawLine(name, f"{name}-error", "fail", 0, 1, None, f"{type(exc).__name__}: {exc}")
        ]


def run_all(
    act: StrictAction,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
    only: list[str] | None = None,
) -> list[LawLine]:
    """Run every suite (or the named subset) in the registry order, all on
    one double category of the action, so they share its groupoids."""
    d = build_transformation_double(act, validate=False)
    return [
        line
        for name, fn in SUITES
        if only is None or name in only
        for line in _guarded(name, fn, d, samples, seed, max_exhaustive)
    ]
