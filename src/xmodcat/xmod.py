"""Finite crossed modules (G, H, boundary, action) and their two axioms.

boundary : H -> G is a homomorphism, G acts on H by automorphisms, and

* equivariance: boundary(g |> h) = g * boundary(h) * g^-1
* peiffer:      boundary(h) |> h' = h * h' * h^-1

hold for all elements. A crossed module presents a strict 2-group whose
1-morphisms are G and whose 2-morphism pairs live in the semidirect
product G x| H; the pair index (g, h) -> g*|H| + h is fixed here and reused
by every other module. So is the pair arithmetic: pair_mul, pair_inv,
pair_target and pair_stack give one value each, and the pair tables on pair
indices, built on first use, give all of them; only law construction and
semidirect_group ask for the |G x| H|^2 product table. The square kernel,
quintet.SquareKernel, is built once per module too, as CrossedModule.kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import BudgetExceeded, ComponentInvalid, MixedStructures, SpaceNotAbelian
from .groups import (
    FiniteGroup,
    GroupAction,
    Homomorphism,
    automorphism_action_laws,
    conjugation_action,
    cyclic,
    group_from_table,
    homomorphism_laws,
    identity_homomorphism,
    make_action,
    symmetric,
    trivial_action,
    trivial_group,
    trivial_homomorphism,
    validate_automorphism_action,
    validate_homomorphism,
)
from .report import Law, Report, holds, product_law, run_laws


@dataclass(frozen=True)
class CrossedModule:
    g: FiniteGroup
    h: FiniteGroup
    boundary: Homomorphism
    action: GroupAction

    def act(self, g: int, h: int) -> int:
        return self.action.table[g][h]

    def bnd(self, h: int) -> int:
        return self.boundary.map[h]

    @property
    def npairs(self) -> int:
        return self.g.order * self.h.order

    def pair_index(self, g: int, h: int) -> int:
        return g * self.h.order + h

    def pair_of(self, i: int) -> tuple[int, int]:
        return divmod(i, self.h.order)

    def pairs(self):
        """Every pair (g, h), in pair-index order."""
        return product(self.g.elements(), self.h.elements())

    def pair_mul(self, p1: tuple[int, int], p2: tuple[int, int]) -> tuple[int, int]:
        """Semidirect product: (g1,h1)*(g2,h2) = (g1 g2, h1 * (g1 |> h2))."""
        (g1, h1), (g2, h2) = p1, p2
        return self.g.table[g1][g2], self.h.table[h1][self.action.table[g1][h2]]

    def pair_inv(self, p: tuple[int, int]) -> tuple[int, int]:
        gi = self.g.inverse[p[0]]
        return gi, self.action.table[gi][self.h.inverse[p[1]]]

    def pair_target(self, p: tuple[int, int]) -> int:
        """boundary(h)*g, the target of the 2-cell (g, h) out of g."""
        return self.g.table[self.boundary.map[p[1]]][p[0]]

    def pair_stack(self, p: tuple[int, int], c: int) -> tuple[int, int]:
        """The 2-cell c stacked on (g, h), out of its target: (g, c*h)."""
        return p[0], self.h.table[c][p[1]]

    # the same arithmetic on pair indices, as tables built on first use

    @property
    def pair_unit(self) -> int:
        return self.pair_index(self.g.identity, self.h.identity)

    @cached_property
    def pair_products(self) -> tuple[tuple[int, ...], ...]:
        """[i][j] is the index of pair_mul(pair_of(i), pair_of(j)); the row of
        (g1, h1) is built from the tail h1 * (g1 |> h2) over h2."""
        n_h, gs = self.h.order, self.g.elements()
        return tuple(
            tuple(g_row[g2] * n_h + t for g2 in gs for t in tail)
            for g_row, a_row in zip(self.g.table, self.action.table)
            for tail in ([h_row[a] for a in a_row] for h_row in self.h.table)
        )

    @cached_property
    def pair_inverses(self) -> tuple[int, ...]:
        """[i] is the index of pair_inv(pair_of(i))."""
        return tuple(self.pair_index(*self.pair_inv(p)) for p in self.pairs())

    @cached_property
    def pair_targets(self) -> tuple[int, ...]:
        """[i] is pair_target(pair_of(i)), an element of G."""
        return tuple(map(self.pair_target, self.pairs()))

    @cached_property
    def pair_stacks(self) -> tuple[tuple[int, ...], ...]:
        """[i][c] is the index of pair_stack(pair_of(i), c)."""
        index, stack, hs = self.pair_index, self.pair_stack, self.h.elements()
        return tuple(tuple(index(*stack(p, c)) for c in hs) for p in self.pairs())

    @cached_property
    def kernel(self):
        """The module's quintet.SquareKernel, shared by every square over it."""
        from .quintet import SquareKernel  # quintet imports this module

        return SquareKernel(self)

    @cached_property
    def pair_generators(self) -> tuple[int, ...]:
        """Pairs whose positive words reach every pair: each is the first
        pair not reached by products of those before it (in a group, each
        after the first at least doubles what is reached)."""
        pt, reached, gens = self.pair_products, [False] * self.npairs, []
        for r in range(self.npairs):
            if not reached[r]:
                gens.append(r)
                reached[r] = True
                queue = [q for q in range(self.npairs) if reached[q]]
                for d in queue:  # grows as it is walked
                    for s in gens:
                        if not reached[q := pt[d][s]]:
                            reached[q] = True
                            queue.append(q)
        return tuple(gens)

    @cached_property
    def boundary_kernel(self) -> tuple[int, ...]:
        """ker(bnd): the labels whose boundary is the unit of G, in order."""
        return tuple(chi for chi in self.h.elements() if self.bnd(chi) == self.g.identity)

    @cached_property
    def acts_by_automorphisms(self) -> bool:
        """automorphism_action_laws hold, each on every instance."""
        return run_laws(Report(), "xmod", automorphism_action_laws(self.action)).ok

    @cached_property
    def lawful(self) -> bool:
        """The boundary is a homomorphism, G acts on H by automorphisms, and
        equivariance and peiffer hold: the laws homomorphism, bijective,
        respects-product, unit, composition, equivariance and peiffer, each
        on every instance (about |G| |H| (|G| + |H|) of them). G and H are
        groups, as is every FiniteGroup the package makes (see fincat), and
        the boundary runs from H to G and the action is of G on H in every
        module it makes (make_crossed_module checks both). Laws that hold in
        every crossed module are proved from this: catgroup interchange,
        every quintet law but embed-compose, and double interchange and
        v-assoc; with conditions on the action's tables, double v-boundary
        and six-composites, and action morphism-associativity and
        component-product, too. The proofs of the laws on pair indices read
        three facts of the pair arithmetic that follow from it:
        - pair targets multiply: bnd(h1 (g1 |> h2)) g1 g2 = bnd(h1) g1
          bnd(h2) g1^-1 g1 g2 = bnd(h1) g1 bnd(h2) g2, by homomorphism and
          equivariance;
        - g |> 1 = 1 by respects-product, so (k, 1) (j, 1) = (k j, 1);
        - the pair product is associative (see semidirect_group)."""
        laws = homomorphism_laws(self.boundary) + crossed_module_laws(self)
        return self.acts_by_automorphisms and run_laws(Report(), "xmod", laws).ok

    def __repr__(self) -> str:
        return f"CrossedModule(|G|={self.g.order}, |H|={self.h.order})"


def make_crossed_module(
    g: FiniteGroup,
    h: FiniteGroup,
    boundary: Homomorphism,
    action: GroupAction,
) -> CrossedModule:
    if boundary.source != h or boundary.target != g:
        raise MixedStructures("boundary must map H to G")
    if action.actor != g or action.space != h:
        raise MixedStructures("action must let G act on H")
    return CrossedModule(g, h, boundary, action)


def crossed_module_laws(xm: CrossedModule) -> list[Law]:
    """Equivariance on every (g, h), peiffer on every (h, h')."""
    g, h, bnd, act = xm.g, xm.h, xm.boundary.map, xm.action.table
    return [
        product_law(
            "equivariance", holds(lambda a, e: bnd[act[a][e]] == g.conj(a, bnd[e])),
            g.elements(), h.elements(),
        ),
        product_law(
            "peiffer", holds(lambda e1, e2: act[bnd[e1]][e2] == h.conj(e1, e2)),
            h.elements(), h.elements(),
        ),
    ]


def check_boundary(xm: CrossedModule) -> None:
    """Raise ComponentInvalid, naming the first violation, when the boundary
    is not a homomorphism."""
    if not (brep := validate_homomorphism(xm.boundary)).ok:
        raise ComponentInvalid(f"boundary is not a homomorphism: {brep.violations[0]}")


def check_components(xm: CrossedModule) -> None:
    """Raise ComponentInvalid, naming the first violation, when the boundary
    is not a homomorphism or the action is not by automorphisms."""
    check_boundary(xm)
    arep = validate_automorphism_action(xm.action)
    if not arep.ok:
        raise ComponentInvalid(f"action is not by automorphisms: {arep.violations[0]}")


def validate_crossed_module(xm: CrossedModule) -> Report:
    """Report every equivariance/peiffer failure, keeping the first
    witnesses of each law (see report.Report).

    The constituent homomorphism and action must already be lawful;
    otherwise ComponentInvalid is raised instead of blaming the axioms.
    """
    check_components(xm)
    return run_laws(Report(), "xmod", crossed_module_laws(xm))


def xmod_identity(g: FiniteGroup) -> CrossedModule:
    """G over itself: identity boundary, conjugation action."""
    return CrossedModule(g, g, identity_homomorphism(g), conjugation_action(g))


def xmod_trivial_boundary(action: GroupAction) -> CrossedModule:
    """Trivial boundary over a given action; the acted-on group must be abelian."""
    h = action.space
    for a in h.elements():
        for b in h.elements():
            if h.table[a][b] != h.table[b][a]:
                raise SpaceNotAbelian(a, b)
    return CrossedModule(
        action.actor, h, trivial_homomorphism(h, action.actor), action
    )


def semidirect_group(xm: CrossedModule) -> FiniteGroup:
    """The pair group G x| H under (g1,h1)*(g2,h2) = (g1 g2, h1 (g1 |> h2)).

    When G acts on H by automorphisms the pair tables are a group's, so they
    are used with no |G x| H|^3 re-check; else group_from_table checks the
    table and raises what it finds. G and H are groups and the action table
    is in range (see CrossedModule.lawful). Write g.h for g |> h:
    - associativity: the tail of (g1,h1)((g2,h2)(g3,h3)) is h1 g1.(h2 g2.h3)
      = h1 (g1.h2) (g1 g2).h3 by respects-product and composition, the tail
      of ((g1,h1)(g2,h2))(g3,h3);
    - unit: e.h = h by unit, and g.e = e as g.e = (g.e)(g.e) by
      respects-product, so (e,e)(g,h) = (g,h) = (g,h)(e,e);
    - inverses: pair_inv(g,h) = (g^-1, g^-1.h^-1) is a right inverse by
      composition and unit, and a left one by respects-product and g.e = e.
      (bijective follows from composition and unit.)
    """
    names = None
    if xm.g.names is not None or xm.h.names is not None:
        names = tuple(f"({xm.g.name_of(g)}|{xm.h.name_of(h)})" for g, h in xm.pairs())
    if xm.acts_by_automorphisms and (
        names is None or len(set(names)) == len(names)  # else group_from_table raises
    ):
        return FiniteGroup(xm.pair_products, xm.pair_unit, xm.pair_inverses, names)
    return group_from_table(xm.pair_products, identity=xm.pair_unit, names=names)


# --- enumeration ----------------------------------------------------------

def enumerate_homomorphisms(source: FiniteGroup, target: FiniteGroup):
    """All homomorphisms source -> target, by backtracking over images."""
    n = source.order
    img = [-1] * n
    img[source.identity] = target.identity
    order = [source.identity] + [x for x in range(n) if x != source.identity]
    pos_of = {x: k for k, x in enumerate(order)}

    def consistent(k: int) -> bool:
        x = order[k]
        for y in order[: k + 1]:
            xy, yx = source.table[x][y], source.table[y][x]
            if pos_of[xy] <= k and img[xy] != target.table[img[x]][img[y]]:
                return False
            if pos_of[yx] <= k and img[yx] != target.table[img[y]][img[x]]:
                return False
        return True

    def walk(k: int):
        if k == n:
            yield tuple(img)
            return
        x = order[k]
        for v in target.elements():
            img[x] = v
            if consistent(k):
                yield from walk(k + 1)
        img[x] = -1

    yield from walk(1)


def enumerate_automorphisms(g: FiniteGroup):
    """All automorphisms of g, as image tuples."""
    for m in enumerate_homomorphisms(g, g):
        if len(set(m)) == g.order:
            yield m


def enumerate_actions(actor: FiniteGroup, space: FiniteGroup):
    """All automorphism actions of actor on space, as row tables."""
    auts = list(enumerate_automorphisms(space))
    aut_index = {a: i for i, a in enumerate(auts)}
    compose = [
        [aut_index[tuple(a[b[x]] for x in space.elements())] for b in auts]
        for a in auts
    ]
    aut_identity = aut_index[tuple(space.elements())]
    aut_table = [list(row) for row in compose]
    # the automorphism group as an abstract group, then homs into it
    aut_group = group_from_table(aut_table, identity=aut_identity)
    for m in enumerate_homomorphisms(actor, aut_group):
        yield tuple(auts[m[a]] for a in actor.elements())


def enumerate_crossed_modules(
    g: FiniteGroup,
    h: FiniteGroup,
    budget: int = 1_000_000,
) -> list[CrossedModule]:
    """Every crossed module structure on the pair (g, h).

    Runs its own copies of the two axiom loops so the result can be
    cross-checked against validate_crossed_module. The budget bounds the
    number of (boundary, action) candidates examined.
    """
    gt, ht = g.table, h.table
    ginv = g.inverse
    out = []
    seen = 0
    boundaries = list(enumerate_homomorphisms(h, g))
    for act in enumerate_actions(g, h):
        for bnd in boundaries:
            seen += 1
            if seen > budget:
                raise BudgetExceeded(f"budget of {budget} candidate pairs exceeded")
            ok = True
            for a in g.elements():
                row = act[a]
                for e in h.elements():
                    if bnd[row[e]] != gt[gt[a][bnd[e]]][ginv[a]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                for e1 in h.elements():
                    row = act[bnd[e1]]
                    ie1 = h.inverse[e1]
                    for e2 in h.elements():
                        if row[e2] != ht[ht[e1][e2]][ie1]:
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                out.append(
                    CrossedModule(
                        g,
                        h,
                        Homomorphism(h, g, bnd),
                        GroupAction(g, h, act),
                    )
                )
    out.sort(key=lambda xm: (xm.boundary.map, xm.action.table))
    return out


# --- shipped fixtures -----------------------------------------------------

def xm_inversion() -> CrossedModule:
    """Z/2 acting on Z/3 by negation, trivial boundary."""
    z2, z3 = cyclic(2), cyclic(3)
    act = make_action(z2, z3, [[0, 1, 2], [0, 2, 1]])
    return xmod_trivial_boundary(act)


def xm_sym3() -> CrossedModule:
    """S3 over itself: identity boundary, conjugation."""
    return xmod_identity(symmetric(3))


def xm_flip() -> CrossedModule:
    """Z/2 under a trivial group: every structure map trivial."""
    t = trivial_group()
    return xmod_trivial_boundary(trivial_action(t, cyclic(2)))


def xm_cyc4() -> CrossedModule:
    """Z/4 over itself: identity boundary, (trivial) conjugation."""
    return xmod_identity(cyclic(4))


def xm_peiffer_broken() -> CrossedModule:
    """Deliberately invalid: trivial boundary over nonabelian S3.

    The peiffer axiom forces a trivial-boundary fibre to be abelian, so this
    must be rejected. Built directly (the checked constructor refuses it).
    """
    t, s3 = trivial_group(), symmetric(3)
    return CrossedModule(
        t, s3, trivial_homomorphism(s3, t), trivial_action(t, s3)
    )


def fixture_catalog() -> list[tuple[str, CrossedModule]]:
    return [
        ("xm1", xm_inversion()),
        ("xm2", xm_sym3()),
        ("xm3", xm_flip()),
        ("xm4", xm_cyc4()),
    ]
