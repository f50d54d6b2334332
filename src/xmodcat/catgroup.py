"""The categorical group presented by a crossed module.

Objects are the elements of G. A morphism is a pair (g, eta) with source g
and target boundary(eta)*g. Pairs compose vertically (stacking 2-cells) and
multiply horizontally (the tensor); both directions have strict inverses.
Targets, both products and both inverses are the crossed module's pair
arithmetic (see xmod).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MixedStructures, NotComposable
from .fincat import FiniteCategory
from .xmod import CrossedModule, check_boundary


@dataclass(frozen=True)
class Mor2G:
    xm: CrossedModule
    g: int
    eta: int


def mor_of(xm: CrossedModule, i: int) -> Mor2G:
    return Mor2G(xm, *xm.pair_of(i))


def boundary(m: Mor2G) -> tuple[int, int]:
    """(source, target) = (g, boundary(eta)*g)."""
    return m.g, m.xm.pair_target((m.g, m.eta))


def compose(m2: Mor2G, m1: Mor2G) -> Mor2G:
    """m2 after m1: requires src(m2) = tgt(m1); result (g1, eta2*eta1)."""
    if m2.xm != m1.xm:
        raise MixedStructures("morphisms from different crossed modules")
    xm = m1.xm
    if m2.g != boundary(m1)[1]:
        raise NotComposable(f"tgt {boundary(m1)[1]} != src {m2.g}")
    return Mor2G(xm, *xm.pair_stack((m1.g, m1.eta), m2.eta))


def tensor(m1: Mor2G, m2: Mor2G) -> Mor2G:
    """(g1, eta1) (x) (g2, eta2) = (g1 g2, eta1 * (g1 |> eta2))."""
    if m2.xm != m1.xm:
        raise MixedStructures("morphisms from different crossed modules")
    return Mor2G(m1.xm, *m1.xm.pair_mul((m1.g, m1.eta), (m2.g, m2.eta)))


def invert(m: Mor2G, kind: str) -> Mor2G:
    """Inverse for the chosen direction: kind is "tensor" or "compose"."""
    xm = m.xm
    if kind == "tensor":
        return Mor2G(xm, *xm.pair_inv((m.g, m.eta)))
    if kind == "compose":
        return Mor2G(xm, boundary(m)[1], xm.h.inverse[m.eta])
    raise ValueError(f"unknown inversion kind {kind!r}")


def underlying_category(xm: CrossedModule) -> FiniteCategory:
    """The categorical group as a finite category over pair indices.

    Morphism i encodes the pair divmod(i, |H|); this matches
    CrossedModule.pair_index so category morphisms and 2-group pairs share
    one index space. A boundary that is not a homomorphism raises
    ComponentInvalid naming its first violation, since no such category
    exists. The composites are listed by j, then by i, in index order.

    Built, not checked: given a homomorphic boundary b and the group H, the
    tables are a category's. (g, e) runs from g to b(e) g; j = (g2, e2)
    after i = (g1, e1) is (g1, e2 e1), from g1 to b(e2) b(e1) g1 = b(e2) g2,
    j's target (typed); each j is listed after each i with tgt i = src j
    (complete); (x, 1) runs from x to b(1) x = x, and stacking 1 on either
    side of e leaves e (unital); stacking is H's product (associative).
    """
    check_boundary(xm)
    n_h, stacks, tgt = xm.h.order, xm.pair_stacks, xm.pair_targets
    src = tuple(i // n_h for i in range(xm.npairs))
    identity = [xm.pair_index(x, xm.h.identity) for x in xm.g.elements()]
    into = [[i for i, t in enumerate(tgt) if t == x] for x in xm.g.elements()]  # morphisms by target
    comp = {(j, i): stacks[i][j % n_h] for j, s2 in enumerate(src) for i in into[s2]}
    return FiniteCategory(xm.g.order, src, tgt, identity, comp)
