"""The categorical group presented by a crossed module.

Objects are the elements of G. A morphism is a pair (g, eta) with source g
and target boundary(eta)*g. Pairs compose vertically (stacking 2-cells) and
multiply horizontally (the tensor); both directions have strict inverses.
Targets, both products and both inverses are the crossed module's pair
arithmetic (see xmod).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ComponentInvalid, MixedStructures, NotComposable
from .fincat import FiniteCategory, category_from_tables
from .groups import validate_homomorphism
from .xmod import CrossedModule


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
    """
    brep = validate_homomorphism(xm.boundary)
    if not brep.ok:
        raise ComponentInvalid(f"boundary is not a homomorphism: {brep.violations[0]}")
    n_h, stacks = xm.h.order, xm.pair_stacks
    mors = [(i // n_h, t) for i, t in enumerate(xm.pair_targets)]
    identity = [xm.pair_index(x, xm.h.identity) for x in xm.g.elements()]
    into: list[list[int]] = [[] for _ in xm.g.elements()]  # morphisms by target
    for i, (_, t) in enumerate(mors):
        into[t].append(i)
    comp = [
        (j, i, stacks[i][j % n_h])  # (g1, e2*e1) for j = (g2, e2) after i = (g1, e1)
        for j, (s2, _) in enumerate(mors)
        for i in into[s2]
    ]
    return category_from_tables(xm.g.order, mors, identity, comp)
