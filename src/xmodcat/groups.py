"""Finite groups as dense Cayley tables over element indices 0..n-1.

Conventions used everywhere in this package:

* ``table[a][b]`` is the product a*b,
* inverses are precomputed at construction,
* all shipped fixtures put the identity at index 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    MalformedTable,
    MissingInverse,
    NoIdentity,
    NonAssociative,
)
from .report import Law, Report, holds, product_law, run_laws


def is_index(v, n: int) -> bool:
    """v is an int, not a bool, in range(n): a valid entry of an n-row table."""
    return type(v) is int and 0 <= v < n


@dataclass(frozen=True)
class FiniteGroup:
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    names: tuple[str, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.table)

    def elements(self) -> range:
        return range(len(self.table))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conj(self, a: int, b: int) -> int:
        """a * b * a^-1."""
        return self.table[self.table[a][b]][self.inverse[a]]

    def prod(self, *xs: int) -> int:
        out = self.identity
        for x in xs:
            out = self.table[out][x]
        return out

    def is_abelian(self) -> bool:
        n = len(self.table)
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(n)
            for b in range(a + 1, n)
        )

    def name_of(self, a: int) -> str:
        if self.names is not None:
            return self.names[a]
        return str(a)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def group_from_table(
    table,
    identity: int | None = None,
    names=None,
) -> FiniteGroup:
    """Build a group from a Cayley table, checking every axiom.

    Raises MalformedTable / NoIdentity / NonAssociative / MissingInverse
    with a witness rather than returning a broken structure.
    """
    rows = tuple(tuple(row) for row in table)
    n = len(rows)
    if n == 0:
        raise MalformedTable("empty table")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise MalformedTable(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not is_index(v, n):
                raise MalformedTable(f"entry [{i}][{j}] = {v!r} out of range")

    if identity is None:
        identity = next(
            (e for e in range(n) if all(rows[e][x] == x and rows[x][e] == x for x in range(n))),
            -1,
        )
        if identity < 0:
            raise NoIdentity("no two-sided identity present")
    else:
        if not is_index(identity, n):
            raise NoIdentity(f"identity index {identity} out of range")
        for x in range(n):
            if rows[identity][x] != x or rows[x][identity] != x:
                raise NoIdentity(f"index {identity} is not a unit at {x}")

    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            for c in range(n):
                if rows[ab][c] != rows[a][rows[b][c]]:
                    raise NonAssociative(a, b, c)

    inverse = []
    for a in range(n):
        b = next((b for b in range(n) if rows[a][b] == identity), -1)
        if b < 0 or rows[b][a] != identity:
            raise MissingInverse(a)
        inverse.append(b)

    if names is not None:
        names = tuple(str(s) for s in names)
        if len(names) != n or len(set(names)) != n:
            raise MalformedTable("names must be unique and match the order")

    return FiniteGroup(rows, identity, tuple(inverse), names)


def cyclic(n: int) -> FiniteGroup:
    """Z/n with addition, identity 0."""
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return group_from_table(table, identity=0)


def trivial_group() -> FiniteGroup:
    return cyclic(1)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (a, b) gets index a*|h| + b."""
    nh = h.order
    idx = lambda a, b: a * nh + b
    table = [
        [
            idx(g.table[a1][a2], h.table[b1][b2])
            for a2 in g.elements()
            for b2 in h.elements()
        ]
        for a1 in g.elements()
        for b1 in h.elements()
    ]
    return group_from_table(table, identity=idx(g.identity, h.identity))


def klein_four() -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2))


def _cycle_name(perm: tuple[int, ...]) -> str:
    # 1-based cycle notation, "e" for the identity
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        parts.append("(" + "".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) if parts else "e"


def symmetric(n: int) -> FiniteGroup:
    """S_n on points 0..n-1; composition applies the right factor first.

    Elements are ordered lexicographically as permutation tuples, which puts
    the identity at index 0.
    """
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms]
        for p in perms
    ]
    names = [_cycle_name(p) for p in perms]
    return group_from_table(table, identity=0, names=names)


def small_group_catalog() -> list[tuple[str, FiniteGroup]]:
    """One group per isomorphism class of order at most 6."""
    return [
        ("Z1", cyclic(1)),
        ("Z2", cyclic(2)),
        ("Z3", cyclic(3)),
        ("Z4", cyclic(4)),
        ("V4", klein_four()),
        ("Z5", cyclic(5)),
        ("Z6", cyclic(6)),
        ("S3", symmetric(3)),
    ]


@dataclass(frozen=True)
class Homomorphism:
    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.map[a]


def make_homomorphism(source: FiniteGroup, target: FiniteGroup, mapping) -> Homomorphism:
    m = tuple(mapping)
    if len(m) != source.order:
        raise MalformedTable(f"map has length {len(m)}, expected {source.order}")
    for a, v in enumerate(m):
        if not is_index(v, target.order):
            raise MalformedTable(f"map[{a}] = {v!r} out of range")
    return Homomorphism(source, target, m)


def homomorphism_laws(f: Homomorphism) -> list[Law]:
    """f(a*b) = f(a)*f(b) on every pair; witnesses are the pairs."""
    src, tgt, m = f.source, f.target, f.map
    hom = holds(lambda a, b: m[src.table[a][b]] == tgt.table[m[a]][m[b]])
    return [product_law("homomorphism", hom, src.elements(), src.elements())]


def validate_homomorphism(f: Homomorphism) -> Report:
    """Check every law of homomorphism_laws on every instance."""
    return run_laws(Report(), "homomorphism", homomorphism_laws(f))


def identity_homomorphism(g: FiniteGroup) -> Homomorphism:
    return Homomorphism(g, g, tuple(g.elements()))


def trivial_homomorphism(source: FiniteGroup, target: FiniteGroup) -> Homomorphism:
    return Homomorphism(source, target, (target.identity,) * source.order)


@dataclass(frozen=True)
class GroupAction:
    """A left action of `actor` on the set underlying `space`.

    table[g][h] is g acting on h. Validity (each row an automorphism of
    `space`, rows compose like `actor`) is checked by
    validate_automorphism_action, not assumed.
    """

    actor: FiniteGroup
    space: FiniteGroup
    table: tuple[tuple[int, ...], ...]

    def act(self, g: int, h: int) -> int:
        return self.table[g][h]


def make_action(actor: FiniteGroup, space: FiniteGroup, table) -> GroupAction:
    rows = tuple(tuple(row) for row in table)
    if len(rows) != actor.order:
        raise MalformedTable(f"action has {len(rows)} rows, expected {actor.order}")
    for g, row in enumerate(rows):
        if len(row) != space.order:
            raise MalformedTable(f"action row {g} has length {len(row)}")
        for h, v in enumerate(row):
            if not is_index(v, space.order):
                raise MalformedTable(f"action[{g}][{h}] = {v!r} out of range")
    return GroupAction(actor, space, rows)


def automorphism_action_laws(a: GroupAction) -> list[Law]:
    """Every row bijective and multiplicative; rows compose like the actor."""
    gt, st, t = a.actor, a.space, a.table
    gs, hs = gt.elements(), st.elements()

    def bijective(insts, fail) -> None:
        for (g,) in insts:
            if len(set(t[g])) != st.order:
                fail((g,), "row is not a permutation")

    def respects_product(g, h1, h2) -> bool:
        row = t[g]
        return row[st.table[h1][h2]] == st.table[row[h1]][row[h2]]

    return [
        product_law("bijective", bijective, gs),
        product_law("respects-product", holds(respects_product), gs, hs, hs),
        product_law("unit", holds(lambda h: t[gt.identity][h] == h), hs),
        product_law(
            "composition", holds(lambda g1, g2, h: t[gt.table[g1][g2]][h] == t[g1][t[g2][h]]),
            gs, gs, hs,
        ),
    ]


def validate_automorphism_action(a: GroupAction) -> Report:
    """Check every law of automorphism_action_laws on every instance."""
    return run_laws(Report(), "automorphism-action", automorphism_action_laws(a))


def conjugation_action(g: FiniteGroup) -> GroupAction:
    table = [[g.conj(a, h) for h in g.elements()] for a in g.elements()]
    return GroupAction(g, g, tuple(tuple(r) for r in table))


def trivial_action(actor: FiniteGroup, space: FiniteGroup) -> GroupAction:
    row = tuple(space.elements())
    return GroupAction(actor, space, (row,) * actor.order)
