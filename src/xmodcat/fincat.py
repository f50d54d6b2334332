"""Finite categories given by dense index tables.

Objects are 0..n_objects-1, morphisms 0..n_morphisms-1 with src/tgt arrays.
comp[(g, f)] is the composite "g after f" and is defined exactly when
src[g] == tgt[f]. Every FiniteGroup and FiniteCategory the package makes
satisfies its axioms: checked when read from a file (serialize calls
groups.group_from_table and category_from_tables), proved beside the code
when built from the package's own tables (terminal_category,
catgroup.underlying_category, xmod.semidirect_group). The named groups of
groups.py pass through group_from_table, and transform.transformation_groupoid
is a groupoid when its table is an action.
"""

from __future__ import annotations

from .errors import (
    IdentityLawViolation,
    MalformedTable,
    NonAssociative,
    NotComposable,
    TypeMismatch,
)
from .groups import is_index


class FiniteCategory:
    def __init__(self, n_objects, src, tgt, identity, comp):
        self.n_objects = n_objects
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.identity = tuple(identity)
        self.comp = comp  # any Mapping (g, f) -> g after f, kept as given

    @property
    def n_morphisms(self) -> int:
        return len(self.src)

    def objects(self) -> range:
        return range(self.n_objects)

    def morphisms(self) -> range:
        return range(len(self.src))

    def compose(self, g: int, f: int) -> int:
        """g after f; raises NotComposable on a source/target mismatch."""
        try:
            return self.comp[(g, f)]
        except KeyError:
            raise NotComposable(
                f"tgt of morphism {f} is {self.tgt[f]}, src of {g} is {self.src[g]}"
            ) from None

    def hom(self, x: int, y: int) -> list[int]:
        return [f for f in self.morphisms() if self.src[f] == x and self.tgt[f] == y]

    def is_identity(self, f: int) -> bool:
        return self.identity[self.src[f]] == f

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteCategory)
            and self.n_objects == other.n_objects
            and self.src == other.src
            and self.tgt == other.tgt
            and self.identity == other.identity
            and self.comp == other.comp
        )

    def __repr__(self) -> str:
        return f"FiniteCategory({self.n_objects} objects, {self.n_morphisms} morphisms)"


def category_from_tables(n_objects, morphisms, identity, comp) -> FiniteCategory:
    """Checked constructor, for tables read from a file.

    morphisms: sequence of (src, tgt) pairs; comp: sequence of (g, f, g_after_f).
    Checks, raising on the first failure: the counts and every index are in
    range, each identity is an endomorphism of its object, no composite is
    given twice with different values, each composite is of a composable
    pair and has the endpoints of one, none is missing (the composable
    pairs are walked in (f, g) order, so the first missing one is named),
    the identity laws, and associativity on every composable triple.
    """
    src = tuple(s for s, _ in morphisms)
    tgt = tuple(t for _, t in morphisms)
    n_mor = len(src)
    if type(n_objects) is not int or n_objects < 0:
        raise MalformedTable(f"object count {n_objects!r} is not a non-negative int")
    for f in range(n_mor):
        if not (is_index(src[f], n_objects) and is_index(tgt[f], n_objects)):
            raise MalformedTable(f"morphism {f} has endpoints out of range")
    identity = tuple(identity)
    if len(identity) != n_objects:
        raise MalformedTable("identity table length must equal object count")
    for x, i in enumerate(identity):
        if not is_index(i, n_mor):
            raise MalformedTable(f"identity[{x}] out of range")
        if src[i] != x or tgt[i] != x:
            raise TypeMismatch(f"identity[{x}] = {i} is not an endomorphism of {x}")

    table: dict[tuple[int, int], int] = {}
    for g, f, r in comp:
        if not (is_index(g, n_mor) and is_index(f, n_mor) and is_index(r, n_mor)):
            raise MalformedTable(f"composition entry ({g},{f},{r}) out of range")
        if (g, f) in table and table[(g, f)] != r:
            raise MalformedTable(f"conflicting entries for composite ({g},{f})")
        table[(g, f)] = r

    for (g, f), r in table.items():
        if src[g] != tgt[f]:
            raise TypeMismatch(f"composite ({g},{f}) defined but not composable")
        if src[r] != src[f] or tgt[r] != tgt[g]:
            raise TypeMismatch(f"composite ({g},{f}) = {r} has wrong endpoints")
    by_src: dict[int, list[int]] = {}
    for g in range(n_mor):
        by_src.setdefault(src[g], []).append(g)
    for f in range(n_mor):
        for g in by_src.get(tgt[f], ()):
            if (g, f) not in table:
                raise TypeMismatch(f"missing composite for composable pair ({g},{f})")

    for f in range(n_mor):
        if table[(identity[tgt[f]], f)] != f:
            raise IdentityLawViolation(f"id after {f} is not {f}")
        if table[(f, identity[src[f]])] != f:
            raise IdentityLawViolation(f"{f} after id is not {f}")

    for f in range(n_mor):
        for g in by_src.get(tgt[f], ()):
            gf = table[(g, f)]
            for h in by_src.get(tgt[g], ()):
                if table[(h, gf)] != table[(table[(h, g)], f)]:
                    raise NonAssociative(h, g, f)

    return FiniteCategory(n_objects, src, tgt, identity, table)


def terminal_category() -> FiniteCategory:
    """One object and its identity, which composes with itself to itself."""
    return FiniteCategory(1, (0,), (0,), (0,), {(0, 0): 0})
