import pytest

from xmodcat.errors import (
    IdentityLawViolation,
    MalformedTable,
    MixedStructures,
    NonAssociative,
    NotComposable,
    TypeMismatch,
)
from xmodcat.action import trivial_strict_action
from xmodcat.fincat import category_from_tables, terminal_category
from xmodcat.groups import trivial_group
from xmodcat.xmod import xmod_identity
from reference import (
    Functor,
    NatTrans,
    functor_compose,
    identity_functor,
    validate_functor,
    validate_nat_trans,
)


def walking_arrow():
    """Two objects, one arrow between them, plus identities."""
    return category_from_tables(
        2,
        [(0, 0), (1, 1), (0, 1)],  # id0, id1, a: 0 -> 1
        [0, 1],
        [(0, 0, 0), (1, 1, 1), (2, 0, 2), (1, 2, 2)],
    )


def parallel_pair():
    """Two objects, two parallel arrows 0 -> 1."""
    return category_from_tables(
        2,
        [(0, 0), (1, 1), (0, 1), (0, 1)],
        [0, 1],
        [(0, 0, 0), (1, 1, 1), (2, 0, 2), (1, 2, 2), (3, 0, 3), (1, 3, 3)],
    )


class TestConstruction:
    def test_terminal_category(self):
        t = terminal_category()
        assert t.n_objects == 1 and t.n_morphisms == 1
        assert t.compose(0, 0) == 0

    def test_walking_arrow(self):
        c = walking_arrow()
        assert c.hom(0, 1) == [2]
        assert c.compose(2, 0) == 2
        assert c.is_identity(0) and not c.is_identity(2)

    # the package lists composable pairs once, in an action's tables
    def test_composable_pairs_cover_exactly_matching_endpoints(self):
        c = walking_arrow()
        after = trivial_strict_action(xmod_identity(trivial_group()), c).tables.after
        pairs = {(g, f) for f in c.morphisms() for g in after[f]}
        assert pairs == {(g, f) for g in c.morphisms() for f in c.morphisms() if c.src[g] == c.tgt[f]}

    def test_compose_mismatch_raises(self):
        c = walking_arrow()
        with pytest.raises(NotComposable):
            c.compose(0, 2)

    def test_endpoint_out_of_range(self):
        with pytest.raises(MalformedTable):
            category_from_tables(1, [(0, 3)], [0], [])

    def test_identity_must_be_endomorphism(self):
        with pytest.raises(TypeMismatch):
            category_from_tables(2, [(0, 0), (1, 1), (0, 1)], [0, 2], [])

    def test_composite_for_non_composable_pair_rejected(self):
        with pytest.raises(TypeMismatch):
            category_from_tables(
                2,
                [(0, 0), (1, 1), (0, 1)],
                [0, 1],
                [(0, 0, 0), (1, 1, 1), (2, 0, 2), (1, 2, 2), (0, 2, 2)],
            )

    def test_missing_composite_rejected(self):
        with pytest.raises(TypeMismatch):
            category_from_tables(
                2,
                [(0, 0), (1, 1), (0, 1)],
                [0, 1],
                [(0, 0, 0), (1, 1, 1), (2, 0, 2)],
            )

    def test_the_first_missing_composite_is_named(self):
        # (1,2) and (2,0) are both missing; the walk is by f, then by g, so
        # it names (2,0), which comes second by (g, f)
        with pytest.raises(TypeMismatch) as exc:
            category_from_tables(
                2,
                [(0, 0), (1, 1), (0, 1)],
                [0, 1],
                [(0, 0, 0), (1, 1, 1)],
            )
        assert str(exc.value) == "missing composite for composable pair (2,0)"
        # (1,1) and (2,1) are both missing and share f; the lower g is named
        with pytest.raises(TypeMismatch) as exc:
            category_from_tables(
                1,
                [(0, 0)] * 3,
                [0],
                [(g, f, 0) for g in range(3) for f in range(3) if f != 1 or g == 0],
            )
        assert str(exc.value) == "missing composite for composable pair (1,1)"

    def test_composite_with_wrong_endpoints_rejected(self):
        with pytest.raises(TypeMismatch):
            category_from_tables(
                2,
                [(0, 0), (1, 1), (0, 1)],
                [0, 1],
                [(0, 0, 0), (1, 1, 1), (2, 0, 0), (1, 2, 2)],
            )

    def test_identity_law_violation(self):
        # monoid {id, a} with id after a = id
        with pytest.raises(IdentityLawViolation):
            category_from_tables(
                1,
                [(0, 0), (0, 0)],
                [0],
                [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 0)],
            )

    def test_non_associative_monoid_rejected_with_witness(self):
        # one object, morphisms {e, a, b}; table is unital but breaks
        # associativity: (a a) a = b a = a  vs  a (a a) = a b = b
        comp = [
            (0, 0, 0), (0, 1, 1), (0, 2, 2),
            (1, 0, 1), (2, 0, 2),
            (1, 1, 2), (1, 2, 2), (2, 1, 1), (2, 2, 1),
        ]
        with pytest.raises(NonAssociative) as exc:
            category_from_tables(1, [(0, 0)] * 3, [0], comp)
        h, g, f = exc.value.witness
        table = {(g_, f_): r for g_, f_, r in comp}
        assert table[(h, table[(g, f)])] != table[(table[(h, g)], f)]

    def test_conflicting_composition_entries_rejected(self):
        with pytest.raises(MalformedTable):
            category_from_tables(1, [(0, 0)], [0], [(0, 0, 0), (0, 0, 0), (0, 0, 1)])


class TestFunctors:
    def test_identity_functor_validates(self):
        for c in (terminal_category(), walking_arrow(), parallel_pair()):
            assert validate_functor(identity_functor(c)).ok

    def test_collapse_functor_validates(self):
        c = walking_arrow()
        t = terminal_category()
        assert validate_functor(Functor(c, t, (0, 0), (0, 0, 0))).ok

    def test_functor_composition(self):
        c = walking_arrow()
        f = identity_functor(c)
        assert functor_compose(f, f) == f

    def test_composition_mismatch(self):
        with pytest.raises(MixedStructures):
            functor_compose(identity_functor(terminal_category()), identity_functor(walking_arrow()))

    def test_typing_violation_reported(self):
        c = walking_arrow()
        bad = Functor(c, c, (0, 1), (0, 1, 1))  # sends a: 0->1 to id1
        rep = validate_functor(bad)
        assert rep.count("typing") == 1

    def test_identity_violation_reported(self):
        c = parallel_pair()
        bad = Functor(c, c, (0, 1), (0, 1, 2, 2))
        rep = validate_functor(bad)
        assert rep.ok  # swapping the parallel arrows is functorial...
        bad2 = Functor(c, c, (0, 1), (2, 1, 2, 3))  # ...but id0 -> a is not
        rep2 = validate_functor(bad2)
        assert rep2.count("typing") > 0 or rep2.count("identities") > 0

    def test_wrong_table_lengths_raise(self):
        c = walking_arrow()
        with pytest.raises(MalformedTable):
            validate_functor(Functor(c, c, (0,), (0, 1, 2)))


class TestNatTrans:
    def test_identity_transformation_validates(self):
        c = walking_arrow()
        f = identity_functor(c)
        t = NatTrans(f, f, tuple(c.identity))
        assert validate_nat_trans(t).ok

    def test_component_typing_failure(self):
        c = walking_arrow()
        f = identity_functor(c)
        t = NatTrans(f, f, (2, 1))  # component at 0 is a: 0->1, not an endo of 0
        rep = validate_nat_trans(t)
        assert rep.count("component-typing") == 1

    def test_naturality_failure(self):
        c = parallel_pair()
        f = identity_functor(c)
        g = Functor(c, c, (0, 1), (0, 1, 3, 2))  # swap the parallel pair
        t = NatTrans(f, g, tuple(c.identity))
        rep = validate_nat_trans(t)
        assert rep.count("naturality") == 2  # both non-identity arrows fail

    def test_parallel_functors_required(self):
        c, t = walking_arrow(), terminal_category()
        collapse = Functor(c, t, (0, 0), (0, 0, 0))
        with pytest.raises(MixedStructures):
            validate_nat_trans(NatTrans(identity_functor(c), collapse, (0, 0)))
