import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodcat.errors import (
    MalformedTable,
    MissingInverse,
    NoIdentity,
    NonAssociative,
)
from xmodcat.groups import (
    conjugation_action,
    cyclic,
    direct_product,
    group_from_table,
    identity_homomorphism,
    klein_four,
    make_action,
    make_homomorphism,
    small_group_catalog,
    trivial_action,
    trivial_group,
    trivial_homomorphism,
    validate_automorphism_action,
    validate_homomorphism,
)


def brute_is_group(table, identity):
    """Oracle: check the axioms by definition, no shortcuts."""
    n = len(table)
    for a in range(n):
        if table[identity][a] != a or table[a][identity] != a:
            return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return False
    for a in range(n):
        if not any(
            table[a][b] == identity and table[b][a] == identity for b in range(n)
        ):
            return False
    return True


class TestConstruction:
    def test_cyclic_groups_satisfy_axioms(self):
        for n in range(1, 13):
            g = cyclic(n)
            assert g.order == n
            assert brute_is_group(g.table, g.identity)
            assert g.is_abelian()

    def test_identity_is_inferred_when_not_given(self):
        g = group_from_table(cyclic(5).table)
        assert g.identity == 0

    def test_symmetric_group_matrices(self, s3):
        assert s3.order == 6
        assert brute_is_group(s3.table, s3.identity)
        assert not s3.is_abelian()

    def test_s3_names_follow_lexicographic_permutation_order(self, s3):
        assert s3.names == ("e", "(23)", "(12)", "(123)", "(132)", "(13)")

    def test_s3_composition_applies_right_factor_first(self, s3):
        # (12) after (123) maps 0->1->0, 1->2->2, 2->0->1, i.e. (23)
        i12, i123, i23 = s3.names.index("(12)"), s3.names.index("(123)"), s3.names.index("(23)")
        assert s3.mul(i12, i123) == i23

    def test_s3_conjugation_example(self, s3):
        # (12) |> (123) = (12)(123)(12) = (132)
        assert s3.conj(s3.names.index("(12)"), s3.names.index("(123)")) == s3.names.index("(132)")

    def test_conj_against_permutation_arithmetic(self, s3):
        perms = sorted(itertools.permutations(range(3)))
        for a in s3.elements():
            for b in s3.elements():
                pa, pb = perms[a], perms[b]
                ipa = tuple(sorted(range(3), key=lambda x: pa[x]))
                conj = tuple(pa[pb[ipa[x]]] for x in range(3))
                assert perms[s3.conj(a, b)] == conj

    def test_direct_product_indexing(self):
        g = direct_product(cyclic(2), cyclic(3))
        assert g.order == 6
        # (1, 2) * (1, 2) = (0, 1): index 1*3+2=5 squared -> index 0*3+1=1
        assert g.mul(5, 5) == 1
        assert g.is_abelian()

    def test_klein_four_every_element_is_an_involution(self):
        v4 = klein_four()
        assert all(v4.mul(a, a) == v4.identity for a in v4.elements())

    def test_trivial_group(self):
        g = trivial_group()
        assert g.order == 1 and g.identity == 0

    def test_prod_folds_left_to_right(self, s3):
        a, b, c = 2, 3, 5
        assert s3.prod(a, b, c) == s3.mul(s3.mul(a, b), c)
        assert s3.prod() == s3.identity

    def test_small_group_catalog_orders(self):
        names = [name for name, _ in small_group_catalog()]
        assert names == ["Z1", "Z2", "Z3", "Z4", "V4", "Z5", "Z6", "S3"]
        for _, g in small_group_catalog():
            assert brute_is_group(g.table, g.identity)


class TestValidation:
    def test_ragged_table_rejected(self):
        with pytest.raises(MalformedTable):
            group_from_table([[0, 1], [1]])

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(MalformedTable):
            group_from_table([[0, 1], [1, 7]])

    def test_no_identity_rejected(self):
        # constant rows: no unit anywhere
        with pytest.raises(NoIdentity):
            group_from_table([[0, 0], [0, 0]])

    def test_wrong_identity_index_rejected(self):
        with pytest.raises(NoIdentity):
            group_from_table(cyclic(3).table, identity=1)

    def test_non_associative_table_carries_witness(self):
        # rock-paper-scissors-like table with a unit row forced in
        table = [
            [0, 1, 2],
            [1, 2, 2],
            [2, 1, 0],
        ]
        with pytest.raises(NonAssociative) as exc:
            group_from_table(table, identity=0)
        a, b, c = exc.value.witness
        assert table[table[a][b]][c] != table[a][table[b][c]]

    def test_missing_inverse_rejected(self):
        # commutative monoid on {0,1} with absorbing 1: 1 has no inverse
        with pytest.raises(MissingInverse) as exc:
            group_from_table([[0, 1], [1, 1]])
        assert exc.value.witness == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(MalformedTable):
            group_from_table(cyclic(2).table, names=["x", "x"])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), data=st.data())
def test_relabelled_cyclic_tables_still_validate(n, data):
    """Conjugating a valid Cayley table by any relabelling keeps it valid."""
    perm = data.draw(st.permutations(range(n)))
    inv = sorted(range(n), key=lambda x: perm[x])
    base = cyclic(n)
    table = [
        [perm[base.table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)
    ]
    g = group_from_table(table)
    assert g.identity == perm[0]
    assert g.is_abelian()


class TestHomomorphisms:
    def test_identity_and_trivial_maps_validate(self, s3):
        assert validate_homomorphism(identity_homomorphism(s3)).ok
        assert validate_homomorphism(trivial_homomorphism(s3, cyclic(4))).ok

    def test_sign_map_validates(self, s3):
        z2 = cyclic(2)
        sign = [0 if name in ("e", "(123)", "(132)") else 1 for name in s3.names]
        assert validate_homomorphism(make_homomorphism(s3, z2, sign)).ok

    def test_non_homomorphism_reported_with_witness(self, s3):
        z2 = cyclic(2)
        rep = validate_homomorphism(make_homomorphism(s3, z2, [0, 1, 0, 1, 0, 1]))
        assert not rep.ok
        a, b = rep.violations[0].witness
        f = [0, 1, 0, 1, 0, 1]
        assert f[s3.mul(a, b)] != z2.mul(f[a], f[b])

    def test_wrong_length_map_rejected(self, s3):
        with pytest.raises(MalformedTable):
            make_homomorphism(s3, cyclic(2), [0, 1])

    def test_homomorphism_is_callable(self, s3):
        h = identity_homomorphism(s3)
        assert [h(a) for a in s3.elements()] == list(s3.elements())


class TestActions:
    def test_conjugation_action_validates(self, s3):
        assert validate_automorphism_action(conjugation_action(s3)).ok

    def test_trivial_action_validates(self, s3):
        assert validate_automorphism_action(trivial_action(s3, cyclic(5))).ok

    def test_inversion_action_validates(self):
        z2, z3 = cyclic(2), cyclic(3)
        assert validate_automorphism_action(make_action(z2, z3, [[0, 1, 2], [0, 2, 1]])).ok

    def test_non_bijective_row_reported(self):
        z2, z3 = cyclic(2), cyclic(3)
        rep = validate_automorphism_action(make_action(z2, z3, [[0, 1, 2], [0, 0, 1]]))
        assert rep.count("bijective") > 0

    def test_non_multiplicative_row_reported(self):
        z2, z4 = cyclic(2), cyclic(4)
        # swap 1 and 2: a bijection fixing 0 but not a homomorphism
        rep = validate_automorphism_action(make_action(z2, z4, [[0, 1, 2, 3], [0, 2, 1, 3]]))
        assert rep.count("respects-product") > 0

    def test_unit_law_reported(self):
        z2, z3 = cyclic(2), cyclic(3)
        rep = validate_automorphism_action(make_action(z2, z3, [[0, 2, 1], [0, 1, 2]]))
        assert rep.count("unit") > 0

    def test_composition_law_reported(self):
        z4, z5 = cyclic(4), cyclic(5)
        # 1 acts by doubling (order 4 in Aut(Z5)), but 2 acts trivially
        table = [[0, 1, 2, 3, 4], [0, 2, 4, 1, 3], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4]]
        rep = validate_automorphism_action(make_action(z4, z5, table))
        assert rep.count("composition") > 0

    def test_act_method_matches_table(self):
        z2, z3 = cyclic(2), cyclic(3)
        a = make_action(z2, z3, [[0, 1, 2], [0, 2, 1]])
        assert a.act(1, 1) == 2 and a.act(0, 1) == 1
