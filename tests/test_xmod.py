import itertools

import pytest

from xmodcat.errors import (
    BudgetExceeded,
    ComponentInvalid,
    MixedStructures,
    SpaceNotAbelian,
)
from xmodcat.groups import (
    cyclic,
    identity_homomorphism,
    klein_four,
    make_action,
    make_homomorphism,
    symmetric,
    trivial_action,
    trivial_homomorphism,
)
from xmodcat.report import Report, run_laws
from xmodcat.xmod import (
    crossed_module_laws,
    enumerate_actions,
    enumerate_automorphisms,
    enumerate_crossed_modules,
    enumerate_homomorphisms,
    fixture_catalog,
    make_crossed_module,
    semidirect_group,
    validate_crossed_module,
    xmod_identity,
    xmod_trivial_boundary,
)


class TestAxioms:
    def test_shipped_fixtures_validate(self, all_xms):
        for name, xm in all_xms:
            rep = validate_crossed_module(xm)
            assert rep.ok, f"{name}: {rep.violations[:3]}"

    def test_broken_fixture_fails_second_axiom_only(self, bad_xm):
        rep = validate_crossed_module(bad_xm)
        assert not rep.ok
        assert rep.count("equivariance") == 0
        assert rep.count("peiffer") == 18
        first = [v for v in rep.violations if v.law == "peiffer"][0]
        assert first.witness == (1, 2)

    def test_a_report_with_no_witness_kept_is_not_ok(self, bad_xm):
        rep = run_laws(Report(cap=0), "xmod", crossed_module_laws(bad_xm))
        assert rep.violations == [] and rep.capped
        assert rep.count() == 18
        assert not rep.ok
        assert str(rep) == "18 violation(s) in 42 checks (capped)"

    def test_broken_fixture_witness_is_a_real_counterexample(self, bad_xm):
        e1, e2 = 1, 2
        h = bad_xm.h
        assert bad_xm.act(bad_xm.bnd(e1), e2) != h.conj(e1, e2)

    def test_identity_structure_validates_on_nonabelian_group(self, s3):
        assert validate_crossed_module(xmod_identity(s3)).ok

    def test_component_failures_blamed_before_axioms(self, s3):
        z2 = cyclic(2)
        bad_map = make_homomorphism(s3, z2, [0, 1, 0, 1, 0, 1])  # not a hom
        xm = make_crossed_module(s3, s3, identity_homomorphism(s3), trivial_action(s3, s3))
        xm = make_crossed_module(z2, s3, bad_map, trivial_action(z2, s3))
        with pytest.raises(ComponentInvalid):
            validate_crossed_module(xm)

    def test_mismatched_pieces_rejected(self, s3):
        z2 = cyclic(2)
        with pytest.raises(MixedStructures):
            make_crossed_module(z2, s3, identity_homomorphism(s3), trivial_action(z2, s3))
        with pytest.raises(MixedStructures):
            make_crossed_module(z2, s3, trivial_homomorphism(s3, z2), trivial_action(s3, s3))

    def test_trivial_boundary_needs_abelian_space(self, s3):
        with pytest.raises(SpaceNotAbelian) as exc:
            xmod_trivial_boundary(trivial_action(cyclic(2), s3))
        a, b = exc.value.witness
        assert s3.mul(a, b) != s3.mul(b, a)


class TestPairGroup:
    def test_semidirect_of_inversion_module_is_symmetric(self, xm1):
        sd = semidirect_group(xm1)
        assert sd.order == 6
        orders = sorted(
            next(k for k in range(1, 7) if _pow(sd, a, k) == sd.identity)
            for a in sd.elements()
        )
        assert orders == [1, 2, 2, 2, 3, 3]  # S3's element-order profile

    def test_table_matches_pair_mul(self, xm2):
        sd = semidirect_group(xm2)
        for i in range(xm2.npairs):
            for j in range(xm2.npairs):
                g, h = xm2.pair_mul(xm2.pair_of(i), xm2.pair_of(j))
                assert sd.table[i][j] == xm2.pair_index(g, h)

    def test_pair_inverse(self, all_xms):
        for _, xm in all_xms:
            e = (xm.g.identity, xm.h.identity)
            for i in range(xm.npairs):
                p = xm.pair_of(i)
                assert xm.pair_mul(p, xm.pair_inv(p)) == e
                assert xm.pair_mul(xm.pair_inv(p), p) == e

    def test_fixture_catalog_names(self):
        assert [name for name, _ in fixture_catalog()] == ["xm1", "xm2", "xm3", "xm4"]


def _pow(g, a, k):
    out = g.identity
    for _ in range(k):
        out = g.mul(out, a)
    return out


def brute_homs_s3_to_s3():
    """All 6^6 maps, filtered by the homomorphism equation directly."""
    s3 = symmetric(3)
    homs = []
    for f in itertools.product(range(6), repeat=6):
        if all(
            f[s3.mul(a, b)] == s3.mul(f[a], f[b])
            for a in range(6)
            for b in range(6)
        ):
            homs.append(f)
    return homs


class TestEnumeration:
    def test_hom_count_s3_s3_against_brute_force(self, s3):
        fast = sorted(enumerate_homomorphisms(s3, s3))
        assert fast == sorted(brute_homs_s3_to_s3())
        assert len(fast) == 10

    def test_automorphism_counts(self, s3):
        assert len(list(enumerate_automorphisms(s3))) == 6
        assert len(list(enumerate_automorphisms(cyclic(4)))) == 2
        assert len(list(enumerate_automorphisms(klein_four()))) == 6

    def test_hom_z3_to_s3(self, s3):
        assert len(list(enumerate_homomorphisms(cyclic(3), s3))) == 3

    def test_action_counts(self, s3):
        assert len(list(enumerate_actions(s3, cyclic(3)))) == 2
        assert len(list(enumerate_actions(cyclic(2), cyclic(3)))) == 2
        assert len(list(enumerate_actions(cyclic(1), s3))) == 1

    def test_every_enumerated_action_validates(self, s3):
        from xmodcat.groups import validate_automorphism_action

        for table in enumerate_actions(s3, s3):
            a = make_action(s3, s3, [list(r) for r in table])
            assert validate_automorphism_action(a).ok

    def test_structure_counts_on_small_pairs(self, s3):
        assert len(enumerate_crossed_modules(cyclic(1), cyclic(3))) == 1
        assert len(enumerate_crossed_modules(cyclic(1), s3)) == 0  # H must be abelian over trivial G
        assert len(enumerate_crossed_modules(cyclic(2), cyclic(3))) == 2
        assert len(enumerate_crossed_modules(s3, s3)) == 6

    def test_enumeration_contains_the_inversion_fixture(self, xm1):
        found = enumerate_crossed_modules(cyclic(2), cyclic(3))
        assert any(
            xm.boundary.map == xm1.boundary.map and xm.action.table == xm1.action.table
            for xm in found
        )

    def test_enumeration_agrees_with_validator(self):
        """Independently filter all (boundary, action) pairs via the validator."""
        g, h = cyclic(2), cyclic(3)
        expected = 0
        for act in enumerate_actions(g, h):
            for bnd in enumerate_homomorphisms(h, g):
                xm = make_crossed_module(
                    g,
                    h,
                    make_homomorphism(h, g, list(bnd)),
                    make_action(g, h, [list(r) for r in act]),
                )
                if validate_crossed_module(xm).ok:
                    expected += 1
        assert len(enumerate_crossed_modules(g, h)) == expected

    def test_budget_guard(self, s3):
        with pytest.raises(BudgetExceeded):
            enumerate_crossed_modules(s3, s3, budget=3)
