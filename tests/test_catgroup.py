import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodcat.catgroup import (
    Mor2G,
    boundary,
    compose,
    invert,
    mor_of,
    tensor,
    underlying_category,
)
from xmodcat.action import adjoint_action
from xmodcat.errors import MixedStructures, NotComposable, XmodcatError
from xmodcat.report import Report, run_laws
from xmodcat.suites import catgroup_laws
from xmodcat.transform import build_transformation_double
from reference import identity_morphism, mor_index, underlying_category_reference


def all_morphisms(xm):
    return [Mor2G(xm, g, e) for g in xm.g.elements() for e in xm.h.elements()]


class TestWorkedValues:
    def test_boundary_over_identity_structure(self, xm4):
        # (g, eta) runs from g to bnd(eta)*g; over Z4 with identity boundary
        # (1, 2) runs 1 -> 2+1 = 3
        assert boundary(Mor2G(xm4, 1, 2)) == (1, 3)

    def test_stacking_adds_labels(self, xm4):
        m1 = Mor2G(xm4, 3, 1)  # 3 -> 0
        m2 = Mor2G(xm4, 0, 1)  # 0 -> 1
        out = compose(m2, m1)
        assert (out.g, out.eta) == (3, 2)
        assert boundary(out) == (3, 1)

    def test_tensor_twists_by_the_action(self, xm1):
        # (1,1) (x) (1,2) = (1*1, 1 + (1 |> 2)) = (0, 1 + 1) = (0, 2)
        out = tensor(Mor2G(xm1, 1, 1), Mor2G(xm1, 1, 2))
        assert (out.g, out.eta) == (0, 2)

    def test_tensor_over_identity_structure(self, xm4):
        out = tensor(Mor2G(xm4, 1, 1), Mor2G(xm4, 2, 3))
        assert (out.g, out.eta) == (3, 0)

    def test_tensor_inverse_example(self, xm1):
        inv = invert(Mor2G(xm1, 1, 1), "tensor")
        assert (inv.g, inv.eta) == (1, 1)

    def test_non_composable_pairs_rejected(self, xm4):
        # (0, 1) ends at 1, so only morphisms starting at 1 stack on it
        with pytest.raises(NotComposable):
            compose(Mor2G(xm4, 2, 0), Mor2G(xm4, 0, 1))

    def test_mixed_structures_rejected(self, xm1, xm3):
        with pytest.raises(MixedStructures):
            compose(Mor2G(xm1, 0, 0), Mor2G(xm3, 0, 0))
        with pytest.raises(MixedStructures):
            tensor(Mor2G(xm1, 0, 0), Mor2G(xm3, 0, 0))


class TestLaws:
    def test_pair_indexing_round_trips(self, all_xms):
        for _, xm in all_xms:
            for i in range(xm.npairs):
                assert mor_index(mor_of(xm, i)) == i

    def test_identities_are_units_for_stacking(self, all_xms):
        for _, xm in all_xms:
            for m in all_morphisms(xm):
                s, t = boundary(m)
                assert compose(m, identity_morphism(xm, s)) == m
                assert compose(identity_morphism(xm, t), m) == m

    def test_tensor_unit(self, all_xms):
        for _, xm in all_xms:
            e = identity_morphism(xm, xm.g.identity)
            for m in all_morphisms(xm):
                assert tensor(e, m) == m
                assert tensor(m, e) == m

    def test_tensor_associative(self, xm1, xm2):
        for xm in (xm1, xm2):
            ms = all_morphisms(xm)
            for a, b, c in itertools.product(ms, repeat=3):
                assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))

    def test_tensor_typing(self, all_xms):
        # (x) acts on boundaries by pointwise product in G
        for _, xm in all_xms:
            for a in all_morphisms(xm):
                for b in all_morphisms(xm):
                    s1, t1 = boundary(a)
                    s2, t2 = boundary(b)
                    s, t = boundary(tensor(a, b))
                    assert s == xm.g.mul(s1, s2) and t == xm.g.mul(t1, t2)

    def test_inverses_both_directions(self, all_xms):
        for _, xm in all_xms:
            for m in all_morphisms(xm):
                ti = invert(m, "tensor")
                e = identity_morphism(xm, xm.g.identity)
                assert tensor(m, ti) == e and tensor(ti, m) == e
                ci = invert(m, "compose")
                s, t = boundary(m)
                assert compose(ci, m) == identity_morphism(xm, s)
                assert compose(m, ci) == identity_morphism(xm, t)

    def test_unknown_inversion_kind(self, xm1):
        with pytest.raises(ValueError):
            invert(Mor2G(xm1, 0, 0), "sideways")

    def test_interchange_of_tensor_and_stacking(self, xm1):
        # exhaustive over every stackable 2x2 arrangement of the small fixture
        ms = all_morphisms(xm1)
        for a1, b1 in itertools.product(ms, repeat=2):
            for ea in xm1.h.elements():
                for eb in xm1.h.elements():
                    a2 = Mor2G(xm1, boundary(a1)[1], ea)
                    b2 = Mor2G(xm1, boundary(b1)[1], eb)
                    lhs = tensor(compose(a2, a1), compose(b2, b1))
                    rhs = compose(tensor(a2, b2), tensor(a1, b1))
                    assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_interchange_sampled_on_symmetric_fixture(data, xm2):
    g1 = data.draw(st.integers(0, 5))
    e1 = data.draw(st.integers(0, 5))
    e2 = data.draw(st.integers(0, 5))
    k1 = data.draw(st.integers(0, 5))
    f1 = data.draw(st.integers(0, 5))
    f2 = data.draw(st.integers(0, 5))
    a1 = Mor2G(xm2, g1, e1)
    a2 = Mor2G(xm2, boundary(a1)[1], e2)
    b1 = Mor2G(xm2, k1, f1)
    b2 = Mor2G(xm2, boundary(b1)[1], f2)
    assert tensor(compose(a2, a1), compose(b2, b1)) == compose(
        tensor(a2, b2), tensor(a1, b1)
    )


class TestEckmannHilton:
    def test_kernel_labels_commute_and_operations_agree(self, all_xms):
        for _, xm in all_xms:
            e = xm.g.identity
            kernel = [k for k in xm.h.elements() if xm.bnd(k) == e]
            for k1 in kernel:
                for k2 in kernel:
                    m1, m2 = Mor2G(xm, e, k1), Mor2G(xm, e, k2)
                    t = tensor(m1, m2)
                    c = compose(m2, m1)
                    assert t == c
                    assert t == tensor(m2, m1)  # commutative

    def test_inversion_fixture_kernel_is_everything(self, xm1):
        assert [k for k in xm1.h.elements() if xm1.bnd(k) == 0] == [0, 1, 2]


class TestUnderlyingCategory:
    def test_sizes(self, xm1, xm3, xm4):
        c1 = underlying_category(xm1)
        assert (c1.n_objects, c1.n_morphisms) == (2, 6)
        c3 = underlying_category(xm3)
        assert (c3.n_objects, c3.n_morphisms) == (1, 2)
        c4 = underlying_category(xm4)
        assert (c4.n_objects, c4.n_morphisms) == (4, 16)

    def test_composition_table_matches_pair_calculus(self, all_xms):
        for _, xm in all_xms:
            c = underlying_category(xm)
            for (j, i), r in c.comp.items():
                out = compose(mor_of(xm, j), mor_of(xm, i))
                assert mor_index(out) == r

    def test_endpoints_follow_the_boundary_formula(self, xm2):
        c = underlying_category(xm2)
        for i in range(xm2.npairs):
            s, t = boundary(mor_of(xm2, i))
            assert c.src[i] == s and c.tgt[i] == t

    def test_trivial_boundary_makes_all_endomorphisms(self, xm1):
        c = underlying_category(xm1)
        assert all(c.src[i] == c.tgt[i] for i in c.morphisms())

    def test_equals_the_checked_construction(self, table_xms):
        # built from the pair tables with no check, it is the category that
        # category_from_tables accepts, its composites in the all-pairs scan order
        for xm in table_xms:
            got, want = underlying_category(xm), underlying_category_reference(xm)
            assert got == want and list(got.comp.items()) == list(want.comp.items())


# --- the pair-index laws against the Mor2G layer --------------------------------

def mor2g_interchange(xm, m1, c2, n1, d2):
    """The law's witness if interchange fails at these pair indices, on Mor2G."""
    m1, n1 = mor_of(xm, m1), mor_of(xm, n1)
    m2 = Mor2G(xm, boundary(m1)[1], c2)
    n2 = Mor2G(xm, boundary(n1)[1], d2)
    if tensor(compose(m2, m1), compose(n2, n1)) != compose(tensor(m2, n2), tensor(m1, n1)):
        return m1.g, m1.eta, c2, n1.g, n1.eta, d2
    return None


def mor2g_tensor_typing(xm, p1, p2):
    a, b = mor_of(xm, p1), mor_of(xm, p2)
    (s1, t1), (s2, t2), (s, t) = boundary(a), boundary(b), boundary(tensor(a, b))
    if s != xm.g.mul(s1, s2) or t != xm.g.mul(t1, t2):
        return a.g, a.eta, b.g, b.eta
    return None


REFERENCES = {"interchange": mor2g_interchange, "tensor-typing": mor2g_tensor_typing}


def failures(check, insts):
    """The witnesses check fails, or the type and message of what it raised."""
    found = []
    try:
        check(insts, lambda witness, detail="": found.append(witness))
    except XmodcatError as exc:
        return type(exc), str(exc)
    return found


def reference_check(xm, law):
    def check(insts, fail) -> None:
        for inst in insts:
            witness = REFERENCES[law](xm, *inst)
            if witness is not None:
                fail(witness)

    return check


class TestPairIndexLaws:
    @pytest.mark.parametrize("law", sorted(REFERENCES))
    def test_the_kernel_laws_match_the_mor2g_layer(self, xm1, xm2, xm4, bad_xm, broken_xm, law):
        rng = random.Random(law)
        for xm in (xm1, xm2, xm4, bad_xm, broken_xm):
            d = build_transformation_double(adjoint_action(xm), validate=False)
            (kernel_law,) = [lw for lw in catgroup_laws(d) if lw.name == law]
            insts = list(kernel_law.instances()) if kernel_law.size <= 5000 else [
                kernel_law.at(i) for i in sorted(rng.sample(range(kernel_law.size), 3000))
            ]
            want = failures(reference_check(xm, law), insts)
            assert failures(kernel_law.check, insts) == want
            if xm is broken_xm and law == "interchange":
                assert want == (NotComposable, "tgt 4 != src 3")
            if xm is bad_xm and law == "interchange":
                assert len(want) == 648


# the catgroup report on the adjoint action of bad-peiffer, pinned to the
# sha256 of the [law, witness, detail] list the Mor2G laws produced;
# interchange (1296 instances) is enumerated in the first and sampled in the
# other two, which were pinned again when a sampled law came to check
# distinct instances in enumeration order
CATGROUP_PINS = [
    (
        {"samples": 1000, "max_exhaustive": 10_000},
        "f9b004cd36225ea766da22ee21c261927f0c1b942407718e4aae3d69fadaed6f",
        {"interchange": 648, "eckmann-hilton": 18},
    ),
    (
        {"samples": 1000, "max_exhaustive": 0},
        "893f35db6e6e2d3df194005e7d4be935b5346cb96828a314fc8a607c3fb99697",
        {"interchange": 493, "eckmann-hilton": 18},
    ),
    (
        {"samples": 50, "max_exhaustive": 0},
        "4238dee3182d545c3316f88a0ddfce676da62c73537cb3c47dea3fc78478a7b9",
        {"interchange": 30, "eckmann-hilton": 18},
    ),
]


@pytest.mark.parametrize("budget, digest, counts", CATGROUP_PINS)
def test_bad_peiffer_catgroup_witnesses_are_pinned(
    bad_xm, sampled_witnesses_are_real, budget, digest, counts
):
    d = build_transformation_double(adjoint_action(bad_xm), validate=False)
    rep = run_laws(Report(), "catgroup", catgroup_laws(d), seed=0, **budget)
    sampled_witnesses_are_real(rep, "catgroup", catgroup_laws(d))
    found = [[v.law, list(v.witness), v.detail] for v in rep.violations]
    assert hashlib.sha256(json.dumps(found).encode()).hexdigest() == digest
    assert {law: rep.count(law) for law in rep.instances if rep.count(law)} == counts
