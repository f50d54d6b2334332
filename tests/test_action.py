import itertools
import random

import pytest

from xmodcat.action import (
    WeakActionData,
    adjoint_action,
    check_compositor_coherence,
    identity_compositor,
    make_strict_action,
    trivial_strict_action,
    validate_strict_action,
)
from xmodcat.catgroup import mor_of, underlying_category
from xmodcat.errors import MalformedTable
from xmodcat.fincat import category_from_tables, terminal_category
from xmodcat.groups import cyclic, direct_product, symmetric
from xmodcat.suites import _kernel_strips, five_square_strip
from xmodcat.xmod import xmod_identity
from reference import (
    adjoint_action_reference,
    functor_compose,
    functor_of,
    nat_trans_of,
    validate_functor,
    validate_nat_trans,
)


class TestStrictActions:
    def test_adjoint_validates_on_all_fixtures(self, adjoints):
        for name, act in adjoints:
            rep = validate_strict_action(act)
            assert rep.ok, f"{name}: {rep.violations[:3]}"
            assert rep.checked > 0

    def test_trivial_action_validates(self, all_xms):
        for _, xm in all_xms:
            act = trivial_strict_action(xm, terminal_category())
            assert validate_strict_action(act).ok

    def test_trivial_action_on_larger_category(self, xm1, xm2):
        act = trivial_strict_action(xm1, underlying_category(xm2))
        assert validate_strict_action(act).ok

    def test_adjoint_object_action_is_conjugation(self, adjoints):
        for _, act in adjoints:
            g = act.xm.g
            for gamma in g.elements():
                for x in g.elements():
                    assert act.on_obj(gamma, x) == g.conj(gamma, x)

    def test_adjoint_morphism_formula_against_permutations(self, xm2):
        # gamma = e, chi = (12) acting on the morphism ((123), e): the new
        # label is chi * ((123) |> chi^-1), worked out with raw permutation
        # composition rather than the library's tables
        act = adjoint_action(xm2)
        s3 = xm2.g
        perms = sorted(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}

        def mul(p, q):  # p after q
            return tuple(p[q[x]] for x in range(3))

        def inv(p):
            return tuple(sorted(range(3), key=lambda x: p[x]))

        chi = index[(1, 0, 2)]  # (12)
        gg = index[(1, 2, 0)]  # (123)
        f = xm2.pair_index(gg, s3.identity)
        out = mor_of(xm2, act.on_mor_pair(s3.identity, chi, f))
        p_chi, p_g = (1, 0, 2), (1, 2, 0)
        want = mul(p_chi, mul(p_g, mul(inv(p_chi), inv(p_g))))
        assert out.g == gg  # e |> g = g
        assert perms[out.eta] == want

    def test_translations_are_functors(self, adjoints):
        for _, act in adjoints:
            for gamma in act.xm.g.elements():
                assert validate_functor(functor_of(act, gamma)).ok

    def test_pairs_are_natural_transformations(self, adjoints):
        for _, act in adjoints:
            for gamma in act.xm.g.elements():
                for chi in act.xm.h.elements():
                    assert validate_nat_trans(nat_trans_of(act, gamma, chi)).ok

    def test_on_mor_is_the_identity_label_pair(self, adjoints):
        for _, act in adjoints:
            e_h = act.xm.h.identity
            for gamma in act.xm.g.elements():
                for f in act.category.morphisms():
                    assert act.on_mor(gamma, f) == act.on_mor_pair(gamma, e_h, f)

    def test_table_shape_errors(self, xm1):
        c = underlying_category(xm1)
        good_obj = [[x for x in c.objects()]] * 2
        good_mor = [[f for f in c.morphisms()]] * 6
        with pytest.raises(MalformedTable):
            make_strict_action(xm1, c, good_obj[:1], good_mor)
        with pytest.raises(MalformedTable):
            make_strict_action(xm1, c, good_obj, good_mor[:3])
        with pytest.raises(MalformedTable):
            make_strict_action(xm1, c, [[9, 9], [9, 9]], good_mor)

    def test_adjoint_action_is_the_reference_formula(self, table_xms):
        for xm in table_xms:
            got, want = adjoint_action(xm), adjoint_action_reference(xm)
            assert got.act_obj == want.act_obj
            assert got.act_mor == want.act_mor
            assert got == want and got.is_adjoint

    def test_built_actions_pass_the_checked_constructor(self, table_xms):
        # adjoint_action and trivial_strict_action make their StrictAction
        # with no check; make_strict_action accepts the same tables
        arrow = category_from_tables(2, [(0, 0), (1, 1), (0, 1)], [0, 1], [(0, 0, 0), (1, 1, 1), (2, 0, 2), (1, 2, 2)])
        for xm in table_xms:
            c = underlying_category(xm)
            acts = [adjoint_action(xm)] + [
                trivial_strict_action(xm, cat) for cat in (c, arrow, terminal_category(), category_from_tables(0, [], [], []))
            ]
            for act in acts:
                assert act == make_strict_action(xm, act.category, act.act_obj, act.act_mor)
            assert [act.is_adjoint for act in acts] == [True, False, False, False, False]


class TestMalformedEntries:
    """make_strict_action names the first bad entry of a table, row by row
    and within a row by position; the messages are pinned."""

    @pytest.mark.parametrize(
        "table, row, entries, message",
        [
            ("act_obj", 1, [0, True], "act_obj[1][1] = True out of range"),
            ("act_obj", 1, [-1, 0], "act_obj[1][0] = -1 out of range"),
            ("act_obj", 1, [0, 2], "act_obj[1][1] = 2 out of range"),
            ("act_obj", 0, [0.0, 1], "act_obj[0][0] = 0.0 out of range"),
            ("act_obj", 1, [0, "1"], "act_obj[1][1] = '1' out of range"),
            ("act_obj", 1, [2, -1], "act_obj[1][0] = 2 out of range"),
            ("act_mor", 3, [0, 1, 2, False, 4, 5], "act_mor[3][3] = False out of range"),
            ("act_mor", 0, [0, 1, 2, 3, 4, -6], "act_mor[0][5] = -6 out of range"),
            ("act_mor", 5, [0, 6, 2, 3, 4, 5], "act_mor[5][1] = 6 out of range"),
            ("act_mor", 2, [0, 1, 2, 3, 4.0, 5], "act_mor[2][4] = 4.0 out of range"),
            ("act_mor", 4, ["0", 1, 2, 3, 4, 5], "act_mor[4][0] = '0' out of range"),
            ("act_mor", 1, [0, 1, 7, True, -1, 2.5], "act_mor[1][2] = 7 out of range"),
            ("act_mor", 1, [0, None, 6, 3, 4, 5], "act_mor[1][1] = None out of range"),
        ],
        ids=[
            "obj-bool", "obj-negative", "obj-n", "obj-float", "obj-str", "obj-several",
            "mor-bool", "mor-negative", "mor-n", "mor-float", "mor-str", "mor-several", "mor-none-first",
        ],
    )
    def test_the_first_bad_entry_is_named(self, xm1, table, row, entries, message):
        c = underlying_category(xm1)
        tables = {"act_obj": [[0, 1]] * 2, "act_mor": [list(range(6))] * 6}
        tables[table] = [entries if r == row else good for r, good in enumerate(tables[table])]
        with pytest.raises(MalformedTable) as exc:
            make_strict_action(xm1, c, tables["act_obj"], tables["act_mor"])
        assert str(exc.value) == message

    def test_a_bad_act_obj_entry_is_named_before_act_mor(self, xm1):
        c = underlying_category(xm1)
        with pytest.raises(MalformedTable) as exc:
            make_strict_action(xm1, c, [[0, 1], [1, 5]], [[9] * 6] * 6)
        assert str(exc.value) == "act_obj[1][1] = 5 out of range"

    def test_empty_rows_are_accepted(self, xm1):
        empty = category_from_tables(0, [], [], [])
        act = make_strict_action(xm1, empty, [[]] * 2, [[]] * 6)
        assert act.act_obj == ((), ()) and act.act_mor == ((),) * 6


def mutate_mor(act, pair, f, value):
    act_mor = [list(r) for r in act.act_mor]
    act_mor[pair][f] = value
    return make_strict_action(act.xm, act.category, act.act_obj, act_mor)


class TestLawDiagnostics:
    def test_corrupted_unit_row_trips_unit_morphism(self, xm1):
        act = adjoint_action(xm1)
        e_pair = xm1.pair_index(0, 0)
        bad = mutate_mor(act, e_pair, 0, 1)
        rep = validate_strict_action(bad)
        assert rep.count("unit-morphism") == 1

    def test_corrupted_object_row_trips_object_laws(self, xm4):
        act = adjoint_action(xm4)
        act_obj = [list(r) for r in act.act_obj]
        act_obj[1][0], act_obj[1][1] = act_obj[1][1], act_obj[1][0]
        bad = make_strict_action(xm4, act.category, act_obj, act.act_mor)
        rep = validate_strict_action(bad)
        assert rep.count("object-associativity") > 0
        assert rep.count("pair-typing") > 0 or rep.count("endofunctor-typing") > 0

    def test_corrupted_pair_row_trips_functoriality(self, xm1):
        act = adjoint_action(xm1)
        bad = mutate_mor(act, xm1.pair_index(1, 1), 2, 5)
        rep = validate_strict_action(bad)
        assert not rep.ok
        laws = {v.law for v in rep.violations}
        assert laws & {
            "pair-functoriality",
            "pair-typing",
            "component-stacking",
            "whisker-agreement",
            "transformation-naturality",
        }

    def test_every_violation_carries_a_witness(self, xm1):
        act = adjoint_action(xm1)
        bad = mutate_mor(act, xm1.pair_index(1, 0), 0, 3)
        rep = validate_strict_action(bad)
        assert not rep.ok
        for v in rep.violations:
            assert isinstance(v.witness, tuple) and v.witness


def one_entry_mutants(act, n, seed):
    """n copies of act, each with one act_obj or act_mor entry changed."""
    rng = random.Random(seed)
    c = act.category
    for _ in range(n):
        obj, mor = [list(r) for r in act.act_obj], [list(r) for r in act.act_mor]
        table, size = (obj, c.n_objects) if rng.random() < 0.25 else (mor, c.n_morphisms)
        row = rng.choice(table)
        i = rng.randrange(len(row))
        row[i] = (row[i] + rng.randrange(1, size)) % size
        yield make_strict_action(act.xm, c, obj, mor)


def fincat_reference(act):
    """(checked, violations, witnesses) of each presentation-1 action law,
    from the reference validators of each endofunctor and transformation, the
    key in front of each witness; translation-composition from functor
    equality."""
    g = act.xm.g
    out = {}

    def add(name, key, rep, law):
        checked, found, seen = out.get(name, (0, 0, []))
        seen = seen + [key + v.witness for v in rep.violations if v.law == law]
        out[name] = (checked + rep.instances.get(law, 0), found + rep.count(law), seen)

    for gamma in g.elements():
        rep = validate_functor(functor_of(act, gamma))
        for law in ("typing", "identities", "composition"):
            add("endofunctor-" + law, (gamma,), rep, law)
    for gamma, chi in act.xm.pairs():
        rep = validate_nat_trans(nat_trans_of(act, gamma, chi))
        for law in ("component-typing", "naturality"):
            add("transformation-" + law, (gamma, chi), rep, law)
    functors = [functor_of(act, gamma) for gamma in g.elements()]
    apart = [
        (g1, g3) for g1, g3 in itertools.product(g.elements(), repeat=2)
        if functor_compose(functors[g1], functors[g3]) != functors[g.table[g1][g3]]
    ]
    out["translation-composition"] = (g.order ** 2, len(apart), apart)
    return out


class TestPresentationOneAgainstFincat:
    """The presentation-1 lines, read off the tables, agree with the reference
    functor and natural-transformation validators run on each key."""

    def agree(self, act):
        rep = validate_strict_action(act)
        want = fincat_reference(act)
        for name, (checked, found, seen) in want.items():
            got = [v.witness for v in rep.violations if v.law == name]
            assert (rep.instances.get(name, 0), rep.count(name)) == (checked, found), name
            assert got[:1] == seen[:1], name
            if name == "translation-composition":
                assert got == seen[:rep.cap]
        return rep

    def test_lawful_adjoints(self, adjoints):
        for _, act in adjoints:
            assert self.agree(act).ok

    @pytest.mark.parametrize("name", ["xm1", "xm2", "xm4"])
    def test_one_entry_mutants(self, request, name):
        act = adjoint_action(request.getfixturevalue(name))
        failing = 0
        for bad in one_entry_mutants(act, 12, f"presentation-1/{name}"):
            failing += not self.agree(bad).ok
        assert failing > 0

    def test_an_ill_typed_component_drops_its_naturality_instances(self, xm1):
        act = adjoint_action(xm1)
        c, p = act.category, xm1.pair_index(1, 1)
        x = 0
        wrong = next(f for f in c.morphisms() if c.src[f] != act.act_obj[1][x])
        rep = self.agree(mutate_mor(act, p, c.identity[x], wrong))
        assert rep.count("transformation-component-typing") == 1
        assert rep.instances["transformation-naturality"] == (xm1.npairs - 1) * c.n_morphisms


class TestFiveSquareOracle:
    def test_strip_agrees_with_the_action_everywhere(self, xm1):
        act = adjoint_action(xm1)
        for gamma in xm1.g.elements():
            for chi in xm1.h.elements():
                for f in range(act.category.n_morphisms):
                    out = five_square_strip(act, gamma, chi, f)
                    want = mor_of(xm1, act.on_mor_pair(gamma, chi, f))
                    assert out.left == 0 and out.right == 0
                    assert (out.top, out.face) == (want.g, want.eta)

    def test_strip_agrees_on_samples_of_the_symmetric_fixture(self, xm2):
        import random

        act = adjoint_action(xm2)
        rng = random.Random(6)
        for _ in range(2000):
            gamma = rng.randrange(6)
            chi = rng.randrange(6)
            f = rng.randrange(act.category.n_morphisms)
            out = five_square_strip(act, gamma, chi, f)
            want = mor_of(xm2, act.on_mor_pair(gamma, chi, f))
            assert (out.top, out.face) == (want.g, want.eta)


    def test_the_kernel_fold_is_the_checked_fold(self, all_xms):
        o12 = xmod_identity(direct_product(symmetric(3), cyclic(2)))
        for xm in [xm for _, xm in all_xms] + [o12]:
            act = adjoint_action(xm)
            insts = list(itertools.product(xm.g.elements(), xm.h.elements(), act.category.morphisms()))
            seen = 0
            for (gamma, chi, f, out), inst in zip(_kernel_strips(act, insts), insts):
                assert (gamma, chi, f) == inst
                assert out == five_square_strip(act, gamma, chi, f).as_tuple()
                seen += 1
            assert seen == len(insts) > 0
            # out of row order too, as sampled instances come
            shuffled = random.Random(7).sample(insts, min(len(insts), 3000))
            for gamma, chi, f, out in _kernel_strips(act, shuffled):
                assert out == five_square_strip(act, gamma, chi, f).as_tuple()


def one_object_groupoid(group):
    return category_from_tables(
        1,
        [(0, 0)] * group.order,
        [group.identity],
        [(a, b, group.table[a][b]) for a in group.elements() for b in group.elements()],
    )


def with_compositor_entry(act, g1, g2, x, value):
    w = identity_compositor(act)
    comp = [[list(r) for r in plane] for plane in w.compositor]
    comp[g1][g2][x] = value
    return WeakActionData(act, comp)


class TestCompositorCoherence:
    def test_identity_compositor_is_coherent_for_strict_actions(self, adjoints, all_xms):
        for _, act in adjoints:
            assert check_compositor_coherence(identity_compositor(act)).ok
        for _, xm in all_xms:
            act = trivial_strict_action(xm, terminal_category())
            assert check_compositor_coherence(identity_compositor(act)).ok

    def test_compositor_shape_checked(self, xm1):
        act = adjoint_action(xm1)
        with pytest.raises(MalformedTable):
            WeakActionData(act, [[[0]]])

    # an entry that is no morphism index is refused when the data comes in:
    # not read as one (True as morphism 1, -1 as the last morphism), nor
    # left for the laws to raise IndexError on
    @pytest.mark.parametrize("kind", ["bool", "negative", "n_morphisms"])
    def test_compositor_entries_checked(self, xm1, kind):
        act = adjoint_action(xm1)
        value = {"bool": True, "negative": -1, "n_morphisms": act.category.n_morphisms}[kind]
        with pytest.raises(MalformedTable) as raised:
            with_compositor_entry(act, 1, 1, 0, value)
        assert str(raised.value) == f"compositor[1][1][0] = {value!r} out of range"

    def test_the_first_bad_compositor_entry_is_named(self, xm1):
        act = adjoint_action(xm1)
        comp = [[list(r) for r in plane] for plane in identity_compositor(act).compositor]
        comp[1][0][0], comp[0][1][1] = -1, 2.0
        with pytest.raises(MalformedTable, match=r"^compositor\[0\]\[1\]\[1\] = 2\.0 out of range$"):
            WeakActionData(act, comp)

    def test_pentagon_break_on_inversion_fixture(self, xm1):
        # replace the (1,1) plane with the non-identity endomorphisms (x, 1);
        # typing, units and naturality all survive but the two pentagon
        # rewrites pick up different twists
        act = adjoint_action(xm1)
        w = identity_compositor(act)
        comp = [[list(r) for r in plane] for plane in w.compositor]
        for x in act.category.objects():
            comp[1][1][x] = xm1.pair_index(x, 1)
        rep = check_compositor_coherence(WeakActionData(act, comp))
        laws = {v.law for v in rep.violations}
        assert laws == {"pentagon"}
        witnesses = {v.witness for v in rep.violations}
        assert (1, 1, 1, 0) in witnesses and (1, 1, 1, 1) in witnesses

    def test_pentagon_break_single_entry(self, xm1):
        act = adjoint_action(xm1)
        w = with_compositor_entry(act, 1, 1, 0, xm1.pair_index(0, 1))
        rep = check_compositor_coherence(w)
        assert rep.count("pentagon") > 0
        assert all(v.law == "pentagon" for v in rep.violations)
        assert any(v.witness[3] == 0 for v in rep.violations)

    def test_unit_triangle_break(self, xm3):
        act = adjoint_action(xm3)
        w = with_compositor_entry(act, 0, 0, 0, 1)
        rep = check_compositor_coherence(w)
        assert rep.count("unit-triangle") == 2  # both unit orders hit the entry
        assert all(v.witness == (0, 0, 0) for v in rep.violations if v.law == "unit-triangle")

    def test_typing_break_on_symmetric_fixture(self, xm2):
        act = adjoint_action(xm2)
        w = with_compositor_entry(act, 1, 1, 0, xm2.pair_index(1, 0))
        rep = check_compositor_coherence(w)
        assert rep.count("compositor-typing") == 1
        assert [v.witness for v in rep.violations if v.law == "compositor-typing"] == [(1, 1, 0)]

    def test_typing_break_on_cyclic_fixture(self, xm4):
        act = adjoint_action(xm4)
        w = with_compositor_entry(act, 1, 1, 0, xm4.pair_index(0, 1))
        rep = check_compositor_coherence(w)
        assert rep.count("compositor-typing") == 1

    def test_naturality_break_over_a_noncommutative_groupoid(self, xm1, s3):
        # a trivial action on the one-object groupoid built from S3: every
        # entry is an endomorphism, so a non-central choice breaks exactly
        # naturality (plus the pentagons it feeds)
        act = trivial_strict_action(xm1, one_object_groupoid(s3))
        assert validate_strict_action(act).ok
        w = with_compositor_entry(act, 1, 1, 0, s3.names.index("(12)"))
        rep = check_compositor_coherence(w)
        assert rep.count("compositor-naturality") > 0
        f = next(v.witness[2] for v in rep.violations if v.law == "compositor-naturality")
        i12 = s3.names.index("(12)")
        assert s3.mul(i12, f) != s3.mul(f, i12)

    def test_pentagon_witnesses_recompute(self, xm1):
        # every reported quadruple really distinguishes the two rewrites
        act = adjoint_action(xm1)
        w = with_compositor_entry(act, 1, 1, 1, xm1.pair_index(1, 2))
        rep = check_compositor_coherence(w)
        c = act.category
        g = xm1.g
        for v in rep.violations:
            if v.law != "pentagon":
                continue
            f1, g1, h1, x = v.witness
            lhs = c.comp.get(
                (w.compositor[g.table[f1][g1]][h1][x], w.compositor[f1][g1][act.act_obj[h1][x]])
            )
            rhs = c.comp.get(
                (w.compositor[f1][g.table[g1][h1]][x], act.on_mor(f1, w.compositor[g1][h1][x]))
            )
            assert lhs != rhs or lhs is None
