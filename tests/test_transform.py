import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from xmodcat.action import ActionTables, StrictAction, adjoint_action, make_strict_action, trivial_strict_action
from xmodcat import catgroup
from xmodcat.catgroup import Mor2G, mor_of
from xmodcat import transform
from xmodcat.errors import InvalidAction, MixedStructures, NotAdjacent, NotComposable
from xmodcat.fincat import category_from_tables, terminal_category
from xmodcat.groups import (
    cyclic, direct_product, group_from_table, make_action, make_homomorphism, symmetric,
    trivial_group,
)
from xmodcat.report import Report, run_laws
from xmodcat.serialize import load_action
from xmodcat.suites import (
    action_laws, catgroup_laws, h2_laws, nested_suite_laws, pentagon_laws, quintet_laws, run_all, v2_laws,
)
from xmodcat.transform import (
    TDSquare,
    build_transformation_double,
    compose_squares,
    connected_components,
    double_laws,
    double_to_obj,
    groupoid_to_dot,
    horizontal_2category,
    nested_inclusions,
    nested_laws,
    transformation_groupoid,
    verify_double_category,
    vertical_2category,
)
from xmodcat.xmod import (
    CrossedModule,
    make_crossed_module,
    semidirect_group,
    xm_sym3,
    xmod_identity,
)
from reference import (
    h_identity_square, pairs_act_multiplicatively, small_crossed_modules, v_identity_square, validate_groupoid,
    vertical_inverse_square,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestCellCounts:
    def test_inversion_fixture(self, xm1):
        d = build_transformation_double(adjoint_action(xm1))
        assert (d.n_objects, d.n_horizontal, d.n_vertical, d.n_squares) == (2, 6, 4, 36)

    def test_symmetric_fixture(self, xm2):
        d = build_transformation_double(adjoint_action(xm2))
        assert (d.n_objects, d.n_horizontal, d.n_vertical, d.n_squares) == (6, 36, 36, 1296)

    def test_square_indexing_round_trips(self, xm1):
        d = build_transformation_double(adjoint_action(xm1))
        for i in range(d.n_squares):
            assert d.square_index(*d.square_of(i)) == i
        for i in range(d.n_vertical):
            assert d.vertical_index(*d.vertical_of(i)) == i

    def test_squares_iterator_matches_count(self, xm1):
        d = build_transformation_double(adjoint_action(xm1))
        assert sum(1 for _ in d.squares()) == d.n_squares

    def test_invalid_action_rejected_at_build_time(self, xm1):
        act = adjoint_action(xm1)
        act_mor = [list(r) for r in act.act_mor]
        act_mor[0][0] = 1  # corrupt the unit row
        from xmodcat.action import make_strict_action

        bad = make_strict_action(xm1, act.category, act.act_obj, act_mor)
        with pytest.raises(InvalidAction):
            build_transformation_double(bad)
        assert build_transformation_double(bad, validate=False).n_squares == 36


class TestSquareCalculus:
    def test_boundaries_of_a_square(self, xm1):
        act = adjoint_action(xm1)
        s = TDSquare(act, 1, 2, xm1.pair_index(1, 0))
        assert s.top() == xm1.pair_index(1, 0)
        assert s.left() == (1, 1)
        # right pair label is bnd(chi)*gamma; trivial boundary keeps gamma
        assert s.right() == (1, 1)
        assert s.bottom() == xm1.pair_index(1, 1)

    def test_vertical_composite_example(self, xm1):
        # stack (1,1) on top of... rather: s1 extends s2 downward, so s1's
        # top edge is s2's acted bottom edge; the labels multiply in the
        # semidirect group: (1,1)*(1,2) = (0, 1 + (1 |> 2)) = (0, 2)
        act = adjoint_action(xm1)
        f10 = xm1.pair_index(1, 0)
        s2 = TDSquare(act, 1, 2, f10)
        s1 = TDSquare(act, 1, 1, s2.bottom())
        out = compose_squares(s1, s2, "v")
        assert (out.gamma, out.chi, out.f) == (0, 2, f10)

    def test_horizontal_composite_stacks_labels(self, xm2):
        act = adjoint_action(xm2)
        c = act.category
        for i in range(0, 36, 7):
            gamma, chi, f = (i * 31) % 6, (i * 17) % 6, i % 36
            s1 = TDSquare(act, gamma, chi, f)
            (g2, _) = s1.right()
            for f2 in c.morphisms():
                if c.src[f2] != c.tgt[f]:
                    continue
                for chi2 in xm2.h.elements():
                    s2 = TDSquare(act, g2, chi2, f2)
                    out = compose_squares(s1, s2, "h")
                    assert out.gamma == gamma
                    assert out.chi == xm2.h.mul(chi2, chi)
                    assert out.f == c.compose(f2, f)

    def test_identity_squares(self, xm1):
        act = adjoint_action(xm1)
        for gamma in xm1.g.elements():
            for chi in xm1.h.elements():
                for f in act.category.morphisms():
                    s = TDSquare(act, gamma, chi, f)
                    li = h_identity_square(act, *s.left())
                    ri = h_identity_square(act, *s.right())
                    assert compose_squares(li, s, "h") == s
                    assert compose_squares(s, ri, "h") == s
                    ti = v_identity_square(act, s.top())
                    bi = v_identity_square(act, s.bottom())
                    assert compose_squares(s, ti, "v") == s
                    assert compose_squares(bi, s, "v") == s

    def test_vertical_inverse(self, xm1, xm2):
        for xm in (xm1, xm2):
            act = adjoint_action(xm)
            for gamma in xm.g.elements():
                for chi in xm.h.elements():
                    for f in act.category.morphisms():
                        s = TDSquare(act, gamma, chi, f)
                        inv = vertical_inverse_square(s)
                        assert compose_squares(inv, s, "v") == v_identity_square(act, s.f)
                        assert compose_squares(s, inv, "v") == v_identity_square(act, inv.f)

    def test_adjacency_errors(self, xm1):
        act = adjoint_action(xm1)
        a = TDSquare(act, 0, 0, xm1.pair_index(0, 1))
        b = TDSquare(act, 1, 0, xm1.pair_index(0, 1))
        with pytest.raises(NotAdjacent):
            compose_squares(a, b, "h")  # right pair (0,...) vs left pair (1,...)
        c = TDSquare(act, 0, 0, xm1.pair_index(1, 1))
        with pytest.raises(NotAdjacent):
            compose_squares(a, c, "v")
        with pytest.raises(ValueError):
            compose_squares(a, a, "diagonal")

    def test_mixed_actions_rejected(self, xm1, xm3):
        s1 = TDSquare(adjoint_action(xm1), 0, 0, 0)
        s3 = TDSquare(adjoint_action(xm3), 0, 0, 0)
        with pytest.raises(MixedStructures):
            compose_squares(s1, s3, "h")


class TestDoubleCategoryLaws:
    def test_all_adjoint_fixtures_pass(self, double_reports):
        for name, rep in double_reports.items():
            assert rep.ok, f"{name}: {rep.violations[:3]}"

    def test_trivial_action_passes(self, xm1):
        act = trivial_strict_action(xm1, terminal_category())
        d = build_transformation_double(act)
        assert verify_double_category(d).ok

    def test_pair_target_identity_by_explicit_loop(self, xm1, xm2):
        # bnd(chi' * (gamma' |> chi)) * gamma' * gamma
        #   == bnd(chi') * gamma' * bnd(chi) * gamma  for all quadruples
        for xm in (xm1, xm2):
            g, h = xm.g, xm.h
            for gamma in g.elements():
                for chi in h.elements():
                    for gamma2 in g.elements():
                        for chi2 in h.elements():
                            lhs = g.prod(
                                xm.bnd(h.table[chi2][xm.act(gamma2, chi)]), gamma2, gamma
                            )
                            rhs = g.prod(xm.bnd(chi2), gamma2, xm.bnd(chi), gamma)
                            assert lhs == rhs

    def test_mutated_action_flagged_with_interchange_witnesses(self):
        act = load_action(FIXTURES / "actions" / "mutated.json")
        d = build_transformation_double(act, validate=False)
        rep = verify_double_category(d, samples=2000, seed=1)
        assert not rep.ok
        assert rep.count("interchange") > 0

    def test_interchange_law_count_on_mutated_action_is_stable(self):
        act = load_action(FIXTURES / "actions" / "mutated.json")
        d = build_transformation_double(act, validate=False)
        r1 = run_laws(Report(cap=10_000), "double", double_laws(d), 500, 9, 10_000_000)
        r2 = run_laws(Report(cap=10_000), "double", double_laws(d), 500, 9, 10_000_000)
        assert [(v.law, v.witness) for v in r1.violations] == [
            (v.law, v.witness) for v in r2.violations
        ]


class TestTranspose:
    def test_transformation_groupoid_is_a_groupoid(self, s3):
        from xmodcat.groups import conjugation_action

        gpd = transformation_groupoid(s3, 6, conjugation_action(s3).table)
        assert validate_groupoid(gpd).ok

    def test_vertical_pasting_is_composition_in_the_groupoids(self, adjoints, transpose_mismatches):
        for name, act in adjoints:
            d = build_transformation_double(act, validate=False)
            assert transpose_mismatches(d) == [], name

    def test_both_views_are_lawful_groupoids(self, adjoints):
        for _, act in adjoints:
            d = build_transformation_double(act, validate=False)
            assert validate_groupoid(d.obj_groupoid).ok
            assert validate_groupoid(d.mor_groupoid).ok

    def test_object_view_components_are_conjugacy_classes(self, xm2):
        d = build_transformation_double(adjoint_action(xm2), validate=False)
        comps = connected_components(d.obj_groupoid)
        assert sorted(len(c) for c in comps) == [1, 2, 3]
        # {e}, the transpositions, the 3-cycles
        names = xm2.g.names
        classes = {frozenset(names[x] for x in comp) for comp in comps}
        assert frozenset({"e"}) in classes
        assert frozenset({"(12)", "(13)", "(23)"}) in classes
        assert frozenset({"(123)", "(132)"}) in classes

    def test_object_view_is_trivial_for_trivial_conjugation(self, xm4):
        d = build_transformation_double(adjoint_action(xm4), validate=False)
        comps = connected_components(d.obj_groupoid)
        assert [len(c) for c in comps] == [1, 1, 1, 1]


class TestNestedInclusions:
    def test_reports_clean_on_all_fixtures(self, adjoints):
        for name, incl in ((n, nested_inclusions(build_transformation_double(a, validate=False))) for n, a in adjoints):
            rep = run_laws(Report(), "nested", nested_laws(incl))
            assert rep.ok, f"{name}: {rep.violations[:3]}"

    def test_second_inclusion_full_only_without_labels(self, adjoints):
        for _, act in adjoints:
            incl = nested_inclusions(build_transformation_double(act, validate=False))
            assert incl.second_full == (act.xm.h.order == 1)

    def test_nonfullness_witnesses_carry_nontrivial_labels(self, adjoints):
        for _, act in adjoints:
            n_h = act.xm.h.order
            incl = nested_inclusions(build_transformation_double(act, validate=False))
            assert incl.second_nonfull_witnesses
            for p, f in incl.second_nonfull_witnesses:
                assert p % n_h != act.xm.h.identity

    def test_the_surviving_laws_fail_where_a_translation_moves_an_identity(self, xm1):
        # one entry of the adjoint action: (gamma, 1) sends id_x to another morphism
        act = adjoint_action(xm1)
        xm, c = act.xm, act.category
        gamma = next(g for g in xm.g.elements() if g != xm.g.identity)
        p, x = xm.pair_index(gamma, xm.h.identity), 0
        act_mor = [list(row) for row in act.act_mor]
        act_mor[p][c.identity[x]] = (act_mor[p][c.identity[x]] + 1) % c.n_morphisms
        mutant = make_strict_action(xm, c, act.act_obj, act_mor)
        lines = {(o.suite, o.law): o for o in run_all(mutant, only=["action", "nested"])}
        assert lines[("action", "pair-identity")].witness == (gamma, x)
        assert lines[("nested", "first-typing")].witness == (gamma * c.n_objects + x,)
        assert lines[("nested", "first-composition")].status == "fail"

    def test_inclusion_maps_are_injective(self, xm1):
        incl = nested_inclusions(build_transformation_double(adjoint_action(xm1), validate=False))
        assert len(set(incl.first_mor_map)) == len(incl.first_mor_map)
        assert len(set(incl.second_mor_map)) == len(incl.second_mor_map)


def stored_composition(group, n, table) -> dict:
    """The composition dict an action groupoid once stored, in its order."""
    comp = {}
    for g1 in group.elements():
        for p in range(n):
            for g2 in group.elements():
                comp[(g2 * n + table[g1][p], g1 * n + p)] = group.table[g2][g1] * n + p
    return comp


class TestActionComposition:
    """transformation_groupoid computes its composition from the tables."""

    def tables(self, act):
        """(group, points, table) of C0//G, C1//G and C1//(G x| H)."""
        xm, c = act.xm, act.category
        over_g = tuple(act.act_mor[xm.pair_index(g, xm.h.identity)] for g in xm.g.elements())
        return [
            (xm.g, c.n_objects, act.act_obj),
            (xm.g, c.n_morphisms, over_g),
            (semidirect_group(xm), c.n_morphisms, act.act_mor),
        ]

    def test_it_equals_the_stored_dict(self, adjoints):
        for name, act in adjoints:
            for group, n, table in self.tables(act):
                gpd = transformation_groupoid(group, n, table)
                old = stored_composition(group, n, table)
                assert dict(gpd.comp.items()) == old, name
                assert tuple(gpd.comp) == tuple(old), name
                assert len(gpd.comp) == group.order ** 2 * n == len(old)
                assert all(gpd.comp.get(k) == gpd.comp[k] == v for k, v in old.items())

    def test_the_checked_constructor_accepts_it(self, adjoints):
        for name, act in adjoints:
            for group, n, table in self.tables(act):
                gpd = transformation_groupoid(group, n, table)
                cat = category_from_tables(
                    n,
                    list(zip(gpd.src, gpd.tgt)),
                    gpd.identity,
                    [(g, f, r) for (g, f), r in gpd.comp.items()],
                )
                assert cat == gpd, name

    def test_a_pair_that_does_not_compose_misses(self, adjoints):
        checked = 0
        for _, act in adjoints:
            for group, n, table in self.tables(act):
                if n < 2:  # one point: every pair composes
                    continue
                checked += 1
                gpd = transformation_groupoid(group, n, table)
                f = 0
                g = next(g for g in gpd.morphisms() if gpd.src[g] != gpd.tgt[f])
                assert gpd.comp.get((g, f)) is None
                assert gpd.comp.get((g, f), -1) == -1
                with pytest.raises(KeyError):
                    gpd.comp[(g, f)]
                with pytest.raises(NotComposable) as exc:
                    gpd.compose(g, f)
                assert str(exc.value) == (
                    f"tgt of morphism {f} is {gpd.tgt[f]}, src of {g} is {gpd.src[g]}"
                )
                for key in ((-1, 0), (0, -1), (gpd.n_morphisms, 0), (0, gpd.n_morphisms)):
                    assert gpd.comp.get(key) is None
        assert checked == 11  # xm3's C0//G has one object

    def test_the_double_category_builds_its_groupoids_once(self, adjoints):
        for _, act in adjoints:
            d = build_transformation_double(act, validate=False)
            incl = nested_inclusions(d)
            assert incl.objects_over_g is d.obj_groupoid
            assert incl.morphisms_over_pairs is d.mor_groupoid
            over_g = self.tables(act)[1]
            assert dict(incl.morphisms_over_g.comp.items()) == stored_composition(*over_g)


class TestPairGroupCheck:
    """semidirect_group checks the pair table, once per verify."""

    def test_an_action_not_by_automorphisms_gives_error_lines(self):
        z2, z3 = cyclic(2), cyclic(3)
        xm = make_crossed_module(
            z2, z3, make_homomorphism(z3, z2, [0, 0, 0]), make_action(z2, z3, [[0, 1, 2], [1, 0, 2]])
        )
        lines = run_all(trivial_strict_action(xm, terminal_category()), only=["nested"])
        assert [line.to_obj() for line in lines] == [
            {"suite": "nested", "law": "nested-error", "status": "fail", "checked": 0,
             "violations": 1, "detail": "NoIdentity: index 0 is not a unit at 3"}
        ]

    @staticmethod
    def pair_names(xm):
        if xm.g.names is None and xm.h.names is None:
            return None
        return tuple(f"({xm.g.name_of(g)}|{xm.h.name_of(h)})" for g, h in xm.pairs())

    def test_the_pair_tables_give_the_checked_group(self, all_xms):
        # an action by automorphisms lets semidirect_group read the pair
        # tables with no npairs^3 check; it must build what the check builds
        o12 = xmod_identity(direct_product(symmetric(3), cyclic(2)))
        for xm in [xm for _, xm in all_xms] + [o12] + [xm for _, xm in SMALL_XMS]:
            want = group_from_table(xm.pair_products, identity=xm.pair_unit, names=self.pair_names(xm))
            assert semidirect_group(xm) == want

    def test_the_order_24_pair_group_is_the_checked_one(self):
        # group_from_table takes seconds here, so its result is rebuilt from
        # its definition: the table, the unit, the inverse each row finds,
        # the names, and associativity on a seeded sample of triples
        xm = xmod_identity(symmetric(4))
        sd, n = semidirect_group(xm), xm.npairs
        t, e = sd.table, sd.identity
        assert t == xm.pair_products and e == xm.pair_unit and sd.names == self.pair_names(xm)
        assert all(t[e][x] == x == t[x][e] for x in range(n))
        assert sd.inverse == tuple(t[a].index(e) for a in range(n))
        assert all(t[b][a] == e for a, b in enumerate(sd.inverse))
        rng = random.Random(24)
        for a, b, c in (rng.choices(range(n), k=3) for _ in range(20000)):
            assert t[t[a][b]][c] == t[a][t[b][c]]

    def test_a_failing_pair_group_check_runs_once(self, monkeypatch):
        calls = []

        def counted(xm):
            calls.append(xm)
            return semidirect_group(xm)

        monkeypatch.setattr(transform, "semidirect_group", counted)
        self.test_an_action_not_by_automorphisms_gives_error_lines()
        assert len(calls) == 1

    def test_one_run_all_builds_the_pair_group_once(self, monkeypatch, xm2):
        calls = []

        def counted(xm):
            calls.append(xm)
            return semidirect_group(xm)

        monkeypatch.setattr(transform, "semidirect_group", counted)
        lines = run_all(adjoint_action(xm2), samples=100, max_exhaustive=1000)
        assert {line.status for line in lines} == {"pass"}
        assert calls == [xm2]

    def test_one_run_all_builds_the_product_table_once(self, monkeypatch):
        calls = []
        build = CrossedModule.pair_products.func

        def counted(xm):
            calls.append(xm)
            return build(xm)

        monkeypatch.setattr(CrossedModule.pair_products, "func", counted)
        xm = xm_sym3()  # a new module, with no table built yet
        lines = run_all(adjoint_action(xm), samples=100, max_exhaustive=1000)
        assert {line.status for line in lines} == {"pass"}
        assert calls == [xm]

    def test_object_level_calls_build_no_pair_table(self):
        xm = xm_sym3()
        act = trivial_strict_action(xm, terminal_category())
        m, n = Mor2G(xm, 1, 2), Mor2G(xm, 3, 4)
        xm.pair_mul((1, 2), (3, 4))
        xm.pair_inv((1, 2))
        catgroup.tensor(m, n)
        catgroup.invert(m, "tensor")
        catgroup.invert(m, "compose")
        catgroup.compose(Mor2G(xm, catgroup.boundary(m)[1], 5), m)
        s = TDSquare(act, 1, 2, 0)
        compose_squares(s, TDSquare(act, s.right()[0], 3, 0), "h")
        compose_squares(TDSquare(act, 4, 5, s.bottom()), s, "v")
        vertical_inverse_square(s)
        tables = {"pair_products", "pair_inverses", "pair_targets", "pair_stacks"}
        assert not tables & vars(xm).keys()


def brute_horizontal_cells(d):
    """Filter the squares with identity vertical edges, by boundary data."""
    act = d.act
    xm, c = d.xm, d.category
    cells = {f: [] for f in c.morphisms()}
    for s in d.squares():
        gl, _ = s.left()
        gr, _ = s.right()
        if gl == xm.g.identity and gr == xm.g.identity:
            cells[s.f].append((s.chi, s.bottom()))
    return {f: tuple(v) for f, v in cells.items()}


def brute_vertical_cells(d):
    """Filter the squares with identity top and bottom edges."""
    act = d.act
    xm, c = d.xm, d.category
    cells = {}
    for gamma in xm.g.elements():
        for x in c.objects():
            out = []
            for chi in xm.h.elements():
                s = TDSquare(act, gamma, chi, c.identity[x])
                if s.bottom() == c.identity[act.act_obj[gamma][x]]:
                    out.append((chi, s.right()[0]))
            cells[(gamma, x)] = tuple(out)
    return cells


class TestDegenerate2Categories:
    def test_horizontal_cells_match_brute_filter(self, adjoints):
        for _, act in adjoints:
            d = build_transformation_double(act, validate=False)
            h2 = horizontal_2category(d)
            assert h2.cells == brute_horizontal_cells(d)

    def test_symmetric_fixture_has_identity_2cells_only(self, xm2):
        d = build_transformation_double(adjoint_action(xm2), validate=False)
        h2 = horizontal_2category(d)
        assert h2.kernel == (xm2.h.identity,)
        for f, cells in h2.cells.items():
            assert cells == ((xm2.h.identity, f),)

    def test_inversion_fixture_kernel_rewrites(self, xm1):
        d = build_transformation_double(adjoint_action(xm1), validate=False)
        h2 = horizontal_2category(d)
        assert h2.kernel == (0, 1, 2)
        assert xm1.h.table[1][2] == 0  # stacking the rewrites labelled 1 and 2

    def test_vertical_cells_match_brute_filter(self, adjoints):
        for _, act in adjoints:
            d = build_transformation_double(act, validate=False)
            v2 = vertical_2category(d)
            assert v2.cells == brute_vertical_cells(d)

    def test_inversion_fixture_vertical_cell_sizes(self, xm1):
        d = build_transformation_double(adjoint_action(xm1), validate=False)
        v2 = vertical_2category(d)
        for gamma in xm1.g.elements():
            assert len(v2.cells[(gamma, 0)]) == 3
            assert len(v2.cells[(gamma, 1)]) == 1

    def test_vertical_cell_targets_shift_by_the_boundary(self, xm2):
        d = build_transformation_double(adjoint_action(xm2), validate=False)
        v2 = vertical_2category(d)
        for (gamma, x), cells in v2.cells.items():
            for chi, gamma2 in cells:
                assert gamma2 == xm2.g.mul(xm2.bnd(chi), gamma)


    def test_adjoint_closed_form_mismatch_is_a_failing_law(self, xm1):
        # the unit pair's component at object 0 is no longer an identity: the
        # label e drops out of the cells at (0, 0), which the closed form keeps
        act = adjoint_action(xm1)
        table = [list(row) for row in act.act_mor]
        unit = xm1.pair_index(xm1.g.identity, xm1.h.identity)
        f = act.category.identity[0]
        table[unit][f] = next(m for m in act.category.morphisms() if m != f)
        bad = StrictAction(xm1, act.category, act.act_obj, table, is_adjoint=True)
        lines = {line.law: line for line in run_all(bad, samples=100, only=["v2cat"])}
        assert "v2cat-error" not in lines
        closed = lines["v2-adjoint-closed-form"]
        assert (closed.status, closed.witness) == ("fail", (0, 0))
        assert closed.detail == "labels [1, 2], closed form [0, 1, 2]"

    def test_closed_form_law_skips_on_non_adjoint_actions(self, xm1):
        act = trivial_strict_action(xm1, terminal_category())
        lines = {line.law: line for line in run_all(act, samples=100, only=["v2cat"])}
        assert lines.pop("v2-adjoint-closed-form").status == "skip"
        assert all(line.status == "pass" for line in lines.values())


class TestExports:
    def test_double_to_obj_shape(self, xm1):
        d = build_transformation_double(adjoint_action(xm1), validate=False)
        obj = double_to_obj(d)
        assert obj["objects"] == 2
        assert len(obj["horizontal"]) == 6
        assert len(obj["vertical"]) == 4
        assert len(obj["squares"]) == 36
        sq = obj["squares"][0]
        assert set(sq) == {"gamma", "chi", "top", "bottom", "left", "right"}

    def test_groupoid_dot_output(self, xm2):
        d = build_transformation_double(adjoint_action(xm2), validate=False)
        dot = groupoid_to_dot(d.obj_groupoid, "objs")
        assert dot.startswith("digraph objs {")
        assert dot.count("subgraph cluster_") == 3
        assert "->" in dot and dot.rstrip().endswith("}")


# --- the integer kernel of the double laws ----------------------------------

DOUBLE_LAWS = ("v-unit", "h-boundary", "v-boundary", "v-assoc", "interchange", "six-composites")


def act_mor_mutant(act, seed: int, entries: int):
    """The action with `entries` seeded random act_mor entries overwritten."""
    rng = random.Random(seed)
    table = [list(row) for row in act.act_mor]
    n = act.category.n_morphisms
    for _ in range(entries):
        table[rng.randrange(len(table))][rng.randrange(n)] = rng.randrange(n)
    return make_strict_action(act.xm, act.category, act.act_obj, table)


def act_obj_mutant(act, seed: int, entries: int):
    """The action with `entries` seeded random act_obj entries overwritten."""
    rng = random.Random(seed)
    table = [list(row) for row in act.act_obj]
    n = act.category.n_objects
    for _ in range(entries):
        table[rng.randrange(len(table))][rng.randrange(n)] = rng.randrange(n)
    return make_strict_action(act.xm, act.category, table, act.act_mor)


def aimed_mutant(act, aim: str):
    """The action with one act_mor entry moved to the next morphism, aimed
    at a condition of six-composites' decision by object: "a" a
    non-identity entry of a row whose pair has a label, "b" an entry of the
    row W(g) of a g other than the unit, "c" a component."""
    xm, c = act.xm, act.category
    g = next(x for x in xm.g.elements() if x != xm.g.identity)
    label = next(x for x in xm.h.elements() if x != xm.h.identity)
    arrow = next(f for f in c.morphisms() if f not in c.identity)
    row, f = {
        "a": (xm.pair_index(xm.g.identity, label), arrow),
        "b": (xm.pair_index(g, xm.h.identity), arrow),
        "c": (xm.pair_index(g, label), c.identity[0]),
    }[aim]
    table = [list(r) for r in act.act_mor]
    table[row][f] = (table[row][f] + 1) % c.n_morphisms
    return make_strict_action(xm, c, act.act_obj, table)


def typed_mutant(act, seed: int, kind: str):
    """The action with act_mor changed where a random entry would mostly
    break typing: "swap" copies a seeded row over another, "permute"
    shuffles a seeded row among the positions of each hom-set, and "hom"
    replaces a seeded entry by another morphism of its hom-set."""
    rng = random.Random(seed)
    c = act.category
    table = [list(row) for row in act.act_mor]
    homs: dict[tuple[int, int], list[int]] = {}
    for f in c.morphisms():
        homs.setdefault((c.src[f], c.tgt[f]), []).append(f)
    p = rng.randrange(len(table))
    row = table[p]
    if kind == "swap":
        table[p] = list(table[rng.choice([q for q in range(len(table)) if q != p])])
    elif kind == "permute":
        for positions in homs.values():
            values = [row[f] for f in positions]
            rng.shuffle(values)
            for f, v in zip(positions, values):
                row[f] = v
    else:
        f = rng.choice([f for f in c.morphisms() if len(homs[c.src[row[f]], c.tgt[row[f]]]) > 1])
        row[f] = rng.choice([m for m in homs[c.src[row[f]], c.tgt[row[f]]] if m != row[f]])
    assert table != [list(row) for row in act.act_mor], "the mutant changes nothing"
    return make_strict_action(act.xm, c, act.act_obj, table)


def mutant(act, seed: int, entries):
    """act_mor_mutant for an int `entries`; ("act_obj", k) overwrites k
    seeded act_obj entries, ("aim", a) is aimed_mutant(act, a), and
    ("typed", kind) is typed_mutant(act, seed, kind)."""
    if isinstance(entries, int):
        return act_mor_mutant(act, seed, entries)
    kind, arg = entries
    if kind == "typed":
        return typed_mutant(act, seed, arg)
    return act_obj_mutant(act, seed, arg) if kind == "act_obj" else aimed_mutant(act, arg)


# (fixture, seed, entries, budget) and what verify_double_category reported on
# that mutant when the double laws multiplied pairs through pair_mul and looked
# composites up in the category's dict: the sha256 of the JSON list of
# [law, witness, detail], Report.instances, and the violation count per law.
# The rows with sampled laws were pinned again when a sampled law came to
# check distinct instances in enumeration order.
# xm1 at 35 samples samples every law (the smallest has 36 instances); xm2 at
# a budget of 50 000 enumerates all but v-assoc and interchange.
DOUBLE_PINS = [
    (
        "xm1", 0, 1, {},
        "23bd4fcda3067633cf4caee6d12553e2c8d5d3f41b0c53e37422159425bb0f6a",
        (36, 324, 216, 1296, 5832, 216),
        {"h-boundary": 24, "v-boundary": 13, "v-assoc": 78, "interchange": 432, "six-composites": 68},
    ),
    (
        "xm1", 0, 1, {"max_exhaustive": 0, "samples": 35},
        "b892c287f94b14f47df214ebd8826515d63fba66d53634ba9ba4ef4cbfcab645",
        (35,) * 6,
        {"h-boundary": 3, "v-boundary": 2, "v-assoc": 4, "interchange": 3, "six-composites": 19},
    ),
    (
        "xm1", 1, 1, {},
        "6ae5bb16fef11c7ea4ec876b06cd832d824f51d94fa03ef3b588456420d794b3",
        (36, 324, 216, 1296, 5832, 216),
        {"h-boundary": 22, "v-boundary": 13, "v-assoc": 78, "interchange": 396, "six-composites": 32},
    ),
    (
        "xm1", 1, 1, {"max_exhaustive": 0, "samples": 35},
        "9a0d868851a952731f2d2a5d7057a39febaafbe39376e8a2871bd2e3736da5d0",
        (35,) * 6,
        {"h-boundary": 3, "v-boundary": 1, "v-assoc": 1, "interchange": 3, "six-composites": 8},
    ),
    (
        "xm2", 0, 3, {"max_exhaustive": 50_000, "samples": 300},
        "d0e44e0bf8d1da6418c1fc0ff3039cc7061ff85bdc424c333322f7b284a73891",
        (1296, 46656, 46656, 300, 300, 46656),
        {"h-boundary": 317, "v-boundary": 311, "v-assoc": 1, "six-composites": 1102},
    ),
    (
        "xm2", 0, 3, {"max_exhaustive": 0, "samples": 300},
        "a03d78113369526a7722b21d198b8857c1d00b93b7c15f7cbf37da18d403eaa5",
        (300,) * 6,
        {"v-boundary": 1, "v-assoc": 1, "six-composites": 4},
    ),
]


class TestDoubleKernel:
    @pytest.mark.parametrize("name, seed, entries, budget, digest, sizes, counts", DOUBLE_PINS)
    def test_mutant_reports_are_pinned(
        self, all_xms, sampled_witnesses_are_real, name, seed, entries, budget, digest, sizes,
        counts,
    ):
        act = act_mor_mutant(adjoint_action(dict(all_xms)[name]), seed, entries)
        d = build_transformation_double(act, validate=False)
        rep = verify_double_category(d, **budget)
        sampled_witnesses_are_real(rep, "double", double_laws(d))
        found = [[v.law, list(v.witness), v.detail] for v in rep.violations]
        assert hashlib.sha256(json.dumps(found).encode()).hexdigest() == digest
        assert rep.instances == dict(zip(DOUBLE_LAWS, sizes))
        assert {law: rep.count(law) for law in DOUBLE_LAWS if rep.count(law)} == counts

    def test_an_undefined_composite_prints_none(self, xm2):
        act = act_mor_mutant(adjoint_action(xm2), 0, 3)
        rep = verify_double_category(
            build_transformation_double(act, validate=False), max_exhaustive=50_000, samples=300
        )
        details = [v.detail for v in rep.violations if v.law == "six-composites"]
        assert any("None" in detail for detail in details)
        assert all(detail.startswith("composites (") for detail in details)

    # every entry of the pair tables against the one-value forms, on the
    # fixtures and on two modules that break the crossed-module axioms
    def test_pair_table_is_the_pair_product(self, all_xms, bad_xm, broken_xm):
        for xm in [xm for _, xm in all_xms] + [bad_xm, broken_xm]:
            table = xm.pair_products
            assert xm.pair_products is table  # built once, then kept
            assert xm.pair_of(xm.pair_unit) == (xm.g.identity, xm.h.identity)
            for i in range(xm.npairs):
                m = mor_of(xm, i)
                for j in range(xm.npairs):
                    assert table[i][j] == xm.pair_index(*xm.pair_mul(xm.pair_of(i), xm.pair_of(j)))
                assert xm.pair_of(xm.pair_inverses[i]) == xm.pair_inv(xm.pair_of(i))
                assert catgroup.boundary(m) == (m.g, xm.pair_targets[i])
                for c in xm.h.elements():
                    # the 2-cell c out of m's target composes after m
                    upper = Mor2G(xm, xm.pair_targets[i], c)
                    assert mor_of(xm, xm.pair_stacks[i][c]) == catgroup.compose(upper, m)


# the suites besides double whose laws read the action's tables
# (action.ActionTables)
TABLE_SUITES = {
    "action": action_laws, "nested": nested_suite_laws, "h2cat": h2_laws, "v2cat": v2_laws,
    "pentagon": pentagon_laws,
}


def table_suite_facts(act, budget, check) -> dict:
    """suite -> [[law, witness, detail] of each violation, Report.instances,
    violations per law, whether the cap cut] of each of TABLE_SUITES on act,
    at verify's defaults overridden by budget, or [class, message] of what
    building its laws raised; check(rep, suite, laws) sees each report."""
    d = build_transformation_double(act, validate=False)
    out = {}
    for suite, laws_of in TABLE_SUITES.items():
        try:
            laws = laws_of(d)
        except KeyError as exc:  # a (1, chi) component that does not compose after f
            out[suite] = [type(exc).__name__, str(exc)]
            continue
        rep = run_laws(Report(), suite, laws, **{**VERIFY_BUDGET, **budget})
        check(rep, suite, laws)
        out[suite] = [
            [[v.law, list(v.witness), v.detail] for v in rep.violations],
            rep.instances, {law: rep.count(law) for law in rep.instances}, rep.capped,
        ]
    return out


# (fixture, seed, entries, budget) of a mutant of the adjoint action (see
# mutant), the sha256 of the JSON of table_suite_facts on it, and the
# violations per suite, or what building its laws raised: each row at
# verify's defaults, which enumerate every law, then sampled. Pinned when
# each suite read its own lookups: comp.get, nat_component and the units rows.
SUITE_PINS = [
    ("xm1", 0, 1, {},
     "828420c2d4fcc2c2f903f9594de67b8e2c99ccd46d716370e55055b023871007",
     {"action": 84, "nested": 3, "h2cat": 0, "v2cat": 3, "pentagon": 7}),
    ("xm1", 0, 1, {"max_exhaustive": 0, "samples": 40},
     "c7d8244fe83840a2b8f3542a7329297029e2e57a1640c9a2b4897c82579a2d45",
     {"action": 34, "nested": 3, "h2cat": 0, "v2cat": 3, "pentagon": 7}),
    ("xm1", 7, 2, {},
     "2610bfd8bb2d6d2ec7de96c533fda11adc17e02c42e37d957c30697fadf2a331",
     {"action": 158, "nested": 3, "h2cat": "KeyError", "v2cat": 3, "pentagon": 8}),
    ("xm1", 7, 2, {"max_exhaustive": 0, "samples": 40},
     "e68f17fa893600b573212f2aec896624298953f6105b2d8d894665c4edcf735a",
     {"action": 77, "nested": 3, "h2cat": "KeyError", "v2cat": 3, "pentagon": 8}),
    ("xm1", 0, ("act_obj", 1), {},
     "5375d1b69d6a535555b724eb6637159957b7d296623db30c4bed4f594c2532dd",
     {"action": 38, "nested": 3, "h2cat": 0, "v2cat": 1, "pentagon": 12}),
    ("xm1", 0, ("act_obj", 1), {"max_exhaustive": 0, "samples": 40},
     "b889e42ab063537ae52a6de39b11ccae00a5c92549a737f77ead7b22903ed9bb",
     {"action": 27, "nested": 3, "h2cat": 0, "v2cat": 1, "pentagon": 12}),
    ("xm1", 0, ("typed", "swap"), {},
     "68a2aac6d26b10b43719523ff288f9d338defa9d689992fcc80aabddc37d1df5",
     {"action": 145, "nested": 3, "h2cat": 0, "v2cat": 1, "pentagon": 4}),
    ("xm1", 0, ("typed", "swap"), {"max_exhaustive": 0, "samples": 40},
     "7062e12f2511f921bd83119eb3d87c120663f2cd62a95db98dc5bc99cf7d259e",
     {"action": 60, "nested": 3, "h2cat": 0, "v2cat": 1, "pentagon": 4}),
    ("xm1", 1, ("typed", "permute"), {},
     "0841021e4921942353c5db12bf3f5681ee328f7abc1f778a6ff674d486897105",
     {"action": 171, "nested": 0, "h2cat": 24, "v2cat": 2, "pentagon": 0}),
    ("xm1", 1, ("typed", "permute"), {"max_exhaustive": 0, "samples": 40},
     "a192d5412621d5f22f2163cdab5d81bc9d554c8131ff6f2d4b28a7c3e784e180",
     {"action": 48, "nested": 0, "h2cat": 18, "v2cat": 2, "pentagon": 0}),
    ("xm1", 1, ("typed", "hom"), {},
     "e35db3d4c8edbea11ed8049f9b93a05ce88858b658c598f9f18f1cff0df14867",
     {"action": 37, "nested": 0, "h2cat": 0, "v2cat": 0, "pentagon": 0}),
    ("xm1", 1, ("typed", "hom"), {"max_exhaustive": 0, "samples": 40},
     "e19c904461fd622875f597df9b0244fc6fd9d88f7312acd6cf3371c93275528d",
     {"action": 3, "nested": 0, "h2cat": 0, "v2cat": 0, "pentagon": 0}),
    ("xm2", 0, 3, {},
     "2c282fa4a1999acd0a515f8e98582cb91bcc82fc545084b92cd28a6e70d3b175",
     {"action": 766, "nested": 0, "h2cat": 0, "v2cat": 0, "pentagon": 0}),
    ("xm2", 0, 3, {"max_exhaustive": 0, "samples": 40},
     "0d483f13eb672cc16990443683bb689f1048e916fcedebbc183bbb30fdf30d94",
     {"action": 5, "nested": 0, "h2cat": 0, "v2cat": 0, "pentagon": 0}),
    ("xm2", 3, ("act_obj", 1), {},
     "98d0ce5593be9b9f4c689a723cd6328ba7520c03cf00363155d11d41e58c4f8d",
     {"action": 338, "nested": 7, "h2cat": 0, "v2cat": 3, "pentagon": 191}),
    ("xm2", 3, ("act_obj", 1), {"max_exhaustive": 0, "samples": 40},
     "83e6b092520de3d18439114f435830ca29afe44518b670256d9375c985fda21f",
     {"action": 26, "nested": 2, "h2cat": 0, "v2cat": 1, "pentagon": 5}),
    ("xm2", 1, ("typed", "swap"), {},
     "cca38db0fbdd63f6320f33040d7daab62ab30d01a83229009021754e2603a559",
     {"action": 6621, "nested": 0, "h2cat": 0, "v2cat": 1, "pentagon": 0}),
    ("xm2", 1, ("typed", "swap"), {"max_exhaustive": 0, "samples": 40},
     "05fbb7b7b3d398a6d76a2fba664fe18b634828b863a7121cf8671ee3f132024d",
     {"action": 12, "nested": 0, "h2cat": 0, "v2cat": 1, "pentagon": 0}),
    ("xm3", 0, 1, {},
     "1512d0815d477ae4afa75b61607bbc16bba9ff6ae5287ba3d7e79c4031a2c18f",
     {"action": 8, "nested": 0, "h2cat": 0, "v2cat": 0, "pentagon": 0}),
    ("xm3", 0, 1, {"max_exhaustive": 0, "samples": 3},
     "ffe2a6e150e9f70d6c519e01c0dca6a5e8cbbeeb3aa2e3c4a152441fcb4eaa97",
     {"action": 1, "nested": 0, "h2cat": 0, "v2cat": 0, "pentagon": 0}),
    ("xm3", 1, ("typed", "permute"), {},
     "2ddf62cddeba7c6559180ca5459207e124526463d00dc085fde7357b22706747",
     {"action": 42, "nested": 2, "h2cat": 10, "v2cat": 2, "pentagon": 3}),
    ("xm3", 1, ("typed", "permute"), {"max_exhaustive": 0, "samples": 3},
     "f3c1aa4e2bc623f77c0a78ec51dc9e5f9915bf7152fc9c64e9c0d7cd9e1d6152",
     {"action": 21, "nested": 2, "h2cat": 5, "v2cat": 2, "pentagon": 3}),
    ("xm3", 0, ("typed", "hom"), {},
     "6ad8bc352aaf09e137cfd088760ddffd85cf773969f058b2c557d555903a718c",
     {"action": 8, "nested": 0, "h2cat": 0, "v2cat": 0, "pentagon": 0}),
    ("xm3", 0, ("typed", "hom"), {"max_exhaustive": 0, "samples": 3},
     "9fe287c984e7cf4bf2899c4519073ed48852afacc6097194cd82b99c556e5313",
     {"action": 0, "nested": 0, "h2cat": 0, "v2cat": 0, "pentagon": 0}),
    ("xm4", 5, 4, {},
     "15397bcd0ffd07817d87b651cc9f3fc84d252806aabaed566e72a6b54dc27dfb",
     {"action": 483, "nested": 0, "h2cat": 0, "v2cat": 6, "pentagon": 0}),
    ("xm4", 5, 4, {"max_exhaustive": 0, "samples": 40},
     "cf15783b7674557e26b33303b44ab6f9ea2f4cd57fbcc860b6d11bf488badcd7",
     {"action": 16, "nested": 0, "h2cat": 0, "v2cat": 3, "pentagon": 0}),
    ("xm4", 1, ("act_obj", 2), {},
     "62c25f70b8721725537fd369372ea75bc01e033ecd881178ac33483bea21944a",
     {"action": 253, "nested": 10, "h2cat": 0, "v2cat": 8, "pentagon": 158}),
    ("xm4", 1, ("act_obj", 2), {"max_exhaustive": 0, "samples": 40},
     "d264c87b58f7a07c3f0bf34bc4011f849a504578a07ee59d840a13c348c14b4f",
     {"action": 55, "nested": 7, "h2cat": 0, "v2cat": 5, "pentagon": 33}),
]


class TestSuitePins:
    @pytest.mark.parametrize("name, seed, entries, budget, digest, violations", SUITE_PINS)
    def test_mutant_reports_are_pinned(
        self, all_xms, sampled_witnesses_are_real, name, seed, entries, budget, digest, violations,
    ):
        act = mutant(adjoint_action(dict(all_xms)[name]), seed, entries)
        facts = table_suite_facts(act, budget, sampled_witnesses_are_real)
        assert hashlib.sha256(json.dumps(facts, sort_keys=True).encode()).hexdigest() == digest
        assert {
            suite: found[0] if isinstance(found[0], str) else sum(found[2].values())
            for suite, found in facts.items()
        } == violations


# --- proved laws -----------------------------------------------------------------

# (suite, law) of the laws that carry a proof: catgroup interchange, every
# quintet law but embed-compose, three action laws and every double law but
# v-unit; run_laws skips the walk of a law whose proof holds. interchange
# names a catgroup law and a double law
QUINTET_PROVED = {
    ("quintet", law)
    for law in ("face-formulas-agree", "h-inverse", "v-inverse", "h-identity", "v-identity", "grid-interchange")
}
# the proofs that read xm.lawful alone, so hold on every action of a lawful module
LAWFUL_PROVED = QUINTET_PROVED | {("catgroup", "interchange")}
# the proofs that read the action's tables alone, the only ones that can hold
# on a module that is not lawful
TABLE_PROVED = {("double", "h-boundary"), ("action", "pair-functoriality")}
PROVED = LAWFUL_PROVED | TABLE_PROVED | {
    ("action", "component-product"), ("action", "morphism-associativity"),
    ("double", "v-boundary"), ("double", "v-assoc"), ("double", "interchange"), ("double", "six-composites"),
}
# two objects and one arrow between them
ARROW = category_from_tables(2, [(0, 0), (1, 1), (0, 1)], [0, 1], [(0, 0, 0), (1, 1, 1), (2, 0, 2), (1, 2, 2)])


def report_facts(rep: Report):
    """Everything a report says: witnesses and details in order, instances,
    violations per law (past the cap too), and whether the cap cut."""
    return rep.violations, rep.instances, {law: rep.count(law) for law in rep.instances}, rep.capped


# DOUBLE_PINS' mutants, more xm2, xm3 and xm4 mutants, and one xm2 mutant
# whose h-boundary, v-boundary and six-composites pass the 100-witness cap;
# then act_obj mutants, the mutants aimed at six-composites' conditions, and
# typed mutants, which keep more entries typed than a random entry does
XM2_BUDGET = {"max_exhaustive": 50_000, "samples": 300}
MUTANT_CASES = [(name, seed, entries, budget) for name, seed, entries, budget, *_ in DOUBLE_PINS] + [
    ("xm2", 1, 3, XM2_BUDGET),
    ("xm2", 2, 1, XM2_BUDGET),
    ("xm3", 0, 1, {}),
    ("xm4", 5, 4, {}),
    pytest.param("xm1", 0, ("act_obj", 1), {}, id="xm1-act_obj-0-1"),
    pytest.param("xm2", 3, ("act_obj", 1), XM2_BUDGET, id="xm2-act_obj-3-1"),
    pytest.param("xm4", 1, ("act_obj", 2), {}, id="xm4-act_obj-1-2"),
    *(pytest.param("xm2", 0, ("aim", aim), XM2_BUDGET, id=f"xm2-aim-{aim}") for aim in "abc"),
    *(
        pytest.param(name, seed, ("typed", kind), budget, id=f"{name}-{kind}-{seed}")
        for name, seed, kind, budget in [
            ("xm1", 0, "swap", {}), ("xm2", 1, "swap", XM2_BUDGET), ("xm1", 1, "permute", {}),
            ("xm3", 1, "permute", {}), ("xm1", 1, "hom", {}), ("xm3", 0, "hom", {}),
        ]
    ),
]
VERIFY_BUDGET = {"samples": 100_000, "max_exhaustive": 10_000_000}  # verify's defaults
SWEEP_BUDGET = {"samples": 1000, "max_exhaustive": 10_000}  # verify's in the benchmark sweep


def proved_laws(act):
    """(suite, law) for every law with a proof, on one double category."""
    d = build_transformation_double(act, validate=False)
    suites = (
        ("catgroup", catgroup_laws(d)), ("quintet", quintet_laws(d)), ("action", action_laws(d)),
        ("double", double_laws(d)),
    )
    return [(suite, law) for suite, laws in suites for law in laws if law.proved]


def outcome(suite, law, budget):
    """What run_laws makes of the law alone, at verify's defaults overridden
    by budget: its report facts, or the class and message of what it raised."""
    try:
        return report_facts(run_laws(Report(), suite, [law], **{**VERIFY_BUDGET, **budget}))
    except Exception as exc:  # a walk that raises must raise without the proof too
        return type(exc).__name__, str(exc)


def proofs_that_hold(act, budget):
    """(suite, law name) of the laws whose proof holds on act, after
    checking that each law reports the same with its proof as without it."""
    held = set()
    for suite, law in proved_laws(act):
        assert outcome(suite, law, budget) == outcome(suite, replace(law, proved=None), budget), (suite, law.name)
        if law.proved():
            held.add((suite, law.name))
    return held


SMALL_XMS = small_crossed_modules()


class TestProvedLaws:
    def test_the_fifteen_proved_laws(self, xm2):
        assert len(PROVED) == 15
        assert {(suite, law.name) for suite, law in proved_laws(adjoint_action(xm2))} == PROVED

    # xm2 at verify's defaults would walk 1.7 million v-assoc instances
    @pytest.mark.parametrize(
        "budget",
        [{}, SWEEP_BUDGET, {"max_exhaustive": 0, "samples": 50}],
        ids=["defaults", "sweep", "sampled"],
    )
    def test_the_fixtures_are_proved_and_report_as_walked(self, all_xms, budget):
        for name, xm in all_xms:
            for act in (adjoint_action(xm), trivial_strict_action(xm, ARROW)):
                within = {**budget, "max_exhaustive": 300_000} if name == "xm2" and not budget else budget
                assert proofs_that_hold(act, within) == PROVED

    def test_the_benchmark_sweep_has_57_small_crossed_modules(self):
        assert len(SMALL_XMS) == 57

    # the adjoint action, which the benchmark sweep verifies, and the trivial
    # action on the arrow category, which no adjoint action acts on
    @pytest.mark.parametrize("xm", [xm for _, xm in SMALL_XMS], ids=[name for name, _ in SMALL_XMS])
    def test_the_small_crossed_modules_are_proved_and_report_as_walked(self, xm):
        for act in (adjoint_action(xm), trivial_strict_action(xm, ARROW)):
            assert proofs_that_hold(act, SWEEP_BUDGET) == PROVED, act.category

    @pytest.mark.parametrize(
        "category",
        [category_from_tables(0, [], [], []), terminal_category()],
        ids=["no-morphism", "one-morphism"],
    )
    def test_categories_with_fewer_than_two_morphisms(self, all_xms, category):
        for _, xm in all_xms:
            assert proofs_that_hold(trivial_strict_action(xm, category), SWEEP_BUDGET) == PROVED

    # bad-peiffer breaks peiffer, broken_xm equivariance: no proof that
    # needs xm.lawful holds, those of h-boundary and pair-functoriality, which
    # do not, hold where the action's tables allow, and the walks still find
    # what they found
    def test_only_table_proofs_hold_on_a_module_that_breaks_an_axiom(self, bad_xm, broken_xm):
        for xm in (bad_xm, broken_xm):
            assert not xm.lawful
            assert proofs_that_hold(adjoint_action(xm), SWEEP_BUDGET) == set()
            for c in (terminal_category(), ARROW):
                assert proofs_that_hold(trivial_strict_action(xm, c), SWEEP_BUDGET) == TABLE_PROVED
        lines = run_all(adjoint_action(bad_xm), **SWEEP_BUDGET)
        failing = {line.law for line in lines if line.status == "fail"}
        assert {"face-formulas-agree", "grid-interchange", "interchange"} <= failing

    # Z/2 acting on Z/4 by inversion, with the boundary onto Z/2: a
    # homomorphism, and equivariant, but peiffer fails on the diagonal
    # (bnd(1) |> 1 = 3), which h-inverse's proof reads; no suite raises, as
    # a paste of squares keeps the boundary law here
    def test_h_inverse_fails_where_peiffer_fails_on_the_diagonal(self):
        z2, z4 = cyclic(2), cyclic(4)
        xm = make_crossed_module(
            z2, z4, make_homomorphism(z4, z2, [0, 1, 0, 1]), make_action(z2, z4, [[0, 1, 2, 3], [0, 3, 2, 1]])
        )
        assert xm.acts_by_automorphisms and not xm.lawful
        act = adjoint_action(xm)
        assert proofs_that_hold(act, SWEEP_BUDGET) == set()
        lines = run_all(act, **SWEEP_BUDGET)
        assert not [line for line in lines if line.law.endswith("-error")]
        [line] = [line for line in lines if (line.suite, line.law) == ("quintet", "h-inverse")]
        assert line.to_obj() == {
            "suite": "quintet", "law": "h-inverse", "status": "fail", "checked": 32, "violations": 16,
            "witness": [0, 0, 0, 1, 1],
        }

    # TestPairGroupCheck's module, on which the unit of H is not fixed by the
    # element 1 of G, so G does not act by automorphisms: h-inverse and the
    # three quintet laws that read only the automorphism laws fail
    def test_the_quintet_unit_and_inverse_laws_fail_where_g_moves_the_unit(self):
        z2, z3 = cyclic(2), cyclic(3)
        xm = make_crossed_module(
            z2, z3, make_homomorphism(z3, z2, [0, 0, 0]), make_action(z2, z3, [[0, 1, 2], [1, 0, 2]])
        )
        act = trivial_strict_action(xm, terminal_category())
        assert proofs_that_hold(act, SWEEP_BUDGET) == TABLE_PROVED
        witnesses = {"h-inverse": [0, 0, 1, 1, 0], "v-inverse": [1, 0, 0, 1, 0], "h-identity": [0, 0, 1, 1, 0],
                     "v-identity": [1, 0, 0, 1, 0]}
        lines = [line.to_obj() for line in run_all(act, only=["quintet"], **SWEEP_BUDGET)]
        assert [line for line in lines if line["law"] in witnesses] == [
            {"suite": "quintet", "law": law, "status": "fail", "checked": 24, "violations": 12, "witness": w}
            for law, w in witnesses.items()
        ]

    def test_v_assoc_is_walked_on_the_mutated_action(self, fixtures_dir):
        act = load_action(fixtures_dir / "actions" / "mutated.json")
        assert act.xm.lawful
        held = proofs_that_hold(act, {})
        assert ("double", "v-assoc") not in held and held >= LAWFUL_PROVED
        [line] = [line for line in run_all(act, only=["double"]) if line.law == "v-assoc"]
        assert line.status == "fail"

    # seeded act_mor, act_obj and aimed mutants of the adjoint actions: the
    # module is lawful, so the catgroup and quintet proofs hold; an act_mor
    # mutant breaks some row, some composition and some condition of
    # six-composites, which leaves every double law but v-unit, and the
    # three proved action laws, to their walks
    @pytest.mark.parametrize("name, seed, entries, budget", MUTANT_CASES)
    def test_seeded_mutants_report_as_walked(self, all_xms, name, seed, entries, budget):
        act = mutant(adjoint_action(dict(all_xms)[name]), seed, entries)
        held = proofs_that_hold(act, budget or SWEEP_BUDGET)
        assert held >= LAWFUL_PROVED
        if isinstance(entries, int):
            assert held == LAWFUL_PROVED

    # the arrow category's 3 morphisms differ in number from every fixture's
    # pairs, which the adjoint action's morphisms are. h-boundary and
    # v-boundary are proved exactly when their walk finds nothing; every
    # mutant fails six-composites, and h-boundary and v-boundary when it
    # changes act_mor, the one table those two read
    @pytest.mark.parametrize(
        "base, name, seed, entries",
        [
            ("adjoint", "xm1", 0, 1), ("adjoint", "xm2", 1, 3), ("adjoint", "xm3", 0, 1), ("adjoint", "xm4", 5, 4),
            ("arrow", "xm1", 3, 2), ("arrow", "xm2", 1, 3), ("arrow", "xm4", 0, 1),
            pytest.param("adjoint", "xm1", 0, ("act_obj", 1), id="adjoint-xm1-act_obj-0-1"),
            pytest.param("adjoint", "xm4", 3, ("act_obj", 1), id="adjoint-xm4-act_obj-3-1"),
            pytest.param("arrow", "xm3", 0, ("act_obj", 1), id="arrow-xm3-act_obj-0-1"),
            pytest.param("arrow", "xm4", 1, ("act_obj", 2), id="arrow-xm4-act_obj-1-2"),
            *(pytest.param("adjoint", "xm4", 0, ("aim", aim), id=f"adjoint-xm4-aim-{aim}") for aim in "abc"),
            *(
                pytest.param("adjoint", name, seed, ("typed", kind), id=f"adjoint-{name}-{kind}-{seed}")
                for name, seed, kind in [
                    ("xm1", 2, "swap"), ("xm2", 3, "swap"), ("xm1", 3, "permute"), ("xm3", 2, "permute"),
                    ("xm1", 3, "hom"), ("xm3", 1, "hom"),
                ]
            ),
        ],
    )
    def test_seeded_mutants_fail_what_they_change(self, all_xms, base, name, seed, entries):
        xm = dict(all_xms)[name]
        lawful = adjoint_action(xm) if base == "adjoint" else trivial_strict_action(xm, ARROW)
        act = mutant(lawful, seed, entries)
        held = proofs_that_hold(act, SWEEP_BUDGET)
        assert held >= LAWFUL_PROVED
        table_laws = {"h-boundary", "v-boundary", "six-composites"}
        laws = [law for law in double_laws(build_transformation_double(act, validate=False)) if law.name in table_laws]
        rep = run_laws(Report(), "double", laws)
        failing = {law for law in table_laws if rep.count(law)}
        for law in ("h-boundary", "v-boundary"):
            assert (("double", law) in held) == (law not in failing), law
        assert failing >= ({"six-composites"} if act.act_mor == lawful.act_mor else table_laws)


# the five conditions of action.ActionTables, from which, with xm.lawful,
# double_laws proves h-boundary, v-boundary, v-assoc, interchange and
# six-composites
CONDITIONS = ("split", "functorial", "stacking", "multiplicative", "components_typed")
# one object and the morphisms 0 (its identity), 1 and 2 composing as Z/3
Z3_MONOID = category_from_tables(1, [(0, 0)] * 3, [0], [(a, b, (a + b) % 3) for a in range(3) for b in range(3)])


def failing_conditions(act) -> set[str]:
    tables = ActionTables(act)
    return {name for name in CONDITIONS if not getattr(tables, name)}


def double_proofs_that_hold(act) -> set[str]:
    """The double laws whose proof holds on act, after checking that each
    proved law reports the same with its proof as without it."""
    return {law for suite, law in proofs_that_hold(act, SWEEP_BUDGET) if suite == "double"}


class TestActionTables:
    # each table against its definition from act_mor and the category's
    # composition, on lawful actions, mutants and a category with no morphism
    def test_the_tables_are_read_off_the_action(self, all_xms):
        acts = [adjoint_action(xm) for _, xm in all_xms] + [trivial_strict_action(xm, ARROW) for _, xm in all_xms]
        acts += [mutant(adjoint_action(dict(all_xms)["xm1"]), 1, ("typed", "permute")), act_mor_mutant(acts[1], 0, 3)]
        acts += [trivial_strict_action(dict(all_xms)["xm2"], category_from_tables(0, [], [], []))]
        for act in acts:
            t, xm, c = act.tables, act.xm, act.category
            assert act.tables is t  # built once, then kept
            for p, row in enumerate(act.act_mor):
                assert t.natc[p] == tuple(row[c.identity[x]] for x in c.objects())
            assert t.by_g == tuple(act.act_mor[xm.pair_index(g, xm.h.identity)] for g in xm.g.elements())
            for f in c.morphisms():
                assert t.ct[f] == [c.comp.get((f, f1), -1) for f1 in c.morphisms()] + [-1]
                assert t.after[f] == [f2 for f2 in c.morphisms() if c.src[f2] == c.tgt[f]]
            assert len(t.ct) == len(t.after) == c.n_morphisms


class TestDoubleTables:
    # a condition that never holds, say a tuple compared with a list, keeps
    # every verdict and only makes the laws slow; on lawful actions every
    # condition must hold, and on no morphism at all none may raise
    def test_every_condition_holds_on_lawful_actions(self, all_xms):
        order_12 = xmod_identity(direct_product(symmetric(3), cyclic(2)))
        acts = [adjoint_action(xm) for _, xm in all_xms] + [adjoint_action(order_12)]
        acts += [trivial_strict_action(xm, c) for _, xm in all_xms for c in (ARROW, category_from_tables(0, [], [], []))]
        for act in acts:
            assert failing_conditions(act) == set(), act

    # objects 0 and 1, an arrow a: 0 -> 1 and an idempotent e at 0 (a.e = a);
    # the one pair of the trivial module sends id1 to e and a, e to id0, so
    # its row is W(b)(f).n(x) for every f: x -> y but not n(y).W(g)(f), and
    # c1, c2 and c3 read e where c4, c5, c6 and exp read id0
    def test_a_row_that_splits_on_one_side_only_is_walked(self):
        cat = category_from_tables(
            2, [(0, 0), (1, 1), (0, 1), (0, 0)], [0, 1],
            [(0, 0, 0), (1, 1, 1), (2, 0, 2), (1, 2, 2), (3, 0, 3), (0, 3, 3), (3, 3, 3), (2, 3, 2)],
        )
        act = make_strict_action(xmod_identity(trivial_group()), cat, [[0, 1]], [[0, 3, 0, 0]])
        d = build_transformation_double(act, validate=False)
        assert "split" in failing_conditions(act)
        [six] = [law for law in double_laws(d) if law.name == "six-composites"]
        rep = run_laws(Report(), "double", [six])
        assert report_facts(rep) == report_facts(run_laws(Report(), "double", [replace(six, proved=None)]))
        assert [v.detail for v in rep.violations] == ["composites (3, 3, 3, 0, 0, 0) expected 0"]

    # broken_xm's pair targets are not multiplicative, so it is not lawful,
    # though every condition holds; acting trivially, every composite is
    # still exp
    def test_a_law_that_fails_a_condition_but_holds_passes(self, broken_xm):
        act = trivial_strict_action(broken_xm, ARROW)
        assert not broken_xm.lawful and failing_conditions(act) == set()
        six = [law for law in double_laws(build_transformation_double(act, validate=False)) if law.name == "six-composites"]
        assert run_laws(Report(), "double", six).ok

    # the trivial group acting on Z/2 by swapping its elements, so the unit
    # of G moves the unit of H and (1, 1) (1, 1) is not (1, 1): the module is
    # not lawful, no condition fails, and six-composites is walked, and
    # holds, on the trivial action of the arrow category
    def test_a_module_whose_unit_moves_the_unit_label_is_walked(self):
        one, z2 = trivial_group(), cyclic(2)
        xm = make_crossed_module(one, z2, make_homomorphism(z2, one, [0, 0]), make_action(one, z2, [[1, 0]]))
        act = trivial_strict_action(xm, ARROW)
        assert not xm.lawful and failing_conditions(act) == set()
        assert double_proofs_that_hold(act) == {"h-boundary"}
        assert verify_double_category(build_transformation_double(act, validate=False)).count("six-composites") == 0

    # the trivial module acting on Z/3 by t -> t, t^2 -> 1, which fixes the
    # identity and is idempotent but sends t.t = t^2 to 1, not to t.t: only
    # condition 2 fails, so h-boundary, interchange and six-composites are
    # walked, and the first two find it
    def test_a_translation_that_is_not_a_functor_is_walked(self):
        act = make_strict_action(xmod_identity(trivial_group()), Z3_MONOID, [[0]], [[0, 1, 0]])
        assert failing_conditions(act) == {"functorial"}
        assert double_proofs_that_hold(act) == {"v-boundary", "v-assoc"}
        rep = verify_double_category(build_transformation_double(act, validate=False))
        assert rep.count("h-boundary") == 4 and rep.count("interchange") == 4

    # the trivial group and Z/2, acting on the monoid {1, e}, e.e = e, by
    # the label swapping 1 and e: the pairs act multiplicatively, as the swap
    # is an involution, and each component is typed, but the label's row
    # does not split, and its component e composed with itself is e, not
    # the unit pair's component 1. So component-product, whose proof needs
    # the split, is walked and fails
    def test_components_that_multiply_but_do_not_split_are_walked(self):
        one, z2 = trivial_group(), cyclic(2)
        xm = make_crossed_module(one, z2, make_homomorphism(z2, one, [0, 0]), make_action(one, z2, [[0, 1]]))
        idempotent = category_from_tables(1, [(0, 0)] * 2, [0], [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
        act = make_strict_action(xm, idempotent, [[0]], [[0, 1], [1, 0]])
        assert xm.lawful and failing_conditions(act) == {"split", "stacking"}
        assert proofs_that_hold(act, {}) == LAWFUL_PROVED | {
            ("action", "morphism-associativity"), ("double", "v-boundary"), ("double", "v-assoc"),
        }
        [line] = [line for line in run_all(act, only=["action"]) if line.law == "component-product"]
        assert line.to_obj() == {
            "suite": "action", "law": "component-product", "status": "fail", "checked": 4, "violations": 1,
            "witness": [0, 1, 0, 1, 0],
        }

    # the flip module acting on Z/3 with the label's component t, so that
    # stacking the label twice gives the unit pair, whose component is 1,
    # but composing its component twice gives t^2: condition 3 is the only
    # one of h-boundary's proof (1, 2, 3) that fails. On a lawful module 3
    # follows from 1, 4 and 5, so 4 fails too, and every proof is False
    def test_components_that_do_not_stack_are_walked(self, xm3):
        act = make_strict_action(xm3, Z3_MONOID, [[0]], [[0, 1, 2], [1, 2, 0]])
        assert failing_conditions(act) == {"stacking", "multiplicative"}
        assert double_proofs_that_hold(act) == set()
        rep = verify_double_category(build_transformation_double(act, validate=False))
        assert rep.count("h-boundary") == 9

    # a trivial group acting on Z/3 by swapping 0 and 1, which is no action
    # by automorphisms: the pair product is not associative, the positive
    # words in the one generator 0 reach 1 and 2, and this action passes
    # condition 4 but fails v-boundary's clause 2, which the walk finds
    def test_generator_checks_that_pass_where_the_product_is_not_associative(self):
        one, z3 = trivial_group(), cyclic(3)
        xm = make_crossed_module(one, z3, make_homomorphism(z3, one, [0, 0, 0]), make_action(one, z3, [[1, 0, 2]]))
        act = make_strict_action(xm, Z3_MONOID, [[0]], [[1, 2, 0], [2, 0, 1], [0, 1, 2]])
        assert xm.pair_generators == (0,)
        am, pt = act.act_mor, xm.pair_products
        assert all(am[pt[p][0]] == tuple(am[p][m] for m in am[0]) for p in range(3))
        assert not xm.lawful and "multiplicative" not in failing_conditions(act)
        assert double_proofs_that_hold(act) == set()
        rep = verify_double_category(build_transformation_double(act, validate=False))
        assert rep.count("v-boundary") == 18

    # the positive words in xm.pair_generators reach every pair; on a
    # lawful module the proof of v-boundary's clause 2 from the generators
    # agrees with the full comparison, on the adjoint action and on a mutant
    # of it
    def test_the_pair_tree_reaches_every_pair(self, all_xms, bad_xm, broken_xm):
        order_12 = xmod_identity(direct_product(symmetric(3), cyclic(2)))
        xms = [xm for _, xm in all_xms] + [bad_xm, broken_xm, order_12] + [xm for _, xm in SMALL_XMS]
        for xm in xms:
            gens, pt = xm.pair_generators, xm.pair_products
            reached = set(gens)
            while len(reached) < len(grown := reached | {pt[d][s] for d in reached for s in gens}):
                reached = grown
            assert reached == set(range(xm.npairs))
            if xm.lawful:
                assert 2 ** (len(gens) - 1) <= xm.npairs
                for act in (adjoint_action(xm), act_mor_mutant(adjoint_action(xm), 0, 1)):
                    held = "multiplicative" not in failing_conditions(act)
                    assert held == pairs_act_multiplicatively(act), xm
