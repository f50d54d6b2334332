import copy
import hashlib
import itertools
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodcat.action import adjoint_action
from xmodcat.catgroup import boundary, compose, mor_of, tensor
from xmodcat.cli import main
from xmodcat.errors import BoundaryViolation, MixedStructures, NotAdjacent, XmodcatError
from xmodcat import invert_square
from xmodcat.quintet import (
    Quintet,
    QuintetGrid,
    SquareKernel,
    compose_h,
    compose_v,
    embed_morphism,
    enumerate_squares,
    evaluate_grid,
    make_square,
    random_grid,
    square_from_edges,
)
from xmodcat.report import Report, run_laws
from xmodcat.serialize import write_json, xmod_to_obj
from xmodcat.suites import quintet_laws
from xmodcat.transform import build_transformation_double
from xmodcat.groups import cyclic, direct_product, symmetric
from xmodcat.quintet import _CheckingKernel
from xmodcat.xmod import xm_cyc4, xm_sym3, xmod_identity
from reference import compose_h_face_alt, extract_morphism, h_identity, random_square, v_identity


class TestConstruction:
    def test_boundary_law_enforced(self, xm1):
        # over the trivial boundary every face closes on edges with
        # bottom*right*top^-1*left^-1 = e; (0,0,1,0) does not close
        with pytest.raises(BoundaryViolation) as exc:
            make_square(xm1, 0, 0, 1, 0, 1)
        assert exc.value.witness == (0, 0, 1, 0, 1)

    def test_out_of_range_edges_rejected(self, xm1):
        with pytest.raises(BoundaryViolation):
            make_square(xm1, 9, 0, 0, 0, 0)
        with pytest.raises(BoundaryViolation):
            make_square(xm1, 0, 0, 0, 0, 9)

    def test_the_constructor_checks_range_then_boundary(self, xm2):
        assert make_square is Quintet
        cases = [
            ((99, 0, 0, 0, 0), "edge 99 out of range"),
            ((0, 0, True, 0, 0), "edge True out of range"),
            ((0, 0, 0, 0, 6), "face 6 out of range"),
            ((99, 0, 0, 0, 6), "edge 99 out of range"),  # the edges first
            ((0, 0, 0, 0, 1), "bnd(face)=1 but bottom*right*top^-1*left^-1=0"),
        ]
        for sq, msg in cases:
            with pytest.raises(BoundaryViolation) as exc:
                Quintet(xm2, *sq)
            assert str(exc.value).startswith(msg) and exc.value.witness == sq
        # so no grid holds a square that breaks the boundary law
        with pytest.raises(BoundaryViolation):
            evaluate_grid(QuintetGrid([[Quintet(xm2, 0, 0, 0, 0, 1)]]))
        assert Quintet(xm2, 0, 0, 0, 1, 1) == square_from_edges(xm2, 0, 0, 0, 1)

    def test_square_from_edges_forces_the_bottom(self, all_xms):
        for _, xm in all_xms:
            for sq in enumerate_squares(xm):
                g = xm.g
                word = g.prod(sq.bottom, sq.right, g.inverse[sq.top], g.inverse[sq.left])
                assert xm.bnd(sq.face) == word

    def test_square_count(self, xm1, xm3, xm4):
        assert len(enumerate_squares(xm1)) == 2 * 2 * 2 * 3
        assert len(enumerate_squares(xm3)) == 2
        assert len(enumerate_squares(xm4)) == 4 ** 3 * 4

    def test_mixed_structures_rejected(self, xm1, xm3):
        a = h_identity(xm1, 0)
        b = h_identity(xm3, 0)
        with pytest.raises(MixedStructures):
            compose_h(a, b)


class TestQuintetContract:
    """A Quintet is the tuple (left, top, right, bottom, face, xm) with named
    fields, equal only to another Quintet with equal entries."""

    def test_equal_fields_over_equal_modules_are_equal_and_hash_equal(self, xm2):
        twin = xm_sym3()
        assert twin is not xm2 and twin == xm2
        a, b = Quintet(xm2, 1, 2, 3, 2, 5), Quintet(twin, 1, 2, 3, 2, 5)
        assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Quintet(xm2, 1, 2, 3, 0, 4) and a != Quintet(xm_cyc4(), 1, 2, 3, 1, 1)

    def test_a_plain_tuple_of_its_entries_is_not_a_quintet(self, xm2):
        q = square_from_edges(xm2, 1, 2, 3, 4)
        for t in (q.as_tuple(), tuple(q)):
            assert q != t and t != q and not q == t and not t == q
            assert t not in {q} and q not in {t}

    def test_fields_indexing_and_iteration(self, xm4):
        q = square_from_edges(xm4, 0, 0, 1, 0)
        assert (q.left, q.top, q.right, q.bottom, q.face, q.xm) == tuple(q) == (0, 0, 1, 3, 0, xm4)
        assert q[2] == q.right and q.edges() == (0, 0, 1, 3) and q.as_tuple() == (0, 0, 1, 3, 0)
        assert repr(q) == "Quintet(xm=CrossedModule(|G|=4, |H|=4), left=0, top=0, right=1, bottom=3, face=0)"
        assert copy.copy(q) == q and pickle.loads(pickle.dumps(q)) == q

    def test_it_cannot_be_changed(self, xm4):
        q = square_from_edges(xm4, 0, 0, 1, 0)
        with pytest.raises(AttributeError):
            q.left = 2
        with pytest.raises(AttributeError):
            q.colour = "red"
        assert tuple(q) == (0, 0, 1, 3, 0, xm4)

    def test_the_checked_layer_keeps_its_errors(self, xm1, xm3, xm4):
        a, b = square_from_edges(xm4, 0, 0, 1, 0), square_from_edges(xm4, 2, 0, 0, 0)
        with pytest.raises(NotAdjacent, match=r"^a\.right=1 but b\.left=2$"):
            compose_h(a, b)
        c, d = square_from_edges(xm4, 0, 1, 0, 0), square_from_edges(xm4, 0, 2, 0, 0)
        with pytest.raises(NotAdjacent, match=r"^upper\.bottom=1 but lower\.top=2$"):
            compose_v(c, d)
        u, v = h_identity(xm1, 0), h_identity(xm3, 0)
        for paste in (compose_h, compose_v):
            with pytest.raises(MixedStructures, match="^squares over different crossed modules$"):
                paste(u, v)
        with pytest.raises(MixedStructures, match=r"^cell \(1,0\) uses a different crossed module$"):
            QuintetGrid([[u], [v]])

    def test_a_one_cell_grid_evaluates_to_its_cell(self, xm2):
        q = square_from_edges(xm2, 1, 2, 3, 4)
        for order in ("rows", "columns"):
            assert evaluate_grid(QuintetGrid([[q]]), order) == q


class TestWorkedValues:
    def test_horizontal_pasting(self, xm1):
        a = make_square(xm1, 1, 0, 1, 0, 1)
        b = make_square(xm1, 1, 0, 1, 0, 2)
        out = compose_h(a, b)
        assert (out.left, out.top, out.right, out.bottom, out.face) == (1, 0, 1, 0, 0)

    def test_vertical_pasting(self, xm1):
        upper = make_square(xm1, 1, 0, 1, 0, 1)
        lower = make_square(xm1, 1, 0, 1, 0, 2)
        out = compose_v(upper, lower)
        assert (out.left, out.top, out.right, out.bottom, out.face) == (0, 0, 0, 0, 1)

    def test_horizontal_inverse_value(self, xm1):
        sq = make_square(xm1, 1, 0, 1, 0, 1)
        inv = invert_square(sq, "h")
        assert (inv.left, inv.top, inv.right, inv.bottom, inv.face) == (1, 0, 1, 0, 2)


class TestPastingLaws:
    def test_face_formulas_agree_exhaustively(self, xm1, xm3):
        for xm in (xm1, xm3):
            sqs = enumerate_squares(xm)
            for a in sqs:
                for b in sqs:
                    if a.right != b.left:
                        continue
                    assert compose_h(a, b).face == compose_h_face_alt(a, b)

    def test_identity_squares(self, all_xms):
        for _, xm in all_xms:
            for sq in enumerate_squares(xm):
                assert compose_h(h_identity(xm, sq.left), sq) == sq
                assert compose_h(sq, h_identity(xm, sq.right)) == sq
                assert compose_v(v_identity(xm, sq.top), sq) == sq
                assert compose_v(sq, v_identity(xm, sq.bottom)) == sq

    def test_inverse_squares(self, all_xms):
        for _, xm in all_xms:
            for sq in enumerate_squares(xm):
                hi = invert_square(sq, "horizontal")
                assert compose_h(sq, hi) == h_identity(xm, sq.left)
                assert compose_h(hi, sq) == h_identity(xm, sq.right)
                vi = invert_square(sq, "vertical")
                assert compose_v(sq, vi) == v_identity(xm, sq.top)
                assert compose_v(vi, sq) == v_identity(xm, sq.bottom)

    def test_unknown_axis(self, xm1):
        with pytest.raises(ValueError):
            invert_square(h_identity(xm1, 0), "diagonal")

    def test_horizontal_associativity(self, xm1):
        sqs = enumerate_squares(xm1)
        for a in sqs:
            for b in sqs:
                if a.right != b.left:
                    continue
                for c in sqs:
                    if b.right != c.left:
                        continue
                    assert compose_h(compose_h(a, b), c) == compose_h(a, compose_h(b, c))

    def test_vertical_associativity(self, xm1):
        sqs = enumerate_squares(xm1)
        for a in sqs:
            for b in sqs:
                if a.bottom != b.top:
                    continue
                for c in sqs:
                    if b.bottom != c.top:
                        continue
                    assert compose_v(compose_v(a, b), c) == compose_v(a, compose_v(b, c))

    def test_adjacency_enforced(self, xm4):
        a = square_from_edges(xm4, 0, 0, 1, 0)
        b = square_from_edges(xm4, 2, 0, 0, 0)
        with pytest.raises(NotAdjacent):
            compose_h(a, b)
        c = square_from_edges(xm4, 0, 1, 0, 0)
        d = square_from_edges(xm4, 0, 2, 0, 0)
        if c.bottom != d.top:
            with pytest.raises(NotAdjacent):
                compose_v(c, d)


class TestInterchange:
    def test_exhaustive_2x2_on_small_fixtures(self, xm1, xm3):
        # free parameters of an adjacency-valid 2x2 grid: all four faces,
        # left/top/right of the top-left square, top/right of the top-right,
        # left/right of the bottom-left, right of the bottom-right
        for xm in (xm1, xm3):
            ng, nh = xm.g.order, xm.h.order
            count = 0
            for l0, t0, r0, e0 in itertools.product(range(ng), range(ng), range(ng), range(nh)):
                s0 = square_from_edges(xm, l0, t0, r0, e0)
                for t1, r1, e1 in itertools.product(range(ng), range(ng), range(nh)):
                    s1 = square_from_edges(xm, s0.right, t1, r1, e1)
                    for l2, r2, e2 in itertools.product(range(ng), range(ng), range(nh)):
                        s2 = square_from_edges(xm, l2, s0.bottom, r2, e2)
                        for r3, e3 in itertools.product(range(ng), range(nh)):
                            s3 = square_from_edges(xm, s2.right, s1.bottom, r3, e3)
                            grid = QuintetGrid([[s0, s1], [s2, s3]])
                            assert evaluate_grid(grid, "rows") == evaluate_grid(grid, "columns")
                            count += 1
            assert count == ng ** 8 * nh ** 4

    def test_sampled_grids_on_larger_fixtures(self, xm2, xm4):
        rng = random.Random(20260815)
        for xm in (xm2, xm4):
            for _ in range(300):
                rows = rng.randrange(1, 4)
                cols = rng.randrange(1, 4)
                grid = random_grid(xm, rows, cols, rng)
                assert evaluate_grid(grid, "rows") == evaluate_grid(grid, "columns")

    def test_grid_shape_and_adjacency_errors(self, xm4):
        a = square_from_edges(xm4, 0, 0, 1, 0)
        b = square_from_edges(xm4, 2, 0, 0, 0)
        with pytest.raises(NotAdjacent) as exc:
            QuintetGrid([[a, b]])
        assert "(0,0)|(0,1)" in str(exc.value)
        assert a.bottom != a.top  # so stacking a on itself must fail
        with pytest.raises(NotAdjacent) as exc:
            QuintetGrid([[a], [a]])
        assert "(0,0)/(1,0)" in str(exc.value)
        with pytest.raises(NotAdjacent):
            QuintetGrid([[a, a], [a]])
        with pytest.raises(NotAdjacent):
            QuintetGrid([])

    def test_a_grid_built_without_make_grid_is_still_checked(self, xm1, xm3, xm4):
        # QuintetGrid checks tuple rows when built, with the same classes and messages
        a = square_from_edges(xm4, 0, 0, 1, 0)
        b = square_from_edges(xm4, 2, 0, 0, 0)
        with pytest.raises(NotAdjacent, match=r"^cells \(0,0\)\|\(0,1\): right edge 1 != left edge 2$"):
            QuintetGrid(((a, b),))
        with pytest.raises(NotAdjacent, match=r"^cells \(0,0\)/\(1,0\): bottom edge"):
            QuintetGrid(((a,), (a,)))
        with pytest.raises(MixedStructures, match=r"^cell \(0,1\) uses a different crossed module$"):
            QuintetGrid(((h_identity(xm1, 0), h_identity(xm3, 0)),))
        # a unit square: every paste the ragged rows allow would succeed
        u = h_identity(xm4, 0)
        with pytest.raises(NotAdjacent, match="^row 1 has 1 cells, expected 2$"):
            QuintetGrid(((u, u), (u,)))
        with pytest.raises(NotAdjacent, match="^grid must have at least one row and column$"):
            QuintetGrid(((),))
        grid = QuintetGrid([[u, u], [u, u]])  # rows given as lists are kept as tuples
        assert grid == QuintetGrid([[u, u], [u, u]]) and grid.cells == ((u, u), (u, u))

    # the grid compares each cell's module with the first by identity, then
    # by value: an equal module made apart is the same module
    def test_a_cell_over_an_equal_module_is_accepted(self, xm1, xm4):
        twin = xm_cyc4()
        assert twin is not xm4 and twin == xm4
        u, v = h_identity(xm4, 0), h_identity(twin, 0)
        assert QuintetGrid([[u, v], [v, u]]).cells[0][1].xm is twin
        with pytest.raises(MixedStructures, match=r"^cell \(1,0\) uses a different crossed module$"):
            QuintetGrid([[u], [h_identity(xm1, 0)]])

    def test_unknown_evaluation_order(self, xm1):
        grid = QuintetGrid([[h_identity(xm1, 0)]])
        with pytest.raises(ValueError):
            evaluate_grid(grid, "spiral")

    def test_random_helpers_are_deterministic(self, xm2):
        g1 = random_grid(xm2, 3, 3, random.Random(5))
        g2 = random_grid(xm2, 3, 3, random.Random(5))
        assert g1 == g2
        s1 = random_square(xm2, random.Random(5))
        s2 = random_square(xm2, random.Random(5))
        assert s1 == s2


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_face_formulas_agree_sampled(data, xm2):
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = random_square(xm2, rng)
    b = square_from_edges(
        xm2,
        a.right,
        rng.randrange(xm2.g.order),
        rng.randrange(xm2.g.order),
        rng.randrange(xm2.h.order),
    )
    assert compose_h(a, b).face == compose_h_face_alt(a, b)


class TestMorphismEmbedding:
    def test_round_trip(self, all_xms):
        for _, xm in all_xms:
            for i in range(xm.npairs):
                m = mor_of(xm, i)
                sq = embed_morphism(m)
                assert extract_morphism(sq) == m

    def test_extract_requires_identity_top_and_bottom(self, xm4):
        sq = square_from_edges(xm4, 0, 1, 0, 0)
        with pytest.raises(BoundaryViolation):
            extract_morphism(sq)

    def test_pasting_realises_composition(self, all_xms):
        # embedded morphisms sit side by side exactly when they stack as
        # 2-group morphisms, and compose_h computes that composite
        for _, xm in all_xms:
            for i in range(xm.npairs):
                m1 = mor_of(xm, i)
                for j in range(xm.npairs):
                    m2 = mor_of(xm, j)
                    a, b = embed_morphism(m1), embed_morphism(m2)
                    if a.right == b.left:
                        assert extract_morphism(compose_h(a, b)) == compose(m2, m1)
                    else:
                        assert boundary(m1)[1] != m2.g

    def test_transposed_embedding_realises_both_operations(self, xm1, xm2):
        # squares with identity left/right edges: vertical pasting is
        # 2-group composition and horizontal pasting is the tensor
        for xm in (xm1, xm2):
            e = xm.g.identity

            def embed_flat(m):
                return make_square(
                    xm, e, m.g, e, xm.g.table[xm.bnd(m.eta)][m.g], m.eta
                )

            for i in range(xm.npairs):
                m1 = mor_of(xm, i)
                for j in range(xm.npairs):
                    m2 = mor_of(xm, j)
                    a, b = embed_flat(m1), embed_flat(m2)
                    # tensor via side-by-side pasting
                    t = compose_h(a, b)
                    mt = tensor(m1, m2)
                    assert (t.top, t.face) == (mt.g, mt.eta)
                    # composition via stacking when boundaries match
                    if a.bottom == b.top:
                        v = compose_v(a, b)
                        mc = compose(m2, m1)
                        assert (v.top, v.face) == (mc.g, mc.eta)


# --- the square kernel against the checked layer ------------------------------

def ref_hcomp(a, b):
    """compose_h from its formula, through make_square."""
    xm = a.xm
    g, h = xm.g, xm.h
    w = g.prod(a.left, a.top, g.inverse[a.right])
    top, bottom = g.table[a.top][b.top], g.table[a.bottom][b.bottom]
    return make_square(xm, a.left, top, b.right, bottom, h.table[a.face][xm.act(w, b.face)])


def ref_vcomp(upper, lower):
    xm = upper.xm
    g, h = xm.g, xm.h
    face = h.table[lower.face][xm.act(lower.left, upper.face)]
    left, right = g.table[lower.left][upper.left], g.table[lower.right][upper.right]
    return make_square(xm, left, upper.top, right, lower.bottom, face)


def ref_hinv(sq):
    xm = sq.xm
    g, h = xm.g, xm.h
    w = g.inverse[sq.bottom]
    return make_square(xm, sq.right, g.inverse[sq.top], sq.left, w, xm.act(w, h.inverse[sq.face]))


def ref_vinv(sq):
    xm = sq.xm
    g, h = xm.g, xm.h
    w = g.inverse[sq.left]
    return make_square(xm, w, sq.bottom, g.inverse[sq.right], sq.top, xm.act(w, h.inverse[sq.face]))


def outcome(fn, *args):
    """fn(*args) as a tuple, or the type and message of the error it raised."""
    try:
        out = fn(*args)
    except XmodcatError as exc:
        return type(exc), str(exc)
    return out.as_tuple() if isinstance(out, Quintet) else out


def kernel_matches_the_formulas(xm, h_pairs, v_pairs, squares) -> int:
    """Assert the kernel agrees with the reference on every operand; returns
    how many of them raised."""
    k = SquareKernel(xm)
    cases = (
        [(k.hcomp, ref_hcomp, pair) for pair in h_pairs]
        + [(k.vcomp, ref_vcomp, pair) for pair in v_pairs]
        + [(k.hinv, ref_hinv, (sq,)) for sq in squares]
        + [(k.vinv, ref_vinv, (sq,)) for sq in squares]
    )
    raised = 0
    for op, ref, args in cases:
        want = outcome(ref, *args)
        assert outcome(op, *(sq.as_tuple() for sq in args)) == want
        raised += isinstance(want[0], type)
    return raised


class TestSquareKernel:
    def test_every_adjacent_pair_on_xm1(self, xm1):
        sqs = enumerate_squares(xm1)
        h_pairs = [(a, b) for a in sqs for b in sqs if a.right == b.left]
        v_pairs = [(a, b) for a in sqs for b in sqs if a.bottom == b.top]
        assert len(h_pairs) == len(v_pairs) == 24 * 12
        assert kernel_matches_the_formulas(xm1, h_pairs, v_pairs, sqs) == 0

    def test_a_seeded_sample_on_xm2(self, xm2):
        rng = random.Random(20261018)
        sqs = enumerate_squares(xm2)
        by_left, by_top = {}, {}
        for sq in sqs:
            by_left.setdefault(sq.left, []).append(sq)
            by_top.setdefault(sq.top, []).append(sq)
        h_pairs = [(a, rng.choice(by_left[a.right])) for a in rng.choices(sqs, k=2000)]
        v_pairs = [(a, rng.choice(by_top[a.bottom])) for a in rng.choices(sqs, k=2000)]
        assert kernel_matches_the_formulas(xm2, h_pairs, v_pairs, sqs) == 0

    def test_the_same_boundary_violation_as_make_square(self, broken_xm):
        sqs = enumerate_squares(broken_xm)
        h_pairs = [(a, b) for a in sqs for b in sqs if a.right == b.left]
        v_pairs = [(a, b) for a in sqs for b in sqs if a.bottom == b.top]
        assert kernel_matches_the_formulas(broken_xm, h_pairs, v_pairs, sqs) > 0

    def test_the_public_layer_returns_the_kernel_values(self, xm2):
        k = SquareKernel(xm2)
        a = square_from_edges(xm2, 1, 2, 3, 4)
        b = square_from_edges(xm2, 3, 5, 0, 1)
        c = square_from_edges(xm2, 4, a.bottom, 2, 5)
        assert a.as_tuple() == k.square(1, 2, 3, 4)
        assert compose_h(a, b).as_tuple() == k.hcomp(a.as_tuple(), b.as_tuple())
        assert compose_v(a, c).as_tuple() == k.vcomp(a.as_tuple(), c.as_tuple())
        assert compose_h_face_alt(a, b) == k.hface_alt(a.as_tuple(), b.as_tuple())
        assert invert_square(a, "h").as_tuple() == k.hinv(a.as_tuple())
        assert invert_square(a, "v").as_tuple() == k.vinv(a.as_tuple())


def pastes_and_inverses(k: SquareKernel, squares, h_pairs, v_pairs):
    """Every kernel output on these operands."""
    return (
        [k.hcomp(a, b) for a, b in h_pairs] + [k.vcomp(a, b) for a, b in v_pairs]
        + [k.hinv(sq) for sq in squares] + [k.vinv(sq) for sq in squares]
    )


class TestLawfulGate:
    """Over a lawful module the kernel's pastes and inverses skip `checked`,
    by the derivation in SquareKernel's docstring; their results must pass
    it all the same."""

    def test_every_adjacent_paste_and_every_inverse_passes_the_check(self, all_xms):
        for _, xm in all_xms:
            k = SquareKernel(xm)
            assert xm.lawful and type(k) is SquareKernel
            sqs = [sq.as_tuple() for sq in enumerate_squares(xm)]
            by_left, by_top = {}, {}
            for sq in sqs:
                by_left.setdefault(sq[0], []).append(sq)
                by_top.setdefault(sq[1], []).append(sq)
            h_pairs = [(a, b) for a in sqs for b in by_left[a[2]]]
            v_pairs = [(a, b) for a in sqs for b in by_top[a[3]]]
            assert len(h_pairs) == len(v_pairs) == len(sqs) ** 2 // xm.g.order
            for out in pastes_and_inverses(k, sqs, h_pairs, v_pairs):
                assert k.checked(out) is out

    def test_seeded_pastes_on_the_order_12_module_pass_the_check(self):
        xm = xmod_identity(direct_product(symmetric(3), cyclic(2)))
        k, rng = xm.kernel, random.Random(20261021)
        assert type(k) is SquareKernel
        n_g, n_h = xm.g.order, xm.h.order

        def free():
            return rng.randrange(n_g), rng.randrange(n_g), rng.randrange(n_h)

        sqs = [k.square(rng.randrange(n_g), *free()) for _ in range(10_000)]
        h_pairs = [(a, k.square(a[2], *free())) for a in sqs]
        v_pairs = []
        for a in sqs:  # lower.top = a.bottom
            left, right, face = free()
            v_pairs.append((a, k.square(left, a[3], right, face)))
        for out in pastes_and_inverses(k, sqs, h_pairs, v_pairs):
            assert k.checked(out) is out

    def test_the_gate_is_read_from_lawful(self, xm2, bad_xm, broken_xm):
        # on a lawful module an operand that breaks the boundary law is not
        # caught: the pastes do not check
        k = xm2.kernel
        bad = (0, 0, 0, 0, 1)
        with pytest.raises(BoundaryViolation):
            k.checked(k.hcomp(bad, k.square(0, 0, 0, 0)))
        # bad-peiffer keeps equivariance, broken_xm does not; neither is lawful
        for xm in (bad_xm, broken_xm):
            assert not xm.lawful and type(xm.kernel) is _CheckingKernel


# verify's quintet and catgroup lines on the equivariance-broken module, as
# printed before the laws moved onto the kernel: each suite stops at its first
# BoundaryViolation or NotComposable, so these pin where and with what message;
# sampled instances are checked in enumeration order, so under the sweep
# budget quintet meets the same error as the enumeration
BROKEN_DETAILS = {
    (): (
        "NotComposable: tgt 4 != src 3",
        "BoundaryViolation: bnd(face)=1 but bottom*right*top^-1*left^-1=5",
    ),
    ("--samples", "1000", "--max-exhaustive", "10000"): (
        "NotComposable: tgt 4 != src 3",
        "BoundaryViolation: bnd(face)=1 but bottom*right*top^-1*left^-1=5",
    ),
}


@pytest.mark.parametrize("budget", list(BROKEN_DETAILS), ids=["defaults", "sweep"])
def test_error_lines_on_the_broken_module_are_pinned(capsys, tmp_path, broken_xm, budget):
    path = tmp_path / "broken.json"
    write_json(xmod_to_obj(broken_xm), path)
    argv = ["verify", "--adjoint", str(path), "--suite", "quintet", "--suite", "catgroup"]
    code = main(argv + list(budget))
    out = capsys.readouterr().out.splitlines()
    want = [
        {"checked": 0, "detail": detail, "law": f"{suite}-error", "status": "fail",
         "suite": suite, "violations": 1}
        for suite, detail in zip(("catgroup", "quintet"), BROKEN_DETAILS[budget])
    ]
    assert code == 1
    assert out[1:] == [json.dumps(line, sort_keys=True) for line in want]


# the quintet report on the adjoint action of bad-peiffer, pinned to the
# sha256 of the [law, witness, detail] list the Quintet-object laws produced;
# grid-interchange (1296 grids) is enumerated in the first and sampled in the
# other two, which were pinned again when a sampled law came to check
# distinct instances in enumeration order
QUINTET_PINS = [
    (
        {"samples": 1000, "max_exhaustive": 10_000},
        1296,
        "2e953d3b5cb14f36063064e4ff2423481b03d92021f75a9ba5316174e4279ff9",
        {"face-formulas-agree": 18, "grid-interchange": 648, "embed-compose": 18},
    ),
    (
        {"samples": 1000, "max_exhaustive": 0},
        1000,
        "242553a5b52b615468af9c762b6669672e0c373177a4c467879225908f61cfa5",
        {"face-formulas-agree": 18, "grid-interchange": 494, "embed-compose": 18},
    ),
    (
        {"samples": 50, "max_exhaustive": 0},
        50,
        "b8951083b98b69ed219551336aed4e2fe921ed37511d6ce98af16799e19493e2",
        {"face-formulas-agree": 18, "grid-interchange": 25, "embed-compose": 18},
    ),
]


@pytest.mark.parametrize("budget, grids, digest, counts", QUINTET_PINS)
def test_bad_peiffer_quintet_witnesses_are_pinned(
    bad_xm, sampled_witnesses_are_real, budget, grids, digest, counts
):
    d = build_transformation_double(adjoint_action(bad_xm), validate=False)
    rep = run_laws(Report(), "quintet", quintet_laws(d), seed=0, **budget)
    sampled_witnesses_are_real(rep, "quintet", quintet_laws(d))
    found = [[v.law, list(v.witness), v.detail] for v in rep.violations]
    assert hashlib.sha256(json.dumps(found).encode()).hexdigest() == digest
    assert {law: rep.count(law) for law in rep.instances if rep.count(law)} == counts
    assert rep.instances["grid-interchange"] == grids


def test_bad_peiffer_cli_lines_are_pinned(capsys):
    argv = ["verify", "--adjoint", "bad-peiffer", "--suite", "quintet", "--suite", "catgroup",
            "--samples", "1000", "--max-exhaustive", "10000"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "eecdb5be2d5603c2e8e87aa035e95135390797a7c4df0d1b86301d30cebd4c35"
    )
