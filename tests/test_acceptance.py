"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every criterion re-derives its expected values independently of the code
under test (brute-force filters, explicit loops, permutation arithmetic)
and runs inside a stated wall-clock budget.
"""

import itertools
import random
import time
from pathlib import Path

from xmodcat.action import (
    WeakActionData,
    adjoint_action,
    check_compositor_coherence,
    identity_compositor,
    trivial_strict_action,
)
from xmodcat.catgroup import mor_of
from xmodcat.fincat import category_from_tables, terminal_category
from xmodcat.gridlang import (
    DslSyntaxError,
    GridAdjacencyViolation,
    GridBoundaryViolation,
    UnknownNameError,
    load_grid,
    parse_document,
    serialize_grid,
)
from xmodcat.groups import (
    make_action,
    make_homomorphism,
    small_group_catalog,
    symmetric,
)
from xmodcat.quintet import (
    QuintetGrid,
    compose_h,
    compose_v,
    enumerate_squares,
    evaluate_grid,
    invert,
    random_grid,
    square_from_edges,
)
from xmodcat.suites import five_square_strip
from xmodcat.transform import (
    TDSquare,
    build_transformation_double,
    connected_components,
    horizontal_2category,
    nested_inclusions,
    nested_laws,
    verify_double_category,
    vertical_2category,
)
from xmodcat.xmod import (
    enumerate_actions,
    enumerate_crossed_modules,
    enumerate_homomorphisms,
    fixture_catalog,
    make_crossed_module,
    validate_crossed_module,
    xm_peiffer_broken,
)
from xmodcat.action import validate_strict_action
from xmodcat.report import Report, run_laws
from reference import compose_h_face_alt, h_identity, v_identity, validate_groupoid

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def report(n, ok, what, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {status}: {what} ({time.monotonic() - t0:.1f}s)")
    assert ok, f"criterion {n}: {what}"


def test_criterion_1_crossed_module_axioms_and_enumeration():
    """Fixtures validate, the broken one is rejected with a witness, and the
    enumerator agrees with an independent validator sweep over all pairs of
    groups of order at most 6. Budget: 60s."""
    t0 = time.monotonic()
    ok = True

    for _, xm in fixture_catalog():
        ok = ok and validate_crossed_module(xm).ok

    rep = validate_crossed_module(xm_peiffer_broken())
    ok = ok and not rep.ok and rep.count("equivariance") == 0
    first = next(v for v in rep.violations if v.law == "peiffer")
    bad = xm_peiffer_broken()
    e1, e2 = first.witness
    ok = ok and bad.act(bad.bnd(e1), e2) != bad.h.conj(e1, e2)

    groups = small_group_catalog()
    total = 0
    for _, g in groups:
        for _, h in groups:
            fast = enumerate_crossed_modules(g, h)
            slow = 0
            for act in enumerate_actions(g, h):
                for bnd in enumerate_homomorphisms(h, g):
                    cand = make_crossed_module(
                        g,
                        h,
                        make_homomorphism(h, g, list(bnd)),
                        make_action(g, h, [list(r) for r in act]),
                    )
                    if validate_crossed_module(cand).ok:
                        slow += 1
            ok = ok and len(fast) == slow
            total += slow
    ok = ok and total == 205 and time.monotonic() - t0 < 60

    report(1, ok, "crossed-module axioms + enumeration vs validator sweep", t0)


def test_criterion_2_square_calculus_exhaustive_and_sampled():
    """Both face formulas, inverse/identity laws, exhaustive 2x2 interchange
    on the small fixtures and 100000 seeded sampled grids on the symmetric
    one. Budget: 120s."""
    t0 = time.monotonic()
    ok = True
    cat = dict(fixture_catalog())
    xm1, xm2, xm3 = cat["xm1"], cat["xm2"], cat["xm3"]

    for xm in (xm1, xm3):
        squares = enumerate_squares(xm)
        for a in squares:
            hi = invert(a, "h")
            vi = invert(a, "v")
            ok = ok and compose_h(a, hi) == h_identity(xm, a.left)
            ok = ok and compose_v(a, vi) == v_identity(xm, a.top)
            for b in squares:
                if a.right == b.left:
                    ok = ok and compose_h(a, b).face == compose_h_face_alt(a, b)

    for xm, expect in ((xm1, 20736), (xm3, 16)):
        ng, nh = xm.g.order, xm.h.order
        count = 0
        for l0, t0_, r0, e0 in itertools.product(
            range(ng), range(ng), range(ng), range(nh)
        ):
            s0 = square_from_edges(xm, l0, t0_, r0, e0)
            for t1, r1, e1 in itertools.product(range(ng), range(ng), range(nh)):
                s1 = square_from_edges(xm, s0.right, t1, r1, e1)
                for l2, r2, e2 in itertools.product(range(ng), range(ng), range(nh)):
                    s2 = square_from_edges(xm, l2, s0.bottom, r2, e2)
                    for r3, e3 in itertools.product(range(ng), range(nh)):
                        s3 = square_from_edges(xm, s2.right, s1.bottom, r3, e3)
                        grid = QuintetGrid([[s0, s1], [s2, s3]])
                        if evaluate_grid(grid, "rows") != evaluate_grid(grid, "columns"):
                            ok = False
                        count += 1
        ok = ok and count == expect

    rng = random.Random(2026)
    for _ in range(100_000):
        grid = random_grid(xm2, 2, 2, rng)
        if evaluate_grid(grid, "rows") != evaluate_grid(grid, "columns"):
            ok = False
            break

    ok = ok and time.monotonic() - t0 < 120
    report(2, ok, "square pasting laws, 2x2 interchange exhaustive + sampled", t0)


def test_criterion_3_adjoint_action_and_strip_oracle():
    """Both presentations of the action laws pass on every fixture's adjoint
    action; the five-square pasting oracle reproduces the action on all
    inputs for the inversion fixture and 10000 seeded samples on the
    symmetric one. Budget: 120s."""
    t0 = time.monotonic()
    ok = True

    acts = {}
    for name, xm in fixture_catalog():
        acts[name] = adjoint_action(xm)
        rep = validate_strict_action(acts[name])
        ok = ok and rep.ok and rep.checked > 0

    act1 = acts["xm1"]
    xm1 = act1.xm
    for gamma in xm1.g.elements():
        for chi in xm1.h.elements():
            for f in range(act1.category.n_morphisms):
                out = five_square_strip(act1, gamma, chi, f)
                want = mor_of(xm1, act1.on_mor_pair(gamma, chi, f))
                if (out.left, out.right, out.top, out.face) != (0, 0, want.g, want.eta):
                    ok = False

    act2 = acts["xm2"]
    xm2 = act2.xm
    rng = random.Random(77)
    e = xm2.g.identity
    for _ in range(10_000):
        gamma = rng.randrange(xm2.g.order)
        chi = rng.randrange(xm2.h.order)
        f = rng.randrange(act2.category.n_morphisms)
        out = five_square_strip(act2, gamma, chi, f)
        want = mor_of(xm2, act2.on_mor_pair(gamma, chi, f))
        if (out.left, out.right, out.top, out.face) != (e, e, want.g, want.eta):
            ok = False
            break

    ok = ok and time.monotonic() - t0 < 120
    report(3, ok, "adjoint action laws + five-square strip oracle", t0)


def test_criterion_4_double_category_laws(double_reports):
    """verify_double_category returns no violations for every adjoint
    fixture and a trivial action; the semidirect target identity holds by
    explicit quadruple loop; the six-composites law is checked exhaustively
    on the small fixtures. Budget: 180s."""
    t0 = time.monotonic()
    ok = True
    cat = dict(fixture_catalog())

    ok = ok and sorted(double_reports) == sorted(cat)
    for name, xm in cat.items():
        ok = ok and double_reports[name].ok
        # the six-composites space (pairs x pairs x morphisms of the
        # underlying category) must actually have been exhaustive on the
        # small fixtures rather than sampled
        if name in ("xm1", "xm3"):
            space = xm.npairs * xm.npairs * xm.npairs
            ok = ok and double_reports[name].instances["six-composites"] == space

    d = build_transformation_double(trivial_strict_action(cat["xm1"], terminal_category()))
    ok = ok and verify_double_category(d).ok

    for xm in (cat["xm1"], cat["xm2"]):
        g, h = xm.g, xm.h
        for gamma, chi, gamma2, chi2 in itertools.product(
            g.elements(), h.elements(), g.elements(), h.elements()
        ):
            lhs = g.prod(xm.bnd(h.table[chi2][xm.act(gamma2, chi)]), gamma2, gamma)
            rhs = g.prod(xm.bnd(chi2), gamma2, xm.bnd(chi), gamma)
            if lhs != rhs:
                ok = False

    ok = ok and time.monotonic() - t0 < 180
    report(4, ok, "transformation double category laws + target identity", t0)


def test_criterion_5_transpose_views(transpose_mismatches):
    """On every fixture, vertical pasting, inverses and units land on the
    two transformation groupoids, both are lawful groupoids, and the object
    view of the symmetric fixture has exactly the three conjugacy classes as
    components."""
    t0 = time.monotonic()
    ok = True
    cat = dict(fixture_catalog())

    for xm in cat.values():
        d = build_transformation_double(adjoint_action(xm), validate=False)
        ok = ok and not transpose_mismatches(d)
        ok = ok and validate_groupoid(d.obj_groupoid).ok
        ok = ok and validate_groupoid(d.mor_groupoid).ok
        incl = nested_inclusions(d)
        ok = ok and run_laws(Report(), "nested", nested_laws(incl)).ok
        ok = ok and incl.second_full == (xm.h.order == 1)

    d2 = build_transformation_double(adjoint_action(cat["xm2"]), validate=False)
    comps = connected_components(d2.obj_groupoid)
    ok = ok and sorted(len(c) for c in comps) == [1, 2, 3]

    report(5, ok, "transpose groupoid views + nested inclusions", t0)


def test_criterion_6_degenerate_2categories():
    """The two degenerate-square 2-categories equal brute-force filters of
    the square set; the symmetric fixture has only identity horizontal
    2-cells and the inversion fixture has vertical cell sizes 3 and 1."""
    t0 = time.monotonic()
    ok = True
    cat = dict(fixture_catalog())

    for xm in cat.values():
        act = adjoint_action(xm)
        d = build_transformation_double(act, validate=False)
        c = act.category
        e_g = xm.g.identity

        h2 = horizontal_2category(d)
        brute_h = {f: [] for f in c.morphisms()}
        for s in d.squares():
            if s.left()[0] == e_g and s.right()[0] == e_g:
                brute_h[s.f].append((s.chi, s.bottom()))
        ok = ok and h2.cells == {f: tuple(v) for f, v in brute_h.items()}

        v2 = vertical_2category(d)
        brute_v = {}
        for gamma in xm.g.elements():
            for x in c.objects():
                out = []
                for chi in xm.h.elements():
                    s = TDSquare(act, gamma, chi, c.identity[x])
                    if s.bottom() == c.identity[act.act_obj[gamma][x]]:
                        out.append((chi, s.right()[0]))
                brute_v[(gamma, x)] = tuple(out)
        ok = ok and v2.cells == brute_v

    d2 = build_transformation_double(adjoint_action(cat["xm2"]), validate=False)
    h2 = horizontal_2category(d2)
    ok = ok and h2.kernel == (0,)
    ok = ok and all(cells == ((0, f),) for f, cells in h2.cells.items())

    d1 = build_transformation_double(adjoint_action(cat["xm1"]), validate=False)
    v2 = vertical_2category(d1)
    ok = ok and all(len(v2.cells[(gamma, 0)]) == 3 for gamma in (0, 1))
    ok = ok and all(len(v2.cells[(gamma, 1)]) == 1 for gamma in (0, 1))

    report(6, ok, "degenerate 2-categories equal brute-force filters", t0)


def test_criterion_7_compositor_coherence():
    """The identity compositor is coherent on every strict fixture action;
    at least five distinct mutations are rejected, each with a located
    witness that independently recomputes as a violation."""
    t0 = time.monotonic()
    ok = True
    cat = dict(fixture_catalog())
    acts = {name: adjoint_action(xm) for name, xm in cat.items()}

    for name, act in acts.items():
        ok = ok and check_compositor_coherence(identity_compositor(act)).ok
    for xm in cat.values():
        act = trivial_strict_action(xm, terminal_category())
        ok = ok and check_compositor_coherence(identity_compositor(act)).ok

    def mutated(act, g1, g2, x, value):
        w = identity_compositor(act)
        comp = [[list(r) for r in plane] for plane in w.compositor]
        comp[g1][g2][x] = value
        return WeakActionData(act, comp)

    def pentagon_witness_recomputes(w, v):
        act = w.base
        c, g = act.category, act.xm.g
        f1, g1, h1, x = v.witness
        lhs = c.comp.get(
            (w.compositor[g.table[f1][g1]][h1][x], w.compositor[f1][g1][act.act_obj[h1][x]])
        )
        rhs = c.comp.get(
            (w.compositor[f1][g.table[g1][h1]][x], act.on_mor(f1, w.compositor[g1][h1][x]))
        )
        return lhs is None or lhs != rhs

    failures = 0

    # 1. inversion fixture, whole (1,1) plane twisted: pentagon only
    act = acts["xm1"]
    w = identity_compositor(act)
    comp = [[list(r) for r in plane] for plane in w.compositor]
    for x in act.category.objects():
        comp[1][1][x] = cat["xm1"].pair_index(x, 1)
    rep = check_compositor_coherence(WeakActionData(act, comp))
    w = WeakActionData(act, comp)
    if not rep.ok and {v.law for v in rep.violations} == {"pentagon"}:
        if all(pentagon_witness_recomputes(w, v) for v in rep.violations):
            failures += 1

    # 2. inversion fixture, single twisted entry: pentagon
    w = mutated(act, 1, 1, 0, cat["xm1"].pair_index(0, 1))
    rep = check_compositor_coherence(w)
    if rep.count("pentagon") > 0 and all(
        pentagon_witness_recomputes(w, v) for v in rep.violations if v.law == "pentagon"
    ):
        failures += 1

    # 3. flip fixture, unit plane corrupted: unit triangle
    act3 = acts["xm3"]
    w = mutated(act3, 0, 0, 0, 1)
    rep = check_compositor_coherence(w)
    if rep.count("unit-triangle") == 2 and not act3.category.is_identity(
        w.compositor[0][0][0]
    ):
        failures += 1

    # 4. symmetric fixture, wrong-object entry: typing
    act2 = acts["xm2"]
    w = mutated(act2, 1, 1, 0, cat["xm2"].pair_index(1, 0))
    rep = check_compositor_coherence(w)
    hits = [v for v in rep.violations if v.law == "compositor-typing"]
    if len(hits) == 1 and hits[0].witness == (1, 1, 0):
        m = w.compositor[1][1][0]
        c2 = act2.category
        want_src = act2.act_obj[1][act2.act_obj[1][0]]
        if c2.src[m] != want_src or c2.tgt[m] != act2.act_obj[act2.xm.g.mul(1, 1)][0]:
            failures += 1

    # 5. cyclic fixture, wrong-object entry: typing
    act4 = acts["xm4"]
    w = mutated(act4, 1, 1, 0, cat["xm4"].pair_index(0, 1))
    rep = check_compositor_coherence(w)
    if rep.count("compositor-typing") == 1:
        failures += 1

    # 6. trivial action on a one-object S3 groupoid: naturality
    s3 = symmetric(3)
    gpd = category_from_tables(
        1,
        [(0, 0)] * 6,
        [s3.identity],
        [(a, b, s3.table[a][b]) for a in s3.elements() for b in s3.elements()],
    )
    act_triv = trivial_strict_action(cat["xm1"], gpd)
    w = mutated(act_triv, 1, 1, 0, s3.names.index("(12)"))
    rep = check_compositor_coherence(w)
    nat = [v for v in rep.violations if v.law == "compositor-naturality"]
    if nat:
        f = nat[0].witness[2]
        i12 = s3.names.index("(12)")
        if s3.mul(i12, f) != s3.mul(f, i12):
            failures += 1

    ok = ok and failures >= 5
    report(7, ok, f"compositor coherence: identity passes, {failures} mutations fail", t0)


def test_criterion_8_grid_language():
    """The text format round-trips every shipped grid unchanged, every
    malformed file raises its documented error class at the documented
    position, and grid evaluation agrees bit for bit with direct pasting."""
    t0 = time.monotonic()
    ok = True
    grids_dir = FIXTURES / "grids"

    for name, ref in (
        ("identity_1x1.xmg", "../xm1.json"),
        ("xm1_2x2.xmg", "../xm1.json"),
        ("xm2_3x2.xmg", "../xm2.json"),
    ):
        grid = load_grid(grids_dir / name)
        text = serialize_grid(grid, ref)
        ok = ok and parse_document(text, base_dir=grids_dir).grid == grid
        ok = ok and serialize_grid(parse_document(text, base_dir=grids_dir).grid, ref) == text

        # evaluation must equal a hand fold: rows left-to-right, then down
        strips = []
        for row in grid.cells:
            acc = row[0]
            for sq in row[1:]:
                acc = compose_h(acc, sq)
            strips.append(acc)
        folded = strips[0]
        for nxt in strips[1:]:
            folded = compose_v(folded, nxt)
        ok = ok and evaluate_grid(grid, "rows") == folded
        ok = ok and evaluate_grid(grid, "columns") == folded

    documented = [
        ("syntax.xmg", DslSyntaxError, 2, 6),
        ("unknown_name.xmg", UnknownNameError, 2, 9),
        ("out_of_range.xmg", UnknownNameError, 2, 9),
        ("boundary.xmg", GridBoundaryViolation, 2, 22),
        ("adjacency.xmg", GridAdjacencyViolation, 5, 3),
        ("ragged.xmg", DslSyntaxError, 5, 1),
        ("sq_before_use.xmg", DslSyntaxError, 1, 1),
        ("no_grid.xmg", DslSyntaxError, 3, 1),
    ]
    bad_dir = grids_dir / "bad"
    ok = ok and sorted(p.name for p in bad_dir.glob("*.xmg")) == sorted(
        n for n, *_ in documented
    )
    for name, exc_type, line, col in documented:
        try:
            load_grid(bad_dir / name)
        except exc_type as exc:
            if (exc.line, exc.col) != (line, col):
                ok = False
        except Exception:
            ok = False
        else:
            ok = False

    report(8, ok, "grid language round-trip, diagnostics, evaluation", t0)
