from pathlib import Path

import pytest

from xmodcat import (
    adjoint_action,
    cyclic,
    direct_product,
    make_crossed_module,
    make_homomorphism,
    symmetric,
    trivial_action,
    xm_cyc4,
    xm_flip,
    xm_inversion,
    xm_peiffer_broken,
    xm_sym3,
    xmod_identity,
)
from xmodcat.report import Report, run_laws
from xmodcat.transform import (
    TDSquare,
    build_transformation_double,
    compose_squares,
    verify_double_category,
)
from reference import small_crossed_modules, v_identity_square, vertical_inverse_square

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
# the largest law whose exhaustive report sampled_witnesses_are_real computes:
# xm2's double interchange (10 077 696 instances) would take half a minute
RERUN_LIMIT = 2_000_000


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def xm1():
    return xm_inversion()


@pytest.fixture(scope="session")
def xm2():
    return xm_sym3()


@pytest.fixture(scope="session")
def xm3():
    return xm_flip()


@pytest.fixture(scope="session")
def xm4():
    return xm_cyc4()


@pytest.fixture(scope="session")
def bad_xm():
    return xm_peiffer_broken()


@pytest.fixture(scope="session")
def broken_xm():
    """Not a crossed module: S3 over Z2 with the trivial action and the
    boundary onto the transposition (23), so equivariance fails and pastings
    and 2-group composites break the boundary law."""
    s3, z2 = symmetric(3), cyclic(2)
    assert s3.names[1] == "(23)"
    return make_crossed_module(s3, z2, make_homomorphism(z2, s3, [0, 1]), trivial_action(s3, z2))


@pytest.fixture(scope="session")
def all_xms(xm1, xm2, xm3, xm4):
    return [("xm1", xm1), ("xm2", xm2), ("xm3", xm3), ("xm4", xm4)]


@pytest.fixture(scope="session")
def table_xms(all_xms, bad_xm, broken_xm):
    """xm1-xm4, bad-peiffer, broken_xm, the 57 benchmark sweep modules, and
    the identity modules of order 12 and 24: the modules on which a table
    the package builds is checked against its reference."""
    return [xm for _, xm in all_xms] + [bad_xm, broken_xm] + [xm for _, xm in small_crossed_modules()] + [
        xmod_identity(direct_product(symmetric(3), cyclic(2))),
        xmod_identity(symmetric(4)),
    ]


@pytest.fixture(scope="session")
def s3():
    return symmetric(3)


@pytest.fixture(scope="session")
def adjoints(all_xms):
    return [(name, adjoint_action(xm)) for name, xm in all_xms]


@pytest.fixture(scope="session")
def double_reports(adjoints):
    """verify_double_category on every adjoint fixture, computed once."""
    return {
        name: verify_double_category(
            build_transformation_double(act, validate=False), samples=20_000, seed=4
        )
        for name, act in adjoints
    }


@pytest.fixture(scope="session")
def sampled_witnesses_are_real():
    """A check that every (law, witness, detail) a sampled law of `rep`
    reported appears, in the same relative order, in the exhaustive report of
    that law with the cap at its size. A law that reported no witness, or
    has more than RERUN_LIMIT instances, is not rerun; one missing from
    rep.instances ran on none."""

    def check(rep: Report, suite: str, laws) -> None:
        for law in laws:
            sampled = [v for v in rep.violations if v.law == law.name]
            if rep.instances.get(law.name, 0) == law.size or not sampled or law.size > RERUN_LIMIT:
                continue
            full = iter(run_laws(Report(cap=law.size), suite, [law]).violations)
            assert all(v in full for v in sampled), law.name  # a subsequence

    return check


@pytest.fixture(scope="session")
def transpose_mismatches():
    """A check of the transpose of a double category d: square i is morphism
    i of d.mor_groupoid and vertical morphism j is morphism j of
    d.obj_groupoid, so vertical pasting (pair_mul), vertical inverses
    (pair_inv) and vertical units must be composition, inverse and identity
    there, and the square edges their sources and targets. Returns every
    (what, square or cell index) that does not land."""

    def check(d) -> list[tuple[str, int]]:
        act, xm, c = d.act, d.xm, d.category
        og, mg = d.obj_groupoid, d.mor_groupoid

        def sq(s):
            return d.square_index(s.gamma, s.chi, s.f)

        def vert(edge):
            return d.vertical_index(*edge)

        out = []
        for i, s in enumerate(d.squares()):
            left, right = vert(s.left()), vert(s.right())
            if (mg.src[i], mg.tgt[i]) != (s.top(), s.bottom()):
                out.append(("square endpoints", i))
            edges = og.src[left], og.tgt[left], og.src[right], og.tgt[right]
            if edges != (c.src[s.top()], c.src[s.bottom()], c.tgt[s.top()], c.tgt[s.bottom()]):
                out.append(("vertical edges", i))
            inv = vertical_inverse_square(s)
            if mg.inverse[i] != sq(inv) or og.inverse[left] != vert(inv.left()):
                out.append(("inverse", i))
            for p in range(xm.npairs):
                below = TDSquare(act, *xm.pair_of(p), s.bottom())
                pasted = compose_squares(below, s, "v")
                if (
                    mg.comp.get((sq(below), i)) != sq(pasted)
                    or og.comp.get((vert(below.left()), left)) != vert(pasted.left())
                    or og.comp.get((vert(below.right()), right)) != vert(pasted.right())
                ):
                    out.append(("vertical pasting", i))
        for f in c.morphisms():
            if mg.identity[f] != sq(v_identity_square(act, f)):
                out.append(("square identity", f))
        for x in c.objects():
            if og.identity[x] != vert((xm.g.identity, x)):
                out.append(("vertical identity", x))
        return out

    return check
