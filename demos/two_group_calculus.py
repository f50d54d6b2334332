"""Tour of the 2-group calculus on a small crossed module.

Builds Z2 acting on Z3 by inversion (trivial boundary), inspects the two
compositions on morphisms, and pastes squares in a grid both ways.

Run:  python3 demos/two_group_calculus.py
"""

from xmodcat.catgroup import boundary, compose, invert, mor_of, tensor
from xmodcat.groups import cyclic, make_action, make_homomorphism
from xmodcat.quintet import (
    QuintetGrid,
    compose_h,
    embed_morphism,
    enumerate_squares,
    evaluate_grid,
    make_square,
)
from xmodcat.xmod import make_crossed_module, validate_crossed_module


def main():
    z2, z3 = cyclic(2), cyclic(3)
    bnd = make_homomorphism(z3, z2, [0, 0, 0])
    act = make_action(z2, z3, [[0, 1, 2], [0, 2, 1]])  # flip inverts
    xm = make_crossed_module(z2, z3, bnd, act)
    rep = validate_crossed_module(xm)
    print(f"crossed module valid: {rep.ok} ({rep.checked} instances checked)")

    # morphisms are pairs (source g, label eta); two ways to combine them
    a = mor_of(xm, xm.pair_index(1, 1))
    b = mor_of(xm, xm.pair_index(1, 2))
    print(f"a = (g={a.g}, eta={a.eta})   boundary {boundary(a)}")
    print(f"b = (g={b.g}, eta={b.eta})   boundary {boundary(b)}")
    t = tensor(a, b)
    print(f"a (x) b = (g={t.g}, eta={t.eta})   [group-style product]")
    c = compose(mor_of(xm, xm.pair_index(a.g, 2)), a)
    print(f"stacking along a shared endpoint: eta = {c.eta}")
    ti = invert(a, "tensor")
    print(f"tensor inverse of a: (g={ti.g}, eta={ti.eta})")

    # squares: five labels with the boundary law pinning the bottom edge
    sq = make_square(xm, left=1, top=0, right=1, bottom=0, face=1)
    print(f"\nsquare {sq} satisfies the boundary law by construction")
    print(f"total squares over this module: {len(enumerate_squares(xm))}")

    # a 2x2 grid evaluates to the same square rows-first or columns-first
    s = make_square(xm, 1, 0, 1, 0, 1)
    row = compose_h(s, make_square(xm, 1, 0, 1, 0, 2))
    grid = QuintetGrid([[s, make_square(xm, 1, 0, 1, 0, 2)],
                        [s, make_square(xm, 1, 0, 1, 0, 2)]])
    by_rows = evaluate_grid(grid, "rows")
    by_cols = evaluate_grid(grid, "columns")
    print(f"one row pastes to      {row}")
    print(f"2x2 grid by rows:      {by_rows}")
    print(f"2x2 grid by columns:   {by_cols}")
    print(f"orders agree: {by_rows == by_cols}")

    # 2-group morphisms embed as squares with identity horizontal edges
    esq = embed_morphism(a)
    print(f"\nmorphism a embeds as the square {esq}")


if __name__ == "__main__":
    main()
