"""The transformation double category of a group acting on itself.

Takes the symmetric group S3 as an identity crossed module, lets it act on
its own underlying category by conjugation, builds the transformation
double category, checks every law, and reads off the conjugacy classes
from the transpose groupoid view; then pastes the five-square row that
realises one morphism of the action.

Run:  python3 demos/conjugation_double_category.py
"""

from xmodcat.action import adjoint_action, validate_strict_action
from xmodcat.suites import five_square_strip
from xmodcat.transform import (
    build_transformation_double,
    connected_components,
    nested_inclusions,
    verify_double_category,
)
from xmodcat.xmod import xm_sym3


def main():
    xm = xm_sym3()
    act = adjoint_action(xm)
    rep = validate_strict_action(act)
    print(f"conjugation action valid: {rep.ok} ({rep.checked} instances)")

    d = build_transformation_double(act, validate=False)
    print(f"double category: {d.n_objects} objects, {d.n_horizontal} horizontal "
          f"morphisms, {d.n_vertical} vertical morphisms, {d.n_squares} squares")

    rep = verify_double_category(d, samples=5000, seed=1)
    print(f"double category laws: {'all pass' if rep.ok else rep.violations[:3]}"
          f" ({rep.checked} instances)")

    # swapping the two directions gives two ordinary groupoids; the one on
    # the objects is G acting on C0
    comps = connected_components(d.obj_groupoid)
    names = xm.g.names
    classes = sorted(sorted(names[x] for x in c) for c in comps)
    print(f"object-view components (= conjugacy classes of S3): {classes}")

    # (gamma, chi) acts on a morphism f as the five-square row that pastes
    # chi, gamma, f, gamma^-1 and chi^-1 side by side
    gamma, chi, f = 1, 3, xm.pair_index(2, 1)
    hn = xm.h.names
    row = five_square_strip(act, gamma, chi, f)
    (g0, e0), (g1, e1) = xm.pair_of(f), xm.pair_of(act.on_mor_pair(gamma, chi, f))
    print(f"five-square row of ({names[gamma]}, {hn[chi]}) on ({names[g0]}, {hn[e0]}): "
          f"top and face ({names[row.top]}, {hn[row.face]}), image ({names[g1]}, {hn[e1]})")

    incl = nested_inclusions(d)
    print(f"nested sub-double-categories: second inclusion full={incl.second_full}")


if __name__ == "__main__":
    main()
