"""The law driver: declared sizes, enumerate-or-sample, per-law counts."""

import random
from itertools import product

from xmodcat.report import Report, product_law, run_laws
from xmodcat.suites import (
    adjoint_laws,
    catgroup_laws,
    h2_laws,
    nested_suite_laws,
    quintet_laws,
    v2_laws,
)
from xmodcat.transform import build_transformation_double, double_laws, transpose_laws

ENUMERABLE = 300_000  # largest space walked to count its instances
DRAWN = 5_000  # largest space searched for each random draw


def declared_laws(act):
    """(builder, law) for every law the suites hand to run_laws."""
    d = build_transformation_double(act, validate=False)
    builders = {
        "catgroup": catgroup_laws,
        "quintet": quintet_laws,
        "adjoint-oracle": adjoint_laws,
        "double": double_laws,
        "transpose": transpose_laws,
        "nested": nested_suite_laws,
        "h2cat": h2_laws,
        "v2cat": v2_laws,
    }
    return [(name, law) for name, laws_of in builders.items() for law in laws_of(d)]


def test_every_law_enumerates_exactly_its_declared_size(adjoints):
    counted = set()
    for fixture, act in adjoints:
        for builder, law in declared_laws(act):
            if law.size <= ENUMERABLE:
                n = sum(1 for _ in law.instances())
                assert n == law.size, (fixture, builder, law.name, n)
                counted.add((builder, law.name))
    # every law was counted on at least one of xm1-xm4
    assert counted == {(b, law.name) for b, law in declared_laws(adjoints[0][1])}


def test_every_draw_is_an_instance(adjoints):
    rng = random.Random(5)
    for fixture, act in adjoints:
        for builder, law in declared_laws(act):
            if law.size <= DRAWN:
                space = list(law.instances())
                for _ in range(20):
                    assert law.draw(rng) in space, (fixture, builder, law.name)


def test_enumerates_within_the_budget_and_samples_past_it():
    seen = []
    law = product_law("law", lambda insts, fail: seen.extend(insts), range(3), "ab")
    rep = run_laws(Report(), "suite", [law], samples=5, seed=1, max_exhaustive=6)
    assert seen == list(product(range(3), "ab"))  # the loop order of the coordinates
    assert rep.instances == {"law": 6}

    seen.clear()
    rep = run_laws(Report(), "suite", [law], samples=5, seed=1, max_exhaustive=5)
    assert len(seen) == 5 and rep.instances == {"law": 5}
    rng = random.Random("1/suite/law")
    assert seen == [(rng.choice(range(3)), rng.choice("ab")) for _ in range(5)]


def test_a_law_no_larger_than_the_sample_count_is_enumerated():
    seen = []
    law = product_law("law", lambda insts, fail: seen.extend(insts), range(3), "ab")
    rep = run_laws(Report(), "suite", [law], samples=6, seed=1, max_exhaustive=0)
    assert seen == list(product(range(3), "ab"))
    assert rep.instances == {"law": 6}

    one = product_law("one", lambda insts, fail: seen.extend(insts))
    seen.clear()
    rep = run_laws(Report(), "suite", [one], samples=7, seed=1, max_exhaustive=0)
    assert seen == [()] and rep.instances == {"one": 1}


def test_violations_are_counted_past_the_cap():
    def every(insts, fail):
        for (i,) in insts:
            fail((i,), "always")

    rep = run_laws(Report(cap=3), "suite", [product_law("law", every, range(10))])
    assert rep.count("law") == 10
    assert [v.witness for v in rep.violations] == [(0,), (1,), (2,)]
    assert rep.capped and rep.checked == 10
