"""The law driver: declared sizes, index-addressed instances,
enumerate-or-sample, per-law counts."""

import json
import random
from dataclasses import replace
from itertools import product

import pytest

from xmodcat.action import adjoint_action
from xmodcat.cli import main
from xmodcat.groups import automorphism_action_laws, homomorphism_laws
from xmodcat.report import Law, Report, product_law, ragged, run_laws, spread
from xmodcat.suites import (
    action_laws,
    adjoint_laws,
    catgroup_laws,
    h2_laws,
    nested_suite_laws,
    pentagon_laws,
    quintet_laws,
    v2_laws,
)
from xmodcat.transform import (
    build_transformation_double,
    double_laws,
    horizontal_2category,
    vertical_2category,
)
from xmodcat.xmod import crossed_module_laws, fixture_catalog

ENUMERABLE = 300_000  # largest space walked to count its instances


def declared_laws(act):
    """(builder, law) for every law the suites hand to run_laws."""
    d = build_transformation_double(act, validate=False)
    xm = d.xm
    builders = {
        "xmod": lambda d: (
            homomorphism_laws(xm.boundary)
            + automorphism_action_laws(xm.action)
            + crossed_module_laws(xm)
        ),
        "catgroup": catgroup_laws,
        "quintet": quintet_laws,
        "adjoint-oracle": adjoint_laws,
        "double": double_laws,
        "nested": nested_suite_laws,
        "h2cat": h2_laws,
        "v2cat": v2_laws,
        "action": action_laws,
        "pentagon": pentagon_laws,
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


def test_at_addresses_the_instances_in_enumeration_order(adjoints):
    for fixture, act in adjoints:
        for builder, law in declared_laws(act):
            if law.size <= ENUMERABLE:
                assert list(map(law.at, range(law.size))) == list(law.instances()), (
                    fixture, builder, law.name
                )


def test_stacked_cells_follow_their_nested_loops(adjoints):
    """The stacking laws of both 2-categories, against the nested loops over
    their cells."""
    for fixture, act in adjoints:
        d = build_transformation_double(act, validate=False)
        laws = {law.name: law for law in h2_laws(d) + v2_laws(d)}
        h2, v2 = horizontal_2category(d).cells, vertical_2category(d).cells
        assert list(laws["h2-stacking"].instances()) == [
            (f, c1, c2) for f, cells in h2.items() for c1, f1 in cells for c2, _ in h2[f1]
        ], fixture
        assert list(laws["v2-stacking"].instances()) == [
            (gamma, x, chi, chi2)
            for (gamma, x), out in v2.items()
            for chi, tg in out
            for chi2, _ in v2[(tg, x)]
        ], fixture


def test_enumerates_within_the_budget_and_samples_past_it():
    seen = []
    law = product_law("law", lambda insts, fail: seen.extend(insts), range(3), "ab")
    rep = run_laws(Report(), "suite", [law], samples=5, seed=1, max_exhaustive=6)
    assert seen == list(product(range(3), "ab"))  # the loop order of the coordinates
    assert rep.instances == {"law": 6}

    seen.clear()
    rep = run_laws(Report(), "suite", [law], samples=5, seed=1, max_exhaustive=5)
    assert len(seen) == 5 and rep.instances == {"law": 5}
    space = list(product(range(3), "ab"))
    assert seen == [space[i] for i in spread(random.Random("1/suite/law"), 6, 5)]


def test_a_sampled_law_checks_distinct_instances_in_enumeration_order():
    seen = []
    law = product_law("law", lambda insts, fail: seen.extend(insts), range(7), range(5), "abc")
    assert [law.at(i) for i in (0, 1, 3, 16, 104)] == [
        (0, 0, "a"), (0, 0, "b"), (0, 1, "a"), (1, 0, "b"), (6, 4, "c")
    ]
    rep = run_laws(Report(), "suite", [law], samples=100, seed=3, max_exhaustive=0)
    space = list(law.instances())
    assert len(set(seen)) == 100 == rep.instances["law"]
    assert seen == sorted(seen, key=space.index)


def test_spread_draws_one_index_from_each_block():
    for size, samples in ((7, 3), (10, 10), (1000, 7), (10**13, 4)):
        picks = list(spread(random.Random(size), size, samples))
        bounds = [size * j // samples for j in range(samples + 1)]
        assert all(lo <= i < hi for i, lo, hi in zip(picks, bounds, bounds[1:])), picks
    # every index of a block is drawn
    assert {next(spread(random.Random(s), 12, 4)) for s in range(200)} == {0, 1, 2}


def test_ragged_locates_past_empty_parts():
    size, locate = ragged([0, 2, 0, 0, 1])
    assert size == 3
    assert [locate(i) for i in range(size)] == [(1, 0), (1, 1), (4, 0)]
    assert ragged([])[0] == 0


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


def test_only_the_blocks_that_fail_are_walked_again():
    seen = []

    def every_seventh(insts, fail):
        for (i,) in insts:
            seen.append(i)
            if i % 7 == 3:
                fail((i,), "seventh")

    def blocks():  # runs of 5; 3, 10 and 17 fail
        for k in range(0, 20, 5):
            run = [(i,) for i in range(k, k + 5)]
            yield run if any(i % 7 == 3 for (i,) in run) else None

    law = replace(product_law("law", every_seventh, range(20)), blocks=blocks, width=5)
    rep = run_laws(Report(cap=2), "suite", [law])
    assert seen == [*range(5), *range(10, 20)]
    assert [v.witness for v in rep.violations] == [(3,), (10,)]
    assert (rep.count("law"), rep.capped, rep.instances) == (3, True, {"law": 20})

    seen.clear()
    sampled = run_laws(Report(), "suite", [law], samples=4, seed=1, max_exhaustive=0)
    assert seen == [i for (i,) in map(law.at, spread(random.Random("1/suite/law"), 20, 4))]
    assert sampled.instances == {"law": 4}


def test_a_law_with_no_instances_asks_for_no_block():
    def no_blocks():
        raise AssertionError("blocks() called on an empty law")

    law = Law("empty", 0, lambda i: (i,), lambda insts, fail: None, blocks=no_blocks, width=3)
    assert run_laws(Report(), "suite", [law]).instances == {}


@pytest.mark.parametrize("runs, width", [(4, 0), (3, 5), (5, 5)], ids=["no-width", "too-few", "too-many"])
def test_blocks_that_do_not_tile_the_law_are_refused(runs, width):
    law = replace(
        product_law("law", lambda insts, fail: None, range(20)),
        blocks=lambda: iter([None] * runs), width=width,
    )
    with pytest.raises(ValueError, match="do not tile its 20 instances"):
        run_laws(Report(), "suite", [law])


def test_a_proved_law_is_counted_and_not_walked():
    seen, asked = [], []

    def proved():
        asked.append(1)
        return True

    law = replace(product_law("law", lambda insts, fail: seen.extend(insts), range(4), "ab"), proved=proved)
    assert run_laws(Report(), "suite", [law]).instances == {"law": 8}
    assert run_laws(Report(), "suite", [law], samples=3, seed=1, max_exhaustive=0).instances == {"law": 3}
    assert seen == [] and len(asked) == 2


def test_a_law_whose_proof_fails_is_walked_as_without_it():
    def odd(insts, fail):
        for i, c in insts:
            if i % 2:
                fail((i, c), "odd")

    law = product_law("law", odd, range(4), "ab")
    for budget in ({}, {"samples": 3, "seed": 2, "max_exhaustive": 0}):
        unproved = run_laws(Report(), "suite", [replace(law, proved=lambda: False)], **budget)
        walked = run_laws(Report(), "suite", [law], **budget)
        assert (unproved.violations, unproved.instances) == (walked.violations, walked.instances)
    assert unproved.count("law") == 2


def test_a_law_with_no_instances_asks_for_no_proof():
    def no_proof():
        raise AssertionError("proved() called on an empty law")

    law = Law("empty", 0, lambda i: (i,), lambda insts, fail: None, proved=no_proof)
    assert run_laws(Report(), "suite", [law], samples=5).instances == {}


# with the four laws that carry a proof decided by it, --exhaustive finishes
# at once on xm2 and xm4, and every line is exact
@pytest.mark.parametrize("name", ["xm2", "xm4"])
def test_exhaustive_verify_passes_every_law_on_all_its_instances(capsys, name):
    assert main(["verify", "--adjoint", name, "--exhaustive"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    got = {(o["suite"], o["law"]): (o["status"], o["checked"]) for o in lines if "law" in o}
    act = adjoint_action(dict(fixture_catalog())[name])
    assert got == {(suite, law.name): ("pass", law.size) for suite, law in declared_laws(act)}
    assert len(got) == 56
