"""The law driver: declared sizes, index-addressed instances,
enumerate-or-sample, per-law counts."""

import json
import random
from dataclasses import replace
from itertools import product

import pytest

from xmodcat.action import adjoint_action, trivial_strict_action
from xmodcat.cli import main
from xmodcat.fincat import terminal_category
from xmodcat.groups import automorphism_action_laws, homomorphism_laws
from xmodcat.report import Law, Report, product_law, ragged, run_laws, spread
from xmodcat.serialize import load_action
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


# with the seven laws that carry a proof decided by it, --exhaustive
# finishes at once on xm2 and xm4, and every line is exact
@pytest.mark.parametrize("name", ["xm2", "xm4"])
def test_exhaustive_verify_passes_every_law_on_all_its_instances(capsys, name):
    assert main(["verify", "--adjoint", name, "--exhaustive"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    got = {(o["suite"], o["law"]): (o["status"], o["checked"]) for o in lines if "law" in o}
    act = adjoint_action(dict(fixture_catalog())[name])
    assert got == {(suite, law.name): ("pass", law.size) for suite, law in declared_laws(act)}
    assert len(got) == 56


# the inputs where some proof fails, so --exhaustive walks those laws whole:
# every line that is not a skip is still exact, and the double laws that
# fail are the ones whose walk finds a violation
@pytest.mark.parametrize(
    "kind, failing",
    [
        ("adjoint", {"h-boundary", "interchange", "six-composites"}),
        ("trivial", {"interchange"}),
        ("mutated", {"v-unit", "h-boundary", "v-boundary", "v-assoc", "interchange", "six-composites"}),
    ],
    ids=["adjoint-bad-peiffer", "trivial-bad-peiffer", "mutated"],
)
def test_exhaustive_verify_walks_the_laws_whose_proof_fails(capsys, bad_xm, fixtures_dir, kind, failing):
    if kind == "mutated":
        path = fixtures_dir / "actions" / "mutated.json"
        target, act = [str(path)], load_action(path)
    else:
        target = [f"--{kind}", "bad-peiffer"]
        act = adjoint_action(bad_xm) if kind == "adjoint" else trivial_strict_action(bad_xm, terminal_category())
    assert main(["verify", *target, "--exhaustive"]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    got = {(o["suite"], o["law"]): o for o in lines if "law" in o and o["status"] != "skip"}
    sizes = {(suite, law.name): law.size for suite, law in declared_laws(act)}
    assert {key: o["checked"] for key, o in got.items()} == {key: sizes[key] for key in got}
    assert {law for (suite, law), o in got.items() if suite == "double" and o["status"] == "fail"} == failing
