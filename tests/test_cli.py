import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from xmodcat import action, cli, xmod
from xmodcat.action import adjoint_action, trivial_strict_action
from xmodcat.cli import main
from xmodcat.fincat import category_from_tables
from xmodcat.groups import (
    automorphism_action_laws,
    cyclic,
    homomorphism_laws,
    make_homomorphism,
    trivial_action,
)
from xmodcat.report import run_laws
from xmodcat.serialize import action_to_obj, write_json, xmod_to_obj
from xmodcat import suites
from xmodcat.suites import action_laws, pentagon_laws
from xmodcat.transform import build_transformation_double
from xmodcat.xmod import crossed_module_laws, make_crossed_module, xm_inversion, xm_sym3

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MUTATED = FIXTURES / "actions" / "mutated.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def law_objs(stdout):
    out = []
    for line in stdout.splitlines():
        obj = json.loads(line)
        if "law" in obj:
            out.append(obj)
    return out


class TestValidate:
    def test_builtin_xmods_pass(self, capsys):
        for name in ("xm1", "xm2", "xm3", "xm4"):
            code, out, err = run_cli(capsys, "validate", "--kind", "xmod", name)
            assert code == 0
            assert all(o["status"] == "pass" for o in law_objs(out))

    def test_broken_xmod_fails_with_peiffer_witness(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--kind", "xmod", "bad-peiffer")
        assert code == 1
        laws = {o["law"]: o for o in law_objs(out)}
        assert laws["peiffer"]["status"] == "fail"
        assert laws["peiffer"]["violations"] == 18
        assert laws["peiffer"]["witness"] == [1, 2]
        assert laws["equivariance"]["status"] == "pass"

    def test_xmod_file_path(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--kind", "xmod", str(FIXTURES / "xm1.json"))
        assert code == 0

    def test_group_builtin_and_file(self, capsys):
        assert run_cli(capsys, "validate", "--kind", "group", "S3")[0] == 0
        assert (
            run_cli(capsys, "validate", "--kind", "group", str(FIXTURES / "groups" / "s3.json"))[0]
            == 0
        )

    def test_action_fixtures(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--kind", "action", str(FIXTURES / "actions" / "adjoint_xm1.json")
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "validate", "--kind", "action", "--adjoint", "xm2")
        assert code == 0
        code, out, _ = run_cli(capsys, "validate", "--kind", "action", "--trivial", "xm3")
        assert code == 0

    def test_mutated_action_reports_failing_laws(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--kind", "action", str(FIXTURES / "actions" / "mutated.json")
        )
        assert code == 1
        failed = [o for o in law_objs(out) if o["status"] == "fail"]
        assert failed and all(o["witness"] is not None for o in failed)

    # the sha256 of `validate --kind action` stdout and the exit code
    ACTION_GOLDEN = [
        ((str(MUTATED),), 1, "28297d911a56d3ecbe8b318aac62356b036a1ab82ce5d9954a0e7714ccd9db9a"),
        (("--adjoint", "xm2"), 0, "87ce71f1b9e1e8fb92655b2b5a9885e1ab09b44c621a86f5afe0cfd92bb3bf7b"),
        (("--trivial", "xm3"), 0, "4ee9c856bf326ba2db4ecaf1e13febe79f70cc3e227ce5fc1128b7601b7366df"),
        (
            (str(FIXTURES / "actions" / "adjoint_xm1.json"),), 0,
            "9888b27305e3b0eaf3c65c05d95dffc5f0add343ec14cb2bb42d11bb423c6d97",
        ),
    ]

    @pytest.mark.parametrize(
        "argv, code, digest", ACTION_GOLDEN,
        ids=["mutated", "adjoint-xm2", "trivial-xm3", "adjoint-xm1-file"],
    )
    def test_action_output_is_pinned(self, capsys, argv, code, digest):
        got, out, _ = run_cli(capsys, "validate", "--kind", "action", *argv)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)

    # the builder is counted under every name it is reachable by: its own
    # module (the validators') and the command line's
    @pytest.mark.parametrize(
        "kind, argv, module, builder",
        [
            ("xmod", ("xm2",), xmod, "crossed_module_laws"),
            ("action", ("--adjoint", "xm2"), action, "strict_action_laws"),
        ],
    )
    def test_the_law_list_is_built_once(self, capsys, monkeypatch, kind, argv, module, builder):
        calls = []
        build = getattr(module, builder)

        def counted(arg):
            calls.append(arg)
            return build(arg)

        monkeypatch.setattr(module, builder, counted)
        monkeypatch.setattr(cli, builder, counted)
        code, out, _ = run_cli(capsys, "validate", "--kind", kind, *argv)
        assert code == 0 and law_objs(out)
        assert len(calls) == 1

    def test_missing_file_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--kind", "xmod", "no_such_file.json")
        assert code == 2
        assert "error" in json.loads(err.splitlines()[0])

    def test_category_kind(self, capsys):
        assert run_cli(capsys, "validate", "--kind", "category", "terminal")[0] == 0
        assert (
            run_cli(
                capsys, "validate", "--kind", "category", str(FIXTURES / "categories" / "terminal.json")
            )[0]
            == 0
        )


class TestVerify:
    # every (suite, law) line of a default verify, in the order printed
    LAW_NAMES = [
        ("xmod", law) for law in (
            "homomorphism", "bijective", "respects-product", "unit", "composition",
            "equivariance", "peiffer",
        )
    ] + [
        ("catgroup", law) for law in (
            "tensor-typing", "interchange", "tensor-inverse", "eckmann-hilton",
        )
    ] + [
        ("quintet", law) for law in (
            "face-formulas-agree", "h-inverse", "v-inverse", "h-identity", "v-identity",
            "grid-interchange", "embed-compose",
        )
    ] + [
        ("action", law) for law in (
            "endofunctor-typing", "endofunctor-identities", "endofunctor-composition",
            "transformation-component-typing", "transformation-naturality", "component-stacking",
            "unit-component", "translation-composition", "component-product", "pair-typing",
            "pair-functoriality", "pair-identity", "object-associativity",
            "morphism-associativity", "unit-object", "unit-morphism", "whisker-agreement",
        )
    ] + [
        ("adjoint-oracle", "five-square-strip"),
    ] + [
        ("double", law) for law in (
            "v-unit", "h-boundary", "v-boundary", "v-assoc", "interchange", "six-composites",
        )
    ] + [
        ("nested", law) for law in ("first-typing", "first-composition")
    ] + [
        ("h2cat", law) for law in ("kernel-central", "h2-identity", "h2-stacking")
    ] + [
        ("v2cat", law) for law in (
            "v2-identity-cell", "v2-stacking", "v2-inverse", "v2-adjoint-closed-form",
        )
    ] + [
        ("pentagon", law) for law in (
            "compositor-typing", "compositor-invertible", "compositor-naturality",
            "unit-triangle", "pentagon",
        )
    ]

    def test_adjoint_fixture_all_green(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--adjoint", "xm1", "--samples", "200", "--seed", "3"
        )
        assert code == 0
        lines = law_objs(out)
        assert [(o["suite"], o["law"]) for o in lines] == self.LAW_NAMES
        assert all(o["status"] in ("pass", "skip") for o in lines)

    def test_trivial_action_skips_the_adjoint_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--trivial", "xm1", "--samples", "100", "--seed", "0"
        )
        assert code == 0
        oracle = [o for o in law_objs(out) if o["suite"] == "adjoint-oracle"]
        assert oracle and all(o["status"] == "skip" for o in oracle)

    def test_mutated_action_fails_with_interchange_line(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            str(FIXTURES / "actions" / "mutated.json"),
            "--samples",
            "300",
            "--seed",
            "1",
        )
        assert code == 1
        lines = law_objs(out)
        interchange = [o for o in lines if o["suite"] == "double" and o["law"] == "interchange"]
        assert len(interchange) == 1
        assert interchange[0]["status"] == "fail"
        assert interchange[0]["violations"] > 0
        assert interchange[0]["witness"] is not None

    def test_suite_subset(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--adjoint", "xm3", "--suite", "xmod", "--suite", "quintet"
        )
        assert code == 0
        suites = {o["suite"] for o in law_objs(out)}
        assert suites == {"xmod", "quintet"}

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--adjoint", "xm1", "--suite", "nope")
        assert code == 2

    def test_usage_errors_name_their_class(self, capsys):
        for argv in (
            ("verify",),
            ("validate", "--kind", "action"),
            ("verify", "--adjoint", "xm1", "--suite", "nope"),
            *(("validate", "--kind", kind) for kind in ("group", "category", "xmod")),
            *(("export", "--kind", kind) for kind in ("group", "xmod", "category", "grid")),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert json.loads(err.splitlines()[0])["error"] == "UsageError"

    def test_a_law_within_the_sample_count_is_enumerated(self, capsys):
        # first-typing has fewer instances than the seven distinct samples
        code, out, _ = run_cli(
            capsys, "verify", "--adjoint", "xm1", "--suite", "nested",
            "--max-exhaustive", "0", "--samples", "7",
        )
        assert code == 0
        lines = {o["law"]: o for o in law_objs(out)}
        assert lines["first-typing"]["checked"] == 4  # xm1 has 4 vertical morphisms
        assert lines["first-composition"]["checked"] == 7  # 8 composable pairs: sampled

    def test_a_sampled_law_is_handed_distinct_instances_in_order(self, capsys, monkeypatch):
        handed, laws = {}, {}

        def recording(rep, suite, laws_in, *budget):
            def record(law):
                def check(insts, fail):
                    handed[law.name] = list(insts)
                    law.check(handed[law.name], fail)

                laws[law.name] = law
                return dataclasses.replace(law, check=check, proved=None)

            return run_laws(rep, suite, [record(law) for law in laws_in], *budget)

        monkeypatch.setattr(suites, "run_laws", recording)
        code, out, _ = run_cli(
            capsys, "verify", "--adjoint", "xm1", "--suite", "double",
            "--max-exhaustive", "0", "--samples", "300",
        )
        assert code == 0
        seen = handed["h-boundary"]
        assert len(set(seen)) == 300 == {o["law"]: o for o in law_objs(out)}["h-boundary"]["checked"]
        # the 300 instances come in the order of the 324 the law enumerates
        assert seen == [i for i in laws["h-boundary"].instances() if i in set(seen)]

    def test_runs_are_byte_identical(self, capsys):
        args = ("verify", "--adjoint", "xm1", "--samples", "150", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_thread_env_does_not_change_output(self, capsys):
        # suites run one after another in one thread: the log record names
        # no thread count, and the whole output, first line included, repeats
        args = ("verify", "--adjoint", "xm3", "--samples", "100", "--seed", "2")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert set(json.loads(first.splitlines()[0])["log"]) == {"exhaustive", "samples", "seed"}

    @pytest.mark.parametrize("flag", ["--samples", "--max-exhaustive"])
    def test_negative_budget_is_usage_error(self, capsys, flag):
        code, out, err = run_cli(
            capsys, "verify", "--adjoint", "xm1", "--suite", "double", flag, "-5"
        )
        assert code == 2
        assert out == ""
        assert json.loads(err.splitlines()[0])["error"] == "UsageError"

    def test_no_law_passes_on_zero_instances(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", str(MUTATED), "--suite", "double", "--suite", "adjoint-oracle",
            "--samples", "0", "--max-exhaustive", "0",
        )
        assert code == 0
        lines = law_objs(out)
        assert len(lines) == 7
        assert all(o["status"] == "skip" and o["checked"] == 0 and o["detail"] for o in lines)

    def test_lines_carry_their_own_law_counts(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(MUTATED), "--suite", "double")
        assert code == 1
        lines = {o["law"]: o for o in law_objs(out)}
        assert lines["v-unit"]["checked"] == 36
        assert lines["v-assoc"]["checked"] == 1296
        assert lines["interchange"]["checked"] == 5832
        # the true violation count, past the 100-witness cap
        assert lines["interchange"]["violations"] == 450

    def test_sampled_law_does_not_depend_on_other_laws(self, capsys):
        def run(budget):
            _, out, _ = run_cli(
                capsys, "verify", str(MUTATED), "--suite", "double",
                "--samples", "300", "--seed", "1", "--max-exhaustive", budget,
            )
            return {o["law"]: o for o in law_objs(out)}

        # v-assoc (1296 instances) is enumerated in one run, sampled in the
        # other; interchange (5832 instances) is sampled in both
        wide, narrow = run("1500"), run("1000")
        assert (wide["v-assoc"]["checked"], narrow["v-assoc"]["checked"]) == (1296, 300)
        assert wide["interchange"]["checked"] == 300
        assert wide["interchange"] == narrow["interchange"]

    def test_action_pentagon_and_xmod_laws_follow_the_budget(self, capsys):
        d = build_transformation_double(adjoint_action(xm_sym3()), validate=False)
        sizes = {("action", law.name): law.size for law in action_laws(d)}
        sizes.update({("pentagon", law.name): law.size for law in pentagon_laws(d)})
        xm = d.xm
        xmod = homomorphism_laws(xm.boundary) + automorphism_action_laws(xm.action)
        sizes.update({("xmod", law.name): law.size for law in xmod + crossed_module_laws(xm)})
        code, out, _ = run_cli(
            capsys, "verify", "--adjoint", "xm2", "--suite", "action", "--suite", "pentagon",
            "--suite", "xmod", "--max-exhaustive", "0", "--samples", "50",
        )
        assert code == 0
        checked = {(o["suite"], o["law"]): o["checked"] for o in law_objs(out)}
        assert checked == {key: min(n, 50) for key, n in sizes.items()}
        assert sizes[("action", "morphism-associativity")] == 46656
        assert sizes[("pentagon", "unit-triangle")] == 72  # two per (gamma, x)

    @pytest.mark.parametrize("exc", [TypeError, ValueError])
    def test_a_suite_raising_gives_an_error_line(self, capsys, monkeypatch, exc):
        def broken(act, samples, seed, max_exhaustive):
            raise exc("unexpected")

        patched = [(name, broken if name == "quintet" else fn) for name, fn in suites.SUITES]
        monkeypatch.setattr(suites, "SUITES", patched)
        code, out, err = run_cli(capsys, "verify", "--adjoint", "xm3", "--suite", "quintet")
        assert (code, err) == (1, "")
        assert law_objs(out) == [{
            "suite": "quintet", "law": "quintet-error", "status": "fail", "checked": 0,
            "violations": 1, "detail": f"{exc.__name__}: unexpected",
        }]

    # the sha256 of default `verify` stdout and the exit code; at the defaults
    # every law of these inputs is enumerated
    GOLDEN = [
        ((str(MUTATED),), 1, "cfc6ee42db6344dd7057f5fc6f20b42b143e48eb13c051ba4ca648bbc2a50199"),
        (("--adjoint", "xm1"), 0, "3cbb9d120af40d483c04765ad52f3ff861df80a66d37db5845aa4eaf3e5ca697"),
        (("--adjoint", "bad-peiffer"), 1, "df7dd4fb3270c2ef938b399eb4f514e22a75790bb84a26fd4b8615a1290ef933"),
        (("--trivial", "bad-peiffer"), 1, "1333775d247ede2407d1fb8cccbe513097e22c3794696285d009a02dae5401e5"),
    ]

    @pytest.mark.parametrize(
        "argv, code, digest", GOLDEN, ids=["mutated", "adjoint-xm1", "adjoint-bad", "trivial-bad"]
    )
    def test_default_output_is_pinned(self, capsys, argv, code, digest):
        got, out, _ = run_cli(capsys, "verify", *argv)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)

    # the same, at --samples 1000 --max-exhaustive 10000, where the catgroup,
    # quintet, action and double laws of these inputs are sampled
    SAMPLED = [
        ((str(MUTATED),), 1, "fabec218c6460367b61647e8998d0d706ee686462c3c611fe4a04467ffa8ab37"),
        (("--adjoint", "xm1"), 0, "6bf4dc16bc982d3a64150eb28b535eaaae517cefd068e143d159a8d58aadd2bb"),
        (("--adjoint", "bad-peiffer"), 1, "5bab95d0ab371ea9c9f322963e36f0ab96315df55e93a286342e606f8778fca4"),
        (("--trivial", "bad-peiffer"), 1, "eb545269a6683a5db75d4400292cc75c40add42c28522ff4cbd7c022aaca8139"),
        (("--adjoint", "xm2"), 0, "d7200f281eba7ba6ca7ec7c5d63373e85c99492afea504188bba2cf6e77aa7ea"),
    ]

    @pytest.mark.parametrize(
        "argv, code, digest", SAMPLED,
        ids=["mutated", "adjoint-xm1", "adjoint-bad", "trivial-bad", "adjoint-xm2"],
    )
    def test_sampled_output_is_pinned(self, capsys, argv, code, digest):
        got, out, _ = run_cli(
            capsys, "verify", *argv, "--samples", "1000", "--max-exhaustive", "10000"
        )
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)

    def test_a_lawful_action_on_the_empty_category_passes(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        write_json(action_to_obj(trivial_strict_action(xm_sym3(), category_from_tables(0, [], [], []))), path)
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert [o for o in law_objs(out) if o["status"] == "fail"] == []
        assert code == 0

    def test_exhaustive_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--adjoint", "xm3", "--exhaustive")
        assert code == 0
        log = json.loads(out.splitlines()[0])["log"]
        assert log["exhaustive"] is True


class TestNonIntegerEntries:
    """A table entry that is not an int is unusable input, even in range, and
    so is a bare number where a list is expected."""

    EDITS = pytest.mark.parametrize(
        "edit, error",
        [
            (lambda obj: obj["actMor"][0].__setitem__(2, 1.5), "FixtureFormatError"),
            (lambda obj: obj["category"]["morphisms"][0].__setitem__("src", "0"), "MalformedTable"),
            (lambda obj: obj["xmod"]["boundary"].__setitem__(0, 0.0), "MalformedTable"),
            (lambda obj: obj["xmod"]["G"]["table"].__setitem__(1, 5), "FixtureFormatError"),
            (lambda obj: obj["xmod"]["G"].__setitem__("names", 5), "FixtureFormatError"),
            (lambda obj: obj["category"].__setitem__("morphisms", 5), "FixtureFormatError"),
            (lambda obj: obj["category"].__setitem__("identity", 0), "FixtureFormatError"),
            (lambda obj: obj["category"].__setitem__("comp", 7), "FixtureFormatError"),
            (lambda obj: obj["xmod"].__setitem__("boundary", 5), "FixtureFormatError"),
            (lambda obj: obj["xmod"]["action"].__setitem__(1, 5), "FixtureFormatError"),
            (lambda obj: obj.__setitem__("actObj", 5), "FixtureFormatError"),
            (lambda obj: obj["actObj"].__setitem__(0, 5), "FixtureFormatError"),
            (lambda obj: obj.__setitem__("actMor", 5), "FixtureFormatError"),
        ],
        ids=[
            "actMor", "category-src", "xmod-boundary",
            "group-table-row", "group-names", "category-morphisms", "category-identity",
            "category-comp", "xmod-boundary-number", "xmod-action-row", "actObj",
            "actObj-row", "actMor-number",
        ],
    )

    @staticmethod
    def edited_copy(tmp_path, edit):
        obj = json.loads((FIXTURES / "actions" / "adjoint_xm1.json").read_text())
        edit(obj)
        path = tmp_path / "action.json"
        path.write_text(json.dumps(obj))
        return path

    @EDITS
    def test_verify_exits_2_with_an_error_record(self, capsys, tmp_path, edit, error):
        path = self.edited_copy(tmp_path, edit)
        code, out, err = run_cli(capsys, "verify", str(path), "--suite", "double")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == error

    @EDITS
    def test_validate_exits_2_with_an_error_record(self, capsys, tmp_path, edit, error):
        path = self.edited_copy(tmp_path, edit)
        code, out, err = run_cli(capsys, "validate", "--kind", "action", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == error


class TestRepeatedActMorEntries:
    """actMor may repeat an entry, but not give one pair and morphism two
    results."""

    @staticmethod
    def with_entry(tmp_path, entry):
        obj = json.loads((FIXTURES / "actions" / "adjoint_xm1.json").read_text())
        obj["actMor"].append(entry)
        path = tmp_path / "action.json"
        path.write_text(json.dumps(obj))
        return path

    @pytest.mark.parametrize("verb", [("validate", "--kind", "action"), ("verify",)], ids=["validate", "verify"])
    def test_a_conflicting_entry_is_unusable_input(self, capsys, tmp_path, verb):
        path = self.with_entry(tmp_path, [[0, 0], [5], 0])  # the file maps it to 5
        code, out, err = run_cli(capsys, *verb, str(path))
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "FixtureFormatError",
            "message": f"{path}: actMor maps pair (0, 0) on morphism 5 to both 5 and 0",
        }

    def test_an_identical_repeat_is_accepted(self, capsys, tmp_path):
        path = self.with_entry(tmp_path, [[0, 0], [5], 5])
        assert run_cli(capsys, "validate", "--kind", "action", str(path))[0] == 0


class TestBoundaryNotAHomomorphism:
    """--adjoint on a module whose boundary is not a homomorphism names the
    boundary's first violation, whatever the verb."""

    @pytest.mark.parametrize(
        "bnd, witness", [([1, 0, 0], (0, 0)), ([0, 1, 1], (1, 1))], ids=["unit-moved", "product-broken"]
    )
    @pytest.mark.parametrize(
        "verb, code",
        [(("verify",), 2), (("validate", "--kind", "action"), 1), (("export", "--kind", "action"), 2)],
        ids=["verify", "validate", "export"],
    )
    def test_the_error_names_the_boundary(self, capsys, tmp_path, bnd, witness, verb, code):
        z2, z3 = cyclic(2), cyclic(3)
        xm = make_crossed_module(z2, z3, make_homomorphism(z3, z2, bnd), trivial_action(z2, z3))
        path = tmp_path / "xm.json"
        write_json(xmod_to_obj(xm), path)
        got, out, err = run_cli(capsys, *verb, "--adjoint", str(path))
        assert (got, out) == (code, "")
        assert json.loads(err) == {
            "error": "ComponentInvalid",
            "message": f"boundary is not a homomorphism: homomorphism at {witness}",
        }


class TestUnreadableInput:
    """A file that does not decode as text, or that nests deeper than the
    JSON parser goes, is unusable input: one error record and exit 2."""

    UNDECODABLE = bytes(range(56, 256))  # 200 bytes, 0x80 and up not UTF-8

    @pytest.mark.parametrize(
        "content, message",
        [(UNDECODABLE, "cannot read {path}: "), (b"[" * 200_000, "{path} is not valid JSON: ")],
        ids=["undecodable", "too-deep"],
    )
    @pytest.mark.parametrize(
        "verb",
        [("verify",), ("verify", "--adjoint"), ("validate", "--kind", "xmod"), ("eval",)],
        ids=["verify", "verify-adjoint", "validate-xmod", "eval"],
    )
    def test_a_json_input(self, capsys, tmp_path, verb, content, message):
        path = tmp_path / "x.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, *verb, str(path))
        assert (code, out) == (2, "")
        obj = json.loads(err)
        assert obj["error"] == "FixtureFormatError"
        assert obj["message"].startswith(message.format(path=path))

    def test_grid_text(self, capsys, tmp_path):
        path = tmp_path / "x.xmg"
        path.write_bytes(self.UNDECODABLE)
        code, out, err = run_cli(capsys, "eval", str(path))
        assert (code, out) == (2, "")
        obj = json.loads(err)
        assert obj["error"] == "FixtureFormatError"
        assert obj["message"].startswith(f"cannot read {path}: ")

    @pytest.mark.parametrize("directory", [False, True], ids=["missing", "directory"])
    @pytest.mark.parametrize("verb", [("eval",), ("export", "--kind", "grid")], ids=["eval", "export"])
    def test_grid_text_that_cannot_be_opened(self, capsys, tmp_path, verb, directory):
        # the same record as for a .json path, whatever the OSError
        path = tmp_path / "d.xmg"
        if directory:
            path.mkdir()
        code, out, err = run_cli(capsys, *verb, str(path))
        assert (code, out) == (2, "")
        obj = json.loads(err)
        assert obj["error"] == "FixtureFormatError"
        assert obj["message"].startswith(f"cannot read {path}: ")


class TestEval:
    def test_grid_evaluates_to_identity_square(self, capsys):
        code, out, _ = run_cli(capsys, "eval", str(FIXTURES / "grids" / "xm1_2x2.xmg"))
        assert code == 0
        obj = json.loads(out)
        assert obj == {"bottom": 0, "face": 0, "left": 0, "right": 0, "top": 0}

    def test_check_interchange(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", str(FIXTURES / "grids" / "xm2_3x2.xmg"), "--check-interchange"
        )
        assert code == 0
        assert json.loads(out)["ordersAgree"] is True

    def test_json_grid(self, capsys):
        code, out, _ = run_cli(capsys, "eval", str(FIXTURES / "grids" / "xm1_2x2.json"))
        assert code == 0
        assert json.loads(out)["face"] == 0

    def test_bad_grid_reports_line_and_column(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", str(FIXTURES / "grids" / "bad" / "adjacency.xmg")
        )
        assert code == 2
        obj = json.loads(err.splitlines()[0])
        assert obj["error"] == "GridAdjacencyViolation"
        assert (obj["line"], obj["col"]) == (5, 3)

    def test_every_bad_grid_is_a_usage_error(self, capsys):
        for path in sorted((FIXTURES / "grids" / "bad").glob("*.xmg")):
            code, _, err = run_cli(capsys, "eval", str(path))
            assert code == 2, path.name
            obj = json.loads(err.splitlines()[0])
            assert "line" in obj and "col" in obj, path.name

    def eval_json_grid(self, capsys, tmp_path, cells):
        path = tmp_path / "grid.json"
        write_json({"xmod": str(FIXTURES / "xm1.json"), "cells": cells}, path)
        code, out, err = run_cli(capsys, "eval", str(path))
        assert out == ""
        return code, json.loads(err), path

    def test_json_grid_row_that_is_not_a_list(self, capsys, tmp_path):
        code, err, path = self.eval_json_grid(capsys, tmp_path, [5])
        assert code == 2
        assert err == {"error": "FixtureFormatError", "message": f"{path}: row 0 is not a list of cells"}

    @pytest.mark.parametrize(
        "key, value, slot", [("l", True, "edge"), ("t", "0", "edge"), ("e", 1.0, "face")]
    )
    def test_json_grid_entry_that_is_not_an_int(self, capsys, tmp_path, key, value, slot):
        # a cell of fixtures/grids/xm1_2x2.json with one entry replaced
        cell = {"l": 1, "t": 0, "r": 1, "b": 0, "e": 1, key: value}
        code, err, _ = self.eval_json_grid(capsys, tmp_path, [[cell]])
        assert code == 2
        assert err == {"error": "BoundaryViolation", "message": f"{slot} {value!r} out of range"}


class TestBuild:
    def test_build_writes_requested_files(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "build",
            "--adjoint",
            "xm1",
            "-o",
            str(tmp_path),
            "--h2cat",
            "--v2cat",
            "--dot",
        )
        assert code == 0
        for name in (
            "double.json",
            "h2cat.json",
            "v2cat.json",
            "obj_groupoid.dot",
            "mor_groupoid.dot",
        ):
            assert (tmp_path / name).exists(), name
        double = json.loads((tmp_path / "double.json").read_text())
        assert double["objects"] == 2 and len(double["squares"]) == 36
        h2 = json.loads((tmp_path / "h2cat.json").read_text())
        assert h2["kernel"] == [0, 1, 2]

    def test_build_rejects_lawless_action(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "build",
            str(FIXTURES / "actions" / "mutated.json"),
            "-o",
            str(tmp_path),
        )
        assert code == 1
        assert not (tmp_path / "double.json").exists()


class TestExport:
    def test_group_round_trip(self, capsys, tmp_path):
        dest = tmp_path / "s3.json"
        code, *_ = run_cli(capsys, "export", "--kind", "group", "S3", "-o", str(dest))
        assert code == 0
        code, out, _ = run_cli(capsys, "export", "--kind", "group", str(dest))
        assert code == 0
        obj = json.loads(out)
        assert obj["order"] == 6 and obj["names"][0] == "e"

    def test_xmod_export(self, capsys):
        code, out, _ = run_cli(capsys, "export", "--kind", "xmod", "xm1")
        assert code == 0
        obj = json.loads(out)
        assert set(obj) >= {"G", "H", "boundary", "action"}

    def test_action_export_loads_back(self, capsys, tmp_path):
        dest = tmp_path / "act.json"
        code, *_ = run_cli(
            capsys, "export", "--kind", "action", "--adjoint", "xm1", "-o", str(dest)
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "validate", "--kind", "action", str(dest))
        assert code == 0

    def test_grid_json_export(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", "--kind", "grid", str(FIXTURES / "grids" / "xm1_2x2.xmg")
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["cells"]) == 2 and len(obj["cells"][0]) == 2

    def test_grid_dsl_export_round_trips(self, capsys, tmp_path):
        dest = tmp_path / "copy.xmg"
        code, *_ = run_cli(
            capsys,
            "export",
            "--kind",
            "grid",
            str(FIXTURES / "grids" / "xm2_3x2.xmg"),
            "--dsl",
            "-o",
            str(dest),
        )
        assert code == 0
        text = dest.read_text()
        assert text.startswith('use "../xm2.json"')
        # canonical text: exporting it again changes nothing
        from xmodcat.gridlang import parse_document, serialize_grid

        grid = parse_document(text, base_dir=FIXTURES / "grids").grid
        assert serialize_grid(grid, "../xm2.json") == text

    def test_json_grid_dsl_export_matches_its_text_twin(self, capsys):
        grids = FIXTURES / "grids"
        from_json = run_cli(capsys, "export", "--kind", "grid", str(grids / "xm1_2x2.json"), "--dsl")
        from_text = run_cli(capsys, "export", "--kind", "grid", str(grids / "xm1_2x2.xmg"), "--dsl")
        assert from_json == from_text
        assert from_json[0] == 0 and from_json[1].startswith('use "../xm1.json"\n')

    def test_a_json_grid_with_an_inline_module_exports_and_loads_again(self, capsys, tmp_path):
        grid = json.loads((FIXTURES / "grids" / "xm1_2x2.json").read_text())
        grid["xmod"] = xmod_to_obj(xm_inversion())
        src = tmp_path / "inline.json"
        src.write_text(json.dumps(grid))
        _, want, _ = run_cli(capsys, "eval", str(src))

        (tmp_path / "out").mkdir()
        dest = tmp_path / "out" / "copy.json"
        assert run_cli(capsys, "export", "--kind", "grid", str(src), "-o", str(dest))[0] == 0
        assert json.loads(dest.read_text()) == grid  # the module stays inline
        assert run_cli(capsys, "eval", str(dest)) == (0, want, "")

        code, out, err = run_cli(capsys, "export", "--kind", "grid", str(src), "--dsl")
        assert (code, out) == (2, "")
        error = json.loads(err.splitlines()[0])
        assert error["error"] == "UsageError" and "inline" in error["message"]

    def test_grid_dsl_export_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", "--kind", "grid", str(FIXTURES / "grids" / "identity_1x1.xmg"), "--dsl"
        )
        assert code == 0
        assert out.splitlines()[0] == 'use "../xm1.json"'


class TestCatalogAndOutput:
    def test_catalog_lists_builtins(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        objs = [json.loads(line) for line in out.splitlines()]
        names = {o["name"] for o in objs}
        assert {"Z1", "S3", "xm1", "xm4", "bad-peiffer"} <= names
        xm2 = next(o for o in objs if o["name"] == "xm2")
        assert (xm2["G"], xm2["H"], xm2["pairs"]) == (6, 6, 36)

    def test_pretty_mode_is_line_oriented_text(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--kind", "xmod", "xm1", "--pretty")
        assert code == 0
        assert out.startswith("PASS")
        with pytest.raises(json.JSONDecodeError):
            json.loads(out.splitlines()[0])

    def test_json_lines_are_sorted_and_parseable(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--adjoint", "xm3", "--samples", "50")
        for line in out.splitlines():
            obj = json.loads(line)
            assert list(obj) == sorted(obj)


VERBS = ("validate", "build", "eval", "verify", "export", "catalog")


class TestParserReuse:
    """main builds its argument parser once per process; a call must read as
    it reads on a parser of its own, whatever calls came before it."""

    @staticmethod
    def outcome(capsys, argv):
        """(exit code, stdout, stderr) of main(argv), a SystemExit included."""
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def on_a_new_parser(self, capsys, monkeypatch, argv):
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli._parser.__wrapped__)
            return self.outcome(capsys, argv)

    def test_the_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_calls_read_as_on_a_new_parser(self, capsys, monkeypatch):
        grid = str(FIXTURES / "grids" / "xm1_2x2.xmg")
        calls = [
            ("verify", "--adjoint", "xm1", "--suite", "xmod", "--suite", "quintet", "--pretty"),
            ("catalog",),
            ("verify", "--adjoint", "xm3", "--suite", "catgroup"),
            ("eval", grid, "--check-interchange", "--pretty"),
            ("verify", "--samples", "x"),
            ("verify", "--adjoint", "xm1", "--suite", "xmod"),
            ("validate", "--kind", "xmod", "xm2"),
            ("export", "--kind", "xmod", "xm1", "--pretty"),
            ("eval", grid),
            ("verify", "--adjoint", "xm1", "--suite", "nested", "--suite", "xmod", "--suite", "quintet"),
        ]
        want = [self.on_a_new_parser(capsys, monkeypatch, argv) for argv in calls]
        assert [self.outcome(capsys, argv) for argv in calls] == want
        # the calls differ in verb, --suite and --pretty, so a value carried
        # over from an earlier call would show in these
        assert want[0][1].startswith("# seed=0 samples=100000 exhaustive=False\n")
        assert want[4][0] == 2
        assert want[5][1].startswith('{"log": {"exhaustive": false, "samples": 100000, "seed": 0}}\n')
        assert [{o["suite"] for o in law_objs(want[i][1])} for i in (2, 5)] == [{"catgroup"}, {"xmod"}]

    def test_a_usage_error_leaves_the_parser_usable(self, capsys):
        code, out, err = self.outcome(capsys, ("verify", "--samples", "x"))
        assert (code, out) == (2, "")
        assert "argument --samples: invalid int value: 'x'" in err
        code, out, _ = self.outcome(capsys, ("verify", "--adjoint", "xm1", "--suite", "xmod"))
        assert code == 0
        assert {o["suite"] for o in law_objs(out)} == {"xmod"}

    def test_help_reads_the_same_before_and_after_other_calls(self, capsys, monkeypatch):
        helps = [("--help",)] + [(verb, "--help") for verb in VERBS]
        want = [self.on_a_new_parser(capsys, monkeypatch, argv) for argv in helps]
        assert all(code == 0 and out.startswith("usage: xmodcat") and not err for code, out, err in want)
        cli._parser.cache_clear()  # so the first of these calls builds it
        first = [self.outcome(capsys, argv) for argv in helps]
        for argv in (("catalog",), ("verify", "--adjoint", "xm3", "--suite", "xmod", "--pretty")):
            self.outcome(capsys, argv)
        assert first == want
        assert [self.outcome(capsys, argv) for argv in helps] == want


def test_console_script_entry_point():
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "xmodcat.cli", "validate", "--kind", "xmod", "xm1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    for argv, code in ((["--help"], 0), (["verify", "--help"], 0), (["verify", "--samples", "x"], 2)):
        proc = subprocess.run(
            [sys.executable, "-m", "xmodcat.cli", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == code, argv
        assert "usage: xmodcat" in proc.stdout + proc.stderr
    exe = Path(sys.executable).with_name("xmodcat")
    if exe.exists():
        proc = subprocess.run(
            [str(exe), "catalog"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        assert "xm1" in proc.stdout
