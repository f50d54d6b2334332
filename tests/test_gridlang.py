import json
import random
from pathlib import Path

import pytest

from xmodcat.cli import main
from xmodcat.groups import cyclic, direct_product, symmetric, trivial_action
from xmodcat.gridlang import (
    _SQ_LINE,
    DslError,
    DslSyntaxError,
    GridAdjacencyViolation,
    GridBoundaryViolation,
    UnknownNameError,
    _LineParser,
    _read_row,
    _tokenize,
    _walk_row,
    _walk_sq,
    grid_from_obj,
    grid_to_obj,
    load_grid,
    parse_document,
    serialize_grid,
)
from xmodcat.quintet import Quintet, QuintetGrid, SquareKernel, evaluate_grid, make_square, random_grid
from xmodcat.serialize import load_xmod, write_json, xmod_to_obj
from xmodcat.xmod import xmod_identity, xmod_trivial_boundary

GRIDS = Path(__file__).resolve().parent.parent / "fixtures" / "grids"


class TestShippedCorpus:
    def test_all_shipped_grids_parse(self):
        for name in ("identity_1x1.xmg", "xm1_2x2.xmg", "xm2_3x2.xmg"):
            grid = load_grid(GRIDS / name)
            assert grid.n_rows >= 1 and grid.n_cols >= 1

    def test_checkerboard_grid_collapses_to_identity_square(self):
        grid = load_grid(GRIDS / "xm1_2x2.xmg")
        out = evaluate_grid(grid, "rows")
        assert (out.left, out.top, out.right, out.bottom, out.face) == (0, 0, 0, 0, 0)
        assert evaluate_grid(grid, "columns") == out

    def test_json_twin_matches_dsl_grid(self):
        assert load_grid(GRIDS / "xm1_2x2.json") == load_grid(GRIDS / "xm1_2x2.xmg")

    def test_load_grid_dispatches_on_suffix(self):
        assert load_grid(GRIDS / "identity_1x1.xmg").n_rows == 1
        assert load_grid(GRIDS / "xm1_2x2.json").n_rows == 2


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        for name, ref in (
            ("identity_1x1.xmg", "../xm1.json"),
            ("xm1_2x2.xmg", "../xm1.json"),
            ("xm2_3x2.xmg", "../xm2.json"),
        ):
            grid = load_grid(GRIDS / name)
            text = serialize_grid(grid, ref)
            assert parse_document(text, base_dir=GRIDS).grid == grid

    def test_serialize_is_idempotent(self):
        grid = load_grid(GRIDS / "xm2_3x2.xmg")
        text = serialize_grid(grid, "../xm2.json")
        again = serialize_grid(parse_document(text, base_dir=GRIDS).grid, "../xm2.json")
        assert text == again

    def test_json_round_trip(self, xm2):
        grid = random_grid(xm2, 2, 3, random.Random(11))
        obj = grid_to_obj(grid, "../xm2.json")
        back = grid_from_obj(json.loads(json.dumps(obj)), base=GRIDS)
        assert back == grid

    def test_random_grids_round_trip_through_the_dsl(self, xm1):
        rng = random.Random(3)
        for _ in range(20):
            grid = random_grid(xm1, rng.randrange(1, 4), rng.randrange(1, 4), rng)
            text = serialize_grid(grid, "../xm1.json")
            assert parse_document(text, base_dir=GRIDS).grid == grid

    def test_sweep_sized_grids_round_trip_byte_for_byte(self, xm2, tmp_path):
        # 32x32, as the benchmark's sweep writes them; S3 x Z/2 over itself
        # has 12 edges and 12 faces, so indices reach two digits
        o12 = xmod_identity(direct_product(symmetric(3), cyclic(2)))
        write_json(xmod_to_obj(o12), tmp_path / "o12.json")
        rng = random.Random(17)
        for xm, base, ref in ((xm2, GRIDS, "../xm2.json"), (o12, tmp_path, "o12.json")):
            for _ in range(10):
                text = serialize_grid(random_grid(xm, 32, 32, rng), ref)
                assert serialize_grid(parse_document(text, base_dir=base).grid, ref) == text


BAD_FILES = [
    ("syntax.xmg", DslSyntaxError, 2, 6),
    ("unknown_name.xmg", UnknownNameError, 2, 9),
    ("out_of_range.xmg", UnknownNameError, 2, 9),
    ("boundary.xmg", GridBoundaryViolation, 2, 22),
    ("adjacency.xmg", GridAdjacencyViolation, 5, 3),
    ("ragged.xmg", DslSyntaxError, 5, 1),
    ("sq_before_use.xmg", DslSyntaxError, 1, 1),
    ("no_grid.xmg", DslSyntaxError, 3, 1),
]
BAD_MESSAGES = {
    "syntax.xmg": "expected '=', found '('",
    "unknown_name.xmg": "unknown G element 'q'",
    "out_of_range.xmg": "index 7 out of range for a group of order 2",
    "boundary.xmg": "square 'A': bnd(face)=0 but bottom*right*top^-1*left^-1=1",
    "adjacency.xmg": "left edge 0 does not match neighbour's right edge 1",
    "ragged.xmg": "row has 1 cells, expected 2",
    "sq_before_use.xmg": "'sq' before the use directive",
    "no_grid.xmg": "missing grid section",
}


class TestCheckedOnce:
    """parse_document builds its grid from rows it checked as it read them,
    with no second check; the grid must be the one the checking
    constructors build from the same squares."""

    def test_seeded_grids_equal_the_checked_construction(self):
        rng = random.Random(20261021)
        for i in range(200):
            name = f"xm{1 + i % 4}"
            xm = load_xmod(GRIDS.parent / f"{name}.json")
            grid = random_grid(xm, rng.randint(1, 40), rng.randint(1, 40), rng)
            parsed = parse_document(serialize_grid(grid, f"../{name}.json"), base_dir=GRIDS).grid
            rows = [[Quintet(parsed.xm, *sq.as_tuple()) for sq in row] for row in grid.cells]
            assert parsed == QuintetGrid(rows) == grid
            assert type(parsed.cells) is tuple and all(type(row) is tuple for row in parsed.cells)


class TestDiagnostics:
    @pytest.mark.parametrize("name,exc_type,line,col", BAD_FILES)
    def test_malformed_file_reports_class_and_position(self, name, exc_type, line, col):
        with pytest.raises(exc_type) as exc:
            load_grid(GRIDS / "bad" / name)
        assert (exc.value.line, exc.value.col) == (line, col)
        assert str(exc.value) == f"line {line}, col {col}: {BAD_MESSAGES[name]}"

    def test_boundary_diagnostic_mentions_the_square(self):
        with pytest.raises(GridBoundaryViolation) as exc:
            parse_document("use \"../xm1.json\"\nsq A = (0, 0, 1, 0 ; 1)\ngrid:\nA\n", base_dir=GRIDS).grid
        assert "A" in str(exc.value)

    def test_duplicate_square_name(self):
        text = 'use "../xm1.json"\nsq A = (0,0,0,0;0)\nsq A = (1,0,1,0;1)\ngrid:\nA\n'
        with pytest.raises(DslSyntaxError) as exc:
            parse_document(text, base_dir=GRIDS).grid
        assert exc.value.line == 3

    def test_duplicate_elem_name(self):
        text = 'use "../xm1.json"\nelem x = G 0\nelem x = G 1\nsq A = (x,x,x,x;0)\ngrid:\nA\n'
        with pytest.raises(DslSyntaxError) as exc:
            parse_document(text, base_dir=GRIDS).grid
        assert exc.value.line == 3

    @pytest.mark.parametrize("name", ["0", "-1", "007"])
    def test_an_alias_named_like_an_index_is_rejected(self, name):
        # a reference to it would read as the index, so it could never be used
        text = f'use "../xm1.json"\nelem {name} = G 1\nsq A = ({name}, 0, {name}, 0 ; 0)\ngrid:\nA\n'
        with pytest.raises(DslSyntaxError) as exc:
            parse_document(text, base_dir=GRIDS)
        assert (exc.value.line, exc.value.col) == (2, 6)
        assert str(exc.value) == f"line 2, col 6: alias name {name!r} reads as an index"

    @pytest.mark.parametrize("atom", ["--1", "\u00b2"])
    def test_a_numeric_looking_atom_is_an_unknown_name(self, capsys, tmp_path, atom):
        path = tmp_path / "grid.xmg"
        path.write_text(f'use "{GRIDS.parent / "xm1.json"}"\nsq A = ({atom}, 0, 0, 0 ; 0)\ngrid:\nA\n')
        with pytest.raises(UnknownNameError) as exc:
            load_grid(path)
        assert (exc.value.line, exc.value.col) == (2, 9)
        assert main(["eval", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["line"], err["col"]) == ("UnknownNameError", 2, 9)
        assert err["message"] == f"line 2, col 9: unknown G element {atom!r}"

    @pytest.mark.parametrize("face, col", [("e", 23), ('"e"', 25)])
    def test_a_missing_token_is_reported_past_the_last_one(self, face, col):
        # a quoted name ends at its closing quote, two columns past its text
        text = f'use "../xm2.json"\nsq A = (0, 0, 0, 0 ; {face}\ngrid:\nA\n'
        with pytest.raises(DslSyntaxError) as exc:
            parse_document(text, base_dir=GRIDS).grid
        assert (exc.value.line, exc.value.col) == (2, col)
        assert str(exc.value) == f"line 2, col {col}: expected ')'"

    def test_unknown_square_in_grid(self):
        text = 'use "../xm1.json"\nsq A = (0,0,0,0;0)\ngrid:\nA B\n'
        with pytest.raises(UnknownNameError) as exc:
            parse_document(text, base_dir=GRIDS).grid
        assert (exc.value.line, exc.value.col) == (4, 3)

    def test_two_use_lines_rejected(self):
        text = 'use "../xm1.json"\nuse "../xm2.json"\nsq A = (0,0,0,0;0)\ngrid:\nA\n'
        with pytest.raises(DslSyntaxError):
            parse_document(text, base_dir=GRIDS).grid

    def test_alias_scope_is_enforced(self):
        # an H-alias cannot appear in an edge slot
        text = 'use "../xm1.json"\nelem f = H 1\nsq A = (f, 0, 0, 0 ; f)\ngrid:\nA\n'
        with pytest.raises(UnknownNameError) as exc:
            parse_document(text, base_dir=GRIDS).grid
        assert exc.value.line == 3

    def test_missing_file_in_use_line(self, tmp_path):
        text = 'use "nope.json"\nsq A = (0,0,0,0;0)\ngrid:\nA\n'
        with pytest.raises(DslSyntaxError) as exc:
            parse_document(text, base_dir=tmp_path).grid
        assert (exc.value.line, exc.value.col) == (1, 5)


class TestScannerEdgeCases:
    """Where a token starts and ends: separators, comments, quotes."""

    def parse_error(self, sq_line):
        text = f'use "../xm2.json"\n{sq_line}\ngrid:\nA\n'
        with pytest.raises(DslError) as exc:
            parse_document(text, base_dir=GRIDS).grid
        return type(exc.value), exc.value.line, exc.value.col, str(exc.value)

    def test_tabs_separate_tokens_and_count_one_column(self):
        text = 'use\t"../xm1.json"\nsq\tA\t=\t(0,\t0,\t0,\t0\t;\t0)\ngrid:\nA\tA\n'
        assert parse_document(text, base_dir=GRIDS).grid.n_cols == 2
        assert self.parse_error("sq\tA\t=\t(0,\t0,\t0,\t0\t;\tz)") == (
            UnknownNameError, 2, 22, "line 2, col 22: unknown H element 'z'"
        )

    def test_crlf_line_endings(self):
        text = (GRIDS / "xm1_2x2.xmg").read_text()
        crlf = text.replace("\n", "\r\n")
        assert parse_document(crlf, base_dir=GRIDS).grid == parse_document(text, base_dir=GRIDS).grid
        bad = 'use "../xm1.json"\r\nsq A = (0, 0, 0, 0 ; 0\r\ngrid:\r\nA\r\n'
        with pytest.raises(DslSyntaxError) as exc:
            parse_document(bad, base_dir=GRIDS).grid
        assert (exc.value.line, exc.value.col) == (2, 23)

    def test_hash_inside_a_quoted_name_is_part_of_the_name(self):
        assert self.parse_error('sq A = ("#", 0, 0, 0 ; 0)') == (
            UnknownNameError, 2, 9, "line 2, col 9: unknown G element '#'"
        )

    def test_hash_right_after_an_atom_starts_a_comment(self):
        text = 'use "../xm1.json"#m\nelem t = G 1#a\nsq A = (t,0,t,0;1)#s\ngrid:#g\nA#r\n'
        sq = parse_document(text, base_dir=GRIDS).grid.cells[0][0]
        assert (sq.left, sq.top, sq.right, sq.bottom, sq.face) == (1, 0, 1, 0, 1)

    def test_no_break_space_is_an_atom_character(self):
        assert self.parse_error("sq A = (0\u00a00, 0, 0, 0 ; 0)") == (
            UnknownNameError, 2, 9, "line 2, col 9: unknown G element '0\\xa00'"
        )

    @pytest.mark.parametrize(
        "text, line, col",
        [
            ('use "../xm1.json\n', 1, 5),
            ('use "../xm2.json"\nsq A = (0, 0, 0, 0 ; "e)\ngrid:\nA\n', 2, 22),
            ('use "../xm2.json"\nsq "A = (0, 0, 0, 0 ; 0)\ngrid:\nA\n', 2, 4),
        ],
    )
    def test_unterminated_string_points_at_its_quote(self, text, line, col):
        with pytest.raises(DslSyntaxError) as exc:
            parse_document(text, base_dir=GRIDS).grid
        assert (exc.value.line, exc.value.col) == (line, col)
        assert str(exc.value) == f"line {line}, col {col}: unterminated string"


class TestNamesAndAliases:
    def test_aliases_resolve_in_both_scopes(self):
        text = (
            'use "../xm1.json"\n'
            "elem t = G 1\n"
            "elem w = H 2\n"
            "sq A = (t, 0, t, 0 ; w)\n"
            "grid:\nA\n"
        )
        grid = parse_document(text, base_dir=GRIDS).grid
        sq = grid.cells[0][0]
        assert (sq.left, sq.top, sq.right, sq.bottom, sq.face) == (1, 0, 1, 0, 2)

    def test_quoted_group_element_names(self):
        # the symmetric fixture names its elements in cycle notation, which
        # only fits in quoted references
        text = (
            'use "../xm2.json"\n'
            'elem r = G "(123)"\n'
            'sq A = (r, "(12)", r, "(12)" ; "(123)")\n'
            "grid:\nA\n"
        )
        grid = parse_document(text, base_dir=GRIDS).grid
        sq = grid.cells[0][0]
        assert (sq.left, sq.top, sq.right, sq.bottom, sq.face) == (3, 2, 3, 2, 3)

    def test_unknown_quoted_name(self):
        text = 'use "../xm2.json"\nsq A = ("(99)", 0, 0, 0 ; 0)\ngrid:\nA\n'
        with pytest.raises(UnknownNameError):
            parse_document(text, base_dir=GRIDS).grid

    def test_document_square_names_preserved(self):
        doc = parse_document((GRIDS / "xm1_2x2.xmg").read_text(), base_dir=GRIDS)
        assert doc.xmod_ref == "../xm1.json"
        assert set(doc.square_names) == {"A", "B"}

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# leading comment\n\n"
            'use "../xm1.json"  # trailing comment\n'
            "sq A = (0,0,0,0;0)\n\n"
            "grid:  # the layout\n"
            "A  # one cell\n"
        )
        assert parse_document(text, base_dir=GRIDS).grid.n_rows == 1


class TestSerializeFormat:
    def test_canonical_form_uses_bare_indices_in_first_use_order(self, xm1):
        sq_a = make_square(xm1, 1, 0, 1, 0, 1)
        sq_b = make_square(xm1, 1, 0, 1, 0, 2)
        grid = QuintetGrid([[sq_a, sq_b], [sq_b, sq_a]])
        text = serialize_grid(grid, "../xm1.json")
        lines = text.splitlines()
        assert lines[0] == 'use "../xm1.json"'
        assert lines[1] == "sq s0 = (1, 0, 1, 0 ; 1)"
        assert lines[2] == "sq s1 = (1, 0, 1, 0 ; 2)"
        assert lines[3] == "grid:"
        assert lines[4:] == ["s0 s1", "s1 s0"]

    def test_grid_to_obj_shape(self, xm1):
        grid = QuintetGrid([[make_square(xm1, 0, 0, 0, 0, 0)]])
        obj = grid_to_obj(grid, "xm1.json")
        assert obj["xmod"] == "xm1.json"
        assert obj["cells"] == [[{"l": 0, "t": 0, "r": 0, "b": 0, "e": 0}]]


# --- the sq fast path against the token walk ---------------------------------

# the line a corpus sq line takes in EQUIV_TEXT; the walk alone reads it with
# the same aliases and the same earlier square D
EQUIV_TEXT = 'use "../xm2.json"\nelem a = G 1\nelem w = H "(12)"\nsq D = (0, 0, 0, 0 ; 0)\n{}\ngrid:\nA\n'
EQUIV_LINENO = 5
EQUIV_ALIASES = {"a": ("G", 1), "w": ("H", 2)}
# other spellings of an index, by scope: a signed zero, aliases, bare and
# quoted names
SPELLINGS = {
    ("G", 0): ("-0", "e", '"e"'), ("G", 1): ("a", '"(23)"'), ("G", 2): ('"(12)"',),
    ("H", 0): ("-0", "e", '"e"'), ("H", 2): ("w", '"(12)"'),
}
# references that mostly do not resolve: out of range, zero-padded, negative,
# the other scope's alias, a quoted "#", unquoted punctuation, unknown names
ODD_REFS = ("6", "99", "007", "-1", "a", "w", '"#"', '"a # b"', "(12)", "zz", '"(99)"')
SEPARATORS = ("", "", " ", " ", "\t", "  ", " \t")
GOOD_ENDINGS = ("", "", " ", "  # trailing comment", "#c", '\t# "quoted')
BAD_ENDINGS = (" x", " )", ' "q"', ' "', " ;")


def corpus_sq_line(rng: random.Random, k: SquareKernel) -> str:
    """An sq line over xm2: a bottom edge that is forced about half the time,
    indices mostly in canonical form, and now and then another spelling, a
    reference that does not resolve, a duplicate name, a dropped or repeated
    token or a bad ending."""
    vals = [rng.randrange(6) for _ in range(5)]
    if rng.random() < 0.5:
        vals[3] = k.square(vals[0], vals[1], vals[2], vals[4])[3]
    refs = []
    for scope, v in zip("GGGGH", vals):
        r = rng.random()
        spellings = SPELLINGS.get((scope, v))
        if r < 0.1 and spellings:
            refs.append(rng.choice(spellings))
        else:
            refs.append(rng.choice(ODD_REFS) if r > 0.95 else str(v))
    name = "D" if rng.random() < 0.05 else "A"
    toks = [name, "=", "(", refs[0], ",", refs[1], ",", refs[2], ",", refs[3], ";", refs[4], ")"]
    if rng.random() < 0.05:
        del toks[rng.randrange(len(toks))]
    if rng.random() < 0.03:  # never the name, which could become "AA"
        i = rng.randrange(1, len(toks))
        toks.insert(i, toks[i])
    # "sq" and the name always stay apart, so the head is always sq
    head = rng.choice(("", " ", "\t")) + "sq" + rng.choice((" ", "\t", "  "))
    body = "".join(t + rng.choice(SEPARATORS) for t in toks)
    return head + body + rng.choice(BAD_ENDINGS if rng.random() < 0.05 else GOOD_ENDINGS)


def outcome(parse):
    """parse()'s square, or its error's class, message, line and column."""
    try:
        return parse()
    except DslError as exc:
        return type(exc), str(exc), exc.line, exc.col


class TestSqFastPath:
    """A well-formed sq line is read by one regex match; every line must give
    what the token walk gives on its own."""

    def walk_alone(self, line, k):
        squares = {"D": (0, 0, 0, 0, 0)}
        lp = _LineParser(_tokenize(line, EQUIV_LINENO), EQUIV_LINENO)
        assert lp.take("atom", "directive")[1] == "sq"
        _walk_sq(lp, k, dict(EQUIV_ALIASES), squares)
        return squares["A"].as_tuple()

    def through_document(self, line):
        return parse_document(EQUIV_TEXT.format(line), base_dir=GRIDS).grid.cells[0][0].as_tuple()

    def test_seeded_corpus_reads_as_the_walk_reads_it(self, xm2):
        k = SquareKernel(xm2)
        rng = random.Random(2024)
        lines = [corpus_sq_line(rng, k) for _ in range(2400)]
        for line in lines:
            assert outcome(lambda: self.through_document(line)) == outcome(
                lambda: self.walk_alone(line, k)
            ), line
        # both paths are exercised, and on both outcomes
        fast = [line for line in lines if _SQ_LINE.fullmatch(line)]
        assert 0.3 < len(fast) / len(lines) < 0.9
        results = [outcome(lambda: self.walk_alone(line, k)) for line in fast]
        kinds = {r[0] if isinstance(r[0], type) else "ok" for r in results}
        assert kinds == {"ok", GridBoundaryViolation, UnknownNameError, DslSyntaxError}

    @pytest.mark.parametrize(
        "line",
        [
            "sq\tA\t=\t(0,\t0,\t0,\t0\t;\t0)",
            "sq A=(1,2,3,0;0)",
            'sq A = ("(12)", "e", "(12)", "e" ; "e")  # quoted',
            'sq A = (a, "#", 0, 0 ; w)',
            "sq A = (007, -0, 0, 0 ; 0)",
            "sq A = (0, 0, 0, 0 ; 6)",
            "sq D = (0, 0, 0, 0 ; 0)",
            "sq A = (0, 0, 0, 1 ; 0)",
            "sq A = (0, 0, 0, 0 ; 0) x",
            "sq A = (0, 0, 0, 0 ; 0",
            "sq A = (0, 0, 0 ; 0)",
        ],
    )
    def test_named_cases(self, xm2, line):
        k = SquareKernel(xm2)
        assert outcome(lambda: self.through_document(line)) == outcome(lambda: self.walk_alone(line, k))

    def test_a_face_index_is_read_in_h(self, tmp_path):
        # Z/4 over the trivial group: face 1 is an index of G but not of H
        xm = xmod_trivial_boundary(trivial_action(cyclic(4), cyclic(1)))
        write_json(xmod_to_obj(xm), tmp_path / "xm.json")
        text = 'use "xm.json"\nsq A = (1, 0, 1, 0 ; 1)\ngrid:\nA\n'
        with pytest.raises(UnknownNameError) as exc:
            parse_document(text, base_dir=tmp_path)
        assert str(exc.value) == "line 2, col 22: index 1 out of range for a group of order 1"


# grid rows over xm1, below five declared squares: A and C meet themselves on
# every side, Dd and E have top edge 1, and P\xa0Q (a no-break space, which
# str.split would split and _ATOM does not) is a copy of C
ROW_HEAD = (
    'use "../xm1.json"\nsq A = (1, 0, 1, 0 ; 1)\nsq C = (0, 0, 0, 0 ; 0)\n'
    "sq Dd = (0, 1, 0, 1 ; 0)\nsq E = (1, 1, 1, 1 ; 0)\nsq P\xa0Q = (0, 0, 0, 0 ; 0)\n"
)
ROW_A, ROW_C = (1, 0, 1, 0, 1), (0, 0, 0, 0, 0)
ROW_CASES = {  # grid section -> cells, or the error's class, line, column and message
    "unknown name": ("grid:\nC C C\nC Zz C\n", (UnknownNameError, 9, 3, "unknown square 'Zz'")),
    "one cell too many": ("grid:\nC C\nC C C\n", (DslSyntaxError, 9, 1, "row has 3 cells, expected 2")),
    "one cell too few": ("grid:\nA A A\n  A A\n", (DslSyntaxError, 9, 3, "row has 2 cells, expected 3")),
    "left/right mismatch": (
        "grid:\nC C C\nC  C A\n",
        (GridAdjacencyViolation, 9, 6, "left edge 1 does not match neighbour's right edge 0"),
    ),
    "top/bottom mismatch": (
        "grid:\nC C C\nC Dd C\n",
        (GridAdjacencyViolation, 9, 3, "top edge 1 does not match the edge above 0"),
    ),
    "trailing comment": ("grid:\nA A  # note\nA A# x\n", [[ROW_A] * 2] * 2),
    "trailing comment, bad row": (
        "grid:\nA A\nA C # note\n",
        (GridAdjacencyViolation, 9, 3, "left edge 0 does not match neighbour's right edge 1"),
    ),
    "tabs": ("grid:\nA\tA\n\tA \tA\t\n", [[ROW_A] * 2] * 2),
    "tabs, bad row": (
        "grid:\nC\tC\nC\t\tDd\n",
        (GridAdjacencyViolation, 9, 4, "top edge 1 does not match the edge above 0"),
    ),
    # splitlines, not the row reader, breaks a line at \f
    "form feed": ("grid:\nA\fA\n", [[ROW_A]] * 2),
    "form feed, bad row": ("grid:\nA A\nA\fA\n", (DslSyntaxError, 9, 1, "row has 1 cells, expected 2")),
    "no-break space in a name": ("grid:\nP\xa0Q C\nC P\xa0Q\n", [[ROW_C] * 2] * 2),
    "no-break space between known names": (
        "sq P = (0,0,0,0;0)\nsq Q = (0,0,0,0;0)\ngrid:\nC C\nP\xa0Q\n",
        (DslSyntaxError, 11, 1, "row has 1 cells, expected 2"),
    ),
    "no-break space, unknown": ("grid:\nQ\xa0P\n", (UnknownNameError, 8, 1, "unknown square 'Q\\xa0P'")),
    "unit separator in a name": ("sq P\x1fQ = (0,0,0,0;0)\ngrid:\nP\x1fQ C\nC P\x1fQ\n", [[ROW_C] * 2] * 2),
    "blank rows": ("grid:\n\nA A\n  \n\t\nA A\n\n", [[ROW_A] * 2] * 2),
}


def row_outcome(body):
    """The cells of ROW_HEAD + body as tuples, or its error's class, line,
    column and message (without its position prefix)."""
    try:
        grid = parse_document(ROW_HEAD + body, base_dir=GRIDS).grid
    except DslError as exc:
        return type(exc), exc.line, exc.col, str(exc).split(": ", 1)[1]
    return [[sq.as_tuple() for sq in row] for row in grid.cells]


ROW_NAMES = ("A", "A", "C", "C", "Dd", "E", "Zz", "P\xa0Q", '"C"', "A#", "(", "AC")
ROW_SEPARATORS = (" ", " ", "\t", "  ", " \t", "")
ROW_ENDINGS = ("", "", " ", "\t", "  # note", "#c")


def corpus_row(rng: random.Random) -> str:
    """A row to read below C C C: most often A A A or C C C, else names drawn
    from ROW_NAMES, some unknown or not a name at all, with odd separators."""
    if rng.random() < 0.5:
        names = [rng.choice("AC")] * 3
    else:
        names = [rng.choice(ROW_NAMES) for _ in range(rng.choice((2, 3, 3, 4)))]
    seps = [rng.choice(ROW_SEPARATORS) if rng.random() < 0.2 else " " for _ in names[1:]]
    body = names[0] + "".join(sep + name for sep, name in zip(seps, names[1:]))
    return rng.choice(("", "", " ", "\t")) + body + rng.choice(ROW_ENDINGS)


class TestGridRows:
    """A well-formed grid row is read in one step; every row must give what
    the token walk gives, with the same error class, line, column and
    message."""

    @pytest.mark.parametrize("body, want", ROW_CASES.values(), ids=ROW_CASES.keys())
    def test_named_cases(self, body, want):
        assert row_outcome(body) == want

    def test_seeded_corpus_reads_as_the_walk_reads_it(self, xm1):
        squares = {
            name: make_square(xm1, *sq)
            for name, sq in (("A", ROW_A), ("C", ROW_C), ("Dd", (0, 1, 0, 1, 0)),
                             ("E", (1, 1, 1, 1, 0)), ("P\xa0Q", ROW_C))
        }
        above = [[squares["C"]] * 3]

        def walked(line):
            try:
                row = _walk_row(_LineParser(_tokenize(line, 9), 9), squares, above)
            except DslError as exc:
                return type(exc), exc.line, exc.col, str(exc).split(": ", 1)[1]
            return [[sq.as_tuple() for sq in r] for r in above + [row]]

        rng = random.Random(21)
        lines = [corpus_row(rng) for _ in range(1500)]
        for line in lines:
            assert row_outcome(f"grid:\nC C C\n{line}\n") == walked(line), repr(line)
        # both readers are exercised, on good rows and on bad ones
        fast = [line for line in lines if _read_row(line, squares, above) is not None]
        assert 0.2 < len(fast) / len(lines) < 0.6
        kinds = {r[0] if isinstance(r[0], type) else "ok" for r in map(walked, lines)}
        assert kinds == {"ok", DslSyntaxError, UnknownNameError, GridAdjacencyViolation}
