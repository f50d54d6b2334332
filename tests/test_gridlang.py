import json
from pathlib import Path

import pytest

from xmodcat.cli import main
from xmodcat.gridlang import (
    DslError,
    DslSyntaxError,
    GridAdjacencyViolation,
    GridBoundaryViolation,
    UnknownNameError,
    grid_from_obj,
    grid_to_obj,
    load_grid,
    parse_document,
    serialize_grid,
)
from xmodcat.quintet import QuintetGrid, evaluate_grid, make_square, random_grid

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
        import random

        grid = random_grid(xm2, 2, 3, random.Random(11))
        obj = grid_to_obj(grid, "../xm2.json")
        back = grid_from_obj(json.loads(json.dumps(obj)), base=GRIDS)
        assert back == grid

    def test_random_grids_round_trip_through_the_dsl(self, xm1):
        import random

        rng = random.Random(3)
        for _ in range(20):
            grid = random_grid(xm1, rng.randrange(1, 4), rng.randrange(1, 4), rng)
            text = serialize_grid(grid, "../xm1.json")
            assert parse_document(text, base_dir=GRIDS).grid == grid


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


class TestDiagnostics:
    @pytest.mark.parametrize("name,exc_type,line,col", BAD_FILES)
    def test_malformed_file_reports_class_and_position(self, name, exc_type, line, col):
        with pytest.raises(exc_type) as exc:
            load_grid(GRIDS / "bad" / name)
        assert (exc.value.line, exc.value.col) == (line, col)

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
